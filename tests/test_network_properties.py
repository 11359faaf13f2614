"""Property checks of the pruned network build against the all-pairs one.

Random networks of rectangles, axis-aligned or turned about a coordinate
axis, with corners on a coarse grid so that traces often cross, end on
each other, share a line or lie in one plane.  ``build_network`` must
give the lines and points of ``build_network_ref``, or raise the same
error.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dfnvem import geometry as geo

from _util import build_network_ref, network_outcome

STEPS = np.linspace(0.25, 0.75, 17).tolist()
HALF = [0.25, 0.5]
ANGLES = [0.0, 0.0, np.pi / 6, np.pi / 4, np.pi / 2]


def turn(axis: int, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about coordinate axis ``axis``."""
    c, s = np.cos(angle), np.sin(angle)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    r = np.eye(3)
    r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
    return r


@st.composite
def rectangles(draw):
    """A rectangle about a grid point, turned about an axis through it."""
    center = np.array([draw(st.sampled_from(STEPS)) for _ in range(3)])
    normal = draw(st.integers(0, 2))
    a, b = (draw(st.sampled_from(HALF)) for _ in range(2))
    u, v = np.eye(3)[(normal + 1) % 3], np.eye(3)[(normal + 2) % 3]
    quad = np.array([-a * u - b * v, a * u - b * v, a * u + b * v, -a * u + b * v])
    rot = turn(draw(st.integers(0, 2)), draw(st.sampled_from(ANGLES)))
    return center + quad @ rot.T


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(rectangles(), min_size=1, max_size=7))
def test_pruned_build_equals_all_pairs(quads):
    fractures = [geo.Fracture(id=i, vertices=q) for i, q in enumerate(quads)]
    assert (network_outcome(geo.build_network, fractures)
            == network_outcome(build_network_ref, fractures))
