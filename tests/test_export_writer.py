"""The array number writer of ``postprocess`` against ``%`` formatting.

``postprocess._write`` must give, for every value, exactly the bytes of
``'%.16g' % v`` (floats) or ``'%d' % v`` (integers) followed by its
separator.  Derandomized ``hypothesis`` properties draw any float64 and
any int64; fixed lists cover the powers of ten with their neighbours and
the integers where the digit count changes.  The ``slow`` sweep compares
about four million doubles: every binary exponent, and the dyadic values
whose exact decimal expansion ends in a tie at the 17th digit.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfnvem import postprocess as post

SEPS = [b" ", b"\n", b",", b"\r\n"]
SPECIAL = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
           -5e-324, 2.2250738585072014e-308, 1e300, -1e-300, 1e-7, 1e16,
           9999999999999998.0, 0.5, -1234567890123456.5]


def written(values, seps) -> bytes:
    fh = io.BytesIO()
    post._write(fh, values, np.array(seps, "S2"))
    return fh.getvalue()


def percent(values, seps) -> bytes:
    """One ``%`` per value, each followed by its separator."""
    fmt = "%.16g" if values.dtype.kind == "f" else "%d"
    return ("".join(fmt + s.decode() for s in seps)
            % tuple(values.ravel().tolist())).encode()


def assert_writes_like_percent(values, seps=None):
    values = np.asarray(values)
    if seps is None:
        seps = [SEPS[i % len(SEPS)] for i in range(values.size)]
    assert written(values, seps) == percent(values, seps)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.floats(width=64), st.sampled_from(SPECIAL)),
                min_size=1, max_size=60),
       st.lists(st.sampled_from(SEPS), min_size=60, max_size=60))
def test_writer_equals_percent_on_any_float(values, seps):
    assert_writes_like_percent(np.array(values, np.float64),
                               seps[:len(values)])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1),
                          st.integers(-10**5, 10**5)),
                min_size=1, max_size=60),
       st.lists(st.sampled_from(SEPS), min_size=60, max_size=60))
def test_writer_equals_percent_on_any_int(values, seps):
    assert_writes_like_percent(np.array(values, np.int64), seps[:len(values)])


def test_writer_at_powers_of_ten():
    """Every power of ten from 1e-300 to 1e17, two doubles either side of
    it, both signs: where ``log10`` may miss by one, a carry moves the
    exponent and the scaled value comes nearest to ``10^15``."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 18)])
    near = [powers]
    for direction in (-np.inf, np.inf):
        step = powers
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    values = np.concatenate(near)
    assert_writes_like_percent(np.concatenate([values, -values]))


def test_writer_at_integer_digit_edges():
    edges = [v for k in range(19) for v in (10**k - 1, 10**k)]
    edges += [2**63 - 1, -2**63]
    assert_writes_like_percent(np.array(edges + [-v for v in edges[:-1]],
                                        np.int64))


def test_writer_across_chunks():
    """Several chunks of random bit patterns and of small integers, with
    a separator per value and per column."""
    rng = np.random.default_rng(7)
    n = 3 * post._CHUNK + 5
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    assert_writes_like_percent(bits.view(np.float64),
                               [SEPS[i] for i in rng.integers(0, 4, n)])
    ints = rng.integers(-30, 10**6, (n, 3))
    seps = [b" ", b" ", b"\n"]
    assert written(ints, seps) == percent(ints, seps * n)


@pytest.mark.parametrize("values", [np.zeros(0), np.zeros(0, np.int64)])
def test_writer_writes_nothing_for_no_values(values):
    assert written(values, [b"\n"]) == b""


def exponent_sweep(rng, per_exponent: int) -> np.ndarray:
    """``per_exponent`` random mantissas at each biased binary exponent,
    subnormals included, with random signs."""
    exps = np.repeat(np.arange(2047, dtype=np.uint64), per_exponent)
    mant = rng.integers(0, 2**52, len(exps), dtype=np.uint64)
    sign = rng.integers(0, 2, len(exps), dtype=np.uint64)
    return ((sign << np.uint64(63)) | (exps << np.uint64(52)) | mant).view(
        np.float64)


def dyadic_ties(rng, per_shift: int) -> np.ndarray:
    """``m / 2^j``, ``m`` odd, whose exact decimal expansion ``m 5^j``
    has 17 significant digits and so ends in a tie (the 5 of an odd
    multiple of 5) at the 17th: up to ``per_shift`` of them for each
    ``j`` from 1 to 23, with the doubles either side of each."""
    ties = []
    for j in range(1, 24):
        low = -(-10**16 // 5**j)
        high = min((10**17 - 1) // 5**j + 1, 2**53)
        if (high - low) // 2 > per_shift:
            half = rng.integers(low // 2, (high + 1) // 2, per_shift)
        else:
            half = np.arange(low // 2, (high + 1) // 2)
        odd = 2 * half + 1
        ties.append(odd[(odd >= low) & (odd < high)] / 2.0**j)
    ties = np.concatenate(ties)
    return np.concatenate([ties, np.nextafter(ties, 0.0),
                           np.nextafter(ties, np.inf)])


@pytest.mark.slow
def test_writer_sweep_against_percent():
    rng = np.random.default_rng(2024)
    ties = dyadic_ties(rng, 20_000)
    values = np.concatenate([exponent_sweep(rng, 1_000), ties, -ties])
    assert len(values) > 4_000_000
    for start in range(0, len(values), 1 << 18):
        chunk = values[start:start + (1 << 18)]
        assert_writes_like_percent(chunk, [b"\n"] * len(chunk))
