"""The float field kernel of ``postprocess`` against ``%`` formatting.

``postprocess._float_fields`` must give, for every float64, exactly the
24 bytes of ``b"%24.15e" % v``.  A derandomized ``hypothesis`` property
draws any float64; fixed lists cover the powers of ten with their
neighbours, the 16-digit carries, the exponents where the field changes
width, the special values and several chunks of the file writer.  The
``slow`` sweep compares about four million doubles: every binary
exponent, and the dyadic values whose exact decimal expansion ends in a
tie at the 17th digit.  Integers need no kernel: they are written by
``%`` itself.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfnvem import postprocess as post

SPECIAL = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
           -5e-324, 2.2250738585072014e-308, 1e300, -1e-300, 1e-7, 1e16,
           9999999999999998.0, 0.5, -1234567890123456.5]


def percent(values) -> bytes:
    """One ``b"%24.15e" %`` per value."""
    return b"".join(b"%24.15e" % v for v in np.ravel(values).tolist())


def assert_fields_like_percent(values):
    values = np.asarray(values, np.float64)
    fields = post._float_fields(values)
    assert fields.shape == (len(values), 24)
    assert fields.tobytes() == percent(values)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(width=64), st.sampled_from(SPECIAL)),
                min_size=1, max_size=60))
def test_writer_equals_percent_on_any_float(values):
    assert_fields_like_percent(values)


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
    assert_fields_like_percent(np.concatenate([values, -values]))


def test_fields_at_sixteen_digit_carries():
    """Values whose 16 digits end in ``j`` nines and whose 17th is a 7:
    rounding carries through all ``j`` (to ``2.000000000000000`` for
    ``j = 15``).  The carries that move the exponent are those of the
    powers of ten, above."""
    values, carried = [], []
    for j in range(1, 16):
        digits = "1" + "2" * (15 - j) + "9" * j + "7"
        for k in range(-99, 16, 7):
            values.append(float(f"{digits[0]}.{digits[1:]}e{k}"))
            carried.append(j)
    for v, j in zip(values, carried):
        assert (b"%.15e" % v).split(b"e")[0].endswith(b"0" * j)
    assert_fields_like_percent(values + [-v for v in values])


def test_fields_at_exponent_width_edges():
    """Exponents +-99 have two digits and +-100 three: the kernel writes
    the first, ``%`` the second, and every value beside them."""
    edges = np.array([1e-99, 9.999999999999999e-99, 1e99, 9.99e99, 1e100,
                      1e-100, 9.999999999999999e-100, 1.5e-100, 1e-101])
    values = np.concatenate([edges, np.nextafter(edges, 0.0),
                             np.nextafter(edges, np.inf)])
    assert_fields_like_percent(np.concatenate([values, -values]))


def test_fields_at_special_values():
    """+-0, nan, +-inf and subnormals, each alone and among others."""
    sub = np.array([5e-324, 1e-320, 2.225073858507201e-308])
    values = np.concatenate([SPECIAL, sub, -sub, [np.nan, -0.0, 0.0]])
    assert_fields_like_percent(values)
    for v in values:
        assert_fields_like_percent([v])
    assert_fields_like_percent(np.zeros(0))


def test_writer_across_chunks():
    """Columns and rows of three of random bit patterns, several chunks
    of them, each row written as its fields and a newline."""
    rng = np.random.default_rng(7)
    n = 3 * post._CHUNK + 5
    bits = rng.integers(0, 2**64, (n, 3), dtype=np.uint64, endpoint=False)
    for values in (bits[:, 0].view(np.float64), bits.view(np.float64)):
        fh = io.BytesIO()
        post._write_floats(fh, values)
        assert fh.getvalue() == b"".join(percent(row) + b"\n"
                                         for row in values)


@pytest.mark.parametrize("values", [np.zeros(0), np.zeros(0, np.int64)])
def test_writer_writes_nothing_for_no_values(values):
    fh = io.BytesIO()
    if values.dtype.kind == "f":
        post._write_floats(fh, values)
    else:
        post._write_ints(fh, values, values, {})
    assert fh.getvalue() == b""


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
        assert_fields_like_percent(values[start:start + (1 << 18)])
