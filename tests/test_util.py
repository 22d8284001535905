"""exact_sum against math.fsum: bit for bit, sign of zero included, and NaN
wherever math.fsum raises."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hkverify._util import exact_sum, fsum

DBL_MAX = np.finfo(float).max


def fsum_outcome(x):
    """math.fsum's bits, or NaN where it raises (an overflow, or inf - inf)."""
    try:
        return struct.pack("<d", math.fsum(np.asarray(x, dtype=float).ravel().tolist()))
    except (OverflowError, ValueError):
        return struct.pack("<d", math.nan)


def assert_same_as_fsum(x):
    x = np.asarray(x, dtype=float)
    before = x.copy()
    got, want = struct.pack("<d", exact_sum(x)), fsum_outcome(x)
    if math.isnan(struct.unpack("<d", want)[0]):
        assert math.isnan(struct.unpack("<d", got)[0])
    else:
        assert got == want
    assert np.array_equal(x, before, equal_nan=True)  # the input is left alone


def signed(magnitude):
    return st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# mantissa in [1, 2) times 2^e, |e| <= 60
wide = signed(st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                        st.integers(-60, 60)))
subnormal = signed(st.floats(0.0, 2.0 ** -1022, allow_subnormal=True))
huge = signed(st.floats(2.0 ** 990, DBL_MAX))


class TestExactSum:
    @given(st.lists(wide, max_size=400), st.integers(0, 400), st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_wide_magnitudes_with_cancellations(self, values, planted, rnd):
        # negated copies cancel exactly, so the result rests on the remainder
        values = values + [-v for v in values[:planted]]
        rnd.shuffle(values)
        assert_same_as_fsum(values)

    @given(st.lists(st.one_of(subnormal, wide, st.just(2.0 ** -1022)), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_subnormals(self, values):
        assert_same_as_fsum(values)
        assert_same_as_fsum([v * 2.0 ** -1000 for v in values if abs(v) < 2.0 ** 60])

    @given(st.lists(st.one_of(huge, wide), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_near_dbl_max(self, values):
        # fsum rounds these or raises OverflowError; the fallback rounds them
        # the same way or returns NaN
        assert_same_as_fsum(values)

    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
    @settings(max_examples=300, deadline=None)
    def test_any_float_array(self, x):
        assert_same_as_fsum(x)

    @pytest.mark.parametrize("values", [
        [], np.zeros((0, 3)), [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0],
        [np.inf], [np.inf, 1.0], [np.inf, -np.inf], [np.nan, 1.0],
        [DBL_MAX, DBL_MAX], [DBL_MAX, DBL_MAX, -DBL_MAX], [2.0 ** 999, 1.0],
        [5e-324, 5e-324, -1e-323], np.full((3, 4), 0.1), np.arange(12.0).reshape(3, 2, 2),
    ])
    def test_edge_cases(self, values):
        assert_same_as_fsum(values)

    @pytest.mark.parametrize("k", [1, 7, 17, 22])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_level_boundaries(self, k, offset):
        # N terms take the most bits per level with N * 2^bits <= 2^53, which
        # changes at powers of two.  Terms just below 1 with odd low bits
        # bring each level sum as near 2^53 grid steps as the count allows,
        # so a level taking one bit more than that would round its sum.
        size = (1 << k) + offset
        rng = np.random.default_rng(size)
        x = 1.0 - rng.integers(1, 1 << 30, size) * 2.0 ** -53
        assert_same_as_fsum(x)
        assert_same_as_fsum(-x)

    @pytest.mark.parametrize("size", [1 << 22, (1 << 22) + 1])
    def test_size_limit(self, size):
        # the last size the extraction handles, with the largest level sums
        # it can see, and the first size that falls back
        rng = np.random.default_rng(size)
        x = (1.0 - rng.random(size) * 2.0 ** -20) * rng.choice([-1.0, 1.0], size)
        x[: size // 2] = 1.0 - 2.0 ** -53
        assert_same_as_fsum(x)


class TestOverflowRule:
    @pytest.mark.parametrize("values", [[DBL_MAX, DBL_MAX], [-DBL_MAX, -DBL_MAX, 1.0],
                                        [np.inf, -np.inf], [np.inf, 1.0, -np.inf]])
    def test_nan_where_fsum_raises(self, values):
        # one rule for every sum: a partial sum past the float range, or
        # inf - inf, is NaN from fsum and from exact_sum, never an exception
        with pytest.raises((OverflowError, ValueError)):
            math.fsum(values)
        assert math.isnan(fsum(values)) and math.isnan(exact_sum(np.array(values)))

    @pytest.mark.parametrize("values", [[], [-0.0], [1e308, -1e308, 1.0], [np.inf, 1.0],
                                        [np.nan, 1.0], [0.1] * 10])
    def test_fsum_is_math_fsum_elsewhere(self, values):
        assert struct.pack("<d", fsum(values)) == struct.pack("<d", math.fsum(values)) or (
            math.isnan(fsum(values)) and math.isnan(math.fsum(values)))
