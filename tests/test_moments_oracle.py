"""The buffered DID moments against the array-per-step reference, bit for bit.

``inference.contrast_moments`` computes each group's mean and variance in
one reused weight buffer and one scratch buffer; ``moments_oracle`` is the
arithmetic it replaced, a fresh array for every product.  The elementwise
operations and the sums are the same, so every contrast and variance must
come out with the reference's bits and sign, and every rejected input
with the reference's error.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moments_oracle
from antebounds.inference import contrast_moments

TINY = 2.2250738585072014e-308  # the smallest normal float64
SPECIAL = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY, -TINY]),
    st.floats(-TINY, TINY),  # subnormals
    st.floats(1e299, 1e301),
    st.floats(-1e301, -1e299),
    st.floats(1e-301, 1e-299),
    st.floats(allow_nan=False, allow_infinity=False),
)
SCALES = st.sampled_from([1.0, 1e-5, 1e-300, 1e150])


@st.composite
def samples(draw):
    """(dy, d): one sample of n units, or k stacked samples as a (k, n) block."""
    k = draw(st.one_of(st.none(), st.integers(1, 4)))
    n = draw(st.integers(2, 24))
    shape = (n,) if k is None else (k, n)
    size = math.prod(shape)
    scale = draw(SCALES)
    ordinary = st.floats(-1e3, 1e3).map(lambda v: v * scale)
    values = st.one_of(ordinary, ordinary, SPECIAL)
    dy = draw(st.lists(values, min_size=size, max_size=size))
    d = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return np.array(dy).reshape(shape), np.array(d).reshape(shape)


def _outcome(fn, dy, d):
    try:
        return fn(dy, d)
    except ValueError as err:
        return str(err)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for a, b in zip(got, want, strict=True):
        assert np.shape(a) == np.shape(b)
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


PAIR = ([1.0, -2.0, 0.5, 3.0], [True, True, False, False])  # both groups of exactly 2


class TestBufferedMoments:
    @settings(max_examples=400, deadline=None)
    @given(samples())
    @example((np.array(PAIR[0]), np.array(PAIR[1])))
    @example((np.array([-0.0, -0.0, 0.0, -0.0]), np.array(PAIR[1])))
    @example((np.array([5e-324, -5e-324, TINY, 1e-310]), np.array(PAIR[1])))
    @example((np.array([1e300, -1e300, 1e-300, -1e300]), np.array(PAIR[1])))
    @example((np.array([[1e308, 1e308, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0]]), np.array([PAIR[1]] * 2)))
    @example((np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.array([[1, 1, 0], [1, 0, 0]], bool)))
    def test_same_bits_and_errors_as_reference(self, sample):
        dy, d = sample
        want = _outcome(moments_oracle.contrast_moments, dy, d)
        _assert_same(_outcome(contrast_moments, dy, d), want)

    @pytest.mark.parametrize("scale", [1.0, 1e-5, 1e-300, 1e150])
    def test_long_rows_and_blocks(self, scale):
        # long enough that the sums are pairwise over several blocks
        rng = np.random.default_rng(19)
        for shape in ((20_011,), (32, 500)):
            dy = rng.standard_normal(shape) * scale
            for d in (rng.random(shape) < 0.3, (rng.random(shape) < 0.6).astype(np.int64)):
                _assert_same(contrast_moments(dy, d), moments_oracle.contrast_moments(dy, d))

    @pytest.mark.parametrize(
        "dy, d",
        [
            ([1e308, 1e308, 0.0, 1.0], PAIR[1]),  # the treated mean overflows
            ([1e200, -1e200, 0.0, 1.0], PAIR[1]),  # only its variance does
            ([1.0, 2.0, 3.0, 4.0], [True, False, False, False]),
            ([1.0, 2.0, 3.0, 4.0], [True, True, True, False]),
            ([[1.0, 2.0, 3.0, 4.0]] * 2, [PAIR[1], [False] * 4]),
        ],
    )
    def test_same_errors(self, dy, d):
        want = _outcome(moments_oracle.contrast_moments, dy, d)
        assert isinstance(want, str)
        with pytest.raises(ValueError) as got:
            contrast_moments(dy, d)
        assert str(got.value) == want
