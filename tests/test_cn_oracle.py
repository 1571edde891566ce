"""The array C_n solver against the scalar reference, bit for bit.

``critical_value_cn`` solves every element of its arrays in one
elementwise bisection; ``cn_oracle.critical_value_cn`` is the scalar
solver it replaced.  Each element must come out with the reference's
bits, and a sensitivity sweep (one C_n call for the whole grid) must give
the rows that the scalar reference ``sets_oracle`` gives point by point.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cn_oracle
import sets_oracle
from antebounds.bounds import SignRegime, sensitivity_sweep
from antebounds.inference import critical_value_cn

ALPHAS = st.sampled_from([0.51, 0.8, 0.9, 0.95, 0.99, 0.999])
# width/se ratios: exactly 0, ordinary, and above 40 (C_n pinned at the
# one-sided quantile)
RATIOS = st.one_of(st.just(0.0), st.floats(0.0, 40.0), st.floats(40.0, 1e6))
SES = st.floats(1e-6, 1e3)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestArraySolver:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(RATIOS, SES), max_size=40), ALPHAS)
    @example([], 0.95)
    @example([(0.0, 1.0)], 0.95)
    @example([(41.0, 1.0)], 0.51)
    @example([(0.0, 0.5), (0.0, 2.0), (1e6, 1e-6)], 0.999)
    def test_same_bits_as_scalar_solver(self, pairs, alpha):
        width = np.array([r * se for r, se in pairs])
        se = np.array([se for _, se in pairs])
        roots = critical_value_cn(width, se, alpha)
        assert roots.shape == (len(pairs),)
        expected = [
            cn_oracle.critical_value_cn(w, s, alpha) for w, s in zip(width.tolist(), se.tolist())
        ]
        assert _hex(roots) == _hex(expected)

    @pytest.mark.parametrize("alpha", [0.6, 0.95])
    def test_scalar_in_float_out(self, alpha):
        c = critical_value_cn(0.7, 0.3, alpha)
        assert type(c) is float
        assert c.hex() == cn_oracle.critical_value_cn(0.7, 0.3, alpha).hex()

    def test_broadcast_and_shape(self):
        width = np.array([[0.0, 1.0, 2.0], [3.0, 50.0, 0.5]])
        roots = critical_value_cn(width, 1.0, 0.95)
        assert roots.shape == (2, 3)
        assert _hex(roots.ravel()) == _hex(
            cn_oracle.critical_value_cn(w, 1.0, 0.95) for w in width.ravel().tolist()
        )


SIGNS = st.builds(SignRegime, st.sampled_from([1, -1]), st.sampled_from([1, 0, -1]))
GRID = st.lists(
    st.tuples(st.floats(0.0, 0.95), st.one_of(st.none(), st.floats(0.0, 1.0))), max_size=30
)


class TestSweepRows:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
        st.floats(1e-5, 1e2),
        GRID,
        SIGNS,
        ALPHAS,
    )
    @example(
        0.013, 0.0046, [(0.5, None), (0.7, 0.2), (0.0, None), (0.5, 0.0)], SignRegime(1, -1), 0.95
    )
    def test_rows_equal_per_point_core(self, m, se, grid, regime, alpha):
        rows = sensitivity_sweep(m, se, 1, grid, regime, alpha)
        assert [(r.pi, r.epsilon) for r in rows] == sorted(
            grid, key=lambda pe: (pe[0], -math.inf if pe[1] is None else pe[1])
        )
        for row in rows:
            sets = sets_oracle.summary_sets(m, se, row.pi, row.epsilon, regime, alpha)
            got = (row.set_lower, row.set_upper, row.cs_lower, row.cs_upper)
            want = (sets["set_lower"], sets["set_upper"], sets["lower"], sets["upper"])
            assert _hex(got) == _hex(want)
            assert all(type(v) is float for v in got)

    def test_first_bad_point_in_sorted_order_raises(self):
        # (0.2, 2.0) sorts before (1.0, None); its epsilon is reported
        with pytest.raises(ValueError, match="epsilon must lie in"):
            sensitivity_sweep(1.0, 0.1, 1, [(1.0, None), (0.2, 2.0)], SignRegime(1, -1), 0.95)
        with pytest.raises(ValueError, match="pi < 1"):
            sensitivity_sweep(1.0, 0.1, 1, [(1.0, None), (0.2, 0.5)], SignRegime(1, -1), 0.95)
