"""Normal CDF/quantile accuracy and bisection contract tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cn_oracle
from antebounds.inference import tstar
from antebounds.numerics import (
    Bracket,
    NoRootInBracketError,
    solve_monotone,
    solve_monotone_elementwise,
    std_normal_cdf,
    std_normal_cdf_array,
    std_normal_quantile,
)

# Reference values computed with 30-digit arithmetic (erfc-based),
# cross-checked against scipy.special.ndtr.
PHI_TABLE = [
    (-8, 6.2209605742717841e-16),
    (-6, 9.8658764503769814e-10),
    (-5, 2.8665157187919391e-7),
    (-4, 3.1671241833119921e-5),
    (-3, 0.0013498980316300945),
    (-2, 0.022750131948179207),
    (-1.5, 0.066807201268858066),
    (-1, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (-0.1, 0.46017216272297102),
    (0, 0.5),
    (0.1, 0.53982783727702898),
    (0.5, 0.6914624612740131),
    (1, 0.84134474606854295),
    (1.5, 0.93319279873114193),
    (1.959964, 0.9750000009035576),
    (2, 0.97724986805182079),
    (2.5, 0.99379033467422386),
    (3, 0.99865010196836991),
    (4, 0.99996832875816688),
    (5, 0.99999971334842812),
    (6, 0.99999999901341235),
    (8, 0.99999999999999938),
]


class TestStdNormalCdf:
    @pytest.mark.parametrize("x,expected", PHI_TABLE)
    def test_reference_table(self, x, expected):
        assert std_normal_cdf(x) == pytest.approx(expected, abs=1e-13)

    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_975_critical_point(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-8, 8, size=1000):
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(2)
        xs = np.sort(rng.uniform(-8, 8, size=500))
        vals = [std_normal_cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_agrees_with_independent_erfc(self):
        # math.erfc is an independent implementation of the same special
        # function; agreement pins both.
        rng = np.random.default_rng(3)
        for x in rng.uniform(-10, 10, size=500):
            ref = 0.5 * math.erfc(-x / math.sqrt(2))
            assert std_normal_cdf(x) == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            std_normal_cdf(bad)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_reference_points(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert std_normal_quantile(0.95) == pytest.approx(1.644854, abs=1e-5)

    def test_roundtrip_residual(self):
        rng = np.random.default_rng(4)
        for p in rng.uniform(1e-6, 1 - 1e-6, size=500):
            assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_quantile_of_cdf_is_identity(self):
        rng = np.random.default_rng(5)
        for x in rng.uniform(-6, 6, size=500):
            assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-8)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


class TestSolveMonotone:
    def test_linear(self):
        root = solve_monotone(lambda x: x - 2.0, Bracket(0.0, 5.0, tol=1e-10))
        assert root == pytest.approx(2.0, abs=1e-10)

    def test_phi_equation(self):
        root = solve_monotone(
            lambda x: std_normal_cdf(x) - 0.975, Bracket(0.0, 5.0, tol=1e-8)
        )
        assert root == pytest.approx(1.959964, abs=1e-6)

    def test_no_sign_change(self):
        with pytest.raises(NoRootInBracketError, match="no root in bracket"):
            solve_monotone(lambda x: x + 1.0, Bracket(0.0, 5.0))

    def test_endpoint_root(self):
        assert solve_monotone(lambda x: x, Bracket(0.0, 1.0)) == 0.0

    def test_final_bracket_straddles_zero(self):
        f = lambda x: x**3 - 0.37
        root, lo, hi = cn_oracle.bisect(f, -1.0, 2.0, 1e-12)
        assert lo <= root <= hi
        assert f(lo) <= 0.0 <= f(hi)
        assert solve_monotone(f, Bracket(-1.0, 2.0, tol=1e-12)) == root

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            Bracket(1.0, 0.0)
        with pytest.raises(ValueError):
            Bracket(0.0, 1.0, tol=0.0)

    def test_decreasing_function(self):
        root = solve_monotone(lambda x: 3.0 - x, Bracket(0.0, 10.0, tol=1e-10))
        assert root == pytest.approx(3.0, abs=1e-10)


class TestElementwise:
    """One bisection over arrays against the reference scalar bisection,
    once per element."""

    def _agree(self, f, bracket, params):
        params = np.asarray(params, dtype=float)
        roots = solve_monotone_elementwise(f, bracket, params)
        scalar = [
            cn_oracle.bisect(
                lambda x, p=p: float(f(np.array([x]), np.array([p]))[0]),
                bracket.lo, bracket.hi, bracket.tol,
            )[0]
            for p in params.tolist()
        ]
        assert [r.hex() for r in roots.tolist()] == [r.hex() for r in scalar]
        return roots

    def test_cdf_array_has_scalar_bits(self):
        x = np.concatenate([np.linspace(-9.0, 9.0, 201), [0.0, -0.0, 1e-300, -40.0]])
        assert [v.hex() for v in std_normal_cdf_array(x).tolist()] == [
            std_normal_cdf(v).hex() for v in x.tolist()
        ]

    def test_exact_zero_exits_per_element(self):
        # roots at the bracket ends and at dyadic midpoints hit f == 0
        # exactly, at different steps for different elements
        params = [0.0, 1.0, 0.5, 0.25, 0.375, 0.3, 2.0 / 3.0, 0.999]
        roots = self._agree(lambda x, p: x - p, Bracket(0.0, 1.0, tol=1e-12), params)
        assert roots[:5].tolist() == params[:5]

    def test_tolerance_exit_per_element(self):
        # a coarse tolerance ends elements at different steps
        rng = np.random.default_rng(5)
        self._agree(lambda x, p: x**3 - p, Bracket(-1.0, 2.0, tol=0.01), rng.uniform(-0.9, 7.9, 64))

    def test_decreasing_functions(self):
        self._agree(lambda x, p: p - x, Bracket(0.0, 10.0), [0.0, 3.0, 9.5, 10.0])

    def test_empty(self):
        roots = solve_monotone_elementwise(lambda x, p: x - p, Bracket(0.0, 1.0), np.empty(0))
        assert roots.shape == (0,)

    def test_no_root_in_any_element(self):
        with pytest.raises(NoRootInBracketError, match="no root in bracket"):
            solve_monotone_elementwise(
                lambda x, p: x - p, Bracket(0.0, 1.0), np.array([0.5, 2.0, 0.1])
            )


def _counted(f):
    """``f`` with a list that records each point it is called on."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


# Weakly monotone scalar families with a root at r: smooth, flat-tangent
# and step functions, increasing (s = 1) or decreasing (s = -1).
FAMILIES = {
    "linear": lambda r, s: lambda x: s * (x - r),
    "cubic": lambda r, s: lambda x: s * (x - r) ** 3,
    "step": lambda r, s: lambda x: s * float(math.floor(4.0 * (x - r))),
}


@st.composite
def problems(draw):
    # far from zero a tolerance below the spacing of floats cannot be met,
    # so the bisection runs to its step limit
    lo = draw(st.one_of(st.floats(-50.0, 50.0), st.floats(-1e6, 1e6)))
    hi = lo + draw(st.floats(1e-3, 100.0))
    tol = draw(st.floats(1e-14, 1.0))
    where = draw(st.sampled_from(["lo", "hi", "mid", "quarter", "inside", "outside"]))
    r = {
        "lo": lo,
        "hi": hi,
        "mid": 0.5 * (lo + hi),
        "quarter": 0.5 * (lo + 0.5 * (lo + hi)),
        "inside": draw(st.floats(lo, hi)),
        "outside": draw(st.one_of(st.floats(hi + 1e-3, hi + 50.0), st.floats(lo - 50.0, lo - 1e-3))),
    }[where]
    f = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](r, draw(st.sampled_from([1.0, -1.0])))
    return f, lo, hi, tol


def _outcome(solve):
    try:
        return solve().hex()
    except NoRootInBracketError as exc:
        return str(exc)


class TestAgainstOracle:
    """``solve_monotone`` (the elementwise kernel on one element) against
    the reference scalar bisection: bits, ``f`` calls and the no-root error."""

    @settings(max_examples=300, deadline=None)
    @given(problems())
    @example((FAMILIES["linear"](0.0, 1.0), 0.0, 1.0, 1e-10))  # exact zero at lo
    @example((FAMILIES["linear"](1.0, -1.0), 0.0, 1.0, 1e-10))  # exact zero at hi
    @example((FAMILIES["linear"](0.25, 1.0), 0.0, 1.0, 1e-10))  # exact zero at a midpoint
    @example((FAMILIES["linear"](2.0, 1.0), 0.0, 1.0, 1e-10))  # no root
    # a tolerance below the float spacing near 1e6, and no float root: the step limit
    @example((lambda x: (x - 1e6) - 1.0 / 3.0, 1e6, 1e6 + 1.0, 1e-12))
    def test_solve_monotone_is_the_oracle(self, problem):
        f, lo, hi, tol = problem
        f_kernel, kernel_calls = _counted(f)
        f_oracle, oracle_calls = _counted(f)
        kernel = _outcome(lambda: solve_monotone(f_kernel, Bracket(lo, hi, tol=tol)))
        oracle = _outcome(lambda: float(cn_oracle.bisect(f_oracle, lo, hi, tol)[0]))
        assert kernel == oracle
        assert [x.hex() for x in kernel_calls] == [float(x).hex() for x in oracle_calls]
        assert all(type(x) is float for x in kernel_calls)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.5, 0.9999, exclude_min=True))
    @example(0.95)
    @example(0.9999)
    def test_tstar_is_the_oracle(self, alpha):
        assert tstar(alpha).hex() == cn_oracle.tstar(alpha).hex()
