"""Metamorphic relations of the shipped ``infer`` pipeline.

Each test runs ``cli.main`` on a small generated panel and on a changed
copy of it, and checks a relation that the estimator obeys whatever the
data: unit fixed effects and a common time shock difference out, a
positive rescaling of the outcomes rescales every length and leaves C_n
and t-tilde alone, the row order does not matter, the two CSV layouts of
one panel give one report, and negating every outcome while flipping the
declared signs of mu and tau mirrors the report bit for bit.  A last
relation checks that the changes-in-changes counterfactual quantile
commutes with a strictly increasing map.

Outcomes lie on a grid of quarters small enough that their sums and
shifts are exact in float64, so a relation fails only by the rounding of
a mean, a variance or the C_n bisection.  Each test states the tolerance
it allows for that rounding.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from antebounds.cic import EmpiricalDistribution, counterfactual_quantile
from antebounds.cli import main

QUARTERS = st.integers(-400, 400).map(lambda k: k / 4)
FLAGS = st.sampled_from([
    ["--pi", "const:0.4"],
    ["--pi", "const:0.2", "--sign-tau", "pos"],
    ["--pi", "treatment-ratio", "--epsilon", "0.3"],
    ["--pi", "const:0.5", "--sign-mu", "neg", "--sign-tau", "pos", "--alpha", "0.9"],
])
# C_n is a bisection to within 1e-10 of its root, so two runs whose
# inputs differ by rounding may end up to 2e-10 apart
C_N_TOL = 1e-9
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def panels(draw) -> tuple[list, list, list, list]:
    """(y0, y1, d, strata) of 4 to 24 units, two of each group at least."""
    n = draw(st.integers(4, 24))
    d = [1, 0, 1, 0] + draw(st.lists(st.sampled_from([0, 1]), min_size=n - 4, max_size=n - 4))
    y0 = draw(st.lists(QUARTERS, min_size=n, max_size=n))
    y1 = draw(st.lists(QUARTERS, min_size=n, max_size=n))
    strata = draw(st.none() | st.lists(st.sampled_from("AB"), min_size=n, max_size=n))
    return y0, y1, d, strata


def wide_csv(y0, y1, d, strata=None, order=None) -> str:
    order = range(len(d)) if order is None else order
    head = "unit_id,y0,y1,d" + (",stratum" if strata else "")
    rows = [f"u{i},{y0[i]!r},{y1[i]!r},{d[i]}" + (f",{strata[i]}" if strata else "")
            for i in order]
    return "\n".join([head, *rows]) + "\n"


def long_csv(y0, y1, d, strata=None, period_major=False) -> str:
    head = "unit_id,t,y,d" + (",stratum" if strata else "")

    def row(i, t):
        return f"u{i},{t},{(y0, y1)[t][i]!r},{d[i]}" + (f",{strata[i]}" if strata else "")

    if period_major:  # every t=0 row, then every t=1 row
        rows = [row(i, t) for t in (0, 1) for i in range(len(d))]
    else:
        rows = [row(i, t) for i in range(len(d)) for t in (0, 1)]
    return "\n".join([head, *rows]) + "\n"


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("metamorphic") / "panel.csv"


def infer(csv_path, text: str, flags: list, layout: str = "wide") -> str:
    """``infer``'s JSON report on ``text``; an example whose contrast has
    zero variance, a numerical failure (exit 3), is discarded."""
    csv_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    argv = ["infer", "--input", str(csv_path), "--layout", layout, "--format", "json", *flags]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assume("zero variance" not in err.getvalue())
    assert code == 0, err.getvalue()
    return out.getvalue()


LENGTHS = (
    ("m_hat",), ("interval", "lower"), ("interval", "upper"),
    ("confidence_set", "delta_hat"), ("sigma", "se"), ("sigma", "se_l"),
    ("sigma", "se_m"), ("sigma", "se_u"),
)
ENDS = (("confidence_set", "lower"), ("confidence_set", "upper"))


def get(report: dict, path):
    for key in path:
        report = report[key]
    return report


def assert_related(base: str, other: str, tol: float, k: float = 1.0, c_n_tol=C_N_TOL) -> None:
    """``other``'s results are ``base``'s with every length times ``k``.

    A length may be off by ``tol * k``; t-tilde, a length over the SE, by
    that error over the SE; C_n, which solves for a width over the SE, by
    twice that plus ``c_n_tol``; a confidence-set end by a length's error
    plus C_n's times the SE.  Every other field is equal, but for the
    contrast that a sign warning quotes (``m_hat`` is checked above).
    """
    a, b = json.loads(base)["results"], json.loads(other)["results"]
    se = a["sigma"]["se"]
    t_err = tol / se * (2 + abs(a["t_tilde"]))
    c_n_err = c_n_tol + 2 * t_err
    for path in LENGTHS:
        assert math.isclose(get(b, path), k * get(a, path), rel_tol=0, abs_tol=tol * k), path
    for path in ENDS:
        assert math.isclose(
            get(b, path), k * get(a, path), rel_tol=0, abs_tol=(tol + c_n_err * se) * k
        ), path
    assert math.isclose(b["t_tilde"], a["t_tilde"], rel_tol=0, abs_tol=t_err)
    assert math.isclose(
        b["confidence_set"]["c_n"], a["confidence_set"]["c_n"], rel_tol=0, abs_tol=c_n_err
    )
    for report in (a, b):
        for *head, last in LENGTHS + ENDS + (("confidence_set", "c_n"), ("t_tilde",)):
            del get(report, head)[last]
        report["warnings"] = [re.sub(r"contrast \S+", "contrast m", w) for w in report["warnings"]]
    assert a == b


def scale_of(*columns) -> float:
    """A bound on the outcomes' magnitude, and so on a mean's."""
    return max(map(abs, np.concatenate(columns))) + 1.0


def nonzero_contrast(report: str) -> bool:
    """False when the contrast is zero (on the quarter grid, a nonzero one
    is at least 1/(4 * 24 * 24)); its sign, which rounding could flip,
    picks the sign warnings."""
    return abs(json.loads(report)["results"]["m_hat"]) > 1e-6


@SETTINGS
@given(panel=panels(), shifts=st.data(), flags=FLAGS)
def test_unit_fixed_effects_difference_out(csv_path, panel, shifts, flags):
    y0, y1, d, strata = panel
    c = shifts.draw(st.lists(QUARTERS, min_size=len(d), max_size=len(d)))
    base = infer(csv_path, wide_csv(y0, y1, d, strata), flags)
    assume(nonzero_contrast(base))
    shifted = infer(csv_path, wide_csv([a + b for a, b in zip(y0, c)],
                                       [a + b for a, b in zip(y1, c)], d, strata), flags)
    # each group's mean outcomes move by its mean c_i and round anew
    assert_related(base, shifted, tol=1e-12 * scale_of(y0, y1, c))


@SETTINGS
@given(panel=panels(), delta=QUARTERS, flags=FLAGS)
def test_a_common_time_shock_changes_nothing(csv_path, panel, delta, flags):
    y0, y1, d, strata = panel
    base = infer(csv_path, wide_csv(y0, y1, d, strata), flags)
    assume(nonzero_contrast(base))
    shocked = infer(csv_path, wide_csv(y0, [y + delta for y in y1], d, strata), flags)
    # the means and the variances' centring move by delta and round anew
    assert_related(base, shocked, tol=1e-12 * scale_of(y0, y1, [delta]))


@SETTINGS
@given(panel=panels(), k=st.floats(0.01, 100.0), flags=FLAGS)
def test_a_positive_scale_scales_every_length(csv_path, panel, k, flags):
    y0, y1, d, strata = panel
    base = infer(csv_path, wide_csv(y0, y1, d, strata), flags)
    assume(nonzero_contrast(base))
    scaled = infer(csv_path, wide_csv([k * y for y in y0], [k * y for y in y1], d, strata), flags)
    # each outcome rounds once when scaled, and every sum rounds anew
    assert_related(base, scaled, tol=1e-12 * scale_of(y0, y1), k=k)


@SETTINGS
@given(panel=panels(), power=st.integers(-4, 4), flags=FLAGS)
def test_a_power_of_two_scale_scales_every_bit(csv_path, panel, power, flags):
    y0, y1, d, strata = panel
    k = 2.0**power
    base = infer(csv_path, wide_csv(y0, y1, d, strata), flags)
    scaled = infer(csv_path, wide_csv([k * y for y in y0], [k * y for y in y1], d, strata), flags)
    # a power of two scales every float exactly: no tolerance
    assert_related(base, scaled, tol=0.0, k=k, c_n_tol=0.0)


@SETTINGS
@given(panel=panels(), data=st.data(), flags=FLAGS)
def test_row_order_changes_nothing_beyond_rounding(csv_path, panel, data, flags):
    y0, y1, d, strata = panel
    order = data.draw(st.permutations(range(len(d))))
    base = infer(csv_path, wide_csv(y0, y1, d, strata), flags)
    assume(nonzero_contrast(base))
    permuted = infer(csv_path, wide_csv(y0, y1, d, strata, order), flags)
    # the sums of squares reorder; the sums of outcomes are exact
    assert_related(base, permuted, tol=1e-12 * scale_of(y0, y1))


@SETTINGS
@given(panel=panels(), period_major=st.booleans(), flags=FLAGS)
def test_both_layouts_of_one_panel_give_one_report(csv_path, panel, period_major, flags):
    y0, y1, d, strata = panel
    wide = infer(csv_path, wide_csv(y0, y1, d, strata), flags)
    long = infer(csv_path, long_csv(y0, y1, d, strata, period_major), flags, layout="long")
    # the loaders build equal panels, so the reports differ in the layout only
    assert long == wide.replace('"layout": "wide"', '"layout": "long"')
    assert wide.count('"layout": "wide"') == 1


FLIP = {"pos": "neg", "neg": "pos", "zero": "zero"}


def flipped(flags: list) -> list:
    """``flags`` with the signs of mu and tau flipped (a zero tau stays)."""
    signs = {"--sign-mu": "pos", "--sign-tau": "neg"}  # the defaults
    signs.update((flag, value) for flag, value in zip(flags, flags[1:]) if flag in signs)
    return flags + [word for flag, sign in signs.items() for word in (flag, FLIP[sign])]


def mirrored(results: dict) -> dict:
    """The results that negated outcomes and flipped signs must give, from
    ``results``: every length and end negated, the ends swapped, each
    endpoint's SE with its end, and the signs flipped in every label."""
    r = json.loads(json.dumps(results))
    r["m_hat"], r["t_tilde"] = -r["m_hat"], -r["t_tilde"]
    for key in ("interval", "confidence_set"):
        r[key]["lower"], r[key]["upper"] = -r[key]["upper"], -r[key]["lower"]
    r["interval"]["sign_mu"] *= -1
    r["interval"]["sign_tau"] *= -1
    r["sigma"]["se_l"], r["sigma"]["se_u"] = r["sigma"]["se_u"], r["sigma"]["se_l"]
    r["regime"] = re.sub(r"pos|neg", lambda m: FLIP[m.group()], r["regime"])
    r["warnings"] = [
        re.sub(r"(contrast -?)(\S+)", lambda m: "contrast " + ("" if "-" in m[1] else "-") + m[2],
               re.sub(r"sign_mu=([+-])", lambda m: "sign_mu=" + "-+"[m[1] == "-"], w))
        for w in r["warnings"]
    ]
    return r


@SETTINGS
@given(panel=panels(), layout=st.sampled_from(["wide", "long", "long by period"]),
       flags=FLAGS | st.just(["--pi", "const:0.3", "--sign-tau", "zero"]))
def test_negating_the_outcomes_mirrors_the_report(csv_path, panel, layout, flags):
    y0, y1, d, strata = panel
    if layout == "wide":
        def to_csv(a, b):
            return wide_csv(a, b, d, strata)
    else:
        def to_csv(a, b):
            return long_csv(a, b, d, strata, period_major=layout == "long by period")
    layout = layout.split()[0]
    base = json.loads(infer(csv_path, to_csv(y0, y1), flags, layout))
    negated = json.loads(
        infer(csv_path, to_csv([-y for y in y0], [-y for y in y1]), flipped(flags), layout)
    )
    expected = mirrored(base["results"])
    got = negated["results"]
    if got["m_hat"] == 0.0:  # both endpoints are 0, and their SEs' labels a tie
        for r in (expected, got):
            r["sigma"]["se_l"], r["sigma"]["se_u"] = sorted(
                (r["sigma"]["se_l"], r["sigma"]["se_u"])
            )
    # negation is exact in float64, and every sum and product negates or
    # keeps its bits with it: no tolerance
    assert got == expected


INCREASING = {
    "shift and power-of-two scale": lambda x: 4.0 * x - 3.25,
    "cube": lambda x: x**3,
    "arctan": np.arctan,
    "exp": lambda x: np.exp(x / 64.0),
}
SAMPLES = st.lists(QUARTERS, min_size=1, max_size=15)


@settings(max_examples=200, deadline=None)
@given(
    x10=SAMPLES, x00=SAMPLES, x01=SAMPLES,
    q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    name=st.sampled_from(sorted(INCREASING)),
)
def test_counterfactual_quantile_commutes_with_an_increasing_map(x10, x00, x01, q, name):
    h = INCREASING[name]
    x01 = np.array(x01)
    base = counterfactual_quantile(
        q, *map(EmpiricalDistribution.from_sample, (x10, x00, x01))
    )
    mapped_x01 = h(x01)  # one call, so each element has the bits compared below
    got = counterfactual_quantile(
        q, *map(EmpiricalDistribution.from_sample, (h(np.array(x10)), h(np.array(x00)),
                                                     mapped_x01))
    )
    if base == -math.inf:  # below every control pre-period value, either way
        assert got == -math.inf
    else:
        # the composition picks order statistics, and h keeps their order
        assert got == mapped_x01[np.flatnonzero(x01 == base)[0]]
