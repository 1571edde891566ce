"""The one route from (m_hat, SE) to both sets against the scalar reference.

``summary_mode_infer`` reaches its confidence set through the array route
``inference._sets`` on one element; ``sets_oracle.summary_sets`` is the
scalar arithmetic it replaced.  Every field must come out with the
reference's bits as a Python float, and every rejected input with the
reference's exception type and message.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import sets_oracle
from antebounds.bounds import SignRegime
from antebounds.inference import summary_mode_infer

REGIMES = st.builds(SignRegime, st.sampled_from([1, -1]), st.sampled_from([1, 0, -1]))
MAGNITUDES = st.floats(1e-6, 1e3)
VALID = st.tuples(
    st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda x: -x)),
    MAGNITUDES,
    st.floats(0.0, 0.99),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
    REGIMES,
    st.floats(0.51, 0.999),
)
# each argument valid, at an extreme, or outside its domain
ANY = st.tuples(
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-0.0, 1e308, -1e308]), st.floats()),
    st.one_of(MAGNITUDES, st.sampled_from([0.0, -1.0, math.inf, math.nan, 5e-324, 1e308]), st.floats()),
    st.one_of(st.floats(0.0, 0.99), st.sampled_from([1.0, 1.0 - 2.0**-53, -0.1]), st.floats()),
    st.one_of(st.none(), st.floats(0.0, 1.0), st.sampled_from([-0.1, 1.5]), st.floats()),
    REGIMES,
    st.one_of(
        st.floats(0.51, 0.999), st.sampled_from([0.5, 1.0, 1.0 - 2.0**-53, 0.4]), st.floats()
    ),
)


def _fields(interval, cs) -> dict:
    return {
        "set_lower": interval.lower,
        "set_upper": interval.upper,
        **dataclasses.asdict(cs),
        "se": cs.se,
    }


def _outcome(args):
    """(package fields, reference fields), or each side's (type, message)."""
    results = []
    for route in (lambda *a: _fields(*summary_mode_infer(*a)), sets_oracle.summary_sets):
        try:
            results.append(route(*args))
        except Exception as err:  # noqa: BLE001 - the type is compared
            results.append((type(err), str(err)))
    return results


def _assert_same_fields(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert type(got[key]) is float, key
        assert got[key].hex() == float(value).hex(), key


class TestSummaryModeAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(VALID)
    @example((0.013, 0.0046, 0.5, None, SignRegime(1, -1), 0.95))
    @example((-0.013, 0.0046, 0.5, 0.3, SignRegime(1, 1), 0.95))
    @example((0.0, 1.0, 0.9, None, SignRegime(-1, 1), 0.51))
    def test_valid_inputs_give_the_reference_fields(self, args):
        got, want = _outcome(args)
        assert isinstance(want, dict), want
        _assert_same_fields(got, want)

    @settings(max_examples=600, deadline=None)
    @given(ANY)
    @example((1.0, 0.0, 0.3, None, SignRegime(1, -1), 0.95))
    @example((1.0, math.inf, 0.3, None, SignRegime(1, -1), 0.95))
    @example((1.0, math.nan, 0.3, None, SignRegime(1, -1), 0.95))
    @example((1.0, 0.1, 1.0, None, SignRegime(1, 1), 0.95))
    @example((1.0, 0.1, 0.3, -0.1, SignRegime(1, 1), 0.95))
    @example((1.0, 0.1, 0.3, 1.5, SignRegime(1, -1), 0.95))
    @example((1.0, 0.1, 0.3, None, SignRegime(1, -1), 0.5))
    @example((1.0, 0.1, 0.3, None, SignRegime(1, -1), 1.0))
    @example((1e308, 0.1, 0.9, None, SignRegime(1, 1), 0.95))  # the width overflows
    @example((0.013, 1e308, 0.4, None, SignRegime(1, -1), 0.95))  # the set overflows
    def test_any_input_gives_the_reference_outcome(self, args):
        got, want = _outcome(args)
        if isinstance(want, dict):
            _assert_same_fields(got, want)
        else:
            assert got == want
