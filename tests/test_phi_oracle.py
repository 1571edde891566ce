"""``solve_phi`` against the per-call-sort reference, bit for bit.

``cic.solve_phi`` reads the control map from ``CicData.control_map_table``
and finds each segment's rank from the order of the cut points;
``phi_oracle.solve_phi`` is the solver it replaced.  Every root, and every
``None``, must be the reference's.  Samples mix free floats, repeated
values, floats a few ulps from 1.0 and values that vanish next to 1.0;
there a segment midpoint can round across a control value, and only the
binary-searched rank gives the reference's root.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phi_oracle
from antebounds import cic
from antebounds.cic import CicData, solve_phi
from antebounds.cli import main

EPS = 2.0**-52
ELEMENTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 1e-17, 3e-17, 1e-16, 2e-16]),
    st.integers(-6, 6).map(lambda k: 1.0 + k * EPS),
    st.integers(-3, 3).map(lambda k: 1.0 + k * 1e-12),
)
SAMPLES = st.lists(ELEMENTS, min_size=1, max_size=25)
LEVELS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([5e-324, 1e-12, 0.25, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]),
)
NEAR_ONE = [1.0 + k * EPS for k in range(6)]


def _bits(x: float | None) -> str | None:
    return None if x is None else x.hex()


@settings(max_examples=300, deadline=None)
@given(st.tuples(SAMPLES, SAMPLES, SAMPLES, SAMPLES), st.lists(LEVELS, min_size=1, max_size=6))
@example(([3.0], [3.0], [3.0], [3.0]), [1e-12, 0.5, 1.0 - 1e-12])  # data range 0
@example(([1.0, 2.0, 3.0], [5.0, 6.0, 7.0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0]), [0.5])
@example(([0.5, 1.0, 1.5], [1.0, 1.0 + EPS, 2.0], NEAR_ONE, NEAR_ONE[::-1]), [0.3, 0.5, 0.7])
@example(
    ([0.5, 1.0, 1.5], [1.0 + EPS, 1.0, 3.0], [1.0 - 2 * EPS, 1.0 - EPS, 1.0, 1.0, 1.0 + EPS],
     [1.0, 1.0 + 3 * EPS, 0.0, 2.0, 5.0]),
    [0.2, 0.5, 0.9],
)
@example(([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0, 1.0], [0.5, 0.5, 2.0]), [0.5])
@example(  # the guessed rank of one segment is wrong; the root differs without the search
    ([1.0, 1.0], [0.0, 0.0, 0.9999999999999989, 0.9999999999999987, -1.449173398314068],
     [2e-16, 1.000000000003, 1.0000000000000004, 1e-17, 1.0, 1.0000000000000002],
     [-1.0, -0.8991333097350336, 0.9999999999999987, 1.000000000000001, -1.5, -1.0,
      0.9999999999999993]),
    [0.8185947001826742],
)
@example(
    ([1e-17, 1.0, 1.000000000001], [-0.3128474372645522, 1.000000000001, -1.5, -0.5],
     [2e-16, -1.5386563275383667, 1e-17, 0.0], [1e-17, 1.5, 1.5, -1.5]),
    [0.8],
)
def test_same_roots_as_reference(samples, levels):
    data = CicData.from_samples(*samples)
    for q in levels:
        for side in ("upper", "lower"):
            for sign_mu in (1, -1):
                got = solve_phi(q, side, sign_mu, data)
                want = phi_oracle.solve_phi(q, side, sign_mu, data)
                assert _bits(got) == _bits(want), (q, side, sign_mu)


def test_table_is_the_control_map_at_each_rank():
    data = CicData.from_samples([0.0], [0.0], [0.3, 0.1, 0.1, 0.9], [2.0, 1.0, 4.0, 3.0])
    v, h = data.control_map_table
    assert v.tolist() == [float("-inf"), 0.1, 0.1, 0.3, 0.9, float("inf")]
    assert h.tolist() == [float("-inf"), 1.0, 2.0, 3.0, 4.0]
    for y in (0.0, 0.1, 0.2, 0.3, 0.5, 0.9, 1.0):
        rank = int((v[1:-1] <= y).sum())
        assert h[rank] == data.control_map(y)
    assert data.control_map_table is data.control_map_table  # built once


def test_ranks_need_no_search_on_spread_out_samples(monkeypatch):
    """The rank of a segment follows from the cut order; only a midpoint
    that rounds across a control value is binary-searched."""
    rng = np.random.default_rng(7)
    data = CicData.from_samples(*(rng.normal(size=400) for _ in range(4)))
    searched = []
    search = np.searchsorted

    def counting(a, v, *args, **kwargs):
        if np.ndim(v):
            searched.append(np.size(v))
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    roots = [
        solve_phi(q, side, sign_mu, data)
        for q in (0.1, 0.5, 0.9) for side in ("upper", "lower") for sign_mu in (1, -1)
    ]
    assert any(root not in (None, 0.0) for root in roots)
    assert searched == []


@pytest.fixture
def long_csv(tmp_path):
    """A long panel with tied outcomes, where phi_u and phi_l exist for some levels."""
    rows = ["unit_id,t,y,d"]
    for i in range(60):
        d = i % 2
        y0 = round(((i * 37) % 23) / 7.0, 1)
        y1 = round(0.3 + 0.8 * y0 + d * (0.9 if i % 4 == 1 else -0.6) + ((i * 11) % 5) / 10.0, 2)
        rows += [f"u{i},0,{y0},{d}", f"u{i},1,{y1},{d}"]
    path = tmp_path / "long.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("sign_mu", ["pos", "neg"])
@pytest.mark.parametrize("sign_tau", ["pos", "neg"])
def test_cic_output_bytes_match_reference(capsys, monkeypatch, long_csv, fmt, sign_mu, sign_tau):
    argv = [
        "cic", "--input", long_csv, "--q", ",".join(str(k / 20) for k in range(1, 20)),
        "--pi", "0.2", "--sign-mu", sign_mu, "--sign-tau", sign_tau, "--format", fmt,
    ]
    assert main(argv) == 0
    fast = capsys.readouterr().out
    monkeypatch.setattr(cic, "solve_phi", phi_oracle.solve_phi)
    assert main(argv) == 0
    assert capsys.readouterr().out == fast
