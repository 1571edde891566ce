"""Test-only reference for ``cic.solve_phi``.

This is the magnitude-route solver as it was before it read the control
map from a per-``CicData`` table: every call sorts the cut points with
``np.unique`` and evaluates Q01(F00(.)) at each segment midpoint with two
binary searches.  The property tests in ``test_phi_oracle.py`` require
``solve_phi`` to return its roots, and its ``None``s, bit for bit.
"""

from __future__ import annotations

import numpy as np

from antebounds.cic import CicData, _check_q


def _control_map_vec(data: CicData, y: np.ndarray) -> np.ndarray:
    p = data.control_t0.cdf(np.asarray(y, dtype=float))
    out = np.full(p.shape, -np.inf)
    ok = p > 0.0
    if ok.any():
        out[ok] = data.control_t1.quantile_vec(np.minimum(p[ok], 1.0))
    return out


def solve_phi(q: float, side: str, sign_mu: int, data: CicData) -> float | None:
    """Closest-to-zero root of Q11(q) - Q01(F00(Q10(q) -+ x)) - x = 0."""
    _check_q(q)
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if sign_mu not in (-1, 1):
        raise ValueError(f"sign_mu must be +1 or -1, got {sign_mu}")
    a_q = data.treated_t1.quantile(q)
    u0 = data.treated_t0.quantile(q)
    big = data.data_range
    c = (-1.0 if side == "upper" else 1.0) * sign_mu
    scale = max(1.0, abs(a_q))

    def is_root(w: float) -> bool:
        return abs(a_q - data.control_map(u0 + c * w) - sign_mu * w) <= 1e-9 * max(scale, w)

    if is_root(0.0):
        return 0.0
    if big == 0.0:
        return None

    cuts = c * (data.control_t0.values - u0)
    cuts = cuts[(cuts > 0.0) & (cuts < big)]
    grid = np.unique(np.concatenate((np.array([0.0, big]), cuts)))
    seg_lo, seg_hi = grid[:-1], grid[1:]
    mids = 0.5 * (seg_lo + seg_hi)
    h = _control_map_vec(data, u0 + c * mids)
    with np.errstate(invalid="ignore"):
        w_cand = sign_mu * (a_q - h)
    tol = 1e-9 * np.maximum(scale, np.abs(w_cand))
    ok = np.isfinite(w_cand) & (w_cand >= seg_lo - tol) & (w_cand <= seg_hi + tol)
    for i in np.flatnonzero(ok):
        w = float(np.clip(w_cand[i], 0.0, big))
        if is_root(w):
            return sign_mu * w
    return None
