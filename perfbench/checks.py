"""Output checks that do not trust the package under test.

Every reference here is recomputed with numpy and ``statistics.NormalDist``
from the benchmark's own inputs; no ``antebounds`` function is called.
Each check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from inputs import Panel

_N = NormalDist()
REL = 1e-9


def _close(a, b, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def _z_range(alpha: float) -> tuple[float, float]:
    """C_n lies between the one- and two-sided normal critical values."""
    return _N.inv_cdf(alpha) - 1e-9, _N.inv_cdf((1.0 + alpha) / 2.0) + 1e-9


def _endpoint(value, side: str) -> float:
    """JSON endpoint, with the CLI's "unbounded" marker as an infinity."""
    if value == "unbounded":
        return -math.inf if side == "lower" else math.inf
    return float(value)


def check_infer(doc: dict, panel: Panel, pi: float, alpha: float) -> list[str]:
    """``infer`` with opposite signs (mu pos, tau neg) on a wide panel."""
    r = doc["results"]
    problems = []
    change = panel.y1 - panel.y0
    treated, control = change[panel.d == 1], change[panel.d == 0]
    m = treated.mean() - control.mean()
    se = math.sqrt(treated.var(ddof=1) / treated.size + control.var(ddof=1) / control.size)
    if not _close(r["m_hat"], m):
        problems.append(f"m_hat {r['m_hat']!r} != numpy DID {m!r}")
    lo, hi = sorted((m / (1.0 + pi), m))
    iv, cs = r["interval"], r["confidence_set"]
    if not (_close(iv["lower"], lo) and _close(iv["upper"], hi)):
        problems.append(f"interval [{iv['lower']!r}, {iv['upper']!r}] != m*[1/(1+pi), 1]")
    if not (cs["lower"] <= iv["lower"] and cs["upper"] >= iv["upper"]):
        problems.append("confidence set does not contain the interval")
    c_n = cs["c_n"]
    z_lo, z_hi = _z_range(alpha)
    if not z_lo <= c_n <= z_hi:
        problems.append(f"C_n {c_n!r} outside [{z_lo:.6f}, {z_hi:.6f}]")
    # The larger endpoint SE is the DID SE itself (scale factors 1 and 1/(1+pi)).
    gap = _N.cdf(c_n + (hi - lo) / se) - _N.cdf(-c_n) - alpha
    if abs(gap) > 1e-8:
        problems.append(f"C_n {c_n!r} misses its equation by {gap:.3g}")
    if not (_close(cs["lower"], lo - c_n * se, 1e-7) and _close(cs["upper"], hi + c_n * se, 1e-7)):
        problems.append("confidence set is not the interval extended by C_n * SE")
    if not _close(r["t_tilde"], m / se, 1e-7):
        problems.append(f"t_tilde {r['t_tilde']!r} != {m / se!r}")
    return problems


def _quantile(sorted_values: np.ndarray, q: float) -> float:
    """inf{y : cdf(y) >= q} with cdf(y) = #{x <= y}/n (no ties in the data)."""
    n = sorted_values.size
    levels = np.arange(1, n + 1) / n
    k = int(np.searchsorted(levels, q, side="left"))
    return float(sorted_values[min(k, n - 1)])


def _composition(q: float, shift: float, y10, y11, y00, y01) -> float:
    """Q11(q) - Q01(F00(Q10(q + shift)))."""
    y = _quantile(y10, q + shift)
    p = np.searchsorted(y00, y, side="right") / y00.size
    mapped = -math.inf if p <= 0.0 else _quantile(y01, min(p, 1.0))
    return _quantile(y11, q) - mapped


def check_cic(doc: dict, panel: Panel, qs: list[float], pi: float) -> list[str]:
    """``cic`` with both signs positive: the set is [m(q), min(phi_u, phi~_u)]."""
    rows = doc["results"]["rows"]
    if [row["q"] for row in rows] != qs:
        return [f"expected one row per level in order, got {len(rows)} rows"]
    treated, control = panel.d == 1, panel.d == 0
    samples = [np.sort(a) for a in (panel.y0[treated], panel.y1[treated],
                                    panel.y0[control], panel.y1[control])]
    problems = []
    for row in rows:
        q = row["q"]
        m_q = _composition(q, 0.0, *samples)
        if not _close(row["m_q"], m_q, 1e-12):
            problems.append(f"q={q}: m_q {row['m_q']!r} != numpy {m_q!r}")
        tilde_u = math.inf if q <= pi else _composition(q, -pi, *samples)
        tilde_l = -math.inf if q >= 1.0 - pi else _composition(q, pi, *samples)
        if _endpoint(row["phi_tilde_u"], "upper") != tilde_u:
            problems.append(f"q={q}: phi_tilde_u {row['phi_tilde_u']!r} != {tilde_u!r}")
        if _endpoint(row["phi_tilde_l"], "lower") != tilde_l:
            problems.append(f"q={q}: phi_tilde_l {row['phi_tilde_l']!r} != {tilde_l!r}")
        lower, upper = _endpoint(row["set_l"], "lower"), _endpoint(row["set_u"], "upper")
        if lower != row["m_q"]:
            problems.append(f"q={q}: lower end {lower!r} is not m_q")
        if upper > tilde_u:
            problems.append(f"q={q}: upper end {upper!r} above phi_tilde_u")
        if (lower > upper) != row["empty"]:
            problems.append(f"q={q}: [{lower!r}, {upper!r}] with empty={row['empty']}")
    return problems


def check_sensitivity(
    doc: dict, m: float, se: float, pis: list[float], epsilons: list[float], alpha: float
) -> list[str]:
    """``sensitivity`` over a (pi, epsilon) grid with opposite signs."""
    r = doc["results"]
    rows = r["rows"]
    expected = [(p, e) for p in pis for e in epsilons]
    if [(row["pi"], row["epsilon"]) for row in rows] != expected:
        return [f"expected {len(expected)} rows in (pi, epsilon) order"]
    problems = []
    z_lo, z_hi = _z_range(alpha)
    for row in rows:
        p, e = row["pi"], row["epsilon"]
        f_a, f_b = 1.0 / (1.0 - p * e), 1.0 / (1.0 + p * (1.0 - e))
        lo, hi = sorted((m * f_a, m * f_b))
        where = f"pi={p}, epsilon={e}"
        if not (_close(row["set_l"], lo) and _close(row["set_u"], hi)):
            problems.append(f"{where}: set [{row['set_l']!r}, {row['set_u']!r}] != [{lo!r}, {hi!r}]")
        if not (row["cs_l"] <= row["set_l"] and row["cs_u"] >= row["set_u"]):
            problems.append(f"{where}: confidence set does not contain the set")
            continue
        ext_l, ext_u = row["set_l"] - row["cs_l"], row["cs_u"] - row["set_u"]
        se_max = se * max(f_a, f_b)
        c_n = ext_u / se_max
        gap = _N.cdf(c_n + (hi - lo) / se_max) - _N.cdf(-c_n) - alpha
        if not (_close(ext_l, ext_u, 1e-6) and z_lo <= c_n <= z_hi and abs(gap) <= 1e-8):
            problems.append(f"{where}: extensions {ext_l!r}, {ext_u!r} give C_n {c_n!r}")
    containing = [row["pi"] for row in rows if row["cs_l"] <= 0.0 <= row["cs_u"]]
    cutoff = min(containing) if containing else None
    if r["robustness_cutoff_pi"] != cutoff:
        problems.append(f"cutoff {r['robustness_cutoff_pi']!r} != {cutoff!r} from the rows")
    return problems


def check_coverage(doc: dict, lambdas: list[float], reps: int) -> list[str]:
    """``simulate --scenario benchmark``: every grid point ran and the gate passed."""
    r = doc["results"]
    problems = []
    if r["verdict"] != "pass":
        problems.append(f"verdict {r['verdict']!r}, min coverage {r['min_coverage']!r}")
    points = r["points"]
    if [p["lam"] for p in points] != lambdas or any(p["reps"] != reps for p in points):
        problems.append("grid points or replication counts differ from the command")
    if any(not 0.0 <= p["coverage"] <= 1.0 for p in points):
        problems.append("coverage outside [0, 1]")
    return problems


def check_identical(out: bytes, reference: bytes) -> list[str]:
    """The determinism contract: any worker count gives the same bytes."""
    if out == reference:
        return []
    return [f"stdout ({len(out)} bytes) differs from the two-worker run ({len(reference)} bytes)"]
