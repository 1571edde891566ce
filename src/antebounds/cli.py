"""Command-line surface: estimation, inference, sensitivity sweeps,
changes-in-changes bounds, and simulation studies.

Every report embeds a manifest (command, resolved configuration, input
digest, tool version, master seed where applicable); JSON output is
deterministic, so equal manifests and inputs produce byte-identical
bytes.  Exit codes: 0 success, 1 a tagged acceptance threshold failed
(simulate only), 2 usage or validation error, 3 internal numerical
failure or any other internal error (one line, no traceback), 130 an
interrupt (Ctrl-C; one ``interrupted`` line, 128 + SIGINT).
Human-readable numbers are rounded for display; JSON carries full
precision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import chain, islice

from . import __version__
from .bounds import (
    SignRegime,
    _check_pi,
    conditional_estimand,
    did_estimand,
    identified_set_imperfect,
    reconcile_regime,
    robustness_cutoff,
    sensitivity_sweep,
)
from .cic import CicData, cic_identified_set
from .inference import (
    DegenerateVarianceError,
    _panel_contrast,
    robust_null_check,
    summary_mode_infer,
)
from .numerics import NoRootInBracketError
from .panel import GTransform, load_two_period, treatment_ratio
from .simulate import (
    DgpConfig,
    coverage_study,
    decomposition_check,
    post_treatment_identity_check,
    staggered_identity_check,
    toy_bound_check,
)

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INTERRUPTED = 130

# Report pieces joined into one write.  With an unbuffered stdout every
# write is a system call.  A sensitivity report's pieces are its rows, of
# about 200 characters in JSON, so a batch is a write of about 50 kB
# there, and the joined text stays small beside the payload.
_WRITE_BATCH = 256


class CliError(ValueError):
    """Flag or input validation failure (exit code 2)."""


def _parse_g(spec: str) -> GTransform:
    if spec == "identity":
        return GTransform.identity()
    if spec.startswith("indicator:"):
        try:
            return GTransform.indicator(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise CliError(f"--g indicator threshold: {exc}") from None
    raise CliError(f"--g must be 'identity' or 'indicator:<u>', got {spec!r}")


def _parse_pi(spec: str) -> float | str:
    """The ``const:<v>`` value, or the name "treatment-ratio" or "stratum"
    for a cap that the panel resolves."""
    if spec in ("treatment-ratio", "stratum"):
        return spec
    if spec.startswith("const:"):
        try:
            pi = float(spec.split(":", 1)[1])
            _check_pi(pi)
            return pi
        except ValueError as exc:
            raise CliError(f"--pi const: {exc}") from None
    raise CliError(
        f"--pi must be 'const:<v>', 'treatment-ratio', or 'stratum', got {spec!r}"
    )


def _parse_regime(sign_mu: str, sign_tau: str) -> SignRegime:
    mu_map = {"pos": 1, "neg": -1}
    tau_map = {"pos": 1, "neg": -1, "zero": 0}
    if sign_mu not in mu_map:
        raise CliError(f"--sign-mu must be pos|neg, got {sign_mu!r}")
    if sign_tau not in tau_map:
        raise CliError(f"--sign-tau must be pos|neg|zero, got {sign_tau!r}")
    return SignRegime(sign_mu=mu_map[sign_mu], sign_tau=tau_map[sign_tau])


def _parse_float_list(spec: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in spec.split(",") if tok != ""]
    except ValueError:
        raise CliError(f"{flag} must be a comma-separated list of numbers") from None
    if not values:
        raise CliError(f"{flag} must list at least one number, got {spec!r}")
    return values


def _parse_summary(tokens: list[str]) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise CliError(f"--summary expects m=<v> se=<v> n=<v>, got {tok!r}")
        key, raw = tok.split("=", 1)
        if key not in ("m", "se", "n"):
            raise CliError(f"--summary key must be m, se, or n, got {key!r}")
        try:
            out[key] = float(raw)
        except ValueError:
            raise CliError(f"--summary {key} is not a number: {raw!r}") from None
        if not math.isfinite(out[key]):
            raise CliError(f"--summary {key} must be finite, got {raw!r}")
    for key in ("m", "se"):
        if key not in out:
            raise CliError(f"--summary is missing {key}=<v>")
    out.setdefault("n", 1.0)
    return out


def _reconcile(m_hat: float, regime: SignRegime, auto_flip: bool, caught: list[str]) -> SignRegime:
    """reconcile_regime with its sign-contradiction warnings appended to
    ``caught`` instead of reaching stderr as Python warnings."""
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        regime = reconcile_regime(m_hat, regime, auto_flip=auto_flip)
    caught.extend(str(w.message) for w in wlist)
    return regime


def _print_warnings(messages: list[str]) -> None:
    for w in messages:
        print(f"warning: {w}", file=sys.stderr)


def resolve_workers(requested: int, cpu_count: int | None) -> int:
    """Worker processes for ``simulate``: below 1 is a usage error, and
    more than the machine's CPUs is clamped to them (``os.cpu_count()``,
    which may be None, counts as 1)."""
    if requested < 1:
        raise CliError(f"--workers must be at least 1, got {requested}")
    return min(requested, cpu_count or 1)


def _load_panel(path: str, layout: str):
    """The panel at ``path`` and the manifest's digest of it."""
    try:
        # utf-8-sig drops the byte-order mark that some spreadsheets write
        with open(path, "r", encoding="utf-8-sig") as fh:
            panel = load_two_period(fh, layout=layout)
    except OSError as exc:
        raise CliError(f"cannot read --input: {exc}") from None
    return panel, {"rows": panel.n, "n_treated": panel.n_treated, "n_control": panel.n_control}


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "unbounded"
        if math.isnan(x):
            return None
    return x


def _interval_dict(interval) -> dict:
    d = {
        "lower": _jsonable(interval.lower),
        "upper": _jsonable(interval.upper),
        "theorem_tag": interval.theorem_tag,
        "pi": interval.pi_used,
        "epsilon": interval.epsilon_used,
    }
    if interval.regime is not None:
        d["sign_mu"] = interval.regime.sign_mu
        d["sign_tau"] = interval.regime.sign_tau
    return d


def _manifest(command: str, config: dict, input_digest: dict, outputs, seed=None) -> dict:
    manifest = {
        "command": command,
        "config": config,
        "input_digest": input_digest,
        "outputs": sorted(outputs),
        "tool_version": __version__,
    }
    if seed is not None:
        manifest["master_seed"] = seed
    return manifest


def _json_report(manifest: dict, results: dict) -> Iterator[str]:
    """The pieces of ``json.dumps(report, sort_keys=True, indent=2)``, from
    the same encoder, produced as ``main`` writes them."""
    report = {"manifest": manifest, "results": results}
    return json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)


def _text_report(lines: Iterable[str]) -> Iterator[str]:
    """The pieces of ``"\n".join(lines)``."""
    lines = iter(lines)
    yield next(lines)
    for line in lines:
        yield "\n"
        yield line


def _fmt(x, nd: int = 6) -> str:
    if x is None:
        return "absent"
    if isinstance(x, str):
        return x
    return f"{x:.{nd}g}"


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _add_contrast_flags(p: argparse.ArgumentParser) -> None:
    """The flags of every command that reads a DID contrast from a panel."""
    # --layout and --g default to None so that summary mode can tell them
    # given; _panel_flags fills in wide and identity
    p.add_argument("--input", help="panel CSV path")
    p.add_argument("--layout", choices=("wide", "long"), help="wide (default) | long")
    p.add_argument("--g", help="identity (default) | indicator:<u>")
    p.add_argument("--sign-mu", default="pos", help="pos | neg")
    p.add_argument("--sign-tau", default="neg", help="pos | neg | zero")
    p.add_argument("--auto-flip-sign", action="store_true",
                   help="flip the declared sign of mu to match the estimate")
    p.add_argument("--format", default="text", choices=("text", "json"))


def _add_estimate_flags(p: argparse.ArgumentParser) -> None:
    _add_contrast_flags(p)
    p.add_argument("--pi", default="treatment-ratio",
                   help="const:<v> | treatment-ratio | stratum")
    p.add_argument("--epsilon", type=float, default=None,
                   help="wrong-anticipation rate (imperfect-anticipation bounds)")


def _panel_flags(args) -> None:
    """Reject --input, --g and --layout in summary mode, which reads no
    panel, then fill in the defaults of --g and --layout, which the
    manifest records in either mode."""
    if getattr(args, "summary", None):
        given = [f"--{name}" for name in ("input", "g", "layout") if getattr(args, name) is not None]
        if given:
            raise CliError(f"--summary reads no panel, so {', '.join(given)} cannot be given with it")
    if args.g is None:
        args.g = "identity"
    if args.layout is None:
        args.layout = "wide"


def _estimate_payload(args):
    _panel_flags(args)
    if not args.input:
        raise CliError("--input is required")
    panel, digest = _load_panel(args.input, args.layout)
    g = _parse_g(args.g)
    pi = _parse_pi(args.pi)
    regime = _parse_regime(args.sign_mu, args.sign_tau)
    caught: list[str] = []

    if pi == "stratum":
        if panel.strata is None:
            raise CliError("--pi stratum needs a panel with a stratum column")
        strata = {}
        for label, m in conditional_estimand(panel, g).items():
            if str(label) in strata:  # a row with no stratum (None) meets the stratum "None"
                raise CliError("rows with no stratum and rows with the stratum 'None' clash")
            notes: list[str] = []
            label_regime = _reconcile(m, regime, args.auto_flip_sign, notes)
            caught += [f"stratum {label}: {w}" for w in notes]
            interval = identified_set_imperfect(
                m, treatment_ratio(panel, label), args.epsilon, label_regime
            )
            strata[str(label)] = {
                "m_hat": m,
                "pi": interval.pi_used,
                "interval": _interval_dict(interval),
            }
        results = {"strata": strata, "g": g.describe(), "pi_policy": "stratum", "warnings": caught}
        return digest, results

    if pi == "treatment-ratio":
        pi_policy, pi = "treatment_ratio", treatment_ratio(panel)
    else:
        pi_policy = f"constant({pi})"
    m_hat = did_estimand(panel, g)
    regime = _reconcile(m_hat, regime, args.auto_flip_sign, caught)
    interval = identified_set_imperfect(m_hat, pi, args.epsilon, regime)
    results = {
        "m_hat": m_hat,
        "pi_policy": pi_policy,
        "pi": pi,
        "g": g.describe(),
        "regime": regime.describe(),
        "interval": _interval_dict(interval),
        "warnings": caught,
    }
    return digest, results


def cmd_estimate(args) -> tuple[int, Iterable[str]]:
    digest, results = _estimate_payload(args)
    config = {
        "g": args.g,
        "pi": args.pi,
        "sign_mu": args.sign_mu,
        "sign_tau": args.sign_tau,
        "epsilon": args.epsilon,
        "auto_flip_sign": args.auto_flip_sign,
        "layout": args.layout,
    }
    manifest = _manifest("estimate", config, digest, results.keys())
    if args.format == "json":
        return EXIT_OK, _json_report(manifest, results)
    _print_warnings(results["warnings"])
    if "strata" in results:
        lines = [f"g: {results['g']}   pi policy: per-stratum treatment ratio"]
        for label, entry in results["strata"].items():
            iv = entry["interval"]
            lines.append(
                f"  stratum {label}: m-hat {_fmt(entry['m_hat'])}  pi {_fmt(entry['pi'])}  "
                f"set [{_fmt(iv['lower'])}, {_fmt(iv['upper'])}]"
            )
        return EXIT_OK, _text_report(lines)
    iv = results["interval"]
    return EXIT_OK, _text_report([
        f"m-hat: {_fmt(results['m_hat'])}",
        f"pi:    {_fmt(results['pi'])} ({results['pi_policy']})",
        f"signs: {results['regime']}",
        f"identified set ({iv['theorem_tag']}): [{_fmt(iv['lower'])}, {_fmt(iv['upper'])}]",
    ])


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def _add_summary_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--summary", nargs="+", metavar="k=v",
                   help="summary-statistics mode: m=<v> se=<v> [n=<v>]; n is only "
                        "recorded in the manifest, since se already reflects the sample size")


def _add_infer_flags(p: argparse.ArgumentParser) -> None:
    _add_estimate_flags(p)
    _add_summary_flags(p)


def _contrast(args):
    """(m_hat, se_m, panel, digest): the DID contrast and its standard error
    from ``--summary`` (panel None) or from the ``--input`` panel."""
    _panel_flags(args)
    if args.summary:
        summ = _parse_summary(args.summary)
        return summ["m"], summ["se"], None, {"summary": summ}
    if not args.input:
        raise CliError("either --input or --summary is required")
    panel, digest = _load_panel(args.input, args.layout)
    return (*_panel_contrast(panel, _parse_g(args.g)), panel, digest)


def _infer_payload(args):
    regime = _parse_regime(args.sign_mu, args.sign_tau)
    pi = _parse_pi(args.pi)
    if args.summary and isinstance(pi, str):
        raise CliError("summary mode needs --pi const:<v> (no panel to resolve from)")
    if pi == "stratum":
        raise CliError("per-stratum inference is not supported; use estimate --pi stratum")
    m_hat, se_m, panel, digest = _contrast(args)
    if pi == "treatment-ratio":
        pi = treatment_ratio(panel)
    caught: list[str] = []
    regime = _reconcile(m_hat, regime, args.auto_flip_sign, caught)
    interval, cs = summary_mode_infer(m_hat, se_m, pi, args.epsilon, regime, args.alpha)
    t_tilde = m_hat / se_m
    if not math.isfinite(t_tilde):
        raise CliError("m_hat / se overflows; the standard error is too small")
    verdict = None
    if regime.s == -1:
        verdict = robust_null_check(t_tilde, args.alpha, regime)
    results = {
        "m_hat": m_hat,
        "pi": pi,
        "regime": regime.describe(),
        "interval": _interval_dict(interval),
        "confidence_set": {
            "lower": cs.lower,
            "upper": cs.upper,
            "c_n": cs.c_n,
            "alpha": cs.alpha,
            "delta_hat": cs.delta_hat,
        },
        "sigma": {"se_l": cs.se_l, "se_u": cs.se_u, "se_m": cs.se_m, "se": cs.se},
        "t_tilde": t_tilde,
        "robust_null": verdict,
        "warnings": caught,
    }
    return digest, results


def cmd_infer(args) -> tuple[int, Iterable[str]]:
    digest, results = _infer_payload(args)
    config = {
        "g": args.g,
        "pi": args.pi,
        "sign_mu": args.sign_mu,
        "sign_tau": args.sign_tau,
        "epsilon": args.epsilon,
        "alpha": args.alpha,
        "auto_flip_sign": args.auto_flip_sign,
        "layout": args.layout,
        "summary_mode": bool(args.summary),
    }
    manifest = _manifest("infer", config, digest, results.keys())
    if args.format == "json":
        return EXIT_OK, _json_report(manifest, results)
    _print_warnings(results["warnings"])
    iv = results["interval"]
    cs = results["confidence_set"]
    lines = [
        f"m-hat: {_fmt(results['m_hat'])}   pi: {_fmt(results['pi'])}   signs: {results['regime']}",
        f"identified set ({iv['theorem_tag']}): [{_fmt(iv['lower'])}, {_fmt(iv['upper'])}]",
        f"confidence set ({cs['alpha']:g}): [{_fmt(cs['lower'])}, {_fmt(cs['upper'])}]"
        f"   C_n {_fmt(cs['c_n'])}",
        f"t-statistic (no anticipation): {_fmt(results['t_tilde'])}",
    ]
    if results["robust_null"] is not None:
        lines.append(f"zero-effect null: {results['robust_null']}")
    return EXIT_OK, _text_report(lines)


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def _add_sensitivity_flags(p: argparse.ArgumentParser) -> None:
    """The infer flags without --pi and --epsilon, which the grids replace."""
    _add_contrast_flags(p)
    _add_summary_flags(p)
    p.add_argument("--pi-grid", required=True, help="comma-separated pi values")
    p.add_argument("--epsilon-grid", default=None, help="comma-separated epsilon values")


# Stands in for the rows of a sensitivity report while the encoder
# formats the rest; _with_sweep_rows puts the rows' text in its place.
_ROWS = "\0sweep rows\0"

# One row as json.dumps(report, sort_keys=True, indent=2) lays it out at
# its depth.  Every number is a finite float, which the sweep ensures and
# whose repr is its JSON.
_SWEEP_ROW = (
    '      {\n        "cs_l": %r,\n        "cs_u": %r,\n        "epsilon": %s,\n'
    '        "pi": %r,\n        "set_l": %r,\n        "set_u": %r\n      }'
)


def _with_sweep_rows(report: Iterable[str], rows) -> Iterator[str]:
    """``report``'s pieces, with the piece of ``_ROWS`` replaced by the
    list of ``rows`` (at least one), one piece a row: the rows are never
    dicts, nor encoded piece by piece."""
    placeholder = json.dumps(_ROWS)
    for piece in report:
        if piece != placeholder:
            yield piece
            continue
        sep = "[\n"
        for r in rows:
            eps = "null" if r.epsilon is None else repr(r.epsilon)
            yield sep + _SWEEP_ROW % (r.cs_lower, r.cs_upper, eps, r.pi, r.set_lower, r.set_upper)
            sep = ",\n"
        yield "\n    ]"


def cmd_sensitivity(args) -> tuple[int, Iterable[str]]:
    regime = _parse_regime(args.sign_mu, args.sign_tau)
    pis = _parse_float_list(args.pi_grid, "--pi-grid")
    eps_grid = (
        _parse_float_list(args.epsilon_grid, "--epsilon-grid")
        if args.epsilon_grid
        else [None]
    )
    m_hat, se, _, digest = _contrast(args)
    caught: list[str] = []
    regime = _reconcile(m_hat, regime, args.auto_flip_sign, caught)
    grid = [(pi, eps) for pi in pis for eps in eps_grid]
    rows = sensitivity_sweep(m_hat, se, 1, grid, regime, args.alpha)
    cutoff = robustness_cutoff(rows)
    config = {
        "pi_grid": pis,
        "epsilon_grid": None if eps_grid == [None] else eps_grid,
        "sign_mu": args.sign_mu,
        "sign_tau": args.sign_tau,
        "alpha": args.alpha,
        "m_hat": m_hat,
        "se": se,
    }
    if args.format == "json":
        results = {"rows": _ROWS, "robustness_cutoff_pi": cutoff, "warnings": caught}
        report = _json_report(_manifest("sensitivity", config, digest, results.keys()), results)
        return EXIT_OK, _with_sweep_rows(report, rows)
    _print_warnings(caught)
    lines = (
        f"{r.pi!r},{'' if r.epsilon is None else repr(r.epsilon)},"
        f"{r.set_lower!r},{r.set_upper!r},{r.cs_lower!r},{r.cs_upper!r}"
        for r in rows
    )
    footer = f"# robustness_cutoff_pi={'none' if cutoff is None else repr(cutoff)}"
    return EXIT_OK, _text_report(chain(["pi,epsilon,set_l,set_u,cs_l,cs_u"], lines, [footer]))


# ---------------------------------------------------------------------------
# cic
# ---------------------------------------------------------------------------

def _add_cic_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="long-layout panel CSV path")
    p.add_argument("--q", required=True, help="comma-separated quantile levels")
    p.add_argument("--pi", type=float, required=True)
    p.add_argument("--sign-mu", default="pos", help="pos | neg")
    p.add_argument("--sign-tau", default="neg", help="pos | neg | zero")
    p.add_argument("--format", default="text", choices=("text", "json"))


def cmd_cic(args) -> tuple[int, Iterable[str]]:
    regime = _parse_regime(args.sign_mu, args.sign_tau)
    qs = _parse_float_list(args.q, "--q")
    panel, digest = _load_panel(args.input, "long")
    data = CicData.from_panel(panel)
    rows = []
    for q in qs:
        res = cic_identified_set(q, args.pi, regime, data)
        rows.append(
            {
                "q": q,
                "m_q": _jsonable(res.m_q),
                "phi_u": res.phi_u,
                "phi_l": res.phi_l,
                "phi_tilde_u": _jsonable(res.phi_tilde_u),
                "phi_tilde_l": _jsonable(res.phi_tilde_l),
                "set_l": _jsonable(res.raw_lower),
                "set_u": _jsonable(res.raw_upper),
                "empty": res.is_empty,
            }
        )
    config = {
        "q": qs,
        "pi": args.pi,
        "sign_mu": args.sign_mu,
        "sign_tau": args.sign_tau,
    }
    if args.format == "json":
        results = {"rows": rows}
        return EXIT_OK, _json_report(_manifest("cic", config, digest, results.keys()), results)
    lines = ["q      m_q        phi_u      phi_l      phi~_u     phi~_l     set"]
    for r in rows:
        set_txt = (
            "EMPTY identified set (bound candidates cross); reported, not clamped"
            if r["empty"]
            else f"[{_fmt(r['set_l'])}, {_fmt(r['set_u'])}]"
        )
        lines.append(
            f"{r['q']:<6g} {_fmt(r['m_q']):<10} {_fmt(r['phi_u']):<10} "
            f"{_fmt(r['phi_l']):<10} {_fmt(r['phi_tilde_u']):<10} "
            f"{_fmt(r['phi_tilde_l']):<10} {set_txt}"
        )
    return EXIT_OK, _text_report(lines)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _add_simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True,
                   choices=("benchmark", "imperfect", "toy", "staggered", "identity"))
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=20260808)
    p.add_argument("--mu", type=float, default=0.2)
    p.add_argument("--tau", type=float, default=-0.2)
    p.add_argument("--lam", type=float, default=0.3, help="anticipation probability")
    p.add_argument("--lambda-grid", default="0,0.2,0.4",
                   help="benchmark scenario: anticipation probabilities")
    p.add_argument("--pi", type=float, default=0.4)
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--p-treat", type=float, default=0.5)
    p.add_argument("--noise-sd", type=float, default=1.0)
    p.add_argument("--noise-rho", type=float, default=0.5)
    p.add_argument("--noise-dist", default="normal", choices=("normal", "student_t"))
    p.add_argument("--tau1", type=float, default=0.3)
    p.add_argument("--tau2", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.9)
    p.add_argument("--toy-alpha", type=float, default=1.0)
    p.add_argument("--toy-power", type=float, default=2.0)
    p.add_argument("--periods", type=int, default=4)
    p.add_argument("--cohort-shares", default="0,0.25,0.25")
    p.add_argument("--e", type=int, default=3)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--tpost", type=int, default=4)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--coverage-threshold", type=float, default=0.945)
    p.add_argument("--falsify", action="store_true",
                   help="tag the run as a falsification study (assumption-violating)")


def cmd_simulate(args) -> tuple[int, Iterable[str]]:
    scenario = args.scenario
    base = dict(
        n=args.n,
        mu=args.mu,
        tau=args.tau,
        p_treat=args.p_treat,
        noise_sd=args.noise_sd,
        noise_rho=args.noise_rho,
        noise_dist=args.noise_dist,
        delta=args.delta,
        seed=args.seed,
        falsification=args.falsify,
    )
    if not 0.0 <= args.coverage_threshold <= 1.0:
        raise CliError(
            f"--coverage-threshold must lie in [0, 1], got {args.coverage_threshold}"
        )
    workers = resolve_workers(args.workers, os.cpu_count())
    if scenario == "benchmark":
        lams = _parse_float_list(args.lambda_grid, "--lambda-grid")
        grid = [DgpConfig(lam=l, **base) for l in lams]
        report = coverage_study(grid, args.pi, args.alpha, args.reps, workers=workers)
        config = {"scenario": scenario, "grid": [c.to_dict() for c in grid],
                  "pi": args.pi, "alpha": args.alpha, "reps": args.reps}
    elif scenario == "imperfect":
        cfg = DgpConfig(lam=args.lam, epsilon=args.epsilon, **base)
        report = decomposition_check(cfg, variant="imperfect")
        config = {"scenario": scenario, "config": cfg.to_dict()}
    elif scenario == "toy":
        cfg = DgpConfig(lam=0.0, toy_alpha=args.toy_alpha, toy_power=args.toy_power, **base)
        report = toy_bound_check(cfg)
        config = {"scenario": scenario, "config": cfg.to_dict()}
    elif scenario == "staggered":
        cfg = DgpConfig(lam=args.lam, **base)
        shares = _parse_float_list(args.cohort_shares, "--cohort-shares")
        report = staggered_identity_check(
            cfg, T=args.periods, cohort_shares=shares, e=args.e, s=args.s, t=args.tpost
        )
        config = {"scenario": scenario, "config": cfg.to_dict(),
                  "cohort_shares": shares, "periods": args.periods,
                  "e": args.e, "s": args.s, "t": args.tpost}
    else:  # identity
        cfg = DgpConfig(lam=args.lam, tau1=args.tau1, tau2=args.tau2, **base)
        report = post_treatment_identity_check(cfg, reps=args.reps)
        config = {"scenario": scenario, "config": cfg.to_dict(), "reps": args.reps}
    results = report.to_dict()
    if scenario == "benchmark":
        passed = args.falsify or report.min_coverage >= args.coverage_threshold
        results["threshold"] = args.coverage_threshold
        results["verdict"] = (
            "falsification run; threshold gating skipped" if args.falsify
            else "pass" if passed else "fail"
        )
    else:
        passed = report.passed
    manifest = _manifest("simulate", config, {}, results.keys(), seed=args.seed)
    return (EXIT_OK if passed else EXIT_THRESHOLD), _json_report(manifest, results)


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antebounds",
        description="Treatment-effect bounds and inference under anticipatory behavior",
    )
    parser.add_argument("--version", action="version", version=f"antebounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # No abbreviations: argparse would read a flag that prefixes another,
    # such as sensitivity's --pi or simulate's --lambda, as the longer one.
    add = partial(sub.add_parser, allow_abbrev=False)
    _add_estimate_flags(add("estimate", help="identified sets from panel data"))
    _add_infer_flags(add("infer", help="add confidence sets and the robust-null verdict"))
    _add_sensitivity_flags(add("sensitivity", help="sweep pi (and epsilon) grids"))
    _add_cic_flags(add("cic", help="changes-in-changes quantile bounds"))
    _add_simulate_flags(add("simulate", help="seeded Monte Carlo studies"))
    return parser


_HANDLERS = {
    "estimate": cmd_estimate,
    "infer": cmd_infer,
    "sensitivity": cmd_sensitivity,
    "cic": cmd_cic,
    "simulate": cmd_simulate,
}


def _write_report(pieces: Iterable[str]) -> None:
    """Write a report to stdout, ``_WRITE_BATCH`` pieces at a time, then its
    final newline, so that no copy of the whole text is ever made."""
    pieces = iter(pieces)
    try:
        while batch := list(islice(pieces, _WRITE_BATCH)):
            sys.stdout.write("".join(batch))
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`... | head`), which is no
        # defect.  Point stdout at os.devnull so that the flush at exit
        # cannot fail again (the recipe in the Python `signal` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # A handler returns only once its report is complete, so an error
        # exit leaves stdout empty.
        code, pieces = _HANDLERS[args.command](args)
        _write_report(pieces)
        return code
    except ValueError as exc:  # CliError and PanelFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoRootInBracketError, DegenerateVarianceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        # a defect, not a verdict: exit 1 stays reserved for thresholds
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
