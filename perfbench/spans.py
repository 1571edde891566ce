"""Traced run: spans around the package's public functions, per layer.

Run as a script, it calls ``antebounds.cli.main(argv)`` in this process
with timing wrappers installed, and writes the spans and counters as JSON
when the run ends::

    PYTHONPATH=src python3 perfbench/spans.py --out spans.json -- infer --input ...

Spans live in memory while the program runs; each is ``[name, start, end,
parent]`` with ``parent`` the index of the enclosing span.  Leaf calls such
as ``std_normal_cdf`` are deliberately not wrapped: a wrapper costs about
as much as the call.  Pool workers started by fork record into their own
memory, which is lost, so only the parent's spans are reported.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# Span name -> (module, attribute) of each plain function that is wrapped.
FUNCTIONS = {
    "cli.main": [("cli", "main")],
    "panel.group_stats": [("panel", "group_stats")],
    "bounds.did_estimand": [("bounds", "did_estimand")],
    "bounds.identified_set": [("bounds", "identified_set_benchmark"),
                              ("bounds", "identified_set_imperfect")],
    "bounds.sensitivity_sweep": [("bounds", "sensitivity_sweep")],
    "inference.bound_variances": [("inference", "bound_variances")],
    "inference.confidence_set": [("inference", "confidence_set")],
    "inference.critical_value_cn": [("inference", "critical_value_cn")],
    "inference.summary_mode_infer": [("inference", "summary_mode_infer")],
    "inference.tstar": [("inference", "tstar")],
    "cic.cic_identified_set": [("cic", "cic_identified_set")],
    "cic.solve_phi": [("cic", "solve_phi")],
    "simulate.generate_two_period": [("simulate", "generate_two_period")],
    "simulate.coverage_study": [("simulate", "coverage_study")],
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return traced


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` in every antebounds namespace that holds it, since
    ``from .x import y`` copies the name into the importing module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "antebounds" or name.startswith("antebounds.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions; import antebounds first."""
    import antebounds.cli  # noqa: F401  (loads every module the CLI uses)
    from antebounds import cic, numerics, panel

    modules = {name: sys.modules[f"antebounds.{name}"]
               for name in ("cli", "panel", "bounds", "inference", "cic", "simulate")}
    for span, targets in FUNCTIONS.items():
        for module, attr in targets:
            original = getattr(modules[module], attr)
            _replace_everywhere(original, tracer.wrap(span, original))

    load = panel.load_two_period

    def load_two_period(source, layout="wide"):
        result = load(source, layout=layout)
        tracer.counts["panel.load_two_period.rows"] += result.n * (2 if layout == "long" else 1)
        return result

    _replace_everywhere(load, tracer.wrap("panel.load_two_period", load_two_period))

    solve = numerics.solve_monotone

    def solve_monotone(f, bracket):
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return f(x)

        try:
            return solve(counted, bracket)
        finally:
            tracer.counts["numerics.solve_monotone.evals"] += evals

    _replace_everywhere(solve, tracer.wrap("numerics.solve_monotone", solve_monotone))

    panel.TwoPeriodPanel.__post_init__ = tracer.wrap(
        "panel.TwoPeriodPanel", panel.TwoPeriodPanel.__post_init__)
    from_panel = cic.CicData.__dict__["from_panel"].__func__
    cic.CicData.from_panel = staticmethod(tracer.wrap("cic.CicData.from_panel", from_panel))


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans: list, counts: dict, names: list[str]) -> dict[str, float]:
    """The named per-layer metrics, ``<span>.<stat>``, that spans and
    counters give; layers the run never entered read 0."""
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
    load_s = total["panel.load_two_period"]
    rows = counts.get("panel.load_two_period.rows", 0)
    solves = calls["numerics.solve_monotone"]
    evals = counts.get("numerics.solve_monotone.evals", 0)
    derived = {
        "panel.load_two_period.rows_per_s": rows / load_s if load_s else 0.0,
        "numerics.solve_monotone.evals_per_call": evals / solves if solves else 0.0,
    }
    by_stat = {"s": total, "self_s": own, "calls": calls}
    out = {}
    for metric in names:
        span, _, stat = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif stat in by_stat:
            out[metric] = by_stat[stat][span]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: spans.py --out <file> -- <antebounds arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    import antebounds.cli

    try:
        return antebounds.cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
