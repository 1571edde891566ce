"""Benchmark runner for the antebounds CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload infer_wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One benchmark process generates the workload's inputs from ``--seed``, then
runs the real CLI (``antebounds.cli:main``, the console script's entry
point, from ``src/``) as a child process, one invocation at a time, for
``--seconds``, checking every output against its own numpy reference.
Child CPU time and peak memory come from ``os.wait4`` in ``launch.py``,
which also counts the pool workers a child has waited for.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced invocations with traced ones (``spans.py``) and reports the
per-layer metrics plus the tracing overhead.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
# Workload and metric names, units and order come from this one file.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CLI = ["-c", "import sys; from antebounds.cli import main; sys.exit(main())"]
TRACED = [str(HERE / "spans.py")]
LAUNCH = HERE / "launch.py"
MIN_SAMPLES = 3
SETUP_SAMPLES = 5

ALPHA = 0.95
INFER_PI = 0.4
CIC_PI = 0.3
CIC_QS = [round(0.01 * i, 2) for i in range(1, 100)]
SUMMARY_M, SUMMARY_SE = 0.013, 0.0046
PI_GRID = [round(0.005 * i, 3) for i in range(198)]
EPSILON_GRID = [round(0.05 * i, 2) for i in range(21)]
LAMBDAS = [0.0, 0.2, 0.4]  # the CLI defaults, checked in the output
REPS = 2000


def _csv(values: list[float]) -> str:
    return ",".join(repr(v) for v in values)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes


@dataclass
class Workload:
    """One CLI command on seeded inputs, with the check for its output."""

    argv: list[str]
    check: Callable[[int, bytes], list[str]]  # (exit code, stdout) -> problems
    inputs: tuple[str, ...] = ()  # "file rows sha256" of each generated input
    # An untimed command whose stdout every timed run must equal byte for byte.
    reference_argv: list[str] | None = None


def _json_check(check, *args):
    def run(exit_code: int, out: bytes) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            return check(json.loads(out), *args)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed output: {exc!r}"]

    return run


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs under ``work`` and bind its check."""
    if name == "infer_wide":
        panel = inputs.draw_panel(seed, n=200_000, mu=0.2, tau=-0.2, lam=0.3)
        path = work / "wide.csv"
        inputs.write_wide(path, panel)
        argv = ["infer", "--input", str(path), "--pi", f"const:{INFER_PI}",
                "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json"]
        check = _json_check(checks.check_infer, panel, INFER_PI, ALPHA)
        return Workload(argv, check, (f"wide.csv 200000 {inputs.sha256_file(path)}",))
    if name == "cic_long":
        panel = inputs.draw_panel(seed, n=50_000, mu=0.2, tau=0.2, lam=0.3)
        path = work / "long.csv"
        inputs.write_long(path, panel)
        argv = ["cic", "--input", str(path), "--q", _csv(CIC_QS), "--pi", str(CIC_PI),
                "--sign-mu", "pos", "--sign-tau", "pos", "--format", "json"]
        check = _json_check(checks.check_cic, panel, CIC_QS, CIC_PI)
        return Workload(argv, check, (f"long.csv 100000 {inputs.sha256_file(path)}",))
    if name == "sensitivity_grid":
        argv = ["sensitivity", "--summary", f"m={SUMMARY_M}", f"se={SUMMARY_SE}",
                "--pi-grid", _csv(PI_GRID), "--epsilon-grid", _csv(EPSILON_GRID),
                "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json"]
        check = _json_check(checks.check_sensitivity, SUMMARY_M, SUMMARY_SE,
                            PI_GRID, EPSILON_GRID, ALPHA)
        return Workload(argv, check)
    if name == "coverage_mc":
        argv = ["simulate", "--scenario", "benchmark", "--seed", str(seed), "--workers"]
        # The reference runs on a two-worker process pool, so each timed
        # single-worker run checks the determinism contract.
        return Workload(argv + ["1"], _json_check(checks.check_coverage, LAMBDAS, REPS),
                        reference_argv=argv + ["2"])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class Runner:
    """Runs one child at a time through ``launch.py``, which measures it
    from spawn to exit."""

    def __init__(self, src: Path, work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.out = work / "stdout"
        self.err = work / "stderr"
        self.report = work / "report.json"

    def __call__(self, args: list[str]) -> Invocation:
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            subprocess.run([sys.executable, "-S", str(LAUNCH), str(self.report),
                            sys.executable, *args],
                           stdout=out, stderr=err, env=self.env, check=True)
        return Invocation(**json.loads(self.report.read_text()),
                          stdout=self.out.read_bytes())

    def stderr_tail(self) -> str:
        return self.err.read_text(errors="replace")[-500:]


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} p25={q1:.4g} p75={q3:.4g} [{' '.join(f'{v:.4g}' for v in values)}]"


class Measurement:
    """Invocations of one workload and their check results."""

    def __init__(self, runner: Runner, workload: Workload):
        self.runner, self.workload = runner, workload
        self.attempted = self.failed = 0
        self.reference: bytes | None = None

    def _run(self, args: list[str]) -> tuple[Invocation, list[str]]:
        inv = self.runner(args)
        problems = self.workload.check(inv.exit_code, inv.stdout)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {problems[:3]}; stderr: {self.runner.stderr_tail()!r}")
        return inv, problems

    def run_reference(self) -> None:
        """Run the workload's untimed reference command, counted like any
        other invocation; timed runs are compared with it only if it passed."""
        if self.workload.reference_argv is not None:
            inv, problems = self._run(CLI + self.workload.reference_argv)
            if not problems:
                self.reference = inv.stdout

    def invoke(self, prefix: list[str]) -> Invocation:
        inv, problems = self._run(prefix + self.workload.argv)
        if not problems and self.reference is not None:
            mismatch = checks.check_identical(inv.stdout, self.reference)
            if mismatch:
                self.failed += 1
                print(f"check failed: {mismatch}")
        return inv


def setup_sample(runner: Runner) -> float:
    inv = runner(CLI + ["--version"])
    if inv.exit_code != 0 or not inv.stdout.startswith(b"antebounds "):
        raise RuntimeError(f"antebounds --version failed: {runner.stderr_tail()!r}")
    return inv.wall_s


def measure_end_to_end(m: Measurement, seconds: float) -> dict:
    runs, setups = [], []
    start = time.perf_counter()
    while True:
        runs.append(m.invoke(CLI))
        setups.append(setup_sample(m.runner))
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_SAMPLES and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(m.runner))
    series = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": setups,
    }
    metrics = {}
    for spec in SPEC["end_to_end"]:
        name, unit, values = spec["name"], spec["unit"], series[spec["name"]]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:<12} {metrics[name]['value']:.6g} {unit:<4} median, {_quartiles(values)}")
    return metrics


def measure_layers(m: Measurement, seconds: float, work: Path) -> dict:
    plain, traced, layers = [], [], []
    span_file = work / "spans.json"
    names = [p["name"] for p in SPEC["per_layer"]]
    start = time.perf_counter()
    while True:
        plain.append(m.invoke(CLI).wall_s)
        inv = m.invoke(TRACED + ["--out", str(span_file), "--"])
        if inv.exit_code == 0:
            traced.append(inv.wall_s)
            recorded = json.loads(span_file.read_text())
            layers.append(spans.layer_metrics(recorded["spans"], recorded["counts"], names))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    if not layers:
        raise RuntimeError(f"no traced run succeeded: {m.runner.stderr_tail()!r}")
    values = {key: statistics.median(run[key] for run in layers) for key in layers[0]}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    print(f"traced wall {statistics.median(traced):.4g} s vs untraced "
          f"{statistics.median(plain):.4g} s, {_quartiles(plain)}")
    metrics = {}
    for spec in SPEC["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<40} {values[name]:.6g} {unit}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        runner = Runner(root / "src", work)
        setup_sample(runner)  # warm-up: byte-compiles the package, fills caches
        workload = prepare(name, seed, work)
        print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
        for line in workload.inputs:
            print(f"input {line}")
        m = Measurement(runner, workload)
        m.run_reference()
        if trace:
            metrics = measure_layers(m, seconds, work)
        else:
            metrics = measure_end_to_end(m, seconds)
        print(f"failed_frac  {m.failed / m.attempted:.6g} frac ({m.failed} of {m.attempted})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "antebounds" / "cli.py").is_file():
        print("error: run from the root of an antebounds checkout (no src/antebounds)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), root) for n in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
