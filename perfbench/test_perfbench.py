"""Tests of the benchmark's own code.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
import spans
from antebounds.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("write", [inputs.write_wide, inputs.write_long])
def test_generator_is_deterministic_in_the_seed(tmp_path, write):
    def digest(seed, name):
        path = tmp_path / name
        write(path, inputs.draw_panel(seed, n=500, mu=0.2, tau=-0.2, lam=0.3))
        return inputs.sha256_file(path)

    assert digest(7, "a.csv") == digest(7, "b.csv")
    assert digest(7, "a.csv") != digest(8, "c.csv")


def test_self_time_subtracts_the_time_children_cover():
    tree = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 6.0, 0],
        ["e", 12.0, 13.0, None],
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_layer_metrics_sum_spans_and_derive_ratios():
    tree = [
        ["cli.main", 0.0, 10.0, None],
        ["panel.load_two_period", 1.0, 5.0, 0],
        ["numerics.solve_monotone", 6.0, 7.0, 0],
        ["numerics.solve_monotone", 7.0, 9.0, 0],
    ]
    counts = {"panel.load_two_period.rows": 400, "numerics.solve_monotone.evals": 70}
    names = [p["name"] for p in run.SPEC["per_layer"]]
    m = spans.layer_metrics(tree, counts, names)
    assert set(m) == set(names) - {"trace.overhead_frac"}
    assert m["cli.main.s"] == 10.0 and m["cli.main.self_s"] == 3.0
    assert m["panel.load_two_period.rows_per_s"] == 100.0
    assert m["numerics.solve_monotone.calls"] == 2
    assert m["numerics.solve_monotone.s"] == 3.0
    assert m["numerics.solve_monotone.evals_per_call"] == 35.0
    assert m["cic.solve_phi.calls"] == 0


def _cli_json(capsys, argv):
    assert cli_main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def small_panel():
    return inputs.draw_panel(11, n=2000, mu=0.2, tau=-0.2, lam=0.3)


def test_infer_check_rejects_corrupted_output(tmp_path, capsys, small_panel):
    path = tmp_path / "wide.csv"
    inputs.write_wide(path, small_panel)
    doc = _cli_json(capsys, ["infer", "--input", str(path), "--pi", "const:0.4",
                             "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json"])
    assert checks.check_infer(doc, small_panel, 0.4, 0.95) == []

    def corrupt(edit):
        bad = copy.deepcopy(doc)
        edit(bad["results"])
        return checks.check_infer(bad, small_panel, 0.4, 0.95)

    iv = doc["results"]["interval"]
    assert corrupt(lambda r: r["confidence_set"].update(lower=iv["lower"] + 1e-6))
    assert corrupt(lambda r: r.update(m_hat=r["m_hat"] * (1 + 1e-6)))
    assert corrupt(lambda r: r["interval"].update(lower=r["interval"]["upper"] / 1.5))
    assert corrupt(lambda r: r["confidence_set"].update(c_n=1.6))
    assert corrupt(lambda r: r.update(t_tilde=r["t_tilde"] * 1.01))


def test_cic_check_rejects_corrupted_output(tmp_path, capsys):
    panel = inputs.draw_panel(12, n=2000, mu=0.2, tau=0.2, lam=0.3)
    path = tmp_path / "long.csv"
    inputs.write_long(path, panel)
    qs = [0.1, 0.25, 0.5, 0.75, 0.9]
    doc = _cli_json(capsys, ["cic", "--input", str(path), "--q", run._csv(qs), "--pi", "0.3",
                             "--sign-mu", "pos", "--sign-tau", "pos", "--format", "json"])
    assert checks.check_cic(doc, panel, qs, 0.3) == []

    def corrupt(edit):
        bad = copy.deepcopy(doc)
        edit(bad["results"]["rows"])
        return checks.check_cic(bad, panel, qs, 0.3)

    assert corrupt(lambda rows: rows.reverse())
    assert corrupt(lambda rows: rows.pop())
    assert corrupt(lambda rows: rows[2].update(m_q=rows[2]["m_q"] + 1e-9))
    assert corrupt(lambda rows: rows[3].update(phi_tilde_u=rows[3]["phi_tilde_u"] + 1e-9))
    assert corrupt(lambda rows: rows[1].update(empty=not rows[1]["empty"]))


def test_sensitivity_check_rejects_corrupted_output(capsys):
    pis, epsilons = [0.0, 0.3, 0.6, 0.9], [0.0, 0.5, 1.0]
    doc = _cli_json(capsys, ["sensitivity", "--summary", "m=0.013", "se=0.0046",
                             "--pi-grid", run._csv(pis), "--epsilon-grid", run._csv(epsilons),
                             "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json"])
    args = (0.013, 0.0046, pis, epsilons, 0.95)
    assert checks.check_sensitivity(doc, *args) == []

    def corrupt(edit):
        bad = copy.deepcopy(doc)
        edit(bad["results"])
        return checks.check_sensitivity(bad, *args)

    def swap(r):
        r["rows"][1], r["rows"][2] = r["rows"][2], r["rows"][1]

    assert corrupt(swap)
    assert corrupt(lambda r: r["rows"][4].update(cs_u=r["rows"][4]["set_u"] - 1e-6))
    assert corrupt(lambda r: r["rows"][5].update(set_l=r["rows"][5]["set_l"] * 0.99))
    assert corrupt(lambda r: r["rows"][6].update(cs_l=r["rows"][6]["cs_l"] - 1e-3))
    assert corrupt(lambda r: r.update(robustness_cutoff_pi=0.0))


def test_coverage_checks_reject_a_failed_gate_and_changed_bytes():
    points = [{"lam": lam, "reps": 2000, "coverage": 0.96} for lam in run.LAMBDAS]
    doc = {"results": {"verdict": "pass", "min_coverage": 0.96, "points": points}}
    assert checks.check_coverage(doc, run.LAMBDAS, run.REPS) == []
    failed = copy.deepcopy(doc)
    failed["results"]["verdict"] = "fail"
    assert checks.check_coverage(failed, run.LAMBDAS, run.REPS)
    assert checks.check_coverage(doc, run.LAMBDAS, 500)
    assert checks.check_identical(b"{}\n", b"{}\n") == []
    assert checks.check_identical(b"{}\n", b"{} \n")


def test_traced_run_counts_each_layer(tmp_path, small_panel):
    path = tmp_path / "wide.csv"
    inputs.write_wide(path, small_panel)
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "spans.py"), "--out", str(out), "--",
         "infer", "--input", str(path), "--pi", "const:0.4", "--sign-mu", "pos",
         "--sign-tau", "neg", "--format", "json"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert checks.check_infer(json.loads(proc.stdout), small_panel, 0.4, 0.95) == []
    recorded = json.loads(out.read_text())
    m = spans.layer_metrics(recorded["spans"], recorded["counts"],
                            [p["name"] for p in run.SPEC["per_layer"]])
    assert m["panel.group_stats.calls"] == 3
    assert m["panel.TwoPeriodPanel.calls"] == 1
    assert m["inference.critical_value_cn.calls"] == 1
    assert m["numerics.solve_monotone.calls"] == 2  # C_n and t*
    assert m["panel.load_two_period.rows_per_s"] > 0
    assert 0 < m["cli.main.self_s"] < m["cli.main.s"]


def test_child_peak_memory_excludes_the_parent(tmp_path):
    ballast = bytearray(b"\1") * (100 * 2**20)  # raises this process's peak RSS
    inv = run.Runner(ROOT / "src", tmp_path)(["-c", "pass"])
    assert len(ballast) and inv.exit_code == 0
    assert inv.peak_rss_mb < 50


def test_reference_run_counts_as_an_attempt(tmp_path):
    def exits_zero(code, out):
        return [] if code == 0 else [f"exit code {code}"]

    runner = run.Runner(ROOT / "src", tmp_path)
    broken = run.Measurement(runner, run.Workload(["--version"], exits_zero,
                                                  reference_argv=["--no-such-flag"]))
    broken.run_reference()
    broken.invoke(run.CLI)
    assert (broken.attempted, broken.failed) == (2, 1)

    differs = run.Measurement(runner, run.Workload(["--help"], exits_zero,
                                                   reference_argv=["--version"]))
    differs.run_reference()
    differs.invoke(run.CLI)
    assert (differs.attempted, differs.failed) == (2, 1)
