"""Command-line surface: flags, exit codes, JSON determinism, rendering."""

import io
import json
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sets_oracle
from antebounds import cli
from antebounds.bounds import (
    SignRegime,
    SweepRow,
    identified_set_benchmark,
    identified_set_imperfect,
    sensitivity_sweep,
)
from antebounds.cli import CliError, main, resolve_workers
from antebounds.panel import load_two_period, treatment_ratio

HAND_WIDE = "unit_id,y0,y1,d\na,1.0,3.0,1\nb,1.0,3.0,1\nc,0.0,1.0,0\ne,0.0,1.0,0\n"


@pytest.fixture
def hand_csv(tmp_path):
    path = tmp_path / "hand.csv"
    path.write_text(HAND_WIDE)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_hand_panel(self, capsys, hand_csv):
        code, out, _ = run(capsys, [
            "estimate", "--input", hand_csv, "--layout", "wide",
            "--pi", "const:0.5", "--sign-mu", "pos", "--sign-tau", "neg",
        ])
        assert code == 0
        assert "m-hat: 1" in out
        assert "[0.666667, 1]" in out

    def test_treatment_ratio_same_set(self, capsys, hand_csv):
        code, out, _ = run(capsys, [
            "estimate", "--input", hand_csv, "--pi", "treatment-ratio",
            "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        iv = payload["results"]["interval"]
        assert iv["lower"] == pytest.approx(1 / 1.5)
        assert iv["upper"] == 1.0
        assert payload["results"]["pi"] == 0.5

    def test_zero_tau_degenerate(self, capsys, hand_csv):
        code, out, _ = run(capsys, [
            "estimate", "--input", hand_csv, "--pi", "const:0.5",
            "--sign-mu", "pos", "--sign-tau", "zero", "--format", "json",
        ])
        assert code == 0
        iv = json.loads(out)["results"]["interval"]
        assert iv["lower"] == iv["upper"] == 1.0

    def test_epsilon_interval(self, capsys, hand_csv):
        code, out, _ = run(capsys, [
            "estimate", "--input", hand_csv, "--pi", "const:0.5",
            "--sign-mu", "pos", "--sign-tau", "pos", "--epsilon", "0.5",
            "--format", "json",
        ])
        assert code == 0
        iv = json.loads(out)["results"]["interval"]
        assert iv["lower"] == pytest.approx(0.8)
        assert iv["upper"] == pytest.approx(1 / 0.75)
        assert iv["theorem_tag"] == "imperfect"

    def test_stratum_path(self, capsys, tmp_path):
        # B's treated share (3/5) differs from A's (1/2) and the whole
        # panel's (5/9), so each stratum must use its own ratio
        path = tmp_path / "strat.csv"
        path.write_text(
            "unit_id,y0,y1,d,stratum\n"
            "a,1,3,1,A\nb,1,3,1,A\nc,0,1,0,A\ne,0,1,0,A\n"
            "f,0,2,1,B\ng,0,2,1,B\nh,0,1,0,B\ni,0,1,0,B\nj,0,2,1,B\n"
        )
        code, out, _ = run(capsys, [
            "estimate", "--input", str(path), "--pi", "stratum",
            "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json",
        ])
        assert code == 0
        strata = json.loads(out)["results"]["strata"]
        assert strata["A"]["m_hat"] == pytest.approx(1.0)
        assert strata["B"]["m_hat"] == pytest.approx(1.0)
        assert strata["A"]["pi"] == pytest.approx(0.5)
        assert strata["B"]["pi"] == pytest.approx(0.6)
        panel = load_two_period(path.read_text())
        for label, entry in strata.items():
            interval = identified_set_benchmark(
                entry["m_hat"], treatment_ratio(panel, label), SignRegime(1, -1)
            )
            assert entry["pi"] == interval.pi_used
            assert (entry["interval"]["lower"], entry["interval"]["upper"]) == interval.as_tuple()

    @pytest.mark.parametrize("spec", ["const:1.0", "const:-0.1"])
    def test_constant_pi_outside_unit_interval_exit_2(self, capsys, hand_csv, spec):
        code, out, err = run(capsys, ["estimate", "--input", hand_csv, "--pi", spec])
        assert code == 2 and out == ""
        assert "--pi const: unbounded identified set requires pi < 1" in err

    @pytest.mark.parametrize("spec, policy", [
        ("treatment-ratio", "treatment_ratio"),
        ("const:0.4", "constant(0.4)"),
    ])
    def test_pi_policy_names_the_cap(self, capsys, hand_csv, spec, policy):
        code, out, _ = run(capsys, [
            "estimate", "--input", hand_csv, "--pi", spec, "--format", "json",
        ])
        assert code == 0
        assert json.loads(out)["results"]["pi_policy"] == policy

    def test_sign_warning_and_autoflip(self, capsys, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("unit_id,y0,y1,d\na,1.0,0.0,1\nb,1.0,0.0,1\nc,0.0,1.0,0\ne,0.0,1.0,0\n")
        code, out, err = run(capsys, [
            "estimate", "--input", str(path), "--pi", "const:0.5",
            "--sign-mu", "pos", "--sign-tau", "neg",
        ])
        assert code == 0
        assert "contradicts declared sign" in err
        code, out, _ = run(capsys, [
            "estimate", "--input", str(path), "--pi", "const:0.5",
            "--sign-mu", "pos", "--sign-tau", "neg", "--auto-flip-sign",
            "--format", "json",
        ])
        results = json.loads(out)["results"]
        assert results["regime"] == "mu neg, tau neg"
        assert results["warnings"] == []

    def test_missing_column_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit_id,y0,d\na,1.0,1\nb,0.0,0\n")
        code, _, err = run(capsys, ["estimate", "--input", str(path)])
        assert code == 2
        assert "missing column" in err

    def test_bad_flag_exit_2(self, capsys, hand_csv):
        code, _, err = run(capsys, ["estimate", "--input", hand_csv, "--pi", "nonsense"])
        assert code == 2

    def test_json_roundtrip_full_precision(self, capsys, hand_csv):
        code, out, _ = run(capsys, [
            "estimate", "--input", hand_csv, "--pi", "const:0.3",
            "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json",
        ])
        payload = json.loads(out)
        assert payload["results"]["interval"]["lower"] == 1.0 / 1.3
        assert json.loads(json.dumps(payload)) == payload

    def test_byte_identical_reruns(self, capsys, hand_csv):
        argv = [
            "estimate", "--input", hand_csv, "--pi", "const:0.5",
            "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json",
        ]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestInfer:
    def test_summary_grade8(self, capsys):
        code, out, _ = run(capsys, [
            "infer", "--summary", "m=0.013", "se=0.0046", "n=1",
            "--pi", "const:0.5", "--sign-mu", "pos", "--sign-tau", "neg",
            "--alpha", "0.95", "--format", "json",
        ])
        assert code == 0
        cs = json.loads(out)["results"]["confidence_set"]
        assert round(cs["lower"], 3) == 0.001
        assert round(cs["upper"], 3) == 0.021

    def test_summary_zero_pi(self, capsys):
        code, out, _ = run(capsys, [
            "infer", "--summary", "m=0.5", "se=0.1",
            "--pi", "const:0", "--sign-mu", "pos", "--sign-tau", "neg",
            "--format", "json",
        ])
        cs = json.loads(out)["results"]["confidence_set"]
        assert cs["lower"] == pytest.approx(0.5 - 1.959964 * 0.1, abs=1e-4)
        assert cs["upper"] == pytest.approx(0.5 + 1.959964 * 0.1, abs=1e-4)

    def test_robust_verdict(self, capsys):
        code, out, _ = run(capsys, [
            "infer", "--summary", "m=0.35", "se=0.1",
            "--pi", "const:0.5", "--sign-mu", "pos", "--sign-tau", "neg",
        ])
        assert code == 0
        assert "robustly-rejected" in out  # t = 3.5 > 3.3

    def test_degenerate_variance_exit_3(self, capsys, tmp_path):
        # constant outcome changes within both groups -> sigma = 0
        path = tmp_path / "flat.csv"
        path.write_text(HAND_WIDE)
        code, _, err = run(capsys, [
            "infer", "--input", str(path), "--pi", "const:0.5",
            "--sign-mu", "pos", "--sign-tau", "neg",
        ])
        assert code == 3
        assert "numerical failure" in err

    def test_panel_mode_with_noise(self, capsys, tmp_path):
        rng = np.random.default_rng(81)
        rows = ["unit_id,y0,y1,d"]
        for i in range(80):
            d = 1 if i < 40 else 0
            y0 = rng.normal()
            y1 = y0 * 0.3 + rng.normal() + (0.5 if d else 0.0)
            rows.append(f"u{i},{y0},{y1},{d}")
        path = tmp_path / "noisy.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, [
            "infer", "--input", str(path), "--pi", "treatment-ratio",
            "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json",
        ])
        assert code == 0
        results = json.loads(out)["results"]
        cs = results["confidence_set"]
        iv = results["interval"]
        assert cs["lower"] < iv["lower"] and cs["upper"] > iv["upper"]

    def test_summary_requires_constant_pi(self, capsys):
        code, _, err = run(capsys, [
            "infer", "--summary", "m=0.5", "se=0.1", "--pi", "treatment-ratio",
        ])
        assert code == 2
        assert "const" in err

    def test_summary_with_stratum_pi_is_usage_error(self, capsys):
        code, out, err = run(capsys, [
            "infer", "--summary", "m=0.5", "se=0.1", "--pi", "stratum",
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestSensitivity:
    def test_figure_reproduction(self, capsys):
        code, out, _ = run(capsys, [
            "sensitivity", "--summary", "m=0.013", "se=0.0046",
            "--sign-mu", "pos", "--sign-tau", "neg",
            "--alpha", "0.95", "--pi-grid", "0.1,0.25,0.5,0.57,0.75,0.9",
        ])
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "pi,epsilon,set_l,set_u,cs_l,cs_u"
        assert "# robustness_cutoff_pi=0.75" in out

    def test_dense_grid_refines_cutoff(self, capsys):
        grid = ",".join(f"{x:.3f}" for x in np.arange(0.60, 0.80, 0.005))
        code, out, _ = run(capsys, [
            "sensitivity", "--summary", "m=0.013", "se=0.0046",
            "--sign-mu", "pos", "--sign-tau", "neg",
            "--pi-grid", grid, "--format", "json",
        ])
        cutoff = json.loads(out)["results"]["robustness_cutoff_pi"]
        assert 0.65 <= cutoff <= 0.75
        assert cutoff == pytest.approx(0.70, abs=0.01)

    def test_single_zero_grid_matches_infer(self, capsys):
        code, out, _ = run(capsys, [
            "sensitivity", "--summary", "m=0.5", "se=0.1",
            "--sign-mu", "pos", "--sign-tau", "neg",
            "--pi-grid", "0", "--format", "json",
        ])
        row = json.loads(out)["results"]["rows"][0]
        _, out2, _ = run(capsys, [
            "infer", "--summary", "m=0.5", "se=0.1",
            "--pi", "const:0", "--sign-mu", "pos", "--sign-tau", "neg",
            "--format", "json",
        ])
        cs = json.loads(out2)["results"]["confidence_set"]
        assert row["cs_l"] == cs["lower"] and row["cs_u"] == cs["upper"]
        want = sets_oracle.summary_sets(0.5, 0.1, 0.0, None, SignRegime(1, -1), 0.95)
        assert (cs["lower"], cs["upper"]) == (want["lower"], want["upper"])

    def test_epsilon_zero_matches_plain(self, capsys):
        base = [
            "sensitivity", "--summary", "m=1.0", "se=0.2",
            "--sign-mu", "pos", "--sign-tau", "neg",
            "--format", "json",
        ]
        _, out_plain, _ = run(capsys, base + ["--pi-grid", "0.4"])
        _, out_eps, _ = run(capsys, base + ["--pi-grid", "0.4", "--epsilon-grid", "0"])
        row_p = json.loads(out_plain)["results"]["rows"][0]
        row_e = json.loads(out_eps)["results"]["rows"][0]
        assert row_e["set_l"] == pytest.approx(row_p["set_l"], abs=1e-12)
        assert row_e["cs_l"] == pytest.approx(row_p["cs_l"], abs=1e-9)


    SIGN_CONTRADICTION = [
        "sensitivity", "--summary", "m=-0.013", "se=0.0046", "--sign-mu", "pos",
        "--sign-tau", "neg", "--pi-grid", "0,0.5",
    ]

    def test_sign_warning_in_json(self, capsys):
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            code, out, err = run(capsys, self.SIGN_CONTRADICTION + ["--format", "json"])
        assert code == 0
        assert raised == [] and err == ""
        caught = json.loads(out)["results"]["warnings"]
        assert len(caught) == 1 and "contradicts" in caught[0]

    def test_sign_warning_in_text(self, capsys):
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            code, out, err = run(capsys, self.SIGN_CONTRADICTION)
        assert code == 0
        assert raised == []
        assert err.startswith("warning: ") and "contradicts" in err
        assert "UserWarning" not in err
        assert out.startswith("pi,epsilon,set_l,set_u,cs_l,cs_u")


class TestCic:
    @pytest.fixture
    def long_panel(self, tmp_path):
        rng = np.random.default_rng(83)
        rows = ["unit_id,t,y,d"]
        for i in range(60):
            d = 1 if i < 30 else 0
            y0 = rng.random()
            y1 = 0.25 + 0.5 * y0 + (0.4 if d else 0.0)
            rows.append(f"u{i},0,{y0},{d}")
            rows.append(f"u{i},1,{y1},{d}")
        path = tmp_path / "cic.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_identical_groups_zero(self, capsys, tmp_path):
        rows = ["unit_id,t,y,d"]
        vals = [0.1, 0.4, 0.7, 0.9]
        for i in range(8):
            d = 1 if i < 4 else 0
            y = vals[i % 4]
            rows.append(f"u{i},0,{y},{d}")
            rows.append(f"u{i},1,{y},{d}")
        path = tmp_path / "same.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, [
            "cic", "--input", str(path), "--q", "0.25,0.5,0.75", "--pi", "0.1",
            "--sign-mu", "pos", "--sign-tau", "pos", "--format", "json",
        ])
        assert code == 0
        for row in json.loads(out)["results"]["rows"]:
            assert row["m_q"] == 0.0

    def test_unbounded_rendering(self, capsys, long_panel):
        code, out, _ = run(capsys, [
            "cic", "--input", long_panel, "--q", "0.3", "--pi", "0.5",
            "--sign-mu", "pos", "--sign-tau", "pos",
        ])
        assert code == 0
        assert "unbounded" in out

    def test_interval_tightens_as_pi_shrinks(self, capsys, long_panel):
        widths = []
        for pi in ("0.3", "0.1", "0.0"):
            _, out, _ = run(capsys, [
                "cic", "--input", long_panel, "--q", "0.5", "--pi", pi,
                "--sign-mu", "pos", "--sign-tau", "pos", "--format", "json",
            ])
            row = json.loads(out)["results"]["rows"][0]
            assert not row["empty"]
            if isinstance(row["set_u"], str):
                widths.append(math.inf)
            else:
                widths.append(row["set_u"] - row["set_l"])
        assert widths[0] >= widths[1] >= widths[2]
        assert widths[2] == 0.0  # pi = 0 collapses to the point contrast

    def test_unbounded_contrast_is_a_json_string(self, capsys, tmp_path):
        # every treated pre-period value lies below the controls', so the
        # control map is -inf there and m(q) is +inf
        path = tmp_path / "below.csv"
        path.write_text(
            "unit_id,t,y,d\nt1,0,-5,1\nt1,1,-5,1\nt2,0,-4,1\nt2,1,-3,1\n"
            "c1,0,0,0\nc1,1,0.5,0\nc2,0,1,0\nc2,1,2,0\n"
        )
        code, out, _ = run(capsys, [
            "cic", "--input", str(path), "--q", "0.25", "--pi", "0.3", "--format", "json",
        ])
        assert code == 0 and "Infinity" not in out
        row = json.loads(out)["results"]["rows"][0]
        assert (row["m_q"], row["set_l"]) == ("unbounded", "unbounded")

    def test_overflowing_data_range_exit_2(self, capsys, tmp_path):
        # max - min overflows float64, which would make every root tolerance inf
        path = tmp_path / "range.csv"
        path.write_text(
            "unit_id,t,y,d\nt1,0,-1e308,1\nt1,1,1e308,1\nt2,0,0,1\nt2,1,1,1\n"
            "c1,0,-1e308,0\nc1,1,0,0\nc2,0,1e308,0\nc2,1,1,0\n"
        )
        code, out, err = run(capsys, [
            "cic", "--input", str(path), "--q", "0.25,0.5", "--pi", "0.3", "--format", "json",
        ])
        assert (code, out) == (2, "")
        assert err == "error: the pooled data range overflows float64; rescale the outcomes\n"


class TestSimulate:
    def test_identity_scenario_deterministic_bytes(self, capsys):
        argv = ["simulate", "--scenario", "identity", "--n", "4000",
                "--reps", "12", "--seed", "3"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["results"]["passed"] is True
        assert payload["manifest"]["master_seed"] == 3

    def test_benchmark_scenario_small(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--scenario", "benchmark", "--n", "300", "--reps", "200",
            "--seed", "11", "--coverage-threshold", "0.90",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["min_coverage"] >= 0.90
        assert payload["results"]["verdict"] == "pass"

    def test_benchmark_workers_identical_bytes(self, capsys):
        base = ["simulate", "--scenario", "benchmark", "--n", "200", "--reps", "60",
                "--seed", "21", "--coverage-threshold", "0.5"]
        _, out1, _ = run(capsys, base + ["--workers", "1"])
        _, out2, _ = run(capsys, base + ["--workers", "2"])
        _, out3, _ = run(capsys, base + ["--workers", "3"])
        assert out1 == out2 == out3
        for point in json.loads(out1)["results"]["points"]:
            assert 1.6448 < point["mean_c_n"] < 1.9600

    def test_falsification_flagged_but_exit_zero(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--scenario", "benchmark", "--n", "300", "--reps", "100",
            "--seed", "12", "--lambda-grid", "0.9", "--tau", "-0.2", "--mu", "0.2",
            "--pi", "0.2", "--falsify",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["points"][0]["falsification"] is True
        assert "falsification" in payload["results"]["verdict"]

    def test_threshold_failure_exit_1(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--scenario", "benchmark", "--n", "200", "--reps", "50",
            "--seed", "13", "--coverage-threshold", "0.9999",
        ])
        assert code == 1
        assert json.loads(out)["results"]["verdict"] == "fail"

    def test_toy_scenario(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--scenario", "toy", "--n", "20000", "--seed", "14",
            "--toy-alpha", "0.8", "--toy-power", "2.0",
        ])
        assert code == 0
        assert json.loads(out)["results"]["passed"] is True

    def test_staggered_scenario(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--scenario", "staggered", "--n", "40000", "--seed", "15",
            "--lam", "0.3", "--tau", "-0.2",
        ])
        assert code == 0
        assert json.loads(out)["results"]["passed"] is True

    def test_imperfect_scenario(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--scenario", "imperfect", "--n", "60000", "--seed", "16",
            "--lam", "0.3", "--epsilon", "0.25",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["passed"] is True

    def test_bad_scenario_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "warp"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        code, out, err = run(capsys, [
            "simulate", "--scenario", "benchmark", "--n", "50", "--reps", "5",
            "--workers", workers,
        ])
        assert code == 2 and out == ""
        assert err.startswith("error: --workers")

    @pytest.mark.parametrize(
        "scenario", ["benchmark", "imperfect", "toy", "staggered", "identity"]
    )
    def test_workers_below_one_exit_2_in_every_scenario(self, capsys, scenario):
        code, out, err = run(capsys, [
            "simulate", "--scenario", scenario, "--n", "50", "--reps", "5", "--workers", "0",
        ])
        assert (code, out) == (2, "")
        assert err.startswith("error: --workers")

    def test_group_too_small_exit_2(self, capsys):
        # n = 4 leaves some replication with fewer than two units in a group
        code, out, err = run(capsys, [
            "simulate", "--scenario", "benchmark", "--n", "4", "--reps", "40",
        ])
        assert code == 2 and out == ""
        assert err.startswith("error: insufficient group size")


class TestResolveWorkers:
    def test_clamped_to_cpu_count(self):
        assert resolve_workers(10**9, 2) == 2
        assert resolve_workers(2**63, 64) == 64
        assert resolve_workers(3, 64) == 3
        assert resolve_workers(1, 1) == 1

    def test_unknown_cpu_count_means_one(self):
        assert resolve_workers(10**6, None) == 1

    @pytest.mark.parametrize("requested", [0, -1, -(10**9)])
    def test_below_one_rejected(self, requested):
        with pytest.raises(CliError, match="--workers"):
            resolve_workers(requested, 8)


class TestPanelModeExtras:
    @pytest.fixture
    def noisy_csv(self, tmp_path):
        rng = np.random.default_rng(91)
        rows = ["unit_id,y0,y1,d"]
        for i in range(120):
            d = 1 if i < 60 else 0
            y0 = rng.normal()
            y1 = 0.4 * y0 + rng.normal() + (0.8 if d else 0.0)
            rows.append(f"u{i},{y0},{y1},{d}")
        path = tmp_path / "noisy.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_infer_with_epsilon_on_panel(self, capsys, noisy_csv):
        code, out, _ = run(capsys, [
            "infer", "--input", noisy_csv, "--pi", "const:0.4",
            "--sign-mu", "pos", "--sign-tau", "pos", "--epsilon", "0.3",
            "--format", "json",
        ])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["interval"]["theorem_tag"] == "imperfect"
        assert results["confidence_set"]["lower"] < results["interval"]["lower"]

    def test_sensitivity_from_panel(self, capsys, noisy_csv):
        code, out, _ = run(capsys, [
            "sensitivity", "--input", noisy_csv,
            "--sign-mu", "pos", "--sign-tau", "neg",
            "--pi-grid", "0.1,0.3,0.5", "--format", "json",
        ])
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert [r["pi"] for r in rows] == [0.1, 0.3, 0.5]
        lowers = [r["set_l"] for r in rows]
        assert lowers[0] > lowers[1] > lowers[2]

    def test_a_byte_order_mark_is_skipped(self, capsys, tmp_path, noisy_csv):
        # spreadsheets' "CSV UTF-8" export starts the file with EF BB BF
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + open(noisy_csv, "rb").read())
        argv = ["infer", "--pi", "const:0.4", "--format", "json", "--input"]
        plain = run(capsys, [*argv, noisy_csv])
        assert plain[0] == 0
        assert run(capsys, [*argv, str(marked)]) == plain


class ClosedStdout(io.TextIOBase):
    """A stdout whose reader goes away: the first ``good_writes`` writes
    reach the descriptor, and every later one raises, as on a pipe that
    ``head`` closed.  ``fileno`` is a real descriptor, so the CLI can point
    it at os.devnull."""

    def __init__(self, fd: int, good_writes: int = 0):
        self.fd = fd
        self.good_writes = good_writes

    def write(self, text):
        if self.good_writes == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.good_writes -= 1
        return os.write(self.fd, text.encode())

    def fileno(self):
        return self.fd


class TestClosedStdout:
    @pytest.mark.parametrize("argv, verdict", [
        (["sensitivity", "--summary", "m=0.013", "se=0.0046", "--pi-grid", "0.1,0.5",
          "--format", "json"], 0),
        (["infer", "--summary", "m=0.5", "se=0.1", "--pi", "const:0.3"], 0),
        (["simulate", "--scenario", "benchmark", "--n", "200", "--reps", "50",
          "--seed", "13", "--coverage-threshold", "0.9999"], 1),
    ])
    def test_verdict_kept_and_stdout_discarded(self, capsys, monkeypatch, tmp_path, argv, verdict):
        # the reader is gone before the first write, or after it
        for good_writes in (0, 1):
            path = tmp_path / f"stdout{good_writes}"
            fd = os.open(path, os.O_WRONLY | os.O_CREAT)
            try:
                monkeypatch.setattr(sys, "stdout", ClosedStdout(fd, good_writes))
                code = main(argv)
                assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
            finally:
                os.close(fd)
            assert code == verdict
            assert capsys.readouterr().err == ""
            assert (path.stat().st_size > 0) == (good_writes > 0)


class TestExitContract:
    def test_oversized_field_is_a_format_error(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("unit_id,y0,y1,d\na,1,2,1\nb," + "9" * 200_000 + ",1,0\nc,0,1,0\n")
        code, out, err = run(capsys, ["infer", "--input", str(path), "--pi", "const:0.3"])
        assert code == 2 and out == ""
        assert err.startswith("error: unreadable CSV row: field larger than field limit")
        assert "(row: 3)" in err and err.count("\n") == 1

    def test_unexpected_exception_exits_3_without_traceback(self, capsys, monkeypatch, hand_csv):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setitem(cli._HANDLERS, "estimate", broken)
        code, out, err = run(capsys, ["estimate", "--input", hand_csv])
        assert code == 3 and out == ""
        assert err.startswith("internal error: RuntimeError(") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_interrupt_exits_130_on_one_line(self, capsys, monkeypatch, hand_csv):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "estimate", interrupted)
        code, out, err = run(capsys, ["estimate", "--input", hand_csv])
        assert (code, out, err) == (130, "", "interrupted\n")

    @pytest.mark.parametrize("command", ["infer", "sensitivity"])
    @pytest.mark.parametrize("bad", ["se=inf", "m=inf", "m=-inf", "se=nan", "m=nan"])
    def test_non_finite_summary_is_usage_error(self, capsys, command, bad):
        good = {"m": "m=1", "se": "se=0.2"}
        good[bad.split("=")[0]] = bad
        argv = [command, "--summary", good["m"], good["se"], "--format", "json"]
        argv += ["--pi-grid", "0.1,0.2"] if command == "sensitivity" else ["--pi", "const:0.3"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert "Infinity" not in out and "NaN" not in out
        assert err == f"error: --summary {bad.split('=')[0]} must be finite, got {bad.split('=')[1]!r}\n"

    @pytest.mark.parametrize("pi,sign_tau", [("const:0.3", "zero"), ("const:0", "pos"),
                                             ("const:0", "neg")])
    def test_overflowing_t_statistic_exit_2(self, capsys, pi, sign_tau):
        # a zero-width interval needs no C_n ratio, but m_hat / se overflows
        code, out, err = run(capsys, [
            "infer", "--summary", "m=1e308", "se=1e-10", "--pi", pi, "--sign-tau", sign_tau,
            "--format", "json",
        ])
        assert (code, out) == (2, "")
        assert err == "error: m_hat / se overflows; the standard error is too small\n"

    HUGE_ARGV = [
        ["estimate", "--pi", "const:0.3"],
        ["estimate", "--pi", "treatment-ratio"],
        ["estimate", "--pi", "stratum"],
        ["infer", "--pi", "const:0.3"],
        ["sensitivity", "--pi-grid", "0.1,0.2"],
    ]

    @pytest.mark.parametrize("argv", HUGE_ARGV)
    def test_overflowing_outcomes_are_named(self, capsys, tmp_path, argv):
        # finite outcomes whose treated-group sum of changes overflows float64
        path = tmp_path / "huge.csv"
        path.write_text(
            "unit_id,y0,y1,d,stratum\n"
            "a,0,1e308,1,A\nb,0,1e308,1,A\nc,0,1,0,A\ne,0,2,0,A\n"
        )
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv + ["--input", str(path)])
        assert (code, out, raised) == (2, "", [])
        assert err.count("\n") == 1 and "overflows float64" in err

    @pytest.mark.parametrize("argv", HUGE_ARGV)
    def test_huge_levels_with_finite_changes_give_a_result(self, capsys, tmp_path, argv):
        # each period's treated sum overflows float64, but the contrast is
        # taken over the changes y1 - y0, which are all finite
        path = tmp_path / "huge.csv"
        path.write_text(
            "unit_id,y0,y1,d,stratum\n"
            "a,1e308,1e308,1,A\nb,1e308,1e308,1,A\nc,0,1,0,A\ne,0,2,0,A\n"
        )
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv + ["--input", str(path), "--format", "json"])
        assert (code, err, raised) == (0, "", [])
        report = json.loads(out)
        results = report["results"]
        m_hat = (
            results["strata"]["A"]["m_hat"] if "strata" in results
            else results.get("m_hat", report["manifest"]["config"].get("m_hat"))
        )
        assert m_hat == -1.5

    @pytest.mark.parametrize("flags", [
        ["--scenario", "toy", "--toy-power", "nan"],
        ["--scenario", "toy", "--toy-power", "inf"],
        ["--scenario", "benchmark", "--noise-sd", "inf"],
        ["--scenario", "benchmark", "--mu", "inf", "--tau", "0"],
        ["--scenario", "benchmark", "--coverage-threshold", "nan"],
        ["--scenario", "benchmark", "--lambda-grid", ""],
        # finite parameters whose cohort contrast overflows float64
        ["--scenario", "staggered", "--mu", "1e308"],
        ["--scenario", "staggered", "--tau", "1e308"],
    ])
    def test_bad_simulate_parameters_are_usage_errors(self, capsys, flags):
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["simulate", "--reps", "40"] + flags)
        assert (code, out, raised) == (2, "", [])
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,spec,argv", [
        ("--pi-grid", ",", ["sensitivity", "--summary", "m=1", "se=0.2", "--format", "json"]),
        ("--epsilon-grid", ",",
         ["sensitivity", "--summary", "m=1", "se=0.2", "--pi-grid", "0.1", "--format", "json"]),
        ("--q", "", ["cic", "--pi", "0.3", "--format", "json"]),
        ("--q", ",", ["cic", "--pi", "0.3", "--format", "json"]),
        ("--lambda-grid", "", ["simulate", "--scenario", "benchmark", "--reps", "40"]),
        ("--cohort-shares", ",", ["simulate", "--scenario", "staggered"]),
    ])
    def test_a_list_with_no_numbers_is_a_usage_error(self, capsys, tmp_path, flag, spec, argv):
        path = tmp_path / "long.csv"
        path.write_text("unit_id,t,y,d\na,0,1,1\na,1,2,1\nb,0,0,0\nb,1,1,0\n")
        if argv[0] == "cic":
            argv = argv + ["--input", str(path)]
        code, out, err = run(capsys, argv + [flag, spec])
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must list at least one number, got {spec!r}\n"

    def test_an_empty_epsilon_grid_means_none(self, capsys):
        argv = ["sensitivity", "--summary", "m=1", "se=0.2", "--pi-grid", "0.1,0.2",
                "--epsilon-grid", "", "--format", "json"]
        code, out, _ = run(capsys, argv)
        report = json.loads(out)
        assert code == 0 and len(report["results"]["rows"]) == 2
        assert report["manifest"]["config"]["epsilon_grid"] is None


class TestSummaryN:
    @pytest.mark.parametrize("command", ["infer", "sensitivity"])
    def test_n_is_only_recorded(self, capsys, command):
        outs = {}
        for n in ("5", "5000"):
            argv = [command, "--summary", "m=0.013", "se=0.0046", f"n={n}", "--format", "json"]
            if command == "sensitivity":
                argv += ["--pi-grid", "0.1,0.5,0.7", "--epsilon-grid", "0,0.5"]
            else:
                argv += ["--pi", "const:0.5"]
            code, out, _ = run(capsys, argv)
            assert code == 0
            outs[n] = json.loads(out)
        assert outs["5"]["results"] == outs["5000"]["results"]
        assert outs["5"]["manifest"] != outs["5000"]["manifest"]

    def test_help_says_so(self, capsys):
        with pytest.raises(SystemExit):
            main(["infer", "--help"])
        assert "only recorded in the manifest" in " ".join(capsys.readouterr().out.split())


class TestSummaryReadsNoPanel:
    @pytest.mark.parametrize("command,extra", [
        ("infer", ["--pi", "const:0.3"]),
        ("sensitivity", ["--pi-grid", "0.1,0.3"]),
    ])
    @pytest.mark.parametrize("flags,named", [
        (["--g", "banana"], "--g"),
        (["--g", "identity"], "--g"),
        (["--layout", "long"], "--layout"),
        (["--input", "/nonexistent"], "--input"),
        (["--input", "panel.csv", "--layout", "wide"], "--input, --layout"),
    ])
    def test_panel_flags_are_usage_errors(self, capsys, command, extra, flags, named):
        argv = [command, "--summary", "m=1", "se=0.2", *extra, *flags, "--format", "json"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: --summary reads no panel, so {named} cannot be given with it\n"

    def test_manifest_records_the_defaults(self, capsys):
        argv = ["infer", "--summary", "m=1", "se=0.2", "--pi", "const:0.3", "--format", "json"]
        code, out, _ = run(capsys, argv)
        config = json.loads(out)["manifest"]["config"]
        assert code == 0 and (config["g"], config["layout"]) == ("identity", "wide")


class CountingStdout(io.TextIOBase):
    """A stdout that discards what it is given and counts the writes, the
    characters and the longest write."""

    def __init__(self):
        self.writes = 0
        self.chars = 0
        self.longest = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)
        self.longest = max(self.longest, len(text))
        return len(text)


# a sweep of 990 x 21 = 20,790 (pi, epsilon) points: 4.5 MB of JSON
DENSE_PIS = [round(0.001 * i, 3) for i in range(990)]
DENSE_EPSILONS = [round(0.05 * i, 2) for i in range(21)]
DENSE_SWEEP = [
    "sensitivity", "--summary", "m=0.013", "se=0.0046",
    "--pi-grid", ",".join(map(repr, DENSE_PIS)),
    "--epsilon-grid", ",".join(map(repr, DENSE_EPSILONS)),
]


def sweep_row_dict(r) -> dict:
    return {
        "pi": r.pi,
        "epsilon": r.epsilon,
        "set_l": r.set_lower,
        "set_u": r.set_upper,
        "cs_l": r.cs_lower,
        "cs_u": r.cs_upper,
    }


class TestReportWriter:
    @pytest.fixture(scope="class")
    def dense_json(self):
        """The dense sweep's payload, and stdout.  The manifest, cutoff and
        warnings are the handler's; the rows, which the handler formats
        itself, are built here from sensitivity_sweep on the same grid."""
        payloads, real = [], cli._json_report

        def spy(manifest, results):
            payloads.append({"manifest": manifest, "results": dict(results)})
            return real(manifest, results)

        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_json_report", spy)
            mp.setattr(sys, "stdout", out)
            assert main(DENSE_SWEEP + ["--format", "json"]) == 0
        (payload,) = payloads
        grid = [(pi, eps) for pi in DENSE_PIS for eps in DENSE_EPSILONS]
        rows = sensitivity_sweep(0.013, 0.0046, 1, grid, SignRegime(1, -1), 0.95)
        payload["results"]["rows"] = [sweep_row_dict(r) for r in rows]
        return payload, out.getvalue()

    def test_json_is_the_one_shot_dump(self, dense_json):
        payload, out = dense_json
        assert len(payload["results"]["rows"]) == 990 * 21
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_text_is_the_joined_lines(self, capsys, dense_json):
        results = dense_json[0]["results"]
        lines = ["pi,epsilon,set_l,set_u,cs_l,cs_u"] + [
            ",".join(repr(r[k]) for k in ("pi", "epsilon", "set_l", "set_u", "cs_l", "cs_u"))
            for r in results["rows"]
        ]
        lines.append(f"# robustness_cutoff_pi={results['robustness_cutoff_pi']!r}")
        code, out, _ = run(capsys, DENSE_SWEEP)
        assert code == 0 and out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_writes_are_batched(self, monkeypatch, fmt):
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(DENSE_SWEEP + ["--format", fmt]) == 0
        # the JSON report has 8 lines a row, the text report 1
        lines = 990 * 21 * (8 if fmt == "json" else 1)
        assert stdout.chars > 1_000_000
        assert 2 <= stdout.writes <= lines // 100
        assert stdout.longest < stdout.chars // 10  # no write holds the whole report

    def test_peak_memory_follows_the_payload(self, monkeypatch):
        # Joining the whole report (and print encoding it again) made the
        # traced peak about 8.9 times the report's length; written in
        # batches, it is about 2.7 times, mostly the payload itself.
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        tracemalloc.start()
        try:
            assert main(DENSE_SWEEP + ["--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * stdout.chars, (peak, stdout.chars)


# finite floats, with -0.0, subnormals and exponents near +-308 among them
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-307,
               -1.7976931348623157e308, 1.5e308, 0.1, 1e16, 1e-5]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
SWEEP_ROWS = st.lists(
    st.builds(SweepRow, FINITE, st.none() | FINITE, FINITE, FINITE, FINITE, FINITE),
    min_size=1,
    max_size=4,
)


class TestSweepRowText:
    """The rows of a JSON sensitivity report, formatted without the
    encoder, are the bytes json.dumps gives them."""

    @given(rows=SWEEP_ROWS, cutoff=st.none() | FINITE)
    @settings(max_examples=300, deadline=None)
    def test_rows_match_json_dumps(self, rows, cutoff):
        manifest = {"command": "sensitivity", "outputs": ["robustness_cutoff_pi", "rows", "warnings"]}
        results = {"rows": cli._ROWS, "robustness_cutoff_pi": cutoff, "warnings": ["w"]}
        out = "".join(cli._with_sweep_rows(cli._json_report(manifest, results), rows))
        results["rows"] = [sweep_row_dict(r) for r in rows]
        assert out == json.dumps({"manifest": manifest, "results": results}, sort_keys=True, indent=2)

    def test_one_piece_a_row(self):
        rows = [SweepRow(0.1 * k, None, 1.0, 2.0, 0.5, 2.5) for k in range(3)]
        pieces = list(cli._with_sweep_rows(iter(["{", json.dumps(cli._ROWS), "}"]), rows))
        assert len(pieces) == len(rows) + 3  # "{", a row each, the closing "]" and "}"


class TestSingleTreatedStratum:
    def test_point_estimate_with_one_treated_unit(self, capsys, tmp_path):
        path = tmp_path / "one_treated.csv"
        path.write_text(
            "unit_id,y0,y1,d,stratum\n"
            "a,1,4,1,A\nb,0,1,0,A\nc,2,3,0,A\n"
            "e,0,2,1,B\nf,1,3,1,B\ng,0,1,0,B\nh,1,2,0,B\n"
        )
        code, out, err = run(capsys, [
            "estimate", "--input", str(path), "--pi", "stratum",
            "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json",
        ])
        assert code == 0, err
        strata = json.loads(out)["results"]["strata"]
        assert strata["A"]["m_hat"] == 2.0
        assert strata["A"]["pi"] == pytest.approx(1 / 3)
        assert strata["B"]["m_hat"] == 1.0


class TestInferContrastSe:
    def test_t_statistic_keeps_its_bits(self, capsys, tmp_path):
        from antebounds.bounds import did_estimand
        from antebounds.inference import contrast_se
        from antebounds.panel import GTransform, load_two_period

        rng = np.random.default_rng(5)
        rows = ["unit_id,y0,y1,d"] + [
            f"u{i},{a!r},{b!r},{i % 2}" for i, (a, b) in enumerate(rng.normal(size=(301, 2)).tolist())
        ]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, [
            "infer", "--input", str(path), "--pi", "const:0.4", "--epsilon", "0.2",
            "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json",
        ])
        assert code == 0
        panel = load_two_period(path.read_text(), "wide")
        g = GTransform.identity()
        assert json.loads(out)["results"]["t_tilde"] == did_estimand(panel, g) / contrast_se(panel, g)

    def test_panel_and_matching_summary_report_the_same_sigma(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        rows = ["unit_id,y0,y1,d"] + [
            f"u{i},{a!r},{b + 0.3 * (i % 2)!r},{i % 2}"
            for i, (a, b) in enumerate(rng.normal(size=(400, 2)).tolist())
        ]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(rows) + "\n")
        flags = ["--pi", "const:0.4", "--sign-mu", "neg", "--sign-tau", "neg", "--format", "json"]
        code, out, _ = run(capsys, ["infer", "--input", str(path)] + flags)
        assert code == 0
        panel = json.loads(out)["results"]
        m_hat, se_m = panel["m_hat"], panel["sigma"]["se_m"]
        code, out, _ = run(capsys, ["infer", "--summary", f"m={m_hat!r}", f"se={se_m!r}"] + flags)
        assert code == 0
        summary = json.loads(out)["results"]
        assert summary["confidence_set"] == panel["confidence_set"]
        assert summary["sigma"] == panel["sigma"]
        assert set(panel["sigma"]) == {"se_l", "se_u", "se_m", "se"}
        assert panel["sigma"]["se"] == max(panel["sigma"]["se_l"], panel["sigma"]["se_u"])
        assert summary["t_tilde"] == panel["t_tilde"]


# stratum A has a positive contrast (1), stratum B a negative one (-2)
MIXED_STRATA = (
    "unit_id,y0,y1,d,stratum\n"
    "a,1,3,1,A\nb,1,3,1,A\nc,0,1,0,A\ne,0,1,0,A\ne2,0,1,0,A\n"
    "f,1,0,1,B\ng,1,0,1,B\nh,0,1,0,B\ni,0,1,0,B\n"
)


# a row with no stratum field has the label None; rows a-d are the stratum
# "None" (contrast 0.8), rows e-h have none (contrast 2.25)
NONE_CLASH = [
    ("a", 1, 2, 1, "None"), ("b", 1, 1.5, 0, "None"), ("c", 1, 2.2, 1, "None"),
    ("d", 1, 1.1, 0, "None"), ("e", 1, 3, 1), ("f", 1, 1, 0), ("g", 2, 4, 1), ("h", 1, 0.5, 0),
]


@pytest.mark.parametrize("layout", ["wide", "long"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_stratum_none_and_a_missing_stratum_clash(capsys, tmp_path, layout, fmt):
    if layout == "wide":
        lines = ["unit_id,y0,y1,d,stratum"] + [",".join(map(str, r)) for r in NONE_CLASH]
    else:
        lines = ["unit_id,t,y,d,stratum"] + [
            ",".join(map(str, (uid, t, y, d, *rest)))
            for uid, y0, y1, d, *rest in NONE_CLASH
            for t, y in ((0, y0), (1, y1))
        ]
    path = tmp_path / "clash.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, [
        "estimate", "--input", str(path), "--layout", layout, "--pi", "stratum",
        "--format", fmt,
    ])
    assert (code, out) == (2, "")
    assert "no stratum" in err and "'None'" in err


class TestStratumFlags:
    """``--pi stratum`` reads --epsilon and --auto-flip-sign, and checks
    each stratum's contrast against the declared sign, as the plain path
    does for the whole panel."""

    @pytest.fixture
    def mixed_csv(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(MIXED_STRATA)
        return str(path)

    def _strata(self, capsys, mixed_csv, *flags):
        code, out, err = run(capsys, [
            "estimate", "--input", mixed_csv, "--pi", "stratum", "--format", "json", *flags,
        ])
        assert code == 0 and err == ""
        return json.loads(out)["results"]

    def test_epsilon_reaches_every_stratum(self, capsys, mixed_csv):
        results = self._strata(capsys, mixed_csv, "--epsilon", "0.3", "--sign-mu", "neg")
        panel = load_two_period(MIXED_STRATA)
        for label, entry in results["strata"].items():
            iv = entry["interval"]
            assert (iv["theorem_tag"], iv["epsilon"]) == ("imperfect", 0.3)
            want = identified_set_imperfect(
                entry["m_hat"], treatment_ratio(panel, label), 0.3, SignRegime(-1, -1)
            )
            assert (iv["lower"], iv["upper"]) == want.as_tuple()

    def test_sign_contradiction_warns_for_its_stratum(self, capsys, mixed_csv):
        results = self._strata(capsys, mixed_csv, "--sign-mu", "pos")
        (warning,) = results["warnings"]
        assert warning.startswith("stratum B: estimated contrast -2 contradicts declared")
        assert {e["interval"]["sign_mu"] for e in results["strata"].values()} == {1}
        code, _, err = run(capsys, [
            "estimate", "--input", mixed_csv, "--pi", "stratum", "--sign-mu", "pos",
        ])
        assert code == 0
        assert err == f"warning: {warning}\n"

    def test_auto_flip_sign_flips_only_the_contradicting_stratum(self, capsys, mixed_csv):
        results = self._strata(capsys, mixed_csv, "--sign-mu", "pos", "--auto-flip-sign")
        assert results["warnings"] == []
        strata = results["strata"]
        assert (strata["A"]["interval"]["sign_mu"], strata["B"]["interval"]["sign_mu"]) == (1, -1)
        want = identified_set_benchmark(strata["B"]["m_hat"], 0.5, SignRegime(-1, -1))
        assert (strata["B"]["interval"]["lower"], strata["B"]["interval"]["upper"]) == (
            want.as_tuple()
        )
