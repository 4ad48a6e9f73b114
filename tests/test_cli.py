"""Command-line behavior: payloads, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from psiapprox import exp_power_thresholds
from psiapprox.cli import RunConfig, main

HALF = ["--alpha", "1", "--r", "0.5"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCharacteristics:
    def test_json_payload(self, capsys):
        code, out, err = run_cli(capsys, "characteristics", *HALF, "--t", "9")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["eta"] == pytest.approx(13.639336097277875, rel=1e-9)
        assert row["floor_gap"] == 4
        assert "1 rows" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "characteristics", *HALF,
                               "--n-range", "9:11", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,psi,eta,eta_gap,mu,floor_gap"
        assert len(lines) == 4

    def test_missing_profile_params(self, capsys):
        code, _, err = run_cli(capsys, "characteristics", "--t", "9")
        assert code == 2
        assert "alpha" in err


class TestLambdaAndKernel:
    def test_lambda_values(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", *HALF, "--n", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta_floor"] == 13
        assert payload["lambda"][6] == pytest.approx(0.8558361268321877,
                                                     rel=1e-9)
        assert len(payload["lambda"]) == 9

    def test_kernel_eval_representations_consistent(self, capsys):
        vals = {}
        for rep in ("direct", "x", "for1"):
            code, out, _ = run_cli(capsys, "kernel-eval", *HALF, "--n", "9",
                                   "--t", "0.5", "1.5",
                                   "--representation", rep)
            assert code == 0
            vals[rep] = [r["value"] for r in json.loads(out)["rows"]]
        assert vals["direct"] == pytest.approx(vals["x"], abs=1e-12)
        assert vals["direct"] == pytest.approx(vals["for1"], abs=1e-12)

    def test_kernel_eval_non_finite_exits_numeric(self, capsys):
        for t in ("nan", "inf"):
            code, out, err = run_cli(capsys, "kernel-eval", *HALF, "--n", "9",
                                     "--t", "0.5", t)
            assert code == 3
            assert out == ""
            assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ["kernel-eval", *HALF, "--n", "9", "--beta", "inf", "--t", "0.5"],
        ["kernel-norm", *HALF, "--n", "12", "--beta", "nan", "--p", "2"],
        ["kernel-norm", *HALF, "--n", "12", "--p", "1", "--quad-points", "nan"],
        ["kernel-norm", *HALF, "--n", "12", "--p", "1", "--quad-points", "inf"],
        ["kernel-norm", *HALF, "--n", "12", "--p", "nan"],
        ["verify", "theorem1", *HALF, "--n", "12", "--p", "2",
         "--tail-eps", "inf"],
        ["verify", "theorem1", *HALF, "--n", "3", "--p", "2", "--beta", "nan",
         "--force"],
    ])
    def test_non_finite_options_exit_config(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_kernel_norm_inf_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "kernel-norm", *HALF, "--n", "16",
                               "--p", "2", "inf")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["p"] == 2.0
        assert rows[1]["p"] == "inf"
        assert rows[1]["norm"] == pytest.approx(0.23829399734928747, rel=1e-9)


class TestVerifyCommand:
    def test_theorem1_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem1", *HALF,
                               "--n", "16", "--p", "1", "2", "inf")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["total"] == 3
        assert payload["summary"]["passed"] == 3

    def test_theorem2_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem2", *HALF,
                               "--n", "16", "--s", "2")
        assert code == 0
        assert json.loads(out)["reports"][0]["mode"] == "theorem2"

    def test_below_threshold_exits_config(self, capsys):
        code, _, err = run_cli(capsys, "verify", "theorem1", *HALF,
                               "--n-range", "5:16", "--p", "2")
        assert code == 2
        assert "n_min" in err

    def test_force_runs_but_flags_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem1", *HALF,
                               "--n", "5", "--p", "2", "--force")
        assert code == 2
        rep = json.loads(out)["reports"][0]
        assert rep["status"] == "precondition_violated"
        assert rep["proxy"] is None

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem1", *HALF,
                               "--n", "16", "--p", "2", "--format", "csv")
        assert code == 0
        header = out.strip().split("\n")[0].split(",")
        assert header == ["family", "alpha", "r", "beta", "n", "mode",
                          "p_or_s", "a", "b", "X", "lower", "proxy",
                          "upper", "pass_lower", "pass_upper", "tol",
                          "status"]

    def test_lemma1_clean(self, capsys):
        code, out, err = run_cli(capsys, "verify", "lemma1",
                                 "--trials", "10", "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["worst"] <= 1e-12

    def test_lemma2_threshold_gate(self, capsys):
        code, _, err = run_cli(capsys, "verify", "lemma2", *HALF,
                               "--t", "3")
        assert code == 2
        assert "force" in err
        code, out, _ = run_cli(capsys, "verify", "lemma2", *HALF,
                               "--t", "12", "20")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(r["ordered"] for r in rows)

    def test_envelopes_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "envelopes", *HALF,
                               "--n-range", "11:13")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(r["envelope_status"] == "ok" for r in rows)
        assert all(r["tail_ok"] for r in rows)


class TestTableAndAsymp:
    def test_table_nine_columns(self, capsys):
        code, out, _ = run_cli(capsys, "table", *HALF, "--n-range", "11:13",
                               "--p", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,alpha,r,beta,mode,p_or_s,lower,proxy,upper"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 9 for line in lines)

    def test_table_family_with_explicit_thresholds(self, capsys, tmp_path):
        # a tabulated exp(-sqrt t) has no closed-form thresholds, so a and b
        # come from the command line; at integer t it is the exp-power psi
        table = tmp_path / "psi.csv"
        t = np.arange(1, 2001, dtype=float)
        np.savetxt(table, np.column_stack([t, np.exp(-np.sqrt(t))]),
                   delimiter=",")
        a, b, _ = exp_power_thresholds(1.0, 0.5)
        code, out, _ = run_cli(capsys, "table", "--family", "table",
                               "--psi-table", str(table), "--n-range", "20:21",
                               "--p", "2", "--a", repr(a), "--b", repr(b))
        assert code == 0
        rows = json.loads(out)["rows"]
        _, ref, _ = run_cli(capsys, "table", *HALF, "--n-range", "20:21",
                            "--p", "2")
        for row, want in zip(rows, json.loads(ref)["rows"]):
            assert row["lower"] <= row["proxy"] <= row["upper"]
            assert row["proxy"] == pytest.approx(want["proxy"], rel=1e-9)

    def test_table_needs_one_mode(self, capsys):
        code, _, err = run_cli(capsys, "table", *HALF, "--n-range", "11:12")
        assert code == 2
        code, _, err = run_cli(capsys, "table", *HALF, "--n-range", "11:12",
                               "--p", "2", "--s", "2")
        assert code == 2

    def test_asymp_spread_gate(self, capsys):
        code, out, err = run_cli(capsys, "asymp", *HALF,
                                 "--n-range", "11:18", "--p", "inf")
        assert code == 0
        assert "spread" in err
        code, _, _ = run_cli(capsys, "asymp", *HALF, "--n-range", "11:18",
                             "--p", "inf", "--max-spread", "1.0001")
        assert code == 1

    def test_asymp_below_threshold(self, capsys):
        code, _, err = run_cli(capsys, "asymp", *HALF, "--n-range", "5:12",
                               "--p", "2")
        assert code == 2


class TestOutputPlumbing:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, out, _ = run_cli(capsys, "characteristics", *HALF, "--t", "9",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["rows"][0]["floor_gap"] == 4

    def test_byte_identical_reruns(self, capsys):
        argv = ("verify", "lemma1", "--trials", "8", "--seed", "0")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        argv = ("verify", "theorem1", *HALF, "--n", "12", "--p", "2", "inf")
        _, out3, _ = run_cli(capsys, *argv)
        _, out4, _ = run_cli(capsys, *argv)
        assert out3 == out4

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["characteristics", "--frobnicate"])
        assert exc.value.code == 2

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "psiapprox.cli", "characteristics",
             "--alpha", "1", "--r", "0.5", "--t", "9"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rows"][0]["floor_gap"] == 4


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(command="verify", what="theorem1", alpha=1.0, r=0.5,
                        p=[1.0, 2.0, math.inf], n=16, format="csv",
                        force=True)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_scalar_exponent(self):
        cfg = RunConfig(command="asymp", alpha=2.0, r=0.3,
                        p=math.inf, n_range="28:40")
        back = RunConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert math.isinf(back.p)

    def test_dict_is_json_safe(self):
        cfg = RunConfig(command="verify", what="theorem1", p=[math.inf])
        text = json.dumps(cfg.to_dict())
        assert "Infinity" not in text
