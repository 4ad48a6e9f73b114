"""Command-line behavior: payloads, exit codes, determinism."""

import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from psiapprox import cli, exp_power_thresholds
from psiapprox.cli import main

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
        code, out, err = run_cli(capsys, "characteristics", "--t", "9")
        assert (code, out) == (2, "")
        assert err == ("error: the profile needs --alpha and --r, "
                       "or --psi-table FILE\n")
        # asymp takes no table, so it names only the exp-power options
        code, _, err = run_cli(capsys, "asymp", "--p", "2", "--n-range", "11:12")
        assert code == 2
        assert err == "error: the profile needs --alpha and --r\n"


class TestLambdaAndKernel:
    def test_lambda_values(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", *HALF, "--n", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta_floor"] == 13
        assert payload["lambda"][6] == pytest.approx(0.8558361268321877,
                                                     rel=1e-9)
        assert len(payload["lambda"]) == 9

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
        ["kernel-norm", *HALF, "--n", "12", "--p", "nan"],
        ["verify", "theorem1", *HALF, "--n", "3", "--p", "2", "--beta", "nan",
         "--force"],
        ["verify", "theorem1", *HALF, "--n", "3", "--p", "nan", "--force"],
        ["verify", "theorem1", *HALF, "--n", "20", "--p", "2", "--a", "nan",
         "--b", "nan"],
        ["verify", "envelopes", *HALF, "--n", "20", "--a", "nan"],
        # no t has mu(t) >= inf, so --force cannot make that row certify
        ["verify", "lemma2", *HALF, "--t", "20", "--b", "inf", "--force"],
        ["characteristics", *HALF, "--t", "nan"],
        ["characteristics", *HALF, "--t", "inf"],
        ["asymp", *HALF, "--n-range", "11:12", "--p", "2",
         "--max-spread", "nan"],
        ["verify", "lemma1", "--trials", "0"],
        ["verify", "lemma1", "--trials", "-3"],
        ["verify", "lemma1", "--trials", "2", "--tol", "nan"],
        ["verify", "lemma1", "--trials", "3", "--tol", "-1"],
        ["asymp", *HALF, "--n-range", "11:12", "--p", "2",
         "--max-spread", "0.5"],
        # --psi-table excludes --alpha and --r; the file is never opened
        ["characteristics", *HALF, "--psi-table", "/nonexistent.csv",
         "--t", "9"],
        # an infinite alpha or r made psi vanish past t = 1 and mu overflow
        ["characteristics", "--alpha", "inf", "--r", "0.5", "--t", "5"],
        ["characteristics", "--alpha", "1", "--r", "inf", "--t", "5"],
        # t^r overflows float64: a raw OverflowError exited 3
        ["characteristics", "--alpha", "1", "--r", "1e300", "--t", "5"],
        ["kernel-eval", "--alpha", "1", "--r", "1e300", "--n", "5",
         "--t", "0.1"],
    ])
    def test_non_finite_options_exit_config(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_halving_below_resolution_says_so(self, capsys):
        # -5^400 - ln 2 rounds to -5^400: eta(5) - 5 is lost, not negative
        code, out, err = run_cli(capsys, "characteristics", "--alpha", "1",
                                 "--r", "400", "--t", "5")
        assert (code, out) == (3, "")
        assert "below float64's resolution" in err
        assert "not decreasing" not in err

    def test_halving_point_overflow_says_so(self, capsys):
        # (5^0.001 + ln 2/0.001)^1000 leaves float64: refused by name
        code, out, err = run_cli(capsys, "characteristics", "--alpha", "0.001",
                                 "--r", "0.001", "--t", "5")
        assert (code, out) == (3, "")
        assert err == "numeric error: eta(5.0) overflows float64\n"

    def test_large_order_refused_without_a_numpy_warning(self, capsys):
        # |g|^1000 overflows in the pass and its kink correction reads
        # inf - inf: numpy keeps quiet and the refusal alone is printed
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "kernel-norm", "--alpha", "0.2",
                                     "--r", "0.7", "--n", "4", "--p", "inf",
                                     "1000")
        assert (code, out) == (3, "")
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        assert err == ("numeric error: norm order 1000.0: the sum of "
                       "|g|^1000.0 over the 65536-point grid, nan, leaves "
                       "float64's range\n")

    @pytest.mark.parametrize("argv", [
        ["kernel-norm", *HALF, "--n", "100000000", "--p", "1"],
        ["lambda", *HALF, "--n", "100000000"]])
    def test_zero_psi_n_is_refused_by_name(self, capsys, argv):
        # psi(10^8) = e^{-10^4} is 0 in float64: refused, naming n, before
        # the kernel's K-long or the multiplier's n-long arrays are made
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err.startswith("numeric error: psi(n) is 0 in float64")
        assert "n = 100000000" in err
        assert peak < 1 << 20

    def test_zero_tail_budget_is_refused_by_name(self, capsys):
        # psi(530000) ~ 1e-316 is not 0, but the budget 1e-15 psi(n) (eta(n)
        # - n) is: refused naming n (exit 3), not as a DomainError on an
        # internal tail_eps (exit 2); at n = 480000 it is subnormal, not 0
        code, out, err = run_cli(capsys, "kernel-norm", *HALF, "--n",
                                 "530000", "--p", "2")
        assert (code, out) == (3, "")
        assert err.startswith("numeric error: the tail budget is 0")
        assert "n = 530000" in err and "tail_eps" not in err
        code, out, _ = run_cli(capsys, "kernel-norm", *HALF, "--n",
                               "480000", "--p", "2")
        assert code == 0
        assert 0.0 < json.loads(out)["rows"][0]["norm"] < 1e-290

    @pytest.mark.parametrize("argv", [
        ["kernel-norm", *HALF, "--n", "12", "--p", "1000"],
        ["verify", "theorem2", *HALF, "--n", "12", "--s", "1000"]])
    def test_order_leaving_float64_exits_numeric(self, capsys, argv):
        # |K*|^1000 underflows: the norm printed 0 and theorem2 FAILed
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("numeric error: norm order 1000.0")
        code, out, _ = run_cli(capsys, "kernel-norm", *HALF, "--n", "12",
                               "--p", "400")
        assert code == 0
        assert json.loads(out)["rows"][0]["norm"] == pytest.approx(
            0.3534, abs=1e-4)

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
        report = payload["reports"][2]
        assert list(report) == ["family", "alpha", "r", "beta", "n", "mode",
                                "p_or_s", "a", "b", "X", "lower", "proxy",
                                "upper", "pass_lower", "pass_upper", "tol",
                                "status"]
        assert report["p_or_s"] == "inf"

    def test_theorem2_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "theorem2", *HALF,
                               "--n", "16", "--s", "2")
        assert code == 0
        assert json.loads(out)["reports"][0]["mode"] == "theorem2"

    def test_zero_proxy_exits_one(self, capsys):
        # psi(n) ~ 1e-109 to 1e-193: the norms, taken in units of 2^e, no
        # longer underflow to a zero proxy that fails the lower bracket
        for argv in (("theorem2", "--alpha", "2", "--n", "1000", "--s", "4"),
                     ("theorem2", "--alpha", "0.5", "--n", "8000", "--s", "4"),
                     ("theorem1", "--alpha", "0.5", "--n", "16384", "--p",
                      "2")):
            code, out, _ = run_cli(capsys, "verify", *argv, "--r", "0.7")
            assert code == 0, argv
            report = json.loads(out)["reports"][0]
            assert 0.45 <= report["proxy"] / report["X"] <= 1.45, argv
            assert report["pass_lower"] and report["pass_upper"], argv

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

    def test_lemma1_trials_ceiling(self, capsys, monkeypatch):
        # one past the ceiling is refused before any trial runs
        def no_trial(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(cli, "lemma1_check", no_trial)
        code, out, err = run_cli(capsys, "verify", "lemma1", "--trials",
                                 str(cli.MAX_TRIALS + 1))
        assert code == 2 and out == ""
        assert "--trials" in err and str(cli.MAX_TRIALS) in err

    def test_lemma1_negative_seed_refused(self, capsys, monkeypatch):
        # numpy's ValueError escaped as a traceback with exit 1
        def no_trial(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(cli, "lemma1_check", no_trial)
        code, out, err = run_cli(capsys, "verify", "lemma1", "--trials", "1",
                                 "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error: --seed") and "-1" in err

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_lemma2_unsolvable_t_exits_numeric(self, capsys, force):
        # eta(1e300) - 1e300 is lost to rounding: with --force too, not a
        # row of nulls with exit 1
        code, out, err = run_cli(capsys, "verify", "lemma2", *HALF, "--t",
                                 "20", "1e300", *force)
        assert (code, out) == (3, "")
        assert "below float64's resolution" in err

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

    def test_lemma2_table_profile_uses_its_derivative(self, capsys, tmp_path):
        table = tmp_path / "psi.csv"
        t = np.arange(1.0, 400.0, 0.25)
        np.savetxt(table, np.column_stack([t, np.exp(-np.sqrt(t))]),
                   delimiter=",")
        code, out, _ = run_cli(capsys, "verify", "lemma2", "--psi-table",
                               str(table), "--t", "20", "50", "--b", "2.11")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["finite_difference"] for r in rows] == [False, False]
        assert all(r["ordered"] for r in rows)

    def test_envelopes_force_below_threshold(self, capsys):
        code, out, err = run_cli(capsys, "verify", "envelopes", *HALF,
                                 "--n-range", "6:11", "--force",
                                 "--format", "csv")
        assert code == 2
        rows = out.strip().split("\n")[1:]
        status = [row.split(",")[3] for row in rows]
        assert status == ["precondition_violated"] * 5 + ["ok"]
        assert rows[-1].startswith("11,")
        assert err == ("verify envelopes: 1/6 ok, 0 failed, "
                       "5 outside preconditions\n")

    def test_envelopes_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "envelopes", *HALF,
                               "--n-range", "11:13")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(r["envelope_status"] == "ok" for r in rows)
        assert all(r["tail_ok"] for r in rows)

    def test_envelopes_huge_b_stays_finite(self, capsys):
        # the pointwise constant is 2(1 + 1/b)^2, so (b + 1)^2 never
        # overflows: a b above 1.34e154 is reported, mu < b, not exit 3
        code, out, err = run_cli(capsys, "verify", "envelopes", *HALF,
                                 "--n", "20", "--a", "3", "--b", "1e300")
        assert code == 2
        row = json.loads(out)["rows"][0]
        assert row["envelope_status"] == "precondition_violated"
        assert math.isfinite(row["pointwise_margin"])
        assert math.isfinite(row["uniform_margin"])
        assert err == ("verify envelopes: 0/1 ok, 0 failed, "
                       "1 outside preconditions\n")


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
        code, out, _ = run_cli(capsys, "table",
                               "--psi-table", str(table), "--n-range", "20:21",
                               "--p", "2", "--a", repr(a), "--b", repr(b))
        assert code == 0
        rows = json.loads(out)["rows"]
        _, ref, _ = run_cli(capsys, "table", *HALF, "--n-range", "20:21",
                            "--p", "2")
        for row, want in zip(rows, json.loads(ref)["rows"]):
            assert row["lower"] <= row["proxy"] <= row["upper"]
            assert row["proxy"] == pytest.approx(want["proxy"], rel=1e-9)

    def test_table_family_comment_with_comma(self, capsys, tmp_path):
        # a comment on the first row of a whitespace-separated file may
        # hold a comma without being taken for the delimiter
        t = np.arange(1, 2001, dtype=float)
        rows = [f"{x:.17g} {v:.17g}" for x, v in zip(t, np.exp(-np.sqrt(t)))]
        rows[0] += " # a,b"
        table = tmp_path / "psi.txt"
        table.write_text("\n".join(rows) + "\n")
        a, b, _ = exp_power_thresholds(1.0, 0.5)
        code, out, err = run_cli(capsys, "table",
                                 "--psi-table", str(table), "--n-range",
                                 "20:21", "--p", "2", "--a", repr(a),
                                 "--b", repr(b))
        assert code == 0, err
        assert len(json.loads(out)["rows"]) == 2

    @pytest.mark.parametrize("text", ["", "# t,v\n", "1,0.5\n2,abc\n",
                                      "1,0.5\n2,0.25,9\n",
                                      "1,0.5\n2,nan\n3,0.1\n"])
    @pytest.mark.filterwarnings("error")   # nothing may print before error:
    def test_table_family_bad_file_exits_config(self, capsys, tmp_path,
                                                text):
        # empty, comment-only, non-numeric, ragged and non-finite files
        # are configuration errors
        table = tmp_path / "psi.csv"
        table.write_text(text)
        code, out, err = run_cli(capsys, "table",
                                 "--psi-table", str(table), "--n-range",
                                 "20:21", "--p", "2", "--a", "3", "--b", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_missing_thresholds_read_alike(self, capsys, tmp_path):
        # every command that needs a or b of a table profile refuses with
        # one text, naming no option the command lacks (lemma2 has no --a)
        table = tmp_path / "psi.csv"
        t = np.arange(1, 2001, dtype=float)
        np.savetxt(table, np.column_stack([t, np.exp(-np.sqrt(t))]),
                   delimiter=",")
        profile = ["--psi-table", str(table)]
        for argv in (["verify", "lemma2", *profile, "--t", "20"],
                     ["verify", "theorem1", *profile, "--n", "20", "--b", "3"],
                     ["verify", "envelopes", *profile, "--n", "20"],
                     ["table", *profile, "--n-range", "20:21", "--p", "2"]):
            assert run_cli(capsys, *argv) == (2, "", (
                "error: a and b must be given explicitly for a "
                "non-closed-form psi\n")), argv

    def test_truncation_past_max_grid_exits_numeric(self, capsys, tmp_path):
        # log psi falls by 4e-7 per step past t = 3: K would be ~1.1e8,
        # so the kernel is refused before any K-sized array exists
        table = tmp_path / "flat.csv"
        table.write_text("1,1.0\n2,0.5\n3,0.25\n4,0.2499999\n")
        code, out, err = run_cli(capsys, "kernel-eval", "--psi-table",
                                 str(table), "--n", "3", "--t", "0.5")
        assert (code, out) == (3, "")
        assert err.startswith("numeric error: ") and "MAX_GRID" in err

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
        assert list(json.loads(out)) == ["alpha", "r", "beta", "mode",
                                         "p_or_s", "rows", "ratio_min",
                                         "ratio_max", "spread"]
        code, _, _ = run_cli(capsys, "asymp", *HALF, "--n-range", "11:18",
                             "--p", "inf", "--max-spread", "1.0001")
        assert code == 1

    def test_asymp_below_threshold(self, capsys):
        code, _, err = run_cli(capsys, "asymp", *HALF, "--n-range", "5:12",
                               "--p", "2")
        assert code == 2
        assert "below n_min = 11; pass --force" in err


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

    @pytest.mark.parametrize("argv", [
        # an option another command or check reads
        ["verify", "theorem2", *HALF, "--n", "12", "--p", "2"],
        ["verify", "theorem1", *HALF, "--n", "12", "--s", "2"],
        ["verify", "lemma1", "--trials", "2", "--alpha", "1", "--n", "5"],
        ["verify", "envelopes", *HALF, "--n", "12", "--p", "2"],
        ["verify", "envelopes", *HALF, "--n", "12", "--beta", "1"],
        # two ways to give the same degrees or points
        ["verify", "theorem1", *HALF, "--n", "12", "--n-range", "11:13"],
        ["characteristics", *HALF, "--t", "9", "--n-range", "11:12"],
        # abbreviations of options the command lacks
        ["characteristics", *HALF, "--t", "9", "--a", "2"],
        ["kernel-eval", *HALF, "--n", "9", "--t", "0.5", "--b", "1"],
        ["lambda", *HALF, "--n", "9", "--p", "7"],
        # the profile follows from the options: no family to name, and
        # asymp takes the exp-power options only
        ["asymp", "--psi-table", "F", "--p", "2", "--n-range", "11:12"],
        ["characteristics", "--family", "table", "--psi-table", "F",
         "--t", "9"],
    ], ids=" ".join)
    def test_unread_option_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        # reported under the usage of the command or check that refused it
        path = " ".join(a for a in argv[:2] if not a.startswith("--"))
        assert err.startswith(f"usage: psiapprox {path} [-h]")

    @pytest.mark.parametrize("argv, prog", [
        (["--frobnicate", "characteristics", *HALF, "--t", "9"], "psiapprox"),
        (["verify", "--frobnicate", "theorem1", *HALF, "--n", "12"],
         "psiapprox verify"),
    ])
    def test_option_before_its_command_is_refused_by_the_outer_parser(
            self, capsys, argv, prog):
        # the parser whose stretch of the command line holds the option
        # left it unread, so its usage is the one shown
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        # the usage names the parser and its commands: no leaf's options
        assert " ".join(err.split()).startswith(f"usage: {prog} [-h] {{")
        assert err.endswith(
            f"{prog}: error: unrecognized arguments: --frobnicate\n")

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "psiapprox.cli", "characteristics",
             "--alpha", "1", "--r", "0.5", "--t", "9"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rows"][0]["floor_gap"] == 4
