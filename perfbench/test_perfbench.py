"""Self-tests of the benchmark's tracer and gate.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that the tracer wraps every binding of each traced callable,
that span counts equal the step counts a pass implies, that tracing leaves
every verdict unchanged, and that the gate catches a changed verdict or a
drifted proxy.
"""

import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gate as gt  # noqa: E402
import run as runner  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def _small(workload: str, ns_per_group: int) -> dict:
    inputs = wl.make_inputs(workload, 0)
    for g in inputs["groups"]:
        g["ns"] = g["ns"][:ns_per_group]
    return inputs


def _traced(workload: str, inputs: dict):
    bench_pass = wl.prepare(workload, inputs)
    plain = [step.records(step.run()) for step in bench_pass.steps]
    tracer = Tracer()
    with tracer:
        traced = []
        for i, step in enumerate(bench_pass.steps):
            tracer.step = i
            traced.append(step.records(step.run()))
    return bench_pass, plain, traced, layer_metrics([tracer.spans],
                                                    tracer.log_value_calls)


def test_every_binding_is_wrapped_and_restored():
    from psiapprox import approx_ops, bounds, cli, kernels, psi_core, series
    bindings = [(bounds, "kernel_norm"), (bounds, "characteristics"),
                (kernels, "characteristics"), (approx_ops, "characteristics"),
                (approx_ops, "sup_norm"), (cli, "kernel_norm"),
                (cli, "characteristics"), (psi_core, "characteristics"),
                (series.FourierSeries, "eval"),
                (series.FourierSeries, "__call__")]
    before = [getattr(owner, name) for owner, name in bindings]
    with Tracer():
        for owner, name in bindings:
            assert getattr(getattr(owner, name), "__wrapped_by_perfbench__",
                           False), f"{owner.__name__}.{name} not wrapped"
        fs = series.FourierSeries
        assert fs.__dict__["eval"] is fs.__dict__["__call__"]
    assert [getattr(owner, name) for owner, name in bindings] == before


def test_sweep_span_counts_match_steps():
    bench_pass, plain, traced, m = _traced("sweep-shallow", _small("sweep-shallow", 3))
    steps = len(bench_pass.steps)
    betas = 2
    assert m["kernels.build.calls"] == betas * steps
    assert m["approx_ops.kernel_norm.calls"] == len(wl.MODES) * betas * steps
    assert m["bounds.brackets"] == len(wl.MODES) * betas * steps
    # one grid per evaluator: the first request misses, the other seven hit
    assert m["series.uniform_samples.misses"] == betas * steps
    assert m["series.uniform_samples.calls"] == len(wl.MODES) * betas * steps
    # orders {inf, 2, 4/3, 1} and {1, 2, 4, inf}: five distinct of eight
    assert math.isclose(m["approx_ops.kernel_norm.unique_ratio"], 5 / 8)
    assert m["kernels.tail_certs_per_build"] >= 2.0
    assert m["psi_core.log_value.calls"] > 0
    assert m["approx_ops.sup_norm.refine_evals"] > 0
    assert traced == plain


def test_envelope_span_counts_match_steps():
    bench_pass, plain, traced, m = _traced("envelope-scan", _small("envelope-scan", 2))
    steps = len(bench_pass.steps)
    assert m["kernels.build.calls"] == steps
    assert m["approx_ops.kernel_norm.calls"] == 0
    assert m["psi_core.eta_derivative.busy_s"] > 0.0
    assert m["kernels.tail_sum_bound_check.busy_s"] > 0.0
    assert traced == plain


def test_cli_child_traces_one_command(tmp_path):
    inputs = wl.make_inputs("cli-cold", 0)
    inputs["commands"] = [c for c in inputs["commands"]
                          if c[0].startswith("kernel-norm")]
    plain_pass = wl.prepare("cli-cold", inputs)
    traced_pass = wl.prepare("cli-cold", inputs, span_dir=tmp_path)
    plain = plain_pass.steps[0].records(plain_pass.steps[0].run())
    traced = traced_pass.steps[0].records(traced_pass.steps[0].run())
    assert traced == plain
    from spans import load_spans
    header, recs = load_spans(tmp_path / "00.jsonl.gz")
    m = layer_metrics([recs], header["log_value_calls"])
    assert m["cli.main.busy_s"] > 0.0
    assert m["kernels.build.calls"] == 1
    assert m["approx_ops.kernel_norm.calls"] == 3      # --p 1 2 inf


def test_gate_flags_changed_verdict_and_drift():
    key = wl.bracket_key(2.0, 0.3, 0.0, 160, "theorem1", 1.0)
    ref = gt.load_reference("sweep-deep", ["2.0|0.3|0.0"])
    good = dict(ref[key])
    g = gt.Gate("sweep-deep", ref)
    g.check(key, good)
    assert g.correct and g.drift == 0.0
    g.check(key, dict(good, proxy=good["proxy"] + 2.0 * good["tol"]))
    assert g.drift >= 2.0 and not g.correct
    g = gt.Gate("sweep-deep", ref)
    g.check(key, dict(good, pass_upper=False))
    assert g.failed == 1 and g.mismatches == 1 and not g.correct


def test_tail_keeps_ten_steps_beyond_up_to_p95():
    class G:
        fail_ratio, mismatches, drift = 0.0, 0, 0.0

    def tail(n):
        loop = {"times": [i / 1000.0 for i in range(1, n + 1)], "checks": [1]}
        return runner.end_to_end(loop, {"setup_s": 1.0}, G, "sweep-deep")[
            "step_tail_ms"]
    assert tail(40)["value"] == 30.0          # steps 31..40 lie beyond
    assert tail(40)["samples"] == 40
    assert tail(1000)["value"] == 950.0       # p95: 50 steps beyond
    assert tail(12)["value"] == 6.0           # never below the median


def test_throughput_takes_each_step_at_its_median():
    # two steps of 1 and 3 checks; one preempted run of step 0 is ignored
    times = [1.0, 2.0, 1.0, 2.0, 9.0, 2.0]
    assert runner.pass_throughput(times, [1, 3]) == 4 / 3.0
    assert runner.pass_throughput([1.0], [1, 3]) == 1.0   # step 1 not reached


def test_host_scaling_cancels_host_speed():
    from calibration import CAL_NOMINAL_S, host_scaled
    # the host halves its speed after step 4: library and kernel both slow
    times = [1.0] * 5 + [2.0] * 5
    cals = [CAL_NOMINAL_S] * 5 + [2 * CAL_NOMINAL_S] * 5
    scaled = host_scaled(times, list(range(10)), cals)
    assert scaled[:3] == [1.0] * 3 and scaled[-3:] == [1.0] * 3
    # calibrated every other step: each step takes the calibrations nearest it
    assert host_scaled(times, [1, 3, 5, 7, 9], cals[::2])[-2:] == [1.0, 1.0]
    # a slower library at the same host speed shows in full
    assert host_scaled([1.5] * 5, [4], [CAL_NOMINAL_S]) == [1.5] * 5


def test_cli_command_brings_its_own_calibration():
    inputs = wl.make_inputs("cli-cold", 0)
    inputs["commands"] = [c for c in inputs["commands"] if c[0] == "table"]
    step = wl.prepare("cli-cold", inputs).steps[0]
    gate = gt.Gate("cli-cold", gt.load_reference("cli-cold", ["cli"]))
    dt, own_cal = runner.run_step(step, gate)
    assert gate.correct and own_cal > 0.0 and dt > 0.0
    code, stdout, report = step.run()
    assert code == 0 and report["cal_total_s"] > report["cal_s"] > 0.0
    assert wl.command_peak_rss_mb >= report["peak_rss_mb"] > 0.0
