"""The benchmark's correctness gate (perfbench/gate.py) on small passes.

The benchmark runner gates every output against perfbench/reference/;
these tests make the same calls on a few steps of each workload, untraced
and without a span directory, so a changed verdict or a drifted proxy shows
here and not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from psiapprox import cli

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
# the BLAS/OpenMP pools the runner holds at one thread in every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def bench():
    """perfbench's workloads and gate modules, loaded by path; gate.py
    imports workloads under its bare name."""
    loaded = {}
    for name in ("workloads", "gate"):
        spec = importlib.util.spec_from_file_location(name,
                                                      BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = loaded[name] = module
        spec.loader.exec_module(module)
    yield loaded["workloads"], loaded["gate"]
    for name in loaded:
        sys.modules.pop(name, None)


def gate_pass(bench, workload, inputs):
    wl, gt = bench
    gate = gt.Gate(workload, gt.load_reference(
        workload, wl.reference_groups(workload, inputs)))
    for step in wl.prepare(workload, inputs).steps:
        for key, fields in step.records(step.run()):
            gate.check(key, fields)
    return gate


@pytest.mark.parametrize("workload, ns_per_group", [
    ("sweep-deep", 2), ("sweep-shallow", 2), ("envelope-scan", 3)])
def test_in_process_workloads_correct(bench, workload, ns_per_group):
    inputs = bench[0].make_inputs(workload, 1)
    for group in inputs["groups"]:
        group["ns"] = group["ns"][:ns_per_group]
    gate = gate_pass(bench, workload, inputs)
    assert gate.attempted > 0
    assert gate.correct, (gate.failed, gate.mismatches, gate.drift,
                          gate.first_problems)


def test_cli_cold_correct(bench, monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    gate = gate_pass(bench, "cli-cold", bench[0].make_inputs("cli-cold", 1))
    assert gate.attempted == 5
    assert gate.correct, (gate.failed, gate.mismatches, gate.drift,
                          gate.first_problems)


def test_cli_cold_deep_rows_correct(bench, monkeypatch, capsys):
    # every kernel-norm row of the reference, n = 160..256 at (2.0, 0.3),
    # run in process: the benchmark's tightest rows (the p = inf tol is
    # about 2 ulps), of which one cold run meets a single n
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    wl, gt = bench
    gate = gt.Gate("cli-cold", gt.load_reference("cli-cold", ["cli"]))
    labels = [key for key in gate.ref if key.startswith("kernel-norm/")]
    for label in labels:
        (argv,) = [cmd for name, cmd in wl.cli_commands(int(label[12:]))
                   if name == label]
        code = cli.main(argv)
        gate.check(label, wl.cli_fields(label, code, capsys.readouterr().out))
    assert gate.attempted == len(labels) == 97
    assert gate.correct, (gate.failed, gate.mismatches, gate.drift,
                          gate.first_problems)
