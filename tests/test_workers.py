"""Deep grids on worker threads: the split FFT's row pairs, sampled and
walked in one task, give the same bits for any worker count, cache state
and set of betas walked together, a worker's error reaches the caller, a
thread starts only when a grid is split and is joined before the call
returns, and a forked child samples as its parent."""

import dataclasses
import math
import multiprocessing
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest

from psiapprox import (FourierSeries, PsiFunction, approx_ops, cli, kernels,
                       series, verify_sweep)

from conftest import walk

COUNTS = (1, 2, 3, 8)
DEEP = 1 << 20
TASKS = [(1, 7), (2, 6), (0,), (3, 5), (4,)]   # an 8-row grid's, in order
ORDERS = (1.0, 4.0 / 3.0, 2.0, 4.0, math.inf)


@pytest.fixture(scope="module")
def deep_profile(psi_slow):
    """(2.0, 0.3), n = 200: K ~ 51k, a 2^20-point grid of 8 split rows."""
    kp = kernels.kernel_profile(psi_slow, 200)
    assert approx_ops._grid_size(kp.truncation_index) == DEEP
    return kp


def fresh(f):
    """f's coefficients in a series with an empty sample cache."""
    return FourierSeries(f.a0, f.a, f.b)


def cold(kp):
    """kp with its folded f in a series with an empty sample cache."""
    return dataclasses.replace(kp, folded=fresh(kp.folded))


def spectrum_and_buffers(kp) -> int:
    """Bytes a worker past the first may hold: a twiddle buffer, about a
    spectrum's size, and two _BLOCK-point buffers."""
    return 16 * (kp.folded.degree + 1) + 2 * 8 * approx_ops._BLOCK


@pytest.fixture
def fast_switches():
    """Threads switch every microsecond, so a lost update shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_split_rows_keep_their_bits(deep_profile, set_workers,
                                    fast_switches):
    # up to eight ranges, more than cores, each twisting its rows by their
    # own twiddles in a buffer of its own
    grids = []
    for count in COUNTS:
        set_workers(count)
        grids.append(fresh(deep_profile.folded)._phases(DEEP))
    assert grids[0].shape == (8, series.FFT_BLOCK)
    for grid in grids[1:]:
        assert np.array_equal(grid, grids[0])


@pytest.mark.parametrize("beta, orders", [
    (0.5, (1.0, 4.0 / 3.0, 4.0)),   # a whole walk, 4 spans a row
    (1.0, (1.0, 4.0 / 3.0, 4.0)),   # a half walk, 2 spans a row
    (0.0, (1.0, 4.0 / 3.0)),        # kinked orders only
    (1.7, ())])                     # the peak alone
def test_pass_records_keep_their_bits(deep_profile, set_workers,
                                      fast_switches, beta, orders):
    rows = deep_profile.folded._phases(DEEP)
    mirror = deep_profile.evaluator(beta).mirror
    results = []
    for count in COUNTS:
        set_workers(count)
        results.append(walk(rows, orders, True, mirror))
    for result in results[1:]:
        assert result == results[0]


def test_records_keep_their_bits_across_cache_and_betas(deep_profile,
                                                        set_workers,
                                                        fast_switches):
    # three betas walked together in the tasks that sample f, or each on
    # its own, on a cold cache (each task's FFT, then its walks) or a warm
    # one (its walks alone): every record is the same, bit for bit
    betas, runs = (0.0, 0.5, 1.0), []
    deep_profile.folded._phases(DEEP)
    for count in COUNTS:
        set_workers(count)
        for state in (cold, lambda kp: kp):   # each pass its own cache state
            kp = state(deep_profile)
            runs.append(approx_ops._norms([kp.evaluator(b) for b in betas],
                                          ORDERS))
            runs.append([approx_ops._norms([state(deep_profile).evaluator(b)],
                                           ORDERS)[0] for b in betas])
    for run in runs[1:]:
        assert run == runs[0]


def test_each_worker_adds_one_set_of_pass_buffers(deep_profile,
                                                  set_workers):
    # a worker past the first holds at most its twiddle buffer and two
    # _BLOCK-point buffers, whatever the grid size, sampling its rows and
    # walking them (cold) or walking them alone (warm); eight workers
    # find five tasks
    mirrors = [deep_profile.evaluator(b).mirror for b in (0.0, 1.0)]
    peaks = {}
    for count in (1, 2, 4, 8):
        set_workers(count)
        for state in ("cold", "warm"):
            f = fresh(deep_profile.folded)
            if state == "warm":
                f._phases(DEEP)
            tracemalloc.start()
            try:
                approx_ops._grid_pass(f, DEEP, [(m, (1.0, 4.0 / 3.0), True)
                                                for m in mirrors], {})
                peaks[count, state] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for count in (2, 4, 8):
        extra = (min(count, len(TASKS)) - 1) * spectrum_and_buffers(
            deep_profile)
        for state in ("cold", "warm"):
            assert peaks[count, state] - peaks[1, state] <= extra


def test_sign_record_holds_half_a_grid_per_halved_beta(deep_profile,
                                                       set_workers):
    # orders that are not even integers keep each halved walk's sign bits,
    # one byte for each of its G/2 nodes, until the scan after the join
    set_workers(1)
    deep_profile.folded._phases(DEEP)
    mirrors = [deep_profile.evaluator(b).mirror for b in (0.0, 1.0)]
    for walks in (1, 2):
        peaks = []
        for orders in ((4.0,), (1.0,)):   # no sign record, then one
            tracemalloc.start()
            try:
                approx_ops._grid_pass(deep_profile.folded, DEEP, [
                    (m, orders, False) for m in mirrors[:walks]], {})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= walks * DEEP // 2 + DEEP // 8


def test_peak_tied_across_blocks_keeps_the_first(set_workers):
    # |g| peaks at equal values in blocks 1 and 3 of four, which land on
    # different workers: the first index wins on every count
    B = approx_ops._BLOCK
    g = np.random.default_rng(5).uniform(-1.0, 1.0, 4 * B)
    g[B + 17], g[3 * B + 5] = 2.5, -2.5
    for count in COUNTS:
        set_workers(count)
        sums, found = walk(g, (1.0, 4.0), True)
        assert found == (B + 17, 2.5)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("bad", [0, 7])   # a worker's row, the caller's
def test_row_error_reaches_the_caller(deep_profile, set_workers, monkeypatch,
                                      count, bad):
    # row `bad` raises at once and every other row takes a while; the error
    # reaches the caller only after every other range of tasks has ended,
    # and nothing is cached
    set_workers(count)
    irfft, done = np.fft.irfft, set()

    def failing(spec, n, norm, out):
        (r,) = [r for r, row in enumerate(out.base)
                if np.shares_memory(out, row)]
        if r == bad:
            raise FloatingPointError("bad row")
        time.sleep(0.01)
        irfft(spec, n, norm=norm, out=out)
        done.add(r)
    monkeypatch.setattr(np.fft, "irfft", failing)
    f = fresh(deep_profile.folded)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="bad row"):
        f._phases(DEEP)
    assert threading.active_count() == before
    # _spread's ranges of tasks; the bad one stops at its row
    w, i = min(count, len(TASKS)), next(
        i for i, task in enumerate(TASKS) if bad in task)
    stop = next(len(TASKS) * c // w for c in range(1, w + 1)
                if len(TASKS) * c // w > i)
    lost = {r for task in TASKS[i + 1:stop] for r in task}
    lost |= set(TASKS[i][TASKS[i].index(bad):])
    assert done == set(range(8)) - lost
    assert f._sample_cache == {}
    monkeypatch.setattr(np.fft, "irfft", irfft)
    assert np.array_equal(f._phases(DEEP), deep_profile.folded._phases(DEEP))


@pytest.mark.parametrize("count", COUNTS)
def test_pass_error_reaches_the_caller(deep_profile, set_workers,
                                       monkeypatch, count):
    # the last span of the task of row 4, walked after its FFT, raises;
    # every thread is joined and the evaluators keep no record
    set_workers(count)
    build = approx_ops._mirror_rows

    def failing(rows, task, u, v, lo, hi, out, scratch):
        if task == (4,) and hi == DEEP // 8:
            raise FloatingPointError("last span")
        return build(rows, task, u, v, lo, hi, out, scratch)
    monkeypatch.setattr(approx_ops, "_mirror_rows", failing)
    kes = [cold(deep_profile).evaluator(0.5)]
    kes.append(dataclasses.replace(kes[0], beta=1.0, mirror=(1.0, -1.0),
                                   _norm_cache={}))
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="last span"):
        approx_ops._norms(kes, (1.0, math.inf))
    assert threading.active_count() == before
    assert all(ke._norm_cache == {} for ke in kes)


def test_workers_stay_lazy():
    # importing the CLI loads no executor module, and a sweep on grids of
    # one pass block and one irfft (2^16 points) starts no thread
    code = textwrap.dedent("""
        import sys, threading
        import psiapprox.cli
        assert "concurrent.futures" not in sys.modules
        from psiapprox import PsiFunction, approx_ops, kernels, verify_sweep
        psi = PsiFunction.exp_power(1.0, 0.5)
        K = kernels.kernel_profile(psi, 20).truncation_index
        assert approx_ops._grid_size(K) == approx_ops._BLOCK
        modes = [(m, p) for m in ("theorem1", "theorem2")
                 for p in (1.0, 2.0, 4.0, float("inf"))]
        assert len(verify_sweep(psi, [0.0, 1.0, 0.5], modes, [20])) == 24
        print(threading.active_count(), "concurrent.futures" in sys.modules)
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]


@pytest.mark.parametrize("cores", [1, 2, 16])
def test_deep_grid_threads_are_capped_and_joined(deep_profile, monkeypatch,
                                                 cores):
    # on any host a deep grid's sampling tasks and a walk over its cached
    # rows each start one thread per worker past the first, at most
    # _MAX_WORKERS - 1, and join them before the call returns
    deep_profile.folded._phases(DEEP)   # cached before counting
    started = count_threads(monkeypatch)
    monkeypatch.setattr(series, "_CORES", cores)
    before = threading.active_count()
    fresh(deep_profile.folded)._phases(DEEP)
    approx_ops._grid_pass(deep_profile.folded, DEEP, [((1.0, 0.0), (1.0,),
                                                       False)], {})
    assert len(started) == 2 * (min(cores, series._MAX_WORKERS) - 1)
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


def count_threads(monkeypatch) -> list:
    """The threads started from here on, counted as they start."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()
    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def test_grids_that_are_not_split_start_no_thread(psi_half, set_workers,
                                                  monkeypatch, capsys):
    # grids of at most FFT_BLOCK points take one irfft and are walked on
    # the calling thread, with workers to spare: `verify theorem1` on
    # n = 11..40 (grids of 4,096 to 2^16 points) and a 4,096-point kernel
    set_workers(2)
    started = count_threads(monkeypatch)
    assert cli.main(["verify", "theorem1", "--alpha", "1", "--r", "0.5",
                     "--n-range", "11:40", "--p", "1", "2", "inf"]) == 0
    ke = kernels.KernelEvaluator.build(PsiFunction.exp_power(2.0, 0.7), 10,
                                       0.5)
    assert approx_ops._grid_size(ke.truncation_index) == 4096
    approx_ops._norms([ke], ORDERS)
    assert capsys.readouterr().out and started == []


def test_deep_step_samples_once_and_walks_once(psi_slow, monkeypatch):
    # a deep sweep step samples its profile's f in one `_phases` miss,
    # whose tasks walk both betas' grids in one pass
    misses, passes = [], []
    phases, grid_pass = series.FourierSeries._phases, approx_ops._grid_pass

    def sampling(self, grid_size, start=None):
        if grid_size not in self._sample_cache:
            misses.append((grid_size, start is not None))
        return phases(self, grid_size, start)

    def walking(f, G, walks, strides):
        passes.append(len(walks))
        return grid_pass(f, G, walks, strides)
    monkeypatch.setattr(series.FourierSeries, "_phases", sampling)
    monkeypatch.setattr(approx_ops, "_grid_pass", walking)
    modes = [(mode, v) for mode in ("theorem1", "theorem2")
             for v in (1.0, 2.0, 4.0, math.inf)]
    reps = verify_sweep(psi_slow, [0.0, 1.0], modes, [200])
    assert len(reps) == 16 and all(rep.ok for rep in reps)
    assert misses == [(DEEP, True)] and passes == [2]


def sample_deep(f, queue):
    queue.put(bool(np.array_equal(fresh(f)._phases(DEEP), f._phases(DEEP))))


@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_forked_child_samples_a_deep_grid(deep_profile, set_workers):
    # the parent has sampled deep grids on threads of its own; a child
    # forked after them starts its own and gets the parent's bits
    set_workers(2)
    fresh(deep_profile.folded)._phases(DEEP)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=sample_deep, args=(deep_profile.folded, queue))
    child.start()
    try:
        assert queue.get(timeout=60) is True
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert not child.is_alive()
    assert child.exitcode == 0
