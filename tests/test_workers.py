"""Deep grids on worker threads: the split FFT's rows and the norm pass's
blocks give the same bits for any worker count, a worker's error reaches
the caller, a thread starts only when a grid needs it and is joined
before the call returns, and a forked child samples as its parent."""

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

from psiapprox import FourierSeries, approx_ops, kernels, series

TWO_PI = 2.0 * math.pi
COUNTS = (1, 2, 3, 8)
DEEP = 1 << 20


@pytest.fixture(scope="module")
def deep_profile(psi_slow):
    """(2.0, 0.3), n = 200: K ~ 51k, a 2^20-point grid of 8 split rows."""
    kp = kernels.kernel_profile(psi_slow, 200)
    assert approx_ops._grid_size(kp.truncation_index) == DEEP
    return kp


def fresh(f):
    """f's coefficients in a series with an empty sample cache."""
    return FourierSeries(f.a0, f.a, f.b)


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
    # up to eight ranges, more than cores, each twisting its own spectrum
    grids = []
    for count in COUNTS:
        set_workers(count)
        grids.append(fresh(deep_profile.folded)._phases(DEEP))
    assert grids[0].shape == (8, series.FFT_BLOCK)
    for grid in grids[1:]:
        assert np.array_equal(grid, grids[0])


@pytest.mark.parametrize("beta, orders", [
    (0.5, (1.0, 4.0 / 3.0, 4.0)),   # a whole walk, 16 blocks
    (1.0, (1.0, 4.0 / 3.0, 4.0)),   # a half walk, 8 blocks
    (0.0, (1.0, 4.0 / 3.0)),        # kinked orders only
    (1.7, ())])                     # the peak alone
def test_pass_records_keep_their_bits(deep_profile, set_workers,
                                      fast_switches, beta, orders):
    rows = deep_profile.folded._phases(DEEP)
    mirror = deep_profile.evaluator(beta).mirror
    results = []
    for count in COUNTS:
        set_workers(count)
        results.append(approx_ops._grid_pass(rows, orders, TWO_PI / DEEP,
                                             peak=True, mirror=mirror))
    for result in results[1:]:
        assert result == results[0]


def test_each_worker_adds_one_set_of_pass_buffers(deep_profile,
                                                  set_workers):
    # a worker holds two _BLOCK-point buffers, 1 MB whatever the grid
    # size: the mirror writes v f_{-j} into the second before the powers
    rows = deep_profile.folded._phases(DEEP)
    mirror = deep_profile.evaluator(0.5).mirror
    peaks = {}
    for count in (1, 2, 4, 8):
        set_workers(count)
        tracemalloc.start()
        try:
            approx_ops._grid_pass(rows, (1.0, 4.0 / 3.0), TWO_PI / DEEP,
                                  peak=True, mirror=mirror)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for count in (2, 4, 8):
        assert peaks[count] - peaks[1] < (count - 1) * 1.25 * 2 ** 20


def test_peak_tied_across_blocks_keeps_the_first(set_workers):
    # |g| peaks at equal values in blocks 1 and 3 of four, which land on
    # different workers: the first index wins on every count
    B = approx_ops._BLOCK
    g = np.random.default_rng(5).uniform(-1.0, 1.0, 4 * B)
    g[B + 17], g[3 * B + 5] = 2.5, -2.5
    for count in COUNTS:
        set_workers(count)
        sums, found = approx_ops._grid_pass(g, (1.0, 4.0), TWO_PI / g.size,
                                            peak=True)
        assert found == (B + 17, 2.5)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("bad", [0, 7])   # the caller's row, a worker's
def test_row_error_reaches_the_caller(deep_profile, set_workers, monkeypatch,
                                      count, bad):
    # row `bad` raises at once and every other row takes a while; the error
    # reaches the caller only after every other range has ended, and
    # nothing is cached
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
    with pytest.raises(FloatingPointError, match="bad row"):
        f._phases(DEEP)
    w = min(count, 8)   # _spread's ranges; the bad one stops at its row
    stop = next(8 * i // w for i in range(1, w + 1) if 8 * i // w > bad)
    assert done == set(range(8)) - set(range(bad, stop))
    assert f._sample_cache == {}
    monkeypatch.setattr(np.fft, "irfft", irfft)
    assert np.array_equal(f._phases(DEEP), deep_profile.folded._phases(DEEP))


@pytest.mark.parametrize("count", COUNTS)
def test_pass_error_reaches_the_caller(deep_profile, set_workers,
                                       monkeypatch, count):
    set_workers(count)
    build = approx_ops._mirror_rows
    last = (DEEP - approx_ops._BLOCK) // 8   # the last block's first column

    def failing(rows, u, v, lo, hi, out, scratch):
        if lo == last:
            raise FloatingPointError("last block")
        return build(rows, u, v, lo, hi, out, scratch)
    monkeypatch.setattr(approx_ops, "_mirror_rows", failing)
    with pytest.raises(FloatingPointError, match="last block"):
        approx_ops._norms(deep_profile.evaluator(0.5), (1.0, math.inf))


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
    # on any host a deep grid's rows and its pass each start one thread
    # per worker past the first, at most _MAX_WORKERS - 1, and join them
    # before the call returns
    rows = deep_profile.folded._phases(DEEP)   # cached before counting
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()
    monkeypatch.setattr(threading, "Thread", Counted)
    monkeypatch.setattr(series, "_CORES", cores)
    before = threading.active_count()
    fresh(deep_profile.folded)._phases(DEEP)
    approx_ops._grid_pass(rows, (1.0,), TWO_PI / DEEP)
    assert len(started) == 2 * (min(cores, series._MAX_WORKERS) - 1)
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


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
