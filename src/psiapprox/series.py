"""Finite trigonometric series with FFT-backed uniform sampling.

Convention: f(t) = a0/2 + sum_{k>=1} a_k cos(kt) + b_k sin(kt), period 2*pi.
A series is its coefficients and the grids sampled from them.  A deep grid
is cached as the rows of FFT_BLOCK-point transforms (Bailey, FFTs in
external or hierarchical memory, 1990), each of the spectrum twisted by its
row's own twiddles, read only here.  `_phases` samples each mirrored row
pair in a task that hands it, hot, to a visit, the norm pass summing every
beta's rows into row totals (`_rows` to `_node`), on up to two threads.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .errors import DomainError

EVAL_BLOCK = 1 << 20   # entries of one phase matrix in eval
FFT_BLOCK = 1 << 17    # largest one-shot irfft: 1 MB of samples, cache-sized
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
# a worker past the first holds about 4 MB more, and speed was measured on
# two cores: raise this only after measuring a larger host
_MAX_WORKERS = 2


def _spread(step, items: list, workers: int) -> None:
    """step(item) for each item, in contiguous ranges on min(_CORES,
    _MAX_WORKERS, workers, len(items)) threads, the calling one first, all
    joined before it returns or raises the first error."""
    w = min(_CORES, _MAX_WORKERS, workers, len(items))
    cuts, errors, threads = [len(items) * i // w for i in range(w + 1)], [], []

    def run(i):
        try:
            for item in items[cuts[i]:cuts[i + 1]]:
                step(item)
        except BaseException as e:   # raised again on the calling thread
            errors.append(e)
    try:
        for i in range(1, w):
            threads.append(threading.Thread(target=run, args=(i,)))
            threads[-1].start()
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _wrap(t) -> np.ndarray:
    """t in [-pi, pi]: t itself where |t| <= pi, bit for bit, and else
    atan2(sin t, cos t), a few eps from the exact reduction at any finite
    t, since libm's sin and cos reduce their argument exactly."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= math.pi, t, np.arctan2(np.sin(t), np.cos(t)))


def _moments(c: np.ndarray, c0: float = 0.0) -> tuple:
    """sum k^d c_k, d = 0 and 2, over harmonics k = 1..c.size, and c0 at
    k = 0: with c_k = |c_k|, bounds on |g| and |g''| of the series."""
    k = np.arange(1.0, c.size + 1.0)
    return float(np.sum(c)) + c0, float(np.sum(k * (k * c)))


@dataclass(frozen=True, eq=False)
class FourierSeries:
    a0: float
    a: np.ndarray
    b: np.ndarray
    _sample_cache: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.ndim != 1 or b.ndim != 1:
            raise DomainError("coefficient arrays must be one-dimensional")
        if a.size != b.size:
            n = max(a.size, b.size)
            a = np.pad(a, (0, n - a.size))
            b = np.pad(b, (0, n - b.size))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def degree(self) -> int:
        """Largest harmonic index carried (trailing zeros included)."""
        return int(self.a.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return (self.a0 == other.a0 and np.array_equal(self.a, other.a)
                and np.array_equal(self.b, other.b))

    def eval(self, t):
        """0.5 a0 + (C + S) at scalar or array t, by `_row_sums`."""
        C, S = self._row_sums(t)
        out = 0.5 * self.a0 + (C + S)
        return out if np.ndim(t) else float(out[0])

    __call__ = eval

    def _row_sums(self, t) -> tuple:
        """(C, S) = (sum a_k cos kt, sum b_k sin kt) at the points of t,
        raveled, each a numpy pairwise row sum, at t reduced by `_wrap`, so
        kt's rounding does not grow with |t|.  Points go in blocks of
        EVAL_BLOCK // degree (at least one), so a block's points x degree
        phase matrix holds at most EVAL_BLOCK entries whenever the degree
        does; the products are written over the cos and sin tables."""
        t_arr = np.ravel(_wrap(t))
        k = np.arange(1.0, self.degree + 1.0)
        step = max(1, EVAL_BLOCK // max(1, self.degree))
        C, S = np.empty((2, t_arr.size))
        for i in range(0, t_arr.size, step):
            kt = np.outer(t_arr[i:i + step], k)
            cos = np.cos(kt)   # sin goes over kt
            C[i:i + step] = np.multiply(cos, self.a, out=cos).sum(axis=1)
            S[i:i + step] = np.multiply(np.sin(kt, out=kt), self.b,
                                        out=kt).sum(axis=1)
        return C, S

    def uniform_samples(self, grid_size: int) -> np.ndarray:
        """Values at t_j = 2*pi*j/grid_size, j = 0..grid_size-1, by a real
        inverse FFT (`_phases`), exact to rounding (more than twice the
        degree), read-only: a split grid's as an uncached natural copy."""
        rows, samples = self._phases(grid_size), self._sample_cache[grid_size]
        if samples is rows:   # a split grid's rows: an uncached natural copy
            samples = rows.T.ravel()
            samples.flags.writeable = False
        return samples

    def _phases(self, grid_size: int, start=None) -> np.ndarray:
        """The samples as `_rows`, after visit(rows, task), visit =
        start(rows), for each task: a mirrored row pair (r, L - r), or rows
        0 and L/2.  L >= 2 times FFT_BLOCK points of degree < FFT_BLOCK/2
        take L FFT_BLOCK-point transforms, row r's of the spectrum twisted
        by its own w^{rk} (row 0 untwisted keeps a one-shot irfft's bits),
        each task's on `_spread`'s workers before its visit (rows 0 and L/2
        apart); other grids one irfft, visited on this thread."""
        if grid_size <= 2 * self.degree:
            raise DomainError(f"a {grid_size}-point grid does not exceed "
                              f"twice the degree {self.degree}")
        samples = self._sample_cache.get(grid_size)
        if samples is not None and start is None:   # a cache hit, no visit
            return _rows(samples)
        sample = visit = lambda *task: None
        if samples is None:
            # halved, and without irfft's 1/G: exact on power-of-two grids
            spec = np.empty(self.degree + 1, dtype=complex)
            spec[0] = self.a0
            np.subtract(self.a, 0.0 * self.b, out=spec.real[1:])   # a - 1j b,
            np.subtract(0.0, self.b, out=spec.imag[1:])   # its zeros' signs too
            spec *= 0.5
            L = grid_size // FFT_BLOCK
            if L < 2 or grid_size % FFT_BLOCK or 2 * self.degree >= FFT_BLOCK:
                samples = np.fft.irfft(spec, grid_size, norm="forward")
            else:   # row r, the nodes Lq + r: the transform of spec w^{rk}, w = e^c
                c, samples = 2j * math.pi / grid_size, np.empty((L, FFT_BLOCK))
                i, j = np.arange(0, spec.size, 256), np.arange(256)   # k = i + j

                def sample(task):   # the task's own twiddle buffer, reused
                    w = np.empty(i.size * j.size, dtype=complex)
                    for r in task:   # row r's own w^{rk}, row 0 untwisted
                        if r:
                            np.multiply.outer(np.exp(c * (r * i)), np.exp(c * (r * j)),
                                              out=w.reshape(i.size, j.size))
                            w[:spec.size] *= spec
                        np.fft.irfft(w[:spec.size] if r else spec, FFT_BLOCK,
                                     norm="forward", out=samples[r])
        rows = _rows(samples)
        visit, L = start(rows) if start else visit, len(rows)
        pairs, ends = [(r, L - r) for r in range(1, (L + 1) // 2)], (0, L // 2)[:2 - L % 2]
        tasks = (pairs[:L // 4] + [ends[:1]] + pairs[L // 4:] + [ends[1:]]   # split:
                 if rows is samples else pairs + [ends])   # 2 workers of L/2 rows
        _spread(lambda task: sample(task) or visit(rows, task),   # rows, then
                tasks, len(tasks) if rows is samples else 1)   # their visit
        samples.flags.writeable = False
        self._sample_cache[grid_size] = samples
        return rows

    def _mirrored(self, G: int, u: float, v: float) -> np.ndarray:
        """Natural-order u f_j + v f_{-j} by `_mirror_rows`' arithmetic."""
        s = self.uniform_samples(G)
        return u * s + v * np.roll(s[::-1], 1)

    def _rounding_stages(self, G: int) -> int:
        """Roundings in a `_node` value of the G-point grid: 4 a stage of its
        M-point transforms (FFT_BLOCK if split, else G), 9 a twiddle, 3."""
        split = self._phases(G) is self._sample_cache[G]   # cached as rows
        return 4 * ((FFT_BLOCK if split else G) - 1).bit_length() + 9 * split + 3

    def antiderivative(self) -> "FourierSeries":
        """Periodic antiderivative with zero mean; requires a0 == 0."""
        if self.a0 != 0.0:
            raise DomainError("antiderivative of a nonzero-mean series is not periodic")
        k = np.arange(1, self.degree + 1, dtype=float)
        return FourierSeries(a0=0.0, a=-self.b / k, b=self.a / k)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        n = max(self.degree, other.degree)
        pad = lambda v, m: np.pad(v, (0, m - v.size))
        return FourierSeries(a0=self.a0 - other.a0,
                             a=pad(self.a, n) - pad(other.a, n),
                             b=pad(self.b, n) - pad(other.b, n))

    def energy(self) -> float:
        """Squared L2 norm over the period divided by pi: a0^2/2 + sum(a^2 + b^2)."""
        return 0.5 * self.a0 ** 2 + float(   # numpy sums: no BLAS threads
            np.sum(self.a * self.a) + np.sum(self.b * self.b))


def _rows(grid: np.ndarray) -> np.ndarray:
    """grid as (L, M) rows, row r holding the nodes Lq + r: a split grid's
    cached rows, any other grid a strided view in the rows the split route
    writes at its size (at least two, unless G is odd), alike bit for bit."""
    G = grid.size
    return grid if grid.ndim == 2 and len(grid) > 1 else grid.reshape(
        -1, max(G // FFT_BLOCK if G % FFT_BLOCK == 0 else 1, 2 - G % 2)).T


def _mirror_rows(rows: np.ndarray, task: tuple, u: float, v: float, lo: int,
                 hi: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """u f_j + v f_{-j}, j = Lq + r, lo <= q < hi, r in task, of `_rows`'
    (L, M) rows of f, over out as task's rows: f_{-j} is row L - r reversed
    (column M - 1 - q), for r = 0 row 0 one column over (M - q mod M), node
    0 set last.  scratch takes v f_{-j}."""
    X, zero = out[:len(task) * (hi - lo)].reshape(len(task), hi - lo), int(task[0] == 0)
    for dst, g, shift in ((X[:zero], task[:zero], 1), (X[zero:], task[zero:], 0)):
        if not g:   # row 0 apart, then a pair or row L/2
            continue
        s, step = shift * int(lo == 0), g[-1] - g[0] or 1
        fwd, dst = rows[g[0]::step][:len(g), lo + s:hi], dst[:, s:]
        back = rows[-g[0] % len(rows)::-step][:len(g), ::-1][:, lo + s - shift:hi - shift]
        if u == 1.0 and abs(v) == 1.0:   # f_j +- f_{-j}: exact products
            (np.add if v > 0.0 else np.subtract)(fwd, back, out=dst)
        else:
            np.multiply(fwd, u, out=dst)
            dst += np.multiply(back, v, out=scratch[:back.size].reshape(back.shape))
    if zero and lo == 0:
        X[0, 0] = _node(rows, u, v, 0)
    return X


def _sums(X: np.ndarray, task: tuple, k: int, power, out: np.ndarray):
    """Into out[r], row r's total, the pairwise sum of power(x) over its
    row of X (task's rows) on the stride-k sub-grid: rows r = 0 (mod k), a
    prefix of task (a pair has both or neither), for k > L row 0's
    (k/L)-th columns."""
    n = sum(r % k == 0 for r in task)
    out[list(task[:n])] += power(X[:n, ::max(1, k // len(out))]).sum(axis=1)


def _crossings(S: np.ndarray) -> np.ndarray:
    """Columns of a walk's sign bits S (in rows) mixed down the column or on
    to the next one's row 0, and the last: every sign change lies in one."""
    mixed = S.any(axis=0) != S.all(axis=0)
    mixed[:-1] |= S[-1, :-1] != S[0, 1:]
    mixed[-1] = True
    return np.flatnonzero(mixed)


def _pairs(rows: np.ndarray, u: float, v: float, cols: np.ndarray) -> list:
    """[(a, b)] on the grid and on its even nodes: g at both ends of each
    two consecutive nodes of the columns cols, row r then r + 1 (or r + 2)
    and the last row then row 0 one column on, read by `_node`."""
    Z = _node(rows, u, v, len(rows) * cols + np.arange(len(rows) + 1)[:, None])
    return [(Y[:-1], Y[1:]) for Y in (Z, Z[::2])]


def _node(rows: np.ndarray, u: float, v: float, j):
    """u f_j + v f_{-j} at node index or indices j (mod G) of
    `_mirror_rows`' rows, by the arithmetic of its vector ops."""
    L, M = rows.shape
    return (u * rows[j % L, j % (L * M) // L]
            + v * rows[-j % L, -j % (L * M) // L])
