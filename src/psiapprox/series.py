"""Finite trigonometric series with FFT-backed uniform sampling.

Convention: f(t) = a0/2 + sum_{k>=1} a_k cos(kt) + b_k sin(kt), period 2*pi.
A series is its coefficients and the grids sampled from them.  A deep grid
is split into cache-sized FFT_BLOCK-point transforms (Bailey, FFTs in
external or hierarchical memory, 1990) and cached as the rows they write,
read only here: by `uniform_samples` in natural order, and as u f(t) +
v f(-t) by `_mirror_block`, `_node` and `_mirrored`.  `_spread` runs the
rows (and the norm pass's blocks) on one thread per core, at most two,
with bits independent of the count.  `_wrap` reduces every point value's t.
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
# a worker past the first holds about 3 MB more, and speed was measured on
# two cores: raise this only after measuring a larger host
_MAX_WORKERS = 2


def _spread(task, count: int) -> list:
    """[task(lo, hi) for min(_CORES, _MAX_WORKERS, count) ranges cutting
    0..count-1]: the first on the calling thread, each other on a thread of
    its own, all joined before it returns or raises."""
    w = min(_CORES, _MAX_WORKERS, count)
    cuts = [count * i // w for i in range(w + 1)]
    out, errors, threads = [None] * w, [], []

    def run(i):
        try:
            out[i] = task(cuts[i], cuts[i + 1])
        except BaseException as e:   # raised again on the calling thread
            errors.append(e)
    try:
        for i in range(1, w):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        out[0] = task(0, cuts[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out


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
        inverse FFT, exact to rounding; a grid of at most twice the degree
        is refused.  L >= 2 times FFT_BLOCK points of a series of degree
        below FFT_BLOCK / 2 take L FFT_BLOCK-point transforms: node 0 keeps
        a one-shot irfft's bits, other nodes its accuracy; grids that are
        not split keep all its bits.  Samples are cached per grid size in
        `_phases`' layout and are read-only; a split grid comes back as an
        uncached natural-order copy of its rows.
        """
        rows = self._phases(grid_size)
        if rows.shape[0] == 1:
            return self._sample_cache[grid_size]
        samples = rows.T.ravel()
        samples.flags.writeable = False
        return samples

    def _phases(self, grid_size: int) -> np.ndarray:
        """The grid_size samples as (L, M) rows, row r holding the nodes
        Lq + r: a split grid as its L transforms wrote them, any other as
        one row.  Cached per grid size and read-only."""
        if grid_size <= 2 * self.degree:
            raise DomainError(f"a {grid_size}-point grid does not exceed "
                              f"twice the degree {self.degree}")
        cached = self._sample_cache.get(grid_size)
        if cached is not None:
            return np.atleast_2d(cached)
        # irfft pads the spectrum with zeros up to grid_size // 2 + 1; a
        # halved spectrum without irfft's 1/G needs no pass over the
        # samples, and on power-of-two grids both scalings are exact
        spec = np.empty(self.degree + 1, dtype=complex)
        spec[0] = self.a0
        spec[1:] = self.a - 1j * self.b
        spec *= 0.5
        L = grid_size // FFT_BLOCK
        if L < 2 or grid_size % FFT_BLOCK or 2 * self.degree >= FFT_BLOCK:
            samples = np.fft.irfft(spec, grid_size, norm="forward")
        else:
            # row r, the nodes Lq + r, is the FFT_BLOCK-point transform of
            # the spectrum times w^{rk}, w = e^{2 pi i/G}, written
            # contiguously; r = 0 is untwisted, and w^k is a K/256 x 256
            # outer product
            c = 2j * math.pi / grid_size
            w = np.outer(np.exp(256 * c * np.arange(-(-spec.size // 256))),
                         np.exp(c * np.arange(256))).ravel()[:spec.size]
            samples = np.empty((L, FFT_BLOCK))

            def rows(lo, hi):   # spec w^r by the r products of one loop
                twisted = spec.copy()   # each worker's own: spec stays
                for _ in range(lo):
                    twisted *= w
                for row in samples[lo:hi]:
                    np.fft.irfft(twisted, FFT_BLOCK, norm="forward", out=row)
                    twisted *= w
            _spread(rows, L)
        samples.flags.writeable = False
        self._sample_cache[grid_size] = samples
        return np.atleast_2d(samples)

    def _mirrored(self, G: int, u: float, v: float) -> np.ndarray:
        """u f_j + v f_{-j} at every node of the G-point grid, f = self."""
        return _mirror_block(self._phases(G), u, v, 0, np.empty(G))

    def _rounding_stages(self, G: int) -> int:
        """Roundings in a `_node` value of the G-point grid of L rows: 4
        ceil(log2 G) FFT stages, 7(L - 1) for the twiddles, 3 the mirror."""
        return 4 * (G - 1).bit_length() + 7 * (len(self._phases(G)) - 1) + 3

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


def _mirror_block(f: np.ndarray, u: float, v: float, lo: int,
                  out: np.ndarray) -> np.ndarray:
    """out[i] = u f_j + v f_{-j}, j = lo + i, for the G samples f: natural
    order (read as L = 1), or `FourierSeries._phases` rows (L, M) whose row
    r holds the nodes Lq + r.  lo is a multiple of L, out.size a multiple
    of L or one more, and lo + out.size <= G."""
    rows = np.atleast_2d(f)
    L = rows.shape[0]
    c, q0 = out.size // L, lo // L   # the block's columns, from q0
    for r in range(L if c else 0):
        # f_{-j}, j = Lq + r, is row L - r at column M - 1 - q, and for
        # r = 0 row 0 at (M - q) mod M; node 0 (f_{-0} is f_0) comes last
        skip = int(r == 0 and q0 == 0)
        fwd, dst = rows[r, q0 + skip:q0 + c], out[L * skip + r:L * c:L]
        back = rows[-r, ::-1][q0 + skip - (r == 0):q0 + c - (r == 0)]
        if u == 1.0 and abs(v) == 1.0:   # f_j +- f_{-j}: exact products
            (np.add if v > 0.0 else np.subtract)(fwd, back, out=dst)
        else:
            np.multiply(fwd, u, out=dst)
            dst += v * back
    if lo == 0:
        out[0] = _node(rows, u, v, 0)
    if out.size > L * c:   # the next block's first node, or node G/2
        out[-1] = _node(rows, u, v, lo + L * c)
    return out


def _node(rows: np.ndarray, u: float, v: float, j):
    """u f_j + v f_{-j} at node index or indices j (mod G) of
    `_mirror_block`'s rows, by the arithmetic of its vector ops."""
    L, M = rows.shape
    return (u * rows[j % L, j % (L * M) // L]
            + v * rows[-j % L, -j % (L * M) // L])
