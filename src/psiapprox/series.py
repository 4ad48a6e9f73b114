"""Finite trigonometric series with FFT-backed uniform sampling.

Convention: f(t) = a0/2 + sum_{k>=1} a_k cos(kt) + b_k sin(kt), period 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi
EVAL_BLOCK = 1 << 20   # entries of one phase matrix in eval


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

    @classmethod
    def from_cosine_profile(cls, k_start: int, coeffs, phase: float) -> "FourierSeries":
        """Series sum_k c_k cos(kt - phase) for k = k_start, ..."""
        c = np.asarray(coeffs, dtype=float)
        if k_start < 1:
            raise DomainError("cosine profile starts at k >= 1")
        n = k_start + c.size - 1
        a = np.zeros(n)
        b = np.zeros(n)
        a[k_start - 1:] = c * math.cos(phase)
        b[k_start - 1:] = c * math.sin(phase)
        return cls(a0=0.0, a=a, b=b)

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
        """Evaluate at scalar or array t by direct summation.

        Points go in blocks of EVAL_BLOCK // degree (at least one), so a
        block's points x degree phase matrix holds at most EVAL_BLOCK
        entries whenever the degree does.
        """
        t_arr = np.ravel(np.asarray(t, dtype=float))
        k = np.arange(1, self.degree + 1)
        step = max(1, EVAL_BLOCK // max(1, self.degree))
        out = np.empty(t_arr.size)
        for i in range(0, t_arr.size, step):
            kt = np.outer(t_arr[i:i + step], k)
            out[i:i + step] = (0.5 * self.a0 + np.cos(kt) @ self.a
                               + np.sin(kt) @ self.b)
        return out if np.ndim(t) else float(out[0])

    __call__ = eval

    def uniform_samples(self, grid_size: int) -> np.ndarray:
        """Values at t_j = 2*pi*j/grid_size, j = 0..grid_size-1, via inverse FFT.

        Exact (to rounding) for any grid size: below the Nyquist harmonic by
        a real inverse FFT, otherwise with harmonics wrapped onto their
        aliases, the identity the sample values themselves satisfy.  Results
        are cached per grid size; treat them as read-only.
        """
        if grid_size < 1:
            raise DomainError("grid size must be positive")
        cached = self._sample_cache.get(grid_size)
        if cached is not None:
            return cached
        if 2 * self.degree < grid_size:
            # irfft pads the spectrum with zeros up to grid_size // 2 + 1
            spec = np.empty(self.degree + 1, dtype=complex)
            spec[0] = self.a0
            spec[1:] = self.a - 1j * self.b
            samples = np.fft.irfft(spec, grid_size)
            samples *= 0.5 * grid_size
        else:
            buf = np.zeros(grid_size, dtype=complex)
            buf[0] = 0.5 * self.a0
            k = np.arange(1, self.degree + 1)
            np.add.at(buf, k % grid_size, self.a - 1j * self.b)
            # transform in place, then copy the real part out scaled: a
            # view of it would pin the complex buffer in the cache
            samples = np.fft.ifft(buf, out=buf).real * grid_size
        samples.flags.writeable = False
        self._sample_cache[grid_size] = samples
        return samples

    def antiderivative(self) -> "FourierSeries":
        """Periodic antiderivative with zero mean; requires a0 == 0."""
        if self.a0 != 0.0:
            raise DomainError("antiderivative of a nonzero-mean series is not periodic")
        k = np.arange(1, self.degree + 1, dtype=float)
        return FourierSeries(a0=0.0, a=-self.b / k, b=self.a / k)

    def derivative(self) -> "FourierSeries":
        """Term-by-term derivative; the mean term drops out."""
        k = np.arange(1, self.degree + 1, dtype=float)
        return FourierSeries(a0=0.0, a=k * self.b, b=-k * self.a)

    def scaled(self, factor: float) -> "FourierSeries":
        return FourierSeries(a0=factor * self.a0, a=factor * self.a, b=factor * self.b)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        n = max(self.degree, other.degree)
        pad = lambda v, m: np.pad(v, (0, m - v.size))
        return FourierSeries(a0=self.a0 - other.a0,
                             a=pad(self.a, n) - pad(other.a, n),
                             b=pad(self.b, n) - pad(other.b, n))

    def truncated(self, max_harmonic: int) -> "FourierSeries":
        """Partial sum keeping harmonics 0..max_harmonic."""
        if max_harmonic < 0:
            raise DomainError("max_harmonic must be >= 0")
        m = min(max_harmonic, self.degree)
        if m == 0:
            return FourierSeries(a0=self.a0, a=np.zeros(1), b=np.zeros(1))
        return FourierSeries(a0=self.a0, a=self.a[:m].copy(), b=self.b[:m].copy())

    def energy(self) -> float:
        """Squared L2 norm over the period divided by pi: a0^2/2 + sum(a^2 + b^2)."""
        return 0.5 * self.a0 ** 2 + float(self.a @ self.a + self.b @ self.b)

    def to_dict(self) -> dict:
        return {"a0": self.a0, "a": self.a.tolist(), "b": self.b.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "FourierSeries":
        return cls(a0=float(data["a0"]), a=np.asarray(data["a"], dtype=float),
                   b=np.asarray(data["b"], dtype=float))
