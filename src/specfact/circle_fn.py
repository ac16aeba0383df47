"""Sampled functions on the unit circle and their Fourier-side views.

Everything in this package lives on the uniform grid

    theta_j = -pi + 2*pi*j/n,    j = 0, ..., n-1,

with n a power of two, and integrals are taken against the plain angular
measure dtheta on [-pi, pi), no 1/(2*pi) normalization.  Integrals become
periodic rectangle sums, Fourier coefficients become FFTs; with the grid
offset above the two are tied together by

    c_k = (-1)^k * FFT[f]_k / n.

The harmonic conjugate is the Fourier multiplier -i*sgn(k).  That choice of
sign reproduces the principal-value convolution against the cotangent kernel
cot((tau - theta)/2)/(2*pi) taken with positive sign: the conjugate of cos
is sin, and the conjugate of the indicator of the arc (0, pi) is
+(1/pi)*log|tan(theta/2)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import AliasingError, ParameterError

__all__ = [
    "CONJUGATE_ARC_SIGN",
    "GridFunction",
    "FourierSeries",
    "SpectralFactor",
    "grid_theta",
    "integrate",
    "lp_norm",
    "fourier_synthesize",
    "harmonic_conjugate",
    "h2_distance",
]

#: Sign convention of the -i*sgn(k) conjugate, stated as a checkable fact:
#: the conjugate of the indicator of the arc (0, pi) equals
#: CONJUGATE_ARC_SIGN * (1/pi) * log|tan(theta/2)| away from the endpoints.
#: Pinned empirically by the test suite; downstream formulas import it
#: rather than hard-coding the sign.
CONJUGATE_ARC_SIGN = 1


def _check_grid_size(n) -> int:
    if not isinstance(n, (int, np.integer)):
        raise ParameterError(f"grid size must be an integer, got {n!r}")
    n = int(n)
    if n < 8 or (n & (n - 1)) != 0:
        raise ParameterError(f"grid size must be a power of two >= 8, got {n}")
    return n


def grid_theta(n: int) -> np.ndarray:
    """Sample angles theta_j = -pi + 2*pi*j/n."""
    n = _check_grid_size(n)
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function on the uniform circle grid.

    ``values.dtype`` is float64 when the function is tagged real and
    complex128 otherwise.  The tag is part of the type: passing complex data
    with ``real=True`` raises unless the imaginary parts are exactly zero.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        n = _check_grid_size(self.n)
        v = np.asarray(self.values)
        if v.shape != (n,):
            raise ParameterError(
                f"expected {n} samples, got array of shape {v.shape}")
        if np.iscomplexobj(v):
            v = v.astype(np.complex128, copy=True)
        else:
            v = v.astype(np.float64, copy=True)
        if not np.all(np.isfinite(v)):
            raise ParameterError("grid samples must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_samples(cls, values, real: bool | None = None) -> "GridFunction":
        v = np.asarray(values)
        if real is True and np.iscomplexobj(v):
            if np.any(v.imag != 0.0):
                raise ParameterError(
                    "samples tagged real carry nonzero imaginary parts")
            v = v.real
        return cls(len(v), v)

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray],
                      n: int) -> "GridFunction":
        theta = grid_theta(n)
        v = np.broadcast_to(np.asarray(fn(theta)), theta.shape)
        return cls(n, np.array(v))

    @property
    def theta(self) -> np.ndarray:
        return grid_theta(self.n)

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def to_json_dict(self) -> dict:
        if self.is_real:
            return {"n": self.n, "values": self.values.tolist()}
        pairs = [[float(z.real), float(z.imag)] for z in self.values]
        return {"n": self.n, "values_complex": pairs}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "GridFunction":
        if "values" in obj:
            v = np.asarray(obj["values"], dtype=float)
        elif "values_complex" in obj:
            pairs = np.asarray(obj["values_complex"], dtype=float)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ParameterError("values_complex must be [[re, im], ...]")
            v = pairs[:, 0] + 1j * pairs[:, 1]
        else:
            raise ParameterError(
                "grid function JSON needs a values or values_complex key")
        n = obj.get("n", len(v))
        if n != len(v):
            raise ParameterError(
                f"declared n = {n} but {len(v)} samples given")
        return cls(int(n), v)


@dataclass(frozen=True)
class FourierSeries:
    """Finite series sum_k c_k e^{i k theta} stored as {k: c_k}."""

    coeffs: Mapping[int, complex]

    def __post_init__(self):
        clean: dict[int, complex] = {}
        for k, c in dict(self.coeffs).items():
            kk = int(k)
            cc = complex(c)
            if not (math.isfinite(cc.real) and math.isfinite(cc.imag)):
                raise ParameterError(f"coefficient at k = {kk} is not finite")
            clean[kk] = cc
        object.__setattr__(self, "coeffs", clean)

    @property
    def bandwidth(self) -> int:
        if not self.coeffs:
            return 0
        return max(abs(k) for k in self.coeffs)

    def coefficient(self, k: int) -> complex:
        return self.coeffs.get(int(k), 0.0 + 0.0j)

    def is_real_valued(self, tol: float = 1e-12) -> bool:
        """True when c_{-k} = conj(c_k) holds to tol (relative)."""
        scale = max((abs(c) for c in self.coeffs.values()), default=0.0)
        bound = tol * (1.0 + scale)
        return all(abs(c - self.coefficient(-k).conjugate()) <= bound
                   for k, c in self.coeffs.items())

    def to_json_dict(self) -> dict:
        return {"coeffs": {str(k): [c.real, c.imag]
                           for k, c in sorted(self.coeffs.items())}}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "FourierSeries":
        raw = obj.get("coeffs")
        if not isinstance(raw, Mapping):
            raise ParameterError("series JSON needs a coeffs mapping")
        coeffs = {}
        for k, pair in raw.items():
            try:
                kk = int(k)
            except (TypeError, ValueError):
                raise ParameterError(f"non-integer frequency key {k!r}") from None
            pair = np.asarray(pair, dtype=float)
            if pair.shape != (2,):
                raise ParameterError(f"coefficient at k = {kk} must be [re, im]")
            coeffs[kk] = complex(pair[0], pair[1])
        return cls(coeffs)


@dataclass(frozen=True)
class SpectralFactor:
    """One-sided series f_plus(z) = sum_{k=0}^{K} a_k z^k.

    Boundary values are taken at z = e^{i theta}.  Factors produced by the
    factorization routines satisfy a_0 real and positive (value at the
    origin positive); plain construction does not force this, so imposters
    can be represented and then rejected by the outer check.

    floor_applied records the clamp level when the source density was
    floored before taking logs; neg_energy records the relative energy the
    boundary extraction found at negative frequencies.
    """

    coeffs: np.ndarray
    floor_applied: float | None = None
    neg_energy: float | None = None

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if a.ndim != 1 or a.size == 0:
            raise ParameterError("factor coefficients must be a nonempty 1-d array")
        if not np.all(np.isfinite(a)):
            raise ParameterError("factor coefficients must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    @property
    def bandwidth(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value_at_zero(self) -> complex:
        return complex(self.coeffs[0])

    def __call__(self, z) -> np.ndarray:
        """Evaluate the series at points of the closed unit disk."""
        return np.polynomial.polynomial.polyval(np.asarray(z), self.coeffs)

    def boundary_values(self, n: int) -> GridFunction:
        """Values at e^{i theta_j} on an n-point grid (needs n > bandwidth)."""
        n = _check_grid_size(n)
        K = self.bandwidth
        if n <= K:
            raise AliasingError(f"bandwidth {K} does not fit on {n} samples")
        buf = np.zeros(n, dtype=np.complex128)
        ks = np.arange(K + 1)
        sign = np.where(ks % 2 == 0, 1.0, -1.0)
        np.add.at(buf, ks % n, sign * self.coeffs)
        return GridFunction(n, np.fft.ifft(buf) * n)

    def h2_norm(self) -> float:
        return float(np.sqrt(2.0 * np.pi * np.sum(np.abs(self.coeffs) ** 2)))

    def to_json_dict(self) -> dict:
        pairs = self.coeffs.view(np.float64).reshape(-1, 2).tolist()
        out = {"coeffs": dict(zip(map(str, range(len(pairs))), pairs))}
        if self.floor_applied is not None:
            out["floor"] = self.floor_applied
        if self.neg_energy is not None:
            out["neg_energy"] = self.neg_energy
        return out


def integrate(f: GridFunction):
    """Rectangle-rule integral against dtheta; exact for band-limited f."""
    s = np.sum(f.values) * (2.0 * np.pi / f.n)
    return float(s) if f.is_real else complex(s)


def lp_norm(f: GridFunction, p) -> float:
    """Grid L^p norm (sum_j |f_j|^p * 2*pi/n)^(1/p); the max for p = inf."""
    if isinstance(p, str):
        if p.lower() not in ("inf", "infinity"):
            raise ParameterError(f"unrecognized exponent {p!r}")
        p = np.inf
    p = float(p)
    if not p >= 1.0:
        raise ParameterError(f"exponent must satisfy p >= 1, got {p}")
    a = np.abs(f.values)
    if np.isinf(p):
        return float(a.max())
    h = 2.0 * np.pi / f.n
    with np.errstate(over="ignore"):
        total = float((a ** p).sum() * h)
    if 0.0 < total < math.inf:
        return total ** (1.0 / p)
    # a^p over- or underflowed: factor out the peak
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    return peak * float(((a / peak) ** p).sum() * h) ** (1.0 / p)


def fourier_synthesize(series: FourierSeries, n: int) -> GridFunction:
    """Evaluate sum_k c_k e^{i k theta_j} on an n-point grid (n > 2*bandwidth).

    Real-valued series (c_{-k} = conj(c_k)) come back as real grid functions.
    """
    n = _check_grid_size(n)
    K = series.bandwidth
    if n <= 2 * K:
        raise AliasingError(
            f"cannot synthesize bandwidth {K} on {n} samples (need n > 2K)")
    buf = np.zeros(n, dtype=np.complex128)
    for k, c in series.coeffs.items():
        buf[k % n] += c * (1.0 if k % 2 == 0 else -1.0)
    vals = np.fft.ifft(buf) * n
    if series.is_real_valued():
        vals = vals.real
    return GridFunction(n, vals)


def harmonic_conjugate(f: GridFunction) -> GridFunction:
    """Harmonic conjugate via the multiplier -i*sgn(k); the mean maps to zero.

    Requires a real grid function.  The k = 0 bin is zeroed (that is the
    mean-zero normalization) and so is the Nyquist bin, where sgn(k) has no
    well-defined value; band-limited inputs never populate it anyway.
    """
    if not f.is_real:
        raise ParameterError("harmonic_conjugate expects a real GridFunction")
    R = np.fft.rfft(f.values)
    R *= -1j
    R[0] = 0.0
    R[-1] = 0.0
    return GridFunction(f.n, np.fft.irfft(R, f.n))


def h2_distance(a: SpectralFactor, b: SpectralFactor) -> float:
    """H2 distance sqrt(2*pi * sum_k |a_k - b_k|^2) of one-sided series."""
    K = max(a.bandwidth, b.bandwidth)
    pa = np.zeros(K + 1, dtype=np.complex128)
    pb = np.zeros(K + 1, dtype=np.complex128)
    pa[: a.bandwidth + 1] = a.coeffs
    pb[: b.bandwidth + 1] = b.coeffs
    return float(np.sqrt(2.0 * np.pi * np.sum(np.abs(pa - pb) ** 2)))
