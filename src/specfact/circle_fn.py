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

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, TextIO

import numpy as np

from .errors import AliasingError, ParameterError

#: coefficient pairs SpectralFactor.write_json formats per write
_JSON_CHUNK = 4096
#: the share of max|a| that the last coefficient a factor's JSON line
#: prints as it is must exceed (see SpectralFactor).  The boundary route's
#: rounding plateau reads at most 4 ulps of max|a| on the benchmark's and
#: the corpus's inputs (the table is in CHANGES.md)
_TAIL_CUT = 64 * 2.0 ** -52
#: the smallest grid: grid sizes are powers of two from here up
_GRID_MIN = 8


def _check_grid_size(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ParameterError(f"grid size must be an integer, got {n!r}")
    n = int(n)
    if n < _GRID_MIN or (n & (n - 1)) != 0:
        raise ParameterError(
            f"grid size must be a power of two >= {_GRID_MIN}, got {n}")
    return n


def _json_numbers(x) -> bool:
    """Whether a JSON value is a number or nested lists of numbers: int and
    float leaves only, not the strings and booleans that float() and numpy
    also read."""
    kinds = set(map(type, x)) if isinstance(x, (list, tuple)) else {type(x)}
    return all(issubclass(k, (int, float)) and k is not bool
               or issubclass(k, (list, tuple)) and all(map(_json_numbers, x))
               for k in kinds)


def _adopt(v: np.ndarray, dtype) -> np.ndarray:
    """v itself when nothing can write to it, else a read-only copy in dtype.

    v is shared when it is read-only, C-contiguous and of dtype, and the
    array that owns its memory (v, or its base) is read-only too.  Package
    code hands over the arrays it has just made that way, and never sets
    them writeable again but in one place: factorize's --floor clamps, in
    place, the samples of the grid it has just made from its input.
    """
    owner = v if v.base is None else v.base
    if (not v.flags.writeable and v.flags.c_contiguous and v.dtype == dtype
            and isinstance(owner, np.ndarray) and owner.flags.owndata
            and not owner.flags.writeable):
        return v
    v = v.astype(dtype)
    v.setflags(write=False)
    return v


def grid_theta(n: int) -> np.ndarray:
    """Sample angles theta_j = -pi + 2*pi*j/n."""
    n = _check_grid_size(n)
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class GridFunction:
    """Real samples of a function on the uniform circle grid.

    ``values`` is read-only float64.  It is the given array itself when
    that is read-only, C-contiguous float64 and owned by a read-only array
    (itself or its base), and a read-only copy otherwise, so a caller that
    keeps a writeable array can change nothing here.  Complex samples raise
    ParameterError, and so do samples that are not finite.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        n = _check_grid_size(self.n)
        v = np.asarray(self.values)
        if v.shape != (n,):
            raise ParameterError(
                f"expected {n} samples, got array of shape {v.shape}")
        if v.dtype.kind == "c":
            raise ParameterError("grid samples must be real numbers")
        v = _adopt(v, np.float64)
        if not np.isfinite(v).all():
            raise ParameterError("grid samples must be finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray],
                      n: int) -> "GridFunction":
        theta = grid_theta(n)
        v = np.broadcast_to(np.asarray(fn(theta)), theta.shape)
        return cls(n, np.array(v))

    @property
    def theta(self) -> np.ndarray:
        return grid_theta(self.n)

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "GridFunction":
        try:
            if not _json_numbers(obj["values"]):
                raise TypeError("samples are numbers")
            v = np.asarray(obj["values"], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise ParameterError("grid function JSON needs a values key "
                                 "of real samples") from None
        n = _check_grid_size(obj.get("n", v.size))
        if n != v.size:
            raise ParameterError(
                f"declared n = {n} but {v.size} samples given")
        return cls(n, v)


@dataclass(frozen=True)
class FourierSeries:
    """Finite series sum_k c_k e^{i k theta} stored as {k: c_k}.

    Keys are read by int(); two keys that name one k (1 and "1", "0" and
    "-0") raise ParameterError.
    """

    coeffs: Mapping[int, complex]

    def __post_init__(self):
        clean: dict[int, complex] = {}
        for k, c in dict(self.coeffs).items():
            kk = int(k)
            if kk in clean:
                raise ParameterError(
                    f"frequency k = {kk} is given twice (key {k!r})")
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

    def is_real_valued(self) -> bool:
        """True when c_{-k} = conj(c_k) holds to 1e-12 (relative)."""
        scale = max((abs(c) for c in self.coeffs.values()), default=0.0)
        bound = 1e-12 * (1.0 + scale)
        return all(abs(c - self.coefficient(-k).conjugate()) <= bound
                   for k, c in self.coeffs.items())

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
            try:
                if not _json_numbers(pair):
                    raise TypeError("coefficients are numbers")
                pair = np.asarray(pair, dtype=float)
            except (TypeError, ValueError):  # not numbers: refused below
                pair = np.empty(0)
            if pair.shape != (2,):
                raise ParameterError(f"coefficient at k = {kk} must be [re, im]")
            # keyed as given: cls refuses two keys that name one k
            coeffs[k] = complex(pair[0], pair[1])
        return cls(coeffs)


@dataclass(frozen=True)
class SpectralFactor:
    """One-sided series f_plus(z) = sum_{k=0}^{K} a_k z^k.

    Boundary values are taken at z = e^{i theta}.  Factors produced by the
    factorization routines satisfy a_0 real and positive (value at the
    origin positive); plain construction does not force this, so imposters
    can be represented and then rejected by the outer check.

    floor_applied records the clamp level when the command line's --floor
    floored the density before it was factored (no route reads or sets
    it); neg_energy records the relative energy the boundary extraction
    found at negative frequencies.

    ``coeffs`` is read-only complex128, shared or copied by GridFunction's
    rule: the given array itself when it is read-only, C-contiguous
    complex128 and owned by a read-only array, a read-only copy otherwise.

    The JSON line (to_json_dict, write_json) keeps every coefficient's
    place but prints as they are only a_0 ... a_{K-1}, K being 1 plus the
    last k with |a_k| > _TAIL_CUT * max|a| (64 * 2^-52): the later ones are
    rounding noise for a factor whose coefficients decay, and print as
    [0.0, 0.0], with their l2 norm as tail_l2.  ``coeffs`` itself keeps
    them.
    """

    coeffs: np.ndarray
    floor_applied: float | None = None
    neg_energy: float | None = None

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if a.ndim != 1 or a.size == 0:
            raise ParameterError("factor coefficients must be a nonempty 1-d array")
        a = _adopt(a, np.complex128)
        if not np.isfinite(a).all():
            raise ParameterError("factor coefficients must be finite")
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

    def boundary_values(self, n: int) -> np.ndarray:
        """Complex values at e^{i theta_j}, n points (needs n > bandwidth)."""
        n = _check_grid_size(n)
        K = self.bandwidth
        if n <= K:
            raise AliasingError(f"bandwidth {K} does not fit on {n} samples")
        buf = np.zeros(n, dtype=np.complex128)
        buf[: K + 1] = self.coeffs
        buf[1: K + 1: 2] *= -1.0
        return np.fft.ifft(buf) * n

    def _json_head(self) -> tuple[dict, int]:
        """The keys before "a", and K, the number of coefficients printed
        as they are: 1 plus the last k with |a_k| > _TAIL_CUT * max|a|.

        tail_l2 is the l2 norm of a_K, a_{K+1}, ..., which the line prints
        as zeros; it is taken relative to their largest modulus, so it stays
        finite wherever the coefficients are.
        """
        mags = np.abs(self.coeffs)
        above = np.flatnonzero(mags > _TAIL_CUT * mags.max())
        K = int(above[-1]) + 1 if above.size else 0
        peak = mags[K:].max(initial=0.0)
        out = {}
        if self.floor_applied is not None:
            out["floor"] = self.floor_applied
        if self.neg_energy is not None:
            out["neg_energy"] = self.neg_energy
        out["tail_l2"] = (float(peak * np.linalg.norm(mags[K:] / peak))
                          if peak else 0.0)
        return out, K

    def to_json_dict(self) -> dict:
        """{"floor", "neg_energy" (when set), "tail_l2", "a": [[re, im], ...]}.

        "a" has one pair per coefficient: a_0 ... a_{K-1} as they are and
        [0.0, 0.0] for the rest, with K and tail_l2 as _json_head states.
        """
        out, K = self._json_head()
        a = np.zeros((len(self.coeffs), 2))
        a[:K] = self.coeffs[:K].view(np.float64).reshape(-1, 2)
        out["a"] = a.tolist()
        return out

    def write_json(self, fh: TextIO, tail: Mapping) -> None:
        """Write json.dumps({**self.to_json_dict(), **tail}) and a newline.

        `tail` holds keys that to_json_dict does not.  The line is encoded
        with an empty coefficient list before the first write, and the
        coefficients are written into that gap _JSON_CHUNK pairs at a
        time, so neither the whole line nor a nested list of all pairs is
        ever held.  Only a_0 ... a_{K-1}, up to the last |a_k| above
        _TAIL_CUT * max|a|, are formatted; the pairs past them are the one
        string [0.0, 0.0], repeated.
        """
        head, K = self._json_head()
        line = json.dumps({**head, "a": [], **tail}) + "\n"
        # the head holds numbers only, so the first match is the "a" key
        gap = line.index('"a": []') + len('"a": [')
        fh.write(line[:gap])
        pairs = self.coeffs.view(np.float64).reshape(-1, 2)
        sep = ""
        for i in range(0, K, _JSON_CHUNK):
            fh.write(sep + json.dumps(
                pairs[i:min(i + _JSON_CHUNK, K)].tolist())[1:-1])
            sep = ", "
        for i in range(K, len(pairs), _JSON_CHUNK):
            fh.write(sep + ", ".join(
                ["[0.0, 0.0]"] * min(_JSON_CHUNK, len(pairs) - i)))
            sep = ", "
        fh.write(line[gap:])


def lp_norm(f: GridFunction, p: float) -> float:
    """Grid L^p norm (sum_j |f_j|^p * 2*pi/n)^(1/p); the max for p = inf."""
    return float(_lp_norms(f.values, p))


def _lp_norms(v: np.ndarray, p: float) -> np.ndarray:
    """lp_norm of every row of v along the last axis, row for row the same
    floats as lp_norm of that row."""
    if not p >= 1.0:
        raise ParameterError(f"exponent must satisfy p >= 1, got {p}")
    a = np.abs(v)
    if np.isinf(p):
        return a.max(axis=-1)
    h = 2.0 * np.pi / a.shape[-1]
    rows = a.reshape(-1, a.shape[-1])
    with np.errstate(over="ignore"):
        totals = (rows if p == 1.0 else rows ** p).sum(axis=-1) * h
    out = np.empty(len(rows))
    for j, total in enumerate(totals.tolist()):
        if 0.0 < total < math.inf:
            out[j] = total ** (1.0 / p)
            continue
        # a^p over- or underflowed: factor out the peak
        peak = float(rows[j].max())
        out[j] = 0.0 if peak == 0.0 else (
            peak * float(((rows[j] / peak) ** p).sum() * h) ** (1.0 / p))
    return out.reshape(a.shape[:-1])


def fourier_synthesize(series: FourierSeries, n: int) -> GridFunction:
    """Evaluate a real-valued sum_k c_k e^{i k theta_j} on an n-point grid.

    A series that is not real-valued (by FourierSeries.is_real_valued)
    raises ParameterError, and one with n <= 2*bandwidth AliasingError.
    """
    n = _check_grid_size(n)
    if not series.is_real_valued():
        k = max(series.coeffs, key=lambda k: abs(
            series.coefficient(k) - series.coefficient(-k).conjugate()))
        raise ParameterError(
            f"series is not real-valued: coefficients are not Hermitian at "
            f"k = {k}: c_k = {series.coefficient(k)}, "
            f"conj(c_-k) = {series.coefficient(-k).conjugate()}")
    K = series.bandwidth
    if n <= 2 * K:
        raise AliasingError(
            f"cannot synthesize bandwidth {K} on {n} samples (need n > 2K)")
    buf = np.zeros(n, dtype=np.complex128)
    for k, c in series.coeffs.items():
        buf[k % n] += c * (1.0 if k % 2 == 0 else -1.0)
    return GridFunction(n, (np.fft.ifft(buf) * n).real)


def harmonic_conjugate(f: GridFunction) -> GridFunction:
    """Harmonic conjugate via the multiplier -i*sgn(k); the mean maps to zero.

    The k = 0 bin is zeroed (that is the mean-zero normalization) and so is
    the Nyquist bin, where sgn(k) has no well-defined value; band-limited
    inputs never populate it anyway.
    """
    return GridFunction(f.n, _conjugate(f.values))


def _conjugate(v: np.ndarray, multiplier: complex = -1j) -> np.ndarray:
    """harmonic_conjugate of every row of a real array along the last axis;
    batched FFTs give each row the same floats as a 1-d call.  A multiplier
    of -1j times a power of two, such as -0.5j, scales the result by that
    power exactly."""
    R = np.fft.rfft(v)
    R *= multiplier
    R[..., 0] = 0.0
    R[..., -1] = 0.0
    return np.fft.irfft(R, v.shape[-1])


def _one_minus_cos(half: np.ndarray) -> np.ndarray:
    """1 - cos x from half = x / 2, in place, as 2 t^2 / (1 + t^2) with
    t = tan(x / 2).  Unlike 1 - cos x, which rounds to 0 below x = 1e-8
    (where it is x^2 / 2), this forms no difference of nearby numbers;
    |tan| <= 1.6e16 on doubles, so t^2 stays finite."""
    t = np.tan(half, out=half)
    t *= t
    d = t + 1.0
    t += t
    t /= d
    return t


def h2_distance(a: SpectralFactor, b: SpectralFactor) -> float:
    """H2 distance sqrt(2*pi * sum_k |a_k - b_k|^2) of one-sided series.

    The shorter series is padded with zeros; a distance beyond the double
    range is inf, with no overflow warning.
    """
    pa, pb = a.coeffs, b.coeffs
    if len(pa) != len(pb):
        K = max(len(pa), len(pb))
        pa, pb = (np.pad(c, (0, K - len(c))) for c in (pa, pb))
    with np.errstate(over="ignore"):
        d = np.abs(pa - pb)
        d *= d
        return float(np.sqrt(2.0 * np.pi * d.sum()))
