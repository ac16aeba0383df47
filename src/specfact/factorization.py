"""Outer spectral factorization of positive densities on the circle.

Three independent routes produce the outer factor f_plus normalized by
f_plus(0) > 0, with f = |f_plus|^2 on the boundary:

* factorize_boundary: the boundary formula
  f_plus = sqrt(f) * exp((i/2) * (log f)~), coefficients read off by FFT;
* factorize_herglotz: exp of the Herglotz integral of log f, evaluated at
  interior points of the disk;
* fejer_riesz: root factorization of a nonnegative trigonometric
  polynomial.

The routes share no code beyond the grid conventions, which is what makes
their agreement a meaningful check.
"""

from __future__ import annotations

import numpy as np

from .circle_fn import (
    FourierSeries,
    GridFunction,
    SpectralFactor,
    grid_theta,
    harmonic_conjugate,
)
from .errors import DomainError, NumericalConditioningError, ParameterError
from .report import BoundReport

__all__ = [
    "factorize_boundary",
    "factorize_herglotz",
    "fejer_riesz",
    "outer_check",
]

#: Roots within this distance of |r| = 1 are treated as boundary zeros.
TOL_CIRCLE = 1e-7

#: Angular separation below which boundary roots are fused into one cluster.
CLUSTER_ANGLE = 1e-3


def _positive_log(f: GridFunction, floor: float | None) -> np.ndarray:
    if not f.is_real:
        raise ParameterError("factorization expects a real density")
    v = f.values
    if floor is not None:
        if not floor > 0.0:
            raise ParameterError(f"floor must be positive, got {floor}")
        v = np.maximum(v, floor)
    if np.any(v <= 0.0):
        j = int(np.argmin(v))
        raise DomainError(
            f"density is not positive: sample {j} (theta = {f.theta[j]:.6f}) "
            f"has value {v[j]:.6g}; pass floor=... to clamp")
    return np.log(v)


def factorize_boundary(f: GridFunction,
                       floor: float | None = None) -> SpectralFactor:
    """Outer factor from boundary values sqrt(f) * exp((i/2) (log f)~).

    The one-sided coefficients a_0 .. a_{n/2-1} are extracted by FFT and the
    result is rotated by a unimodular constant so that a_0 is exactly real
    and positive.  Energy left at negative frequencies is recorded on the
    result; for smooth positive f it is at roundoff level, and a large value
    flags a density the grid cannot resolve.
    """
    logf = _positive_log(f, floor)
    n = f.n
    conj = harmonic_conjugate(GridFunction(n, logf))
    boundary = np.exp(0.5 * logf + 0.5j * conj.values)
    F = np.fft.fft(boundary) / n
    ks = np.arange(n // 2)
    sign = np.where(ks % 2 == 0, 1.0, -1.0)
    coeffs = sign * F[ks]
    total = float(np.sum(np.abs(F) ** 2))
    neg = float(np.sum(np.abs(F[n // 2:]) ** 2))
    a0 = coeffs[0]
    if a0 == 0:
        raise NumericalConditioningError("no positive value at the origin")
    coeffs = coeffs * (a0.conjugate() / abs(a0))
    coeffs[0] = abs(a0)
    return SpectralFactor(coeffs, floor_applied=floor,
                          neg_energy=neg / total if total > 0 else 0.0)


def factorize_herglotz(f: GridFunction, points, r_max: float = 0.95,
                       floor: float | None = None):
    """Outer factor values exp((1/4pi) int (e^{i t}+z)/(e^{i t}-z) log f dt).

    Evaluates at the given interior points; |z| <= r_max is enforced because
    the rectangle-rule kernel loses accuracy near the boundary.  Returns a
    complex array shaped like `points` (a scalar input gives a scalar).
    """
    logf = _positive_log(f, floor)
    z = np.asarray(points, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any(np.abs(z) > r_max + 1e-15):
        j = int(np.argmax(np.abs(z)))
        raise ParameterError(
            f"evaluation point {z[j]} has |z| = {abs(z[j]):.6f} > r_max = {r_max}")
    e = np.exp(1j * grid_theta(f.n))
    kernel = (e[None, :] + z[:, None]) / (e[None, :] - z[:, None])
    vals = np.exp(kernel @ logf / (2.0 * f.n))
    return complex(vals[0]) if scalar else vals


def _herglotz_factor(f: GridFunction, floor: float | None,
                     degree: int) -> SpectralFactor:
    """Taylor coefficients of the Herglotz-route factor.

    Samples the factor on the circle |z| = 0.9 and divides the FFT
    coefficients by 0.9^k; the geometric decay of the sampling radius
    suppresses coefficients beyond `degree`.
    """
    r = 0.9
    m = 512
    while m < 4 * (degree + 1):
        m *= 2
    phi = 2.0 * np.pi * np.arange(m) / m
    vals = factorize_herglotz(f, r * np.exp(1j * phi), floor=floor)
    c = np.fft.fft(vals) / m
    a = c[: degree + 1] / r ** np.arange(degree + 1)
    a = a * np.exp(-1j * np.angle(a[0]))
    return SpectralFactor(a, floor_applied=floor)


def _hermitian_coeffs(series) -> dict[int, complex]:
    if isinstance(series, FourierSeries):
        coeffs = dict(series.coeffs)
    else:
        coeffs = {int(k): complex(c) for k, c in dict(series).items()}
    scale = max((abs(c) for c in coeffs.values()), default=0.0)
    for k, c in coeffs.items():
        mirror = coeffs.get(-k, 0.0)
        if abs(c - np.conjugate(mirror)) > 1e-9 * (1.0 + scale):
            raise ParameterError(
                f"coefficients are not Hermitian at k = {k}: "
                f"c_k = {c}, conj(c_-k) = {np.conjugate(mirror)}")
    return coeffs


def _validation_grid(degree: int) -> int:
    m = 4096
    while m < 16 * max(degree, 1):
        m *= 2
    return m


def fejer_riesz(series, tol_circle: float = TOL_CIRCLE) -> np.ndarray:
    """Factor a nonnegative trig polynomial as |sum_k a_k e^{i k theta}|^2.

    Input: Hermitian coefficients c_{-N} .. c_N (FourierSeries or mapping).
    Output: ascending array a_0 .. a_N with a_0 real positive and no roots
    of sum a_k z^k inside the open unit disk.

    Boundary zeros must have even multiplicity; the root clusters that
    represent them are split evenly between the factor and its reflection.
    An odd cluster, or an off-circle root with no inverse partner, means the
    input was not a nonnegative polynomial to working precision and raises
    NumericalConditioningError.
    """
    coeffs = _hermitian_coeffs(series)
    coeffs = {k: c for k, c in coeffs.items() if c != 0}
    if not coeffs:
        raise DomainError("cannot factor the zero polynomial")
    N = max(abs(k) for k in coeffs)

    m = _validation_grid(N)
    ks = np.array(sorted(coeffs))
    cs = np.array([coeffs[int(k)] for k in ks])
    theta = grid_theta(m)
    fvals = np.real(np.exp(1j * np.outer(theta, ks)) @ cs)
    peak = float(fvals.max())
    if peak <= 0.0 or float(fvals.min()) < -1e-10 * peak:
        raise DomainError(
            f"polynomial is not nonnegative on the circle "
            f"(min = {fvals.min():.3e}, max = {peak:.3e})")

    if N == 0:
        c0 = coeffs[0].real
        return np.array([np.sqrt(c0)], dtype=np.complex128)

    # q(t) = t^N f(t) has the 2N factorization roots; q(0) = c_{-N} != 0.
    q = np.zeros(2 * N + 1, dtype=np.complex128)
    for k, c in coeffs.items():
        q[k + N] = c
    roots = np.roots(q[::-1])

    mod = np.abs(roots)
    outside = roots[mod > 1.0 + tol_circle]
    inside = roots[mod < 1.0 - tol_circle]
    on_circle = roots[(mod >= 1.0 - tol_circle) & (mod <= 1.0 + tol_circle)]

    if len(outside) != len(inside):
        raise NumericalConditioningError(
            f"unpaired off-circle roots: {len(outside)} outside vs "
            f"{len(inside)} inside the disk")

    factor_roots = list(outside)
    if len(on_circle) > 0:
        for cluster in _angle_clusters(on_circle):
            if len(cluster) % 2 != 0:
                raise NumericalConditioningError(
                    f"boundary zero cluster of odd size {len(cluster)} near "
                    f"angle {np.angle(cluster[0]):.6f}; a nonnegative "
                    f"polynomial has even boundary multiplicities")
            rep = np.mean(cluster)
            rep = rep / abs(rep)
            factor_roots.extend([rep] * (len(cluster) // 2))

    if len(factor_roots) != N:
        raise NumericalConditioningError(
            f"root selection produced degree {len(factor_roots)}, expected {N}")

    monic = np.polynomial.polynomial.polyfromroots(factor_roots)
    prod = monic[0]  # equals prod(-r_i); |prod| >= 1 since no roots inside
    lead = coeffs[N]
    gamma = np.sqrt(abs(lead) / abs(prod)) * np.exp(-1j * np.angle(prod))
    a = gamma * monic

    factor = SpectralFactor(a)
    check = np.abs(factor.boundary_values(m).values) ** 2
    err = float(np.max(np.abs(check - fvals))) / peak
    if err > 1e-6:
        raise NumericalConditioningError(
            f"factor reproduces the polynomial only to {err:.2e} relative")
    return a


def _angle_clusters(roots: np.ndarray) -> list[np.ndarray]:
    """Group near-circle roots by angular proximity (wrap-around aware)."""
    order = np.argsort(np.angle(roots))
    sorted_roots = roots[order]
    ang = np.angle(sorted_roots)
    clusters: list[list[complex]] = [[sorted_roots[0]]]
    for r, a, prev in zip(sorted_roots[1:], ang[1:], ang[:-1]):
        if a - prev <= CLUSTER_ANGLE:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    # fuse the first and last cluster when they touch across theta = pi
    if len(clusters) > 1 and (ang[0] + 2.0 * np.pi - ang[-1]) <= CLUSTER_ANGLE:
        clusters[0] = clusters.pop() + clusters[0]
    return [np.asarray(c) for c in clusters]


def outer_check(factor: SpectralFactor, f: GridFunction,
                tol: float = 1e-8) -> BoundReport:
    """Mean-value test separating the outer factor from its imposters.

    For the outer factor, log f_plus(0) equals the logarithmic mean
    (1/4pi) int log f dtheta; any inner-factor contamination strictly lowers
    the left side.  Passes iff |lhs - rhs| <= tol * (1 + |rhs|).
    """
    logf = _positive_log(f, None)
    rhs = float(np.mean(logf)) / 2.0
    a0 = factor.value_at_zero
    details = {"a0": a0, "log_mean_half": rhs}
    if a0.real <= 0.0 or abs(a0.imag) > 1e-12 * (1.0 + abs(a0)):
        return BoundReport(name="outer-check", lhs=float("-inf"), rhs=rhs,
                           slack=float("inf"), passed=False,
                           details={**details, "tol": tol,
                                    "reason": "value at origin not positive"})
    lhs = float(np.log(a0.real))
    passed = abs(lhs - rhs) <= tol * (1.0 + abs(rhs))
    return BoundReport(name="outer-check", lhs=lhs, rhs=rhs,
                       slack=rhs - lhs, passed=passed,
                       details={**details, "tol": tol})
