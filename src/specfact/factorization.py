"""Outer spectral factorization of positive densities on the circle.

Three independent routes produce the outer factor f_plus normalized by
f_plus(0) > 0, with f = |f_plus|^2 on the boundary:

* factorize_boundary: the boundary formula
  f_plus = sqrt(f) * exp((i/2) * (log f)~), coefficients read off by FFT;
* factorize_herglotz: exp of the Herglotz integral of log f, evaluated at
  interior points of the disk by a blocked direct rectangle-rule sum in
  bounded memory (no FFT of log f).  The Taylor coefficients of this route
  are read off m = 512 or 1024 evenly spaced points of the circle
  |z| = HERGLOTZ_RADIUS, where the same sum is a circular correlation:
  _herglotz_circle takes it as the wrapped diagonals of matrix products,
  m n multiply-adds in products small enough for one BLAS thread plus
  O(m^2) diagonal sums, in O(n + m) memory (42 ms at n = 2^18 against
  0.47 s for the direct sum, 2-core VM);
* fejer_riesz: root factorization of a nonnegative trigonometric
  polynomial, of degree at most FR_MAX_DEGREE, checked on an FFT grid.

The routes share no code beyond the grid conventions, which is what makes
their agreement a meaningful check.
"""

from __future__ import annotations

import math

import numpy as np

from .circle_fn import (
    FourierSeries,
    GridFunction,
    SpectralFactor,
    _conjugate,
    fourier_synthesize,
    grid_theta,
)
from .errors import DomainError, NumericalConditioningError, ParameterError
from .report import BoundReport

#: Roots within this distance of |r| = 1 are treated as boundary zeros.
TOL_CIRCLE = 1e-7

#: Angular separation below which boundary roots are fused into one cluster.
CLUSTER_ANGLE = 1e-3

#: Largest polynomial degree fejer_riesz accepts.  np.roots solves a complex
#: 2N x 2N eigenproblem: 1.2 s at N = 256, 4.2 s at N = 512 and 15.5 s at
#: N = 1024 on a 2-core VM.
FR_MAX_DEGREE = 512

#: The Herglotz route sums over blocks of (points x samples) weights,
#: _HERGLOTZ_COLS samples wide and at most _HERGLOTZ_BLOCK_BYTES in size,
#: so its memory stays flat in the number of points and samples.  Short
#: partial sums stay accurate: one BLAS product over all 2^16 samples left
#: the Taylor coefficients 20x less accurate.  The circle kernel writes
#: its matrix products into a superblock of at most _HERGLOTZ_BLOCK_BYTES
#: before it takes their wrapped diagonal sums.
_HERGLOTZ_COLS = 4096
_HERGLOTZ_BLOCK_BYTES = 1 << 19

#: Multiply-adds per matrix product in the circle kernel.  OpenBLAS runs a
#: product of up to 2^18 multiply-adds on one thread; a larger one wakes
#: its worker threads, and under the default thread count such a product
#: can cost about one scheduler quantum on a 2-core VM whose vCPUs give
#: one core of throughput: (512 x 8) @ (8 x 1024) took 16 ms (median of
#: 15) in two of three fresh processes and 0.5 ms in the third, while 16
#: products of (32 x 8) @ (8 x 1024) took 0.35 ms.  So the superblock is
#: filled by products of at most this size, as the direct kernel's
#: (16 x 4096) @ (4096 x 3) already is.
_BLAS_ONE_THREAD = 1 << 18

#: _herglotz_factor reads Taylor coefficients off the circle |z| = r,
#: r = HERGLOTZ_RADIUS, and divides coefficient k by r^k, which multiplies
#: its rounding by r^-k.  HERGLOTZ_MAX_DEGREE is the largest degree d with
#: 2^-52 * r^-d <= 1e-6, the route's coefficient tolerance (210 at r = 0.9).
HERGLOTZ_RADIUS = 0.9
HERGLOTZ_MAX_DEGREE = int(math.log(1e-6 * 2.0 ** 52, 1.0 / HERGLOTZ_RADIUS))

#: factorize_herglotz refuses points beyond this radius, where the
#: rectangle-rule kernel loses accuracy.
HERGLOTZ_R_MAX = 0.95


def _positive(v: np.ndarray) -> np.ndarray:
    """v, real samples with rows along the last axis, checked positive.  A
    sample that is not positive raises DomainError, whose message leaves
    the remedy, such as the command line's --floor, to the caller."""
    if np.iscomplexobj(v):
        raise ParameterError("factorization expects a real density")
    if np.fmin.reduce(v, axis=None) <= 0.0:  # fmin passes over nan
        rows = v.reshape(-1, v.shape[-1])
        row = rows[np.argmax(np.any(rows <= 0.0, axis=-1))]
        j = int(np.argmin(row))
        raise DomainError(
            f"density is not positive: sample {j} "
            f"(theta = {grid_theta(len(row))[j]:.6f}) "
            f"has value {row[j]:.6g}")
    return v


def _positive_log(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log of real samples that _positive checks, written to `out` when
    given."""
    return np.log(_positive(v), out=out)


def factorize_boundary(f: GridFunction, *, conjugate: np.ndarray | None = None,
                       scratch: np.ndarray | None = None) -> SpectralFactor:
    """Outer factor from boundary values sqrt(f) * exp((i/2) (log f)~).

    The one-sided coefficients a_0 .. a_{n/2-1} are extracted by FFT and the
    result is rotated by a unimodular constant so that a_0 is exactly real
    and positive.  Energy left at negative frequencies is recorded on the
    result; for smooth positive f it is at roundoff level, and a large value
    flags a density the grid cannot resolve.  A sample that is not
    positive raises DomainError.

    Called with f alone, this is the reference path: it takes log f and
    its conjugate itself.  A caller that has the conjugate already passes
    conjugate, the n floats of -(log f)~ / 4 for an f it checked positive,
    and may pass scratch, at least 2n floats for the boundary values.  The
    call overwrites both and keeps neither.  A sweep's pair record
    synthesizes its conjugates from the draws' spectra, which differ from
    _conjugate(log f, multiplier=-0.25j), the reference path's, in their
    last bits; given that conjugate, the factor has the reference bits.
    """
    n = f.n
    # the boundary values F = sqrt(f) e^{2iu}, u = (log f)~ / 4, by the
    # half-angle forms cos 2u = (1 - t^2) / (1 + t^2) and sin 2u =
    # 2t / (1 + t^2), t = tan u: one vectorized tan is cheaper than a
    # complex exp, which numpy runs as a scalar loop.  |tan| <= 1.6e16 on
    # doubles, so t^2 stays finite.
    # The conjugate takes its 1/4 in the spectrum, which scales every float
    # exactly.  The arithmetic runs on contiguous arrays, one pass per
    # value: t and the two halves of F's 2n floats, w = t^2 (then 1 - t^2)
    # and r = 1 + t^2 (then sqrt(f) / (1 + t^2), then the real part).  So
    # t and F are the only n-sized arrays besides the sqrt(f) temporary:
    # an array per intermediate left more heap in use after a 2^18
    # factorization (CHANGES.md).  The real part goes to F's even floats
    # by a forward copy: value k moves from float n + k to float 2k, never
    # past what is still to be read.  Then the doubling writes the
    # imaginary part 2 t r to the odd floats
    t = (_conjugate(_positive_log(f.values), multiplier=-0.25j)
         if conjugate is None else conjugate)
    np.tan(t, out=t)
    F = (np.empty(n, dtype=np.complex128) if scratch is None
         else scratch[: 2 * n].view(np.complex128))
    halves = F.view(np.float64)
    w, r = halves[:n], halves[n:]
    np.multiply(t, t, out=w)
    np.add(w, 1.0, out=r)
    np.subtract(1.0, w, out=w)
    np.divide(np.sqrt(f.values), r, out=r)
    t *= r
    r *= w
    F.real = r
    np.add(t, t, out=F.imag)
    np.fft.fft(F, out=F)
    # F is n times the coefficients; n is a power of two, so dividing the
    # kept half is exact, and the energy ratio below is scale-free.  The
    # division is numpy's complex one by n + 0j, (x + y 0, y - x 0) / n,
    # taken as the product with 1 - 0j, which gives its signed zeros, and
    # a float product by the exact 1/n: the same bits, subnormals and
    # zeros included, in under half the time.  It comes before the sign
    # flip: the other order gives 0.0 where an exactly zero coefficient
    # has -0.0 in this one.  The flip multiplies by 1 + 0j and -1 + 0j, as
    # a sign vector would: the even entries' product turns some zeros'
    # -0.0 into 0.0
    coeffs = F[: n // 2] * complex(1.0, -0.0)
    scaled = coeffs.view(np.float64)
    scaled *= 1.0 / n
    coeffs[::2] *= 1.0
    coeffs[1::2] *= -1.0
    # |F| is scaled by a power of two before squaring, which is exact and
    # keeps n^2 max f from overflowing; the energy ratio is scale-free
    power = np.abs(F, out=t)
    power *= math.ldexp(1.0, -math.frexp(power.max())[1])
    power *= power
    total = float(power.sum())
    neg = float(power[n // 2:].sum())
    a0 = coeffs[0]
    if a0 == 0:
        raise NumericalConditioningError("no positive value at the origin")
    coeffs *= a0.conjugate() / abs(a0)
    coeffs[0] = abs(a0)
    # handed over read-only, the factor keeps this array without a copy
    coeffs.setflags(write=False)
    return SpectralFactor(coeffs, neg_energy=neg / total if total > 0 else 0.0)


def factorize_herglotz(f: GridFunction, points):
    """Outer factor values exp((1/4pi) int (e^{i t}+z)/(e^{i t}-z) log f dt).

    Evaluates at the given interior points; |z| <= HERGLOTZ_R_MAX is
    enforced because the rectangle-rule kernel loses accuracy near the
    boundary.  Returns a complex array shaped like `points` (a scalar
    input gives a scalar).
    This is the path for arbitrary points; the command line's evenly
    spaced circle goes through _herglotz_circle, which is checked against
    this kernel.

    The rectangle rule is summed directly, in real arithmetic: with
    z = x + iy and D = (cos t - x)^2 + (sin t - y)^2 = |e^{i t} - z|^2,

        Re K = (1 - |z|^2) / D,    Im K = 2 (y cos t - x sin t) / D,

    so a product of 1/D with [l, l cos t, l sin t] sums a block of points.
    Here l = log f - c with c the mean of log f; its share c sum_j K_j =
    c n (1 + z^n) / (1 - z^n) is exact on this grid, whose nodes are the
    n-th roots of unity, and centring stops a large mean from cancelling
    between the cos and sin sums.  D comes from the differences, which do
    not cancel as |z| nears the circle.  Blocks of bounded size keep memory
    flat in n; no FFT of log f is taken.  A sample that is not positive
    raises DomainError.
    """
    logf = _positive_log(f.values)
    z = np.asarray(points, dtype=np.complex128)
    radius = np.abs(z)
    if np.any(radius > HERGLOTZ_R_MAX + 1e-15):
        j = int(np.argmax(radius))
        raise ParameterError(
            f"evaluation point {z.flat[j]} has |z| = {radius.flat[j]:.6f} "
            f"> r_max = {HERGLOTZ_R_MAX}")
    n = f.n
    theta = grid_theta(n)
    cos, sin = np.cos(theta), np.sin(theta)
    c = float(np.mean(logf))
    dev = logf - c
    weights = np.stack([dev, cos * dev, sin * dev], axis=1)
    x, y = z.real.ravel(), z.imag.ravel()
    sums = np.zeros((x.size, 3))
    cols = min(n, _HERGLOTZ_COLS)
    rows = max(1, _HERGLOTZ_BLOCK_BYTES // (8 * cols))
    for i in range(0, x.size, rows):
        xb, yb = x[i:i + rows, None], y[i:i + rows, None]
        for j in range(0, n, cols):
            d = (cos[j:j + cols] - xb) ** 2 + (sin[j:j + cols] - yb) ** 2
            sums[i:i + rows] += (1.0 / d) @ weights[j:j + cols]
            # freed before the next block is made, so two blocks' arrays
            # take turns in cache, not three
            del d
    vals = _herglotz_values(z.ravel(), c, n,
                            (1.0 - (x * x + y * y)) * sums[:, 0],
                            2.0 * (y * sums[:, 1] - x * sums[:, 2]))
    return complex(vals[0]) if z.ndim == 0 else vals.reshape(z.shape)


def _herglotz_values(z: np.ndarray, c: float, n: int, re: np.ndarray,
                     im: np.ndarray) -> np.ndarray:
    """The factor at points z from the real and imaginary parts of the
    kernel sum over the centred log f, plus the mean c's exact share."""
    zn = z ** n
    return np.exp((re + 1j * im) / (2.0 * n) + 0.5 * c * (1.0 + zn) / (1.0 - zn))


def _herglotz_circle(f: GridFunction, m: int) -> np.ndarray:
    """factorize_herglotz at the m points z_p = r e^{2 pi i p / m}, with
    r = HERGLOTZ_RADIUS and m a power of two.

    With psi = t - 2 pi p / m, the kernel at z_p is

        Re K = (1 - r^2) / D,    Im K = -2 r sin psi / D,
        D = (cos psi - r)^2 + sin^2 psi,

    and every difference psi between a sample angle and a point's angle
    lies on the grid of L = max(n, m) angles, so 1/D and sin psi / D are
    tabulated once on L angles.  The centred log f is placed on that grid
    every L / n angles; reshaped to (m, L/m), both arrays make each
    point's two sums a wrapped diagonal of G = dev K^T (a circular
    correlation).  G is taken one row block at a time, by products of at
    most _BLAS_ONE_THREAD multiply-adds (up to n = 2^21), into a
    superblock of at most _HERGLOTZ_BLOCK_BYTES: m n multiply-adds (m^2
    when n < m, where the products carry zeros between samples) plus
    O(m^2) diagonal sums, and O(n + m) memory.  No FFT of log f is taken.
    """
    n = f.n
    r = HERGLOTZ_RADIUS
    L = max(n, m)
    b = L // m
    u = np.zeros(L)
    on_grid = u[:: L // n]
    _positive_log(f.values, out=on_grid)
    c = float(np.mean(on_grid))
    on_grid -= c
    dev = u.reshape(m, b)
    # kern[2 q + 0] and kern[2 q + 1] hold 1/D and sin psi / D over the
    # b angles of row q mod m; rows run to 2m so no diagonal wraps
    psi = grid_theta(L)
    sin = np.sin(psi)
    d = np.cos(psi, out=psi)
    d -= r
    d *= d
    d += sin * sin
    np.reciprocal(d, out=d)
    table = np.empty((2, m, 2, b))
    table[0, :, 0] = d.reshape(m, b)
    np.multiply(sin.reshape(m, b), table[0, :, 0], out=table[0, :, 1])
    table[1] = table[0]
    kern = table.reshape(4 * m, b)
    # rows and m are powers of two, so the row blocks tile G exactly
    rows = max(1, _HERGLOTZ_BLOCK_BYTES // (32 * m))
    cols = max(1, _BLAS_ONE_THREAD // (2 * rows * b))
    width = m + rows - 1
    block = np.empty(rows * (2 * width + 2))
    prod = block[: 2 * rows * width].reshape(rows, 2 * width)
    # row a of this view starts at G[i + a, i + a], so its column k holds
    # the diagonal G[i + a, i + a + k], a term of the point p = -k mod m
    diagonals = block.reshape(rows, 2 * width + 2)[:, : 2 * m]
    sums = np.zeros(2 * m)
    for i in range(0, m, rows):
        for j in range(0, width, cols):
            k = min(j + cols, width)
            np.matmul(dev[i:i + rows], kern[2 * (i + j): 2 * (i + k)].T,
                      out=prod[:, 2 * j: 2 * k])
        sums += diagonals.sum(axis=0)
    s = sums.reshape(m, 2)[-np.arange(m) % m]
    z = r * np.exp(2j * np.pi * np.arange(m) / m)
    return _herglotz_values(z, c, n, (1.0 - r * r) * s[:, 0],
                            -2.0 * r * s[:, 1])


def _herglotz_factor(f: GridFunction, degree: int) -> SpectralFactor:
    """Taylor coefficients of the Herglotz-route factor.

    Samples the factor on the circle |z| = r = HERGLOTZ_RADIUS and divides
    the FFT coefficients by r^k; the geometric decay of the sampling radius
    suppresses coefficients beyond `degree`.  The rectangle rule gives z^k
    the DFT coefficient k mod n of log f, so the command line refuses a
    degree of n/2 or more, and one above HERGLOTZ_MAX_DEGREE.
    """
    m = 512
    while m < 4 * (degree + 1):
        m *= 2
    c = np.fft.fft(_herglotz_circle(f, m)) / m
    a = c[: degree + 1] / HERGLOTZ_RADIUS ** np.arange(degree + 1)
    a = a * np.exp(-1j * np.angle(a[0]))
    a.setflags(write=False)
    return SpectralFactor(a)


def _validation_grid(degree: int) -> int:
    m = 4096
    while m < 16 * max(degree, 1):
        m *= 2
    return m


def _fr_coeffs(series) -> tuple[dict[int, complex], int]:
    """fejer_riesz's nonzero coefficients and degree, or its refusals of
    the zero polynomial and of a degree above FR_MAX_DEGREE."""
    if not isinstance(series, FourierSeries):
        series = FourierSeries(series)
    coeffs = {k: c for k, c in series.coeffs.items() if c != 0}
    if not coeffs:
        raise DomainError("cannot factor the zero polynomial")
    N = max(abs(k) for k in coeffs)
    if N > FR_MAX_DEGREE:
        raise ParameterError(
            f"fejer-riesz degree {N} exceeds the cap {FR_MAX_DEGREE}: the "
            f"root step is an O(N^3) eigenproblem of size 2N")
    return coeffs, N


def fejer_riesz(series) -> np.ndarray:
    """Factor a nonnegative trig polynomial as |sum_k a_k e^{i k theta}|^2.

    Input: Hermitian coefficients c_{-N} .. c_N (FourierSeries or mapping).
    Output: ascending array a_0 .. a_N with a_0 real positive and no roots
    of sum a_k z^k inside the open unit disk.

    Boundary zeros must have even multiplicity; the root clusters that
    represent them are split evenly between the factor and its reflection.
    An odd cluster, or an off-circle root with no inverse partner, means the
    input was not a nonnegative polynomial to working precision and raises
    NumericalConditioningError.

    Degrees above FR_MAX_DEGREE, and coefficients that are not Hermitian by
    FourierSeries.is_real_valued (which fourier_synthesize refuses), raise
    ParameterError before any root is taken.  Nonnegativity and the final
    reproduction check are read on a grid of at least 16 N samples,
    synthesized by one inverse FFT.
    """
    coeffs, N = _fr_coeffs(series)
    m = _validation_grid(N)
    fvals = fourier_synthesize(FourierSeries(coeffs), m).values
    peak = float(fvals.max())
    if peak <= 0.0 or float(fvals.min()) < -1e-10 * peak:
        raise DomainError(
            f"polynomial is not nonnegative on the circle "
            f"(min = {fvals.min():.3e}, max = {peak:.3e})")

    # q(t) = t^N f(t) has the 2N factorization roots (a constant has
    # none, and its factor is sqrt(c_0)); q(0) = c_{-N} != 0.
    q = np.zeros(2 * N + 1, dtype=np.complex128)
    for k, c in coeffs.items():
        q[k + N] = c
    # a top coefficient far below the others (a subnormal one) overflows
    # the companion matrix, which then has no eigenvalues to take
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            roots = np.roots(q[::-1])
        except np.linalg.LinAlgError as exc:
            raise NumericalConditioningError(
                f"the {2 * N} roots of z^N f(z) are not resolved: {exc}"
            ) from exc

    mod = np.abs(roots)
    outside = roots[mod > 1.0 + TOL_CIRCLE]
    inside = roots[mod < 1.0 - TOL_CIRCLE]
    on_circle = roots[(mod >= 1.0 - TOL_CIRCLE) & (mod <= 1.0 + TOL_CIRCLE)]

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
    check = np.abs(factor.boundary_values(m)) ** 2
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


def outer_check(factor: SpectralFactor, f: GridFunction) -> BoundReport:
    """Mean-value test separating the outer factor from its imposters.

    For the outer factor, log f_plus(0) equals the logarithmic mean
    (1/4pi) int log f dtheta; any inner-factor contamination strictly lowers
    the left side.  Passes iff |lhs - rhs| <= tol (1 + |rhs|), tol = 1e-8.
    f is read as given: pass the density the factor was made from.
    """
    tol = 1e-8
    logf = _positive_log(f.values)
    rhs = float(np.mean(logf)) / 2.0
    a0 = factor.value_at_zero
    details = {"a0": a0, "log_mean_half": rhs, "tol": tol}
    if a0.real <= 0.0 or abs(a0.imag) > 1e-12 * (1.0 + abs(a0)):
        return BoundReport("outer-check", float("-inf"), rhs, {
            **details, "reason": "value at origin not positive"})
    return BoundReport("outer-check", float(np.log(a0.real)), rhs, details)
