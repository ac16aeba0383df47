"""Outer factor computation: boundary route, Herglotz route, root route."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from specfact import (
    DomainError,
    FourierSeries,
    GridFunction,
    ParameterError,
    SpectralFactor,
    factorize_boundary,
    factorize_herglotz,
    fejer_riesz,
    fourier_synthesize,
    grid_theta,
    outer_check,
    random_density,
)
from specfact import factorization
from specfact.factorization import (
    FR_MAX_DEGREE,
    HERGLOTZ_MAX_DEGREE,
    HERGLOTZ_R_MAX,
    HERGLOTZ_RADIUS,
    _angle_clusters,
    _herglotz_circle,
)


def _series_from_factor(a):
    """Autocorrelation: the series of |sum a_k e^{ik theta}|^2."""
    a = np.asarray(a, dtype=complex)
    deg = len(a) - 1
    coeffs = {}
    for k in range(-deg, deg + 1):
        lo = max(0, -k)
        hi = min(len(a), len(a) - k)
        coeffs[k] = sum(a[j + k] * np.conj(a[j]) for j in range(lo, hi))
    return FourierSeries(coeffs)


def _random_outer_factor(rng, degree):
    """Polynomial with all roots at radii in [1.1, 3], normalized a_0 > 0."""
    roots = (rng.uniform(1.1, 3.0, degree)
             * np.exp(1j * rng.uniform(-np.pi, np.pi, degree)))
    a = np.polynomial.polynomial.polyfromroots(roots)
    a = a * np.exp(-1j * np.angle(a[0])) * rng.uniform(0.5, 2.0)
    return a


def test_boundary_constant():
    f = GridFunction(64, np.full(64, 4.0))
    fac = factorize_boundary(f)
    assert fac.coeffs[0] == pytest.approx(2.0, abs=1e-13)
    assert np.max(np.abs(fac.coeffs[1:])) < 1e-13
    assert fac.neg_energy < 1e-30


def test_boundary_quarter_poly():
    f = GridFunction.from_callable(lambda t: 1.25 - np.cos(t), 512)
    fac = factorize_boundary(f)
    assert fac.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert fac.coeffs[1] == pytest.approx(-0.5, abs=1e-12)
    assert np.max(np.abs(fac.coeffs[2:])) < 1e-12
    assert fac.value_at_zero.real > 0


def test_boundary_modulus_matches_density(rng):
    n = 1024
    th = grid_theta(n)
    f = GridFunction(n, np.exp(np.cos(th) - 0.4 * np.sin(3 * th)))
    fac = factorize_boundary(f)
    boundary = fac.boundary_values(n)
    assert np.max(np.abs(np.abs(boundary) ** 2 - f.values)) < 1e-10


def test_routes_reject_a_nonpositive_density():
    """The routes factor the density as given: a zero sample raises
    DomainError, and the factor records no floor."""
    vals = np.ones(64)
    vals[10] = 0.0
    zero = GridFunction(64, vals)
    with pytest.raises(DomainError, match="sample 10"):
        factorize_boundary(zero)
    with pytest.raises(DomainError, match="sample 10"):
        factorize_herglotz(zero, 0.0)
    with pytest.raises(DomainError, match="sample 10"):
        _herglotz_circle(zero, 512)
    vals[10] = 1e-8
    assert factorize_boundary(GridFunction(64, vals)).floor_applied is None


def test_boundary_energy_near_the_float_maximum(recwarn):
    """n^2 max f above the float maximum: the squares of |F| are taken
    after an exact power-of-two scaling, so neither the constant 1e302 nor
    a random density times 1e302 overflows or warns on 4096 samples."""
    n = 4096
    fac = factorize_boundary(GridFunction(n, np.full(n, 1e302)))
    assert fac.neg_energy == 0.0
    assert fac.coeffs[0] == pytest.approx(1e151, rel=1e-12)
    f = random_density(np.random.default_rng(5), n=n)
    big = factorize_boundary(GridFunction(n, 1e302 * f.values))
    assert 0.0 <= big.neg_energy < 1e-25
    assert not recwarn.list


def test_boundary_scaling_equivariance(rng):
    n = 512
    f_vals = np.exp(rng.normal(size=1)[0] + np.cos(grid_theta(n)))
    f = GridFunction(n, f_vals)
    for c in (0.25, 7.0):
        fc = factorize_boundary(GridFunction(n, c * f_vals))
        base = factorize_boundary(f)
        assert np.max(np.abs(fc.coeffs - math.sqrt(c) * base.coeffs)) < 1e-10



def _boundary_coefficients(F, n):
    """(coeffs, neg_energy) from boundary values F, with fresh arrays and
    F /= n over all n points, as before the kept buffers."""
    F = np.fft.fft(F)
    F /= n
    sign = np.ones(n // 2)
    sign[1::2] = -1.0
    coeffs = sign * F[: n // 2]
    power = np.abs(F)
    power *= power
    neg = float(np.sum(power[n // 2:])) / float(np.sum(power))
    a0 = coeffs[0]
    coeffs *= a0.conjugate() / abs(a0)
    coeffs[0] = abs(a0)
    return coeffs, neg


def _boundary_reference(f):
    """factorize_boundary's formula with fresh arrays for every step: the
    boundary values sqrt(f) e^{2iu}, u = (log f)~ / 4, by the half-angle
    forms in t = tan u.  Returns (coeffs, neg_energy)."""
    v = f.values
    n = f.n
    R = np.fft.rfft(np.log(v))
    R *= -0.25j
    R[0] = 0.0
    R[-1] = 0.0
    t = np.tan(np.fft.irfft(R, n))
    q = np.sqrt(v) / (1.0 + t * t)
    F = np.empty(n, dtype=np.complex128)
    F.real = (1.0 - t * t) * q
    F.imag = 2.0 * (t * q)
    return _boundary_coefficients(F, n)


def _boundary_exp_reference(f):
    """The boundary values as one complex exp, exp(0.5 log f + 0.5i
    (log f)~), the formula before the half-angle forms: a second
    reference, which agrees with the first to rounding only."""
    logf = np.log(f.values)
    n = f.n
    R = np.fft.rfft(logf)
    R *= -1j
    R[0] = 0.0
    R[-1] = 0.0
    F = 0.5j * np.fft.irfft(R, n)
    F += 0.5 * logf
    return _boundary_coefficients(np.exp(F), n)


def _densities(sizes):
    """A constant density, whose conjugate and spectrum are exact zeros,
    then a random one of the highest degree the size resolves, up to 16."""
    for n in sizes:
        yield GridFunction(n, np.full(n, 4.0))
        yield random_density(np.random.default_rng([7, n]), n=n,
                             degree=min(16, n // 2 - 1))


def test_boundary_matches_the_reference_formula_bit_for_bit():
    """The kept buffers, the in-place transforms and the division of the
    kept half only change no bit of the coefficients or of neg_energy,
    also on a density clamped at its median, flat on half the circle, and
    with the sizes alternating so that every call replaces the buffers."""
    for f in _densities([8, 4096, 16384, 2 ** 18, 4096, 8]):
        clamped = GridFunction(f.n, np.maximum(f.values,
                                               np.median(f.values)))
        for g in (f, clamped):
            fac = factorize_boundary(g)
            coeffs, neg = _boundary_reference(g)
            assert fac.coeffs.tobytes() == coeffs.tobytes(), f.n
            assert fac.neg_energy.hex() == neg.hex(), f.n


def test_boundary_matches_the_complex_exp_formula():
    """The half-angle forms round differently from the complex exp: the
    coefficients stay within 1e-13 of max |a| of it at degrees up to 128
    (9e-16 on these draws, 1.7e-14 on the factorize benchmark's degree-64
    series), and neg_energy within 1e-9 relative or 1e-30."""
    for degree in (1, 8, 32, 128):
        for seed in range(5):
            f = random_density(np.random.default_rng([seed, degree]),
                               n=4096, degree=degree)
            want, neg = _boundary_exp_reference(f)
            fac = factorize_boundary(f)
            gap = np.max(np.abs(fac.coeffs - want)) / np.max(np.abs(want))
            assert gap <= 1e-13, (degree, seed, gap)
            assert fac.neg_energy == pytest.approx(neg, rel=1e-9, abs=1e-30)


def test_boundary_closed_form_through_a_quarter_turn():
    """f = exp(L sin theta) has the outer factor exp(-(iL/2) z), so
    a_k = (-iL/2)^k / k!.  At L = 2 pi the angle u = -(pi/2) cos theta
    passes through -pi/2 at theta = 0, a grid point, where t = tan u is
    about 1e16 and t^2 about 1e32; the coefficients still come within
    1e-15 of max |a| (2.4e-16 measured, as with the complex exp)."""
    n = 4096
    theta = grid_theta(n)
    assert np.max(np.abs(np.tan(-0.5 * np.pi * np.cos(theta)))) > 1e15
    for L in (1.0, 2.0 * np.pi, 5.0):
        fac = factorize_boundary(GridFunction(n, np.exp(L * np.sin(theta))))
        want = np.zeros(n // 2, dtype=np.complex128)
        for k in range(60):  # (L/2)^60 / 60! < 1e-50 for L <= 2 pi
            want[k] = (-0.5j * L) ** k / math.factorial(k)
        gap = np.max(np.abs(fac.coeffs - want)) / np.max(np.abs(want))
        assert gap <= 1e-15, (L, gap)


def test_boundary_factor_owns_its_coefficients():
    """A second call at the same n leaves the first factor as it was."""
    f, g = (random_density(np.random.default_rng([s, 1]), n=4096)
            for s in (0, 1))
    first = factorize_boundary(f)
    kept = first.coeffs.copy()
    second = factorize_boundary(g)
    assert first.coeffs.tobytes() == kept.tobytes()
    assert not np.shares_memory(first.coeffs, second.coeffs)
    assert not np.array_equal(first.coeffs, second.coeffs)


def test_boundary_threads_reproduce_sequential_results():
    """Four threads (more than the cores of a small runner) factoring
    different densities of one size, with the interpreter switching
    threads every microsecond, get the sequential floats on every call:
    the kernel shares no state between calls."""
    dens = [random_density(np.random.default_rng([s, 2]), n=16384)
            for s in range(4)]
    want = [factorize_boundary(f).coeffs.tobytes() for f in dens]
    start = threading.Barrier(len(dens))
    got = [[] for _ in dens]

    def work(i):
        start.wait()
        for _ in range(40):
            got[i].append(factorize_boundary(dens[i]).coeffs.tobytes())

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(dens))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 40 for w in want]


def test_boundary_keeps_nothing_between_calls():
    """Once its factor is dropped, a factorize_boundary call leaves no
    traced allocation behind, at n = 2^14 as at 2^18; while the factor
    lives, it holds its n / 2 coefficients (8 n bytes)."""
    for n in (2 ** 14, 2 ** 18):
        f = GridFunction.from_callable(lambda t: np.exp(np.cos(t)), n)
        # numpy's FFT caches for this n are filled first
        np.fft.irfft(np.fft.rfft(np.zeros(n)), n)
        np.fft.fft(np.zeros(n, dtype=complex))
        tracemalloc.start()
        try:
            factor = factorize_boundary(f)
            held = tracemalloc.get_traced_memory()[0]
            del factor
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 8 * n <= held < 8 * n + 2 ** 12, (n, held)
        assert left < 2 ** 12, (n, left)


def test_boundary_transient_memory_is_bounded():
    """One factorize_boundary call peaks at no more than 33 n + 4096
    traced bytes, at n = 2^14 as at 2^18: the tangent array, the boundary
    values and one more n-sized float array (32.7 n and 32.5 n
    measured)."""
    for n in (2 ** 14, 2 ** 18):
        f = GridFunction.from_callable(lambda t: np.exp(np.cos(t)), n)
        # numpy's FFT caches for this n are filled first
        np.fft.irfft(np.fft.rfft(np.zeros(n)), n)
        np.fft.fft(np.zeros(n, dtype=complex))
        tracemalloc.start()
        try:
            factorize_boundary(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 33 * n + 4096, (n, peak / n)


def test_herglotz_values_quarter_poly():
    f = GridFunction.from_callable(lambda t: 1.25 - np.cos(t), 1024)
    assert factorize_herglotz(f, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert factorize_herglotz(f, 0.5 + 0j) == pytest.approx(0.75, abs=1e-10)
    vals = factorize_herglotz(f, np.array([0.1j, -0.3]))
    assert vals[0] == pytest.approx(1 - 0.05j, abs=1e-10)
    assert vals[1] == pytest.approx(1.15, abs=1e-10)


def test_herglotz_radius_guard():
    f = GridFunction(64, np.ones(64))
    with pytest.raises(ParameterError,
                       match=r"\|z\| = 0.960000 > r_max = 0.95"):
        factorize_herglotz(f, 0.96)
    assert factorize_herglotz(f, HERGLOTZ_R_MAX) == pytest.approx(1.0)


def _dense_herglotz(f, z):
    """The dense complex-kernel form of the Herglotz sum, kept as an oracle."""
    e = np.exp(1j * grid_theta(f.n))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    kernel = (e[None, :] + z[:, None]) / (e[None, :] - z[:, None])
    return np.exp(kernel @ np.log(f.values) / (2.0 * f.n))


def test_herglotz_matches_dense_oracle(rng, monkeypatch):
    # the kernel's accuracy at the rim, beyond the radius it accepts
    monkeypatch.setattr(factorization, "HERGLOTZ_R_MAX", 0.995)
    n = 4096
    th = grid_theta(n)
    f = GridFunction(n, np.exp(np.cos(th) - 0.4 * np.sin(3 * th)
                               + 0.2 * np.cos(7 * th)))
    r = 0.995 * np.sqrt(rng.uniform(0.0, 1.0, 300))
    r[:20] = 0.995  # the rim, where a 1 + |z|^2 - 2 Re(z e^{-it}) form cancels
    z = r * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    got = factorize_herglotz(f, z)
    want = _dense_herglotz(f, z)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_herglotz_keeps_the_shape_of_points():
    f = GridFunction.from_callable(lambda t: 1.25 - np.cos(t), 64)
    pts = np.full((2, 3), 0.1 + 0.1j)
    pts[1, 2] = -0.4
    vals = factorize_herglotz(f, pts)
    assert vals.shape == (2, 3)
    assert np.allclose(vals.ravel(), _dense_herglotz(f, pts.ravel()),
                       rtol=1e-13, atol=0)
    assert vals[1, 2] == pytest.approx(1.2, abs=1e-10)  # 1 - z/2 at z = -0.4
    one = factorize_herglotz(f, np.array([0.1 + 0.1j]))
    assert one.shape == (1,)
    scalar = factorize_herglotz(f, np.complex128(0.1 + 0.1j))
    assert isinstance(scalar, complex)
    assert scalar == pytest.approx(vals[0, 0], rel=1e-15)
    with pytest.raises(ParameterError, match="0.990000"):
        factorize_herglotz(f, np.array([[0.0, 0.99j]]))


def test_herglotz_max_degree_is_derived_from_the_radius():
    """The cap is the largest d with 2^-52 r^-d <= 1e-6 at the circle
    radius r: the inequality holds at the cap and fails one above it."""
    d, r = HERGLOTZ_MAX_DEGREE, HERGLOTZ_RADIUS
    assert 2.0 ** -52 * r ** -d <= 1e-6 < 2.0 ** -52 * r ** -(d + 1)
    assert (d, r) == (210, 0.9)


def _circle(m):
    return HERGLOTZ_RADIUS * np.exp(2j * np.pi * np.arange(m) / m)


def _asymmetric_density(n):
    """exp of a random trig polynomial, times a factor with a kink at an
    angle off every grid's symmetry axes."""
    th = grid_theta(n)
    rng = np.random.default_rng(n)
    w = sum(rng.uniform(-1, 1) * np.cos(k * th + rng.uniform(0, 2 * np.pi))
            for k in range(1, 9))
    return GridFunction(n, np.exp(w) * (1.0 + 0.3 * np.abs(np.sin(th - 0.4))))


@pytest.mark.parametrize("floor", [None, 0.5])
@pytest.mark.parametrize("m", [512, 1024])
@pytest.mark.parametrize("n", [8, 256, 512, 4096, 2 ** 16])
def test_herglotz_circle_matches_direct_kernel(n, m, floor):
    """The circle kernel's wrapped diagonals are the direct kernel's sums,
    also on the density clamped at a floor: an off-by-one diagonal or a
    sign slip in sin psi fails here."""
    f = _asymmetric_density(n)
    if floor is not None:
        f = GridFunction(n, np.maximum(f.values, floor))
    got = _herglotz_circle(f, m)
    want = factorize_herglotz(f, _circle(m))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


def test_herglotz_circle_matches_dense_oracle():
    f = _asymmetric_density(4096)
    got = _herglotz_circle(f, 512)
    want = _dense_herglotz(f, _circle(512))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


@pytest.mark.parametrize("n, kernel, limit", [
    # 512 points on 2^16 samples: the dense kernel needed about 1.6 GB
    pytest.param(2 ** 16, lambda f: factorize_herglotz(f, _circle(512)), 64,
                 id="direct"),
    # an (m x n) kernel at 2^18 samples would take 1 GB
    pytest.param(2 ** 18, lambda f: _herglotz_circle(f, 512), 48,
                 id="circle"),
])
def test_herglotz_memory_is_bounded(n, kernel, limit):
    f = GridFunction.from_callable(lambda t: np.exp(np.cos(t)), n)
    tracemalloc.start()
    try:
        vals = kernel(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit * 2 ** 20, peak
    # exp(cos) has the outer factor exp(z / 2)
    assert np.allclose(vals, np.exp(_circle(512) / 2.0), rtol=1e-12, atol=0)


def test_route_agreement(rng):
    """Boundary and Herglotz factors agree at interior points."""
    n = 2048
    th = grid_theta(n)
    pts = 0.9 * rng.uniform(0.0, 1.0, 20) * np.exp(1j * rng.uniform(-np.pi, np.pi, 20))
    for _ in range(10):
        w = np.zeros(n)
        for k in range(1, 13):
            w += rng.uniform(-1, 1) * np.cos(k * th) + rng.uniform(-1, 1) * np.sin(k * th)
        f = GridFunction(n, np.exp(w))
        fac = factorize_boundary(f)
        direct = factorize_herglotz(f, pts)
        series = np.array([fac(z) for z in pts])
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(series - direct)) / scale < 1e-6


def test_fejer_riesz_frozen_examples():
    a = fejer_riesz(FourierSeries({-1: -0.5, 0: 1.25, 1: -0.5}))
    assert np.allclose(a, [1.0, -0.5], atol=1e-10)
    a = fejer_riesz(FourierSeries({0: 9.0}))
    assert np.allclose(a, [3.0], atol=1e-14)
    # boundary zero with the forced even multiplicity: 2 - 2 cos
    a = fejer_riesz(FourierSeries({-1: -1.0, 0: 2.0, 1: -1.0}))
    assert np.allclose(a, [1.0, -1.0], atol=1e-7)


def test_fejer_riesz_complex_factor():
    a_true = np.array([1.0, 0.5j])
    a = fejer_riesz(_series_from_factor(a_true))
    assert np.allclose(a, a_true, atol=1e-10)


def test_fejer_riesz_random_roundtrip(rng):
    for _ in range(10):
        degree = int(rng.integers(1, 17))
        a_true = _random_outer_factor(rng, degree)
        a = fejer_riesz(_series_from_factor(a_true))
        assert len(a) == len(a_true)
        rel = np.max(np.abs(a - a_true)) / np.max(np.abs(a_true))
        assert rel < 1e-8


def test_fejer_riesz_scaling(rng):
    a_true = _random_outer_factor(rng, 5)
    series = _series_from_factor(a_true)
    scaled = FourierSeries({k: 4.0 * c for k, c in series.coeffs.items()})
    a1 = fejer_riesz(series)
    a2 = fejer_riesz(scaled)
    assert np.allclose(a2, 2.0 * a1, atol=1e-9 * np.max(np.abs(a1)))


def test_fejer_riesz_validation():
    with pytest.raises(ParameterError):
        fejer_riesz(FourierSeries({0: 1.0, 1: 0.5}))  # not Hermitian
    # a defect of 1e-10 breaks the one Hermitian rule, is_real_valued's
    # 1e-12 relative, and is refused before the root step
    skewed = FourierSeries({0: 1.25, 1: -0.5 + 1e-10j, -1: -0.5})
    assert not skewed.is_real_valued()
    with pytest.raises(ParameterError, match="not Hermitian at k = 1"):
        fejer_riesz(skewed)
    with pytest.raises(ParameterError, match="not Hermitian at k = 1"):
        fejer_riesz({0: 1.25, 1: -0.5 + 1e-10j, -1: -0.5})
    with pytest.raises(DomainError):
        fejer_riesz(FourierSeries({-1: 0.5, 0: 0.25, 1: 0.5}))  # dips negative
    with pytest.raises(DomainError):
        fejer_riesz(FourierSeries({0: 0.0}))


def test_fejer_riesz_degree_cap(monkeypatch):
    class Reached(Exception):
        pass

    def roots(_):
        raise Reached

    monkeypatch.setattr(np, "roots", roots)
    tiny = FourierSeries({-5000: 0.1, 0: 1.0, 5000: 0.1})
    with pytest.raises(ParameterError, match=r"degree 5000 .*cap 512"):
        fejer_riesz(tiny)
    for d, outcome in ((FR_MAX_DEGREE + 1, ParameterError),
                       (FR_MAX_DEGREE, Reached)):
        with pytest.raises(outcome):
            fejer_riesz(FourierSeries({-d: 0.1, 0: 1.0, d: 0.1}))


def test_angle_clusters_grouping():
    # two pairs straddling the wrap at theta = pi plus an isolated root
    angles = np.array([np.pi - 2e-4, -np.pi + 2e-4, 0.5, 1.0, 1.0 + 5e-4])
    roots = np.exp(1j * angles)
    clusters = _angle_clusters(roots)
    sizes = sorted(len(c) for c in clusters)
    assert sizes == [1, 2, 2]


def test_outer_check_accepts_true_factor_and_rejects_imposters():
    f = GridFunction.from_callable(lambda t: 1.25 - np.cos(t), 512)
    good = factorize_boundary(f)
    assert outer_check(good, f).passed

    # same boundary modulus, a zero at the origin: z * (1 - z/2)
    shifted = SpectralFactor([0.0, 1.0, -0.5])
    rep = outer_check(shifted, f)
    assert not rep.passed

    # same boundary modulus, root reflected inside the disk: 0.5 - z
    reflected = SpectralFactor([0.5, -1.0])
    assert np.max(np.abs(np.abs(reflected.boundary_values(512)) ** 2
                         - f.values)) < 1e-12
    assert not outer_check(reflected, f).passed


def test_outer_check_reads_the_density_as_given():
    """outer_check reads f as given, as the routes do: a factor of a
    clamped density passes against that density and not against the
    unclamped one, whether the clamp binds above the minimum or the
    density is zero on half the circle."""
    n = 1024
    positive = GridFunction.from_callable(lambda t: 0.2 + np.cos(t) ** 2, n)
    half = GridFunction.from_callable(
        lambda t: np.maximum(np.cos(t), 0.0) ** 2, n)
    for f, floor in ((positive, 0.5), (half, 0.1)):
        floored = GridFunction(n, np.maximum(f.values, floor))
        factor = factorize_boundary(floored)
        rep = outer_check(factor, floored)
        assert rep.passed, (floor, rep.lhs, rep.rhs)
    assert not outer_check(factorize_boundary(
        GridFunction(n, np.maximum(positive.values, 0.5))), positive).passed
    with pytest.raises(DomainError):
        outer_check(factorize_boundary(
            GridFunction(n, np.maximum(half.values, 0.1))), half)


def test_three_routes_agree_on_polynomial_density(rng):
    a_true = _random_outer_factor(rng, 6)
    series = _series_from_factor(a_true)
    n = 1024
    f = fourier_synthesize(series, n)
    a_fr = fejer_riesz(series)
    fac_b = factorize_boundary(f)
    scale = np.max(np.abs(a_true))
    assert np.max(np.abs(a_fr - a_true)) / scale < 1e-8
    assert np.max(np.abs(fac_b.coeffs[:7] - a_true)) / scale < 1e-6
    assert np.max(np.abs(fac_b.coeffs[7:])) / scale < 1e-6
    z = 0.3 - 0.4j
    herg = factorize_herglotz(f, z)
    poly = sum(c * z ** k for k, c in enumerate(a_true))
    assert abs(herg - poly) / abs(poly) < 1e-6
