"""N-functions, the two Orlicz norms, the Lambda modulus, and the constants."""

import math

import numpy as np
import pytest

from specfact import (
    GridFunction,
    GSpec,
    NFunction,
    NumericalConditioningError,
    ParameterError,
    davis_constant,
    g_clipped_square,
    g_one_minus_cos,
    gauge_integral,
    grid_theta,
    holder_check,
    k0_constant,
    lambda_phi,
    lemma_G_report,
    lp_norm,
    luxemburg_norm,
    orlicz_norm,
    random_density,
    weak11_ratio,
)

CATALAN = 0.915965594177219


def _sample_density_functions():
    phi2 = NFunction.power(2.0)
    t = np.geomspace(1e-6, 1e6, 241)
    dens = NFunction.from_density(t, t)  # the power-2 density, resampled
    return phi2, dens


def test_power_phi_values():
    phi = NFunction.power(3.0)
    assert phi.phi(2.0) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert phi.phi(0.0) == 0.0
    assert phi.density(2.0) == pytest.approx(4.0, rel=1e-14)
    assert phi.rho(2.0) == pytest.approx(8.0, rel=1e-14)
    assert phi.phi_inv(9.0) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ParameterError):
        NFunction.power(1.0)
    with pytest.raises(ParameterError):
        NFunction.power(0.5)


def test_power_complement_exponent():
    phi = NFunction.power(3.0)
    psi = phi.complement()
    # complement of tau^3/3 is tau^1.5/1.5
    for x in (0.1, 1.0, 7.3):
        assert psi.phi(x) == pytest.approx(x ** 1.5 / 1.5, rel=1e-10)
    again = psi.complement()
    for x in (0.1, 1.0, 7.3):
        assert again.phi(x) == pytest.approx(phi.phi(x), rel=1e-10)


def test_density_kind_matches_power():
    phi2, dens = _sample_density_functions()
    for x in (1e-4, 0.3, 1.0, 42.0, 1e5):
        assert dens.phi(x) == pytest.approx(phi2.phi(x), rel=1e-9)
    comp = dens.complement()
    for x in (1e-3, 0.7, 11.0):
        assert comp.phi(x) == pytest.approx(phi2.phi(x), rel=1e-8)


def test_density_inversion_involution():
    _, dens = _sample_density_functions()
    for y in (1e-5, 0.02, 1.0, 300.0):
        x = dens.phi_inv(y)
        assert dens.phi(x) == pytest.approx(y, rel=1e-9)


def test_young_inequality_and_equality(rng):
    phi = NFunction.power(2.5)
    psi = phi.complement()
    xs = np.exp(rng.uniform(-3, 3, 200))
    ys = np.exp(rng.uniform(-3, 3, 200))
    gap = phi.phi(xs) + psi.phi(ys) - xs * ys
    assert np.min(gap) > -1e-12
    # equality on the matched curve y = phi'(x)
    ys_eq = phi.density(xs)
    gap_eq = phi.phi(xs) + psi.phi(ys_eq) - xs * ys_eq
    assert np.max(np.abs(gap_eq)) < 1e-10 * np.max(xs * ys_eq)


def test_young_density_kind(rng):
    _, dens = _sample_density_functions()
    comp = dens.complement()
    xs = np.exp(rng.uniform(-2, 2, 50))
    ys = np.exp(rng.uniform(-2, 2, 50))
    gap = dens.phi(xs) + comp.phi(ys) - xs * ys
    assert np.min(gap) > -1e-9 * np.max(xs * ys)


def test_luxemburg_power_closed_form(rng):
    """For phi = tau^q/q the Luxemburg norm is ||f||_q * q^(-1/q)."""
    n = 512
    f = GridFunction(n, np.exp(0.5 * np.cos(grid_theta(n))))
    for q in (1.5, 2.0, 4.0):
        phi = NFunction.power(q)
        expect = lp_norm(f, q) * q ** (-1.0 / q)
        assert luxemburg_norm(f, phi) == pytest.approx(expect, rel=1e-9)


def test_orlicz_power_closed_form():
    """Amemiya norm for powers: (p/(p-1))^((p-1)/p) * ||f||_p."""
    n = 512
    f = GridFunction(n, 1.0 + 0.3 * np.cos(grid_theta(n)))
    for p in (1.5, 2.0, 3.0):
        phi = NFunction.power(p)
        expect = (p / (p - 1.0)) ** ((p - 1.0) / p) * lp_norm(f, p)
        assert orlicz_norm(f, phi) == pytest.approx(expect, rel=1e-7)


def _power_density_copy(q):
    """Density-kind copy of tau^q/q, built as _sample_density_functions does.

    u(t) = t^(q-1) is linear for q = 2, so the 241-node copy is exact; for
    q = 3 the nodes are dense enough (ratio 1 + 5.8e-4) that the linear
    interpolation error of u stays below 1e-7 relative.
    """
    if q == 2.0:
        t = np.geomspace(1e-6, 1e6, 241)
    else:
        t = np.geomspace(1e-3, 1e3, 24001)
    return NFunction.from_density(t, t ** (q - 1.0))


def test_generic_solvers_match_power_closed_forms(rng):
    """The density-kind solvers, run on copies of power(2) and power(3),
    reproduce the closed forms the power kind returns."""
    n = 512
    th = grid_theta(n)
    fs = [GridFunction(n, np.exp(0.5 * np.cos(th))),
          GridFunction(n, np.exp(rng.uniform(-1, 1) * np.cos(3 * th)
                                 + rng.uniform(-1, 1) * np.sin(th)))]
    for q in (2.0, 3.0):
        dens = _power_density_copy(q)
        for f in fs:
            norm_q = lp_norm(f, q)
            assert luxemburg_norm(f, dens) == pytest.approx(
                norm_q * q ** (-1.0 / q), rel=1e-7)
            assert orlicz_norm(f, dens) == pytest.approx(
                (q / (q - 1.0)) ** ((q - 1.0) / q) * norm_q, rel=1e-7)
        for s in (1e-3, 0.1, 1.0, 50.0):
            assert lambda_phi(dens, s) == pytest.approx(s ** (1.0 / q), rel=1e-7)


def _amemiya_grid_min(f, phi, lo=-20.0, hi=20.0, points=401, levels=4):
    """min over log k of (1 + int Phi(k|f|))/k on nested uniform grids,
    each spanning two cells of the previous one around its minimum."""
    v = np.abs(f.values)
    h = 2.0 * np.pi / f.n
    for _ in range(levels):
        xs = np.linspace(lo, hi, points)
        vals = [(1.0 + np.sum(phi.phi(np.exp(x) * v)) * h) / np.exp(x)
                for x in xs]
        i = int(np.argmin(vals))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]
    return float(vals[i])


def _llogl_phi():
    """The L log L Phi the benchmark sweeps: u(t) = log(1 + t)."""
    t = np.geomspace(1e-6, 1e6, 49)
    return NFunction.from_json_dict(
        {"kind": "density", "u_grid": [[a, math.log1p(a)] for a in t]})


def test_amemiya_root_find_is_the_minimum():
    """For the L log L Phi the Young-equation root gives the minimum of the
    Amemiya objective: no point of a dense log k grid lies more than 1e-12
    relative below it, and it lies no more than 1e-12 relative below the
    grid minimum."""
    phi = _llogl_phi()
    for fn in (phi.complement(), phi):
        for seed in range(3):
            f = random_density(np.random.default_rng([seed, 0]), n=512)
            root = orlicz_norm(f, fn)
            grid = _amemiya_grid_min(f, fn)
            assert abs(root - grid) <= 1e-12 * grid, (seed, root, grid)


#: one Brent tolerance below a solver's result, in the log variable z the
#: solvers work in: rel_tol plus brentq's 4 ulps of |z|, with |z| <= 700
_OTHER_SIDE = math.exp(-(1e-10 + 4.0 * np.finfo(float).eps * 700.0))


def test_density_solvers_are_feasible_and_tight():
    """On the L log L Phi and its complement, each density-kind Luxemburg
    norm kappa satisfies int Phi(|f|/kappa) <= 1 and each lambda_phi value t
    satisfies rho(1/t) <= 1/s (the feasible side), while one tolerance
    below the result the inequality fails, so the threshold lies within
    rel_tol = 1e-10 of it.  f is scaled by 1e-200 and 1e200 and s spans
    1e-300 to 1e300, to reach both ends of the searched range."""
    phi = _llogl_phi()
    base = random_density(np.random.default_rng([0, 0]), n=512)
    h = 2.0 * np.pi / base.n

    def modal(fn, v, kappa):
        return float(np.sum(fn.phi(v / kappa)) * h)

    for fn in (phi, phi.complement()):
        for scale in (1e-200, 1.0, 1e200):
            f = GridFunction(base.n, base.values * scale)
            v = np.abs(f.values)
            kappa = luxemburg_norm(f, fn)
            assert modal(fn, v, kappa) <= 1.0, (scale, kappa)
            assert modal(fn, v, kappa * _OTHER_SIDE) > 1.0, (scale, kappa)
        for s in (1e-300, 1e-12, 1.0, 1e12, 1e300):
            t = lambda_phi(fn, s)
            assert fn.rho(1.0 / t) <= 1.0 / s, (s, t)
            assert fn.rho(1.0 / (t * _OTHER_SIDE)) > 1.0 / s, (s, t)


class _StubPhi(NFunction):
    """A density-kind stand-in that is not an N-function; it counts the
    evaluations of phi and rho, one per solver step.

    linear, Phi(x) = |x|: x Phi'(x) - Phi(x) = 0, so the Young integral
    Y(k) = -1 for every k and the Amemiya objective (1 + k ||f||_1)/k has no
    minimizer.  constant, Phi(x) = 1: int Phi(|f|/kappa) = 2 pi for every
    kappa and rho(tau) = tau Phi'(tau) = 0 for every tau, so neither the
    Luxemburg equation nor the Lambda equation has a root.
    """

    def __init__(self, linear: bool):
        self.kind = "density"
        self.linear = linear
        self.evaluations = 0

    def phi(self, x):
        self.evaluations += 1
        ax = np.abs(np.asarray(x, dtype=float))
        return ax if self.linear else np.ones_like(ax)

    def density(self, x):
        return np.full_like(np.asarray(x, dtype=float), float(self.linear))

    def rho(self, tau):
        self.evaluations += 1
        return super().rho(tau)

    def __repr__(self):
        return f"_StubPhi(linear={self.linear})"


def test_amemiya_bracket_search_is_bounded():
    """Without a root, the Amemiya, Luxemburg and Lambda solvers refuse
    after widening to the end of the searched range, about a dozen
    evaluations each."""
    n = 64
    f = GridFunction(n, np.exp(np.cos(grid_theta(n))))
    for linear, solve in ((True, lambda phi: orlicz_norm(f, phi)),
                          (False, lambda phi: luxemburg_norm(f, phi)),
                          (False, lambda phi: lambda_phi(phi, 1.0))):
        phi = _StubPhi(linear)
        with pytest.raises(NumericalConditioningError):
            solve(phi)
        assert phi.evaluations <= 20, (phi, phi.evaluations)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf])
def test_density_solvers_refuse_bad_tolerance(rel_tol):
    """A tolerance that is not finite and positive is refused before the
    first evaluation: a solve to a zero or negative tolerance cannot end."""
    n = 64
    f = GridFunction(n, np.exp(np.cos(grid_theta(n))))
    phi = _StubPhi(linear=True)
    for solve in (lambda: luxemburg_norm(f, phi, rel_tol=rel_tol),
                  lambda: orlicz_norm(f, phi, rel_tol=rel_tol),
                  lambda: lambda_phi(phi, 1.0, rel_tol=rel_tol)):
        with pytest.raises(ParameterError, match="tolerance"):
            solve()
    assert phi.evaluations == 0


def test_complement_is_cached():
    _, dens = _sample_density_functions()
    for phi in (NFunction.power(3.0), dens):
        assert phi.complement() is phi.complement()


def test_norm_sandwich(rng):
    """Luxemburg <= Orlicz <= 2 * Luxemburg for every N-function."""
    n = 256
    phi2, dens = _sample_density_functions()
    for phi in (phi2, NFunction.power(1.7), dens):
        for _ in range(5):
            f = GridFunction(n, np.exp(rng.uniform(-1, 1)
                                       * np.cos(grid_theta(n))
                                       + rng.normal()))
            lux = luxemburg_norm(f, phi)
            orl = orlicz_norm(f, phi)
            assert lux <= orl * (1 + 1e-8)
            assert orl <= 2 * lux * (1 + 1e-8)


def test_zero_function_norms():
    phi = NFunction.power(2.0)
    z = GridFunction(64, np.zeros(64))
    assert luxemburg_norm(z, phi) == 0.0
    assert orlicz_norm(z, phi) == 0.0


def test_lambda_power_oracle():
    for q in (1.5, 2.0, 3.0):
        phi = NFunction.power(q)
        for s in (1e-6, 0.1, 1.0, 50.0):
            assert lambda_phi(phi, s) == pytest.approx(s ** (1.0 / q), rel=1e-9)


def test_lambda_monotone_and_vanishing():
    _, dens = _sample_density_functions()
    for phi in (NFunction.power(2.0), dens):
        vals = [lambda_phi(phi, s) for s in (1e-8, 1e-4, 1e-2, 1.0, 10.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1e-3
    with pytest.raises(ParameterError):
        lambda_phi(NFunction.power(2.0), 0.0)


def test_lambda_upper_bound():
    """Lambda(s) <= 2 / phi_inv(1/s), a consequence of convexity."""
    _, dens = _sample_density_functions()
    for phi in (NFunction.power(1.5), NFunction.power(3.0), dens):
        for s in (1e-4, 0.3, 2.0, 100.0):
            assert lambda_phi(phi, s) <= 2.0 / phi.phi_inv(1.0 / s) * (1 + 1e-9)


def test_nfunction_json_roundtrip():
    phi = NFunction.power(2.5)
    back = NFunction.from_json_dict(phi.to_json_dict())
    assert back.phi(3.3) == pytest.approx(phi.phi(3.3), rel=1e-12)
    _, dens = _sample_density_functions()
    back = NFunction.from_json_dict(dens.to_json_dict())
    assert back.phi(3.3) == pytest.approx(dens.phi(3.3), rel=1e-12)


def test_density_validation():
    with pytest.raises(ParameterError):
        NFunction.from_density([1.0, 2.0], [2.0, 1.0])
    with pytest.raises(ParameterError):
        NFunction.from_density([1.0, -2.0], [1.0, 2.0])
    with pytest.raises(ParameterError):
        NFunction.from_density([1.0, 2.0], [-1.0, 2.0])


def test_constants_pins():
    k = davis_constant()
    assert 1.3468 <= k <= 1.3470
    assert k == pytest.approx((math.pi ** 2 / 8.0) / CATALAN, rel=1e-12)
    k0 = k0_constant()
    assert k0 < 1.25
    assert 1.246 <= k0 <= 1.249
    assert k0 == pytest.approx(1.247173351473221, abs=1e-12)


def test_k0_against_sine_integral_series():
    """Si(pi) by its alternating series, an independent route to K0."""
    si = 0.0
    for k in range(0, 30):
        si += (-1) ** k * math.pi ** (2 * k + 1) / ((2 * k + 1)
                                                    * math.factorial(2 * k + 1))
    assert k0_constant() == pytest.approx(davis_constant() / 2.0 * si, rel=1e-11)


def test_gauge_integrals():
    si_pi = 1.851937051982466
    assert gauge_integral(g_one_minus_cos(math.pi)) == pytest.approx(
        si_pi, rel=1e-11)
    assert gauge_integral(g_clipped_square(1.0)) == pytest.approx(2.0, rel=1e-11)


def test_gspec_validation():
    with pytest.raises(ParameterError):
        GSpec(g=lambda x: x - 1.0, gprime=lambda x: 1.0, a=1.0)  # G(0) != 0
    with pytest.raises(ParameterError):
        GSpec(g=lambda x: -x, gprime=lambda x: -1.0, a=1.0)  # decreasing
    with pytest.raises(ParameterError):
        GSpec(g=lambda x: x, gprime=lambda x: 1.0, a=0.0)


def test_lemma_g_report(rng):
    n = 1024
    th = grid_theta(n)
    for gs in (g_one_minus_cos(math.pi), g_clipped_square(1.0)):
        for _ in range(5):
            w = np.zeros(n)
            for k in range(1, 9):
                w += rng.uniform(-1, 1) * np.cos(k * th)
                w += rng.uniform(-1, 1) * np.sin(k * th)
            rep = lemma_G_report(gs, GridFunction(n, w))
            assert rep.passed, rep


def test_weak11_ratio(rng):
    n = 4096
    th = grid_theta(n)
    k = davis_constant()
    psi = GridFunction(n, np.cos(th))
    r = weak11_ratio(psi)
    assert r == pytest.approx(0.5616, abs=2e-3)
    assert r <= k
    for _ in range(10):
        w = np.zeros(n)
        for j in range(1, 17):
            w += rng.uniform(-1, 1) * np.cos(j * th)
            w += rng.uniform(-1, 1) * np.sin(j * th)
        assert weak11_ratio(GridFunction(n, w)) <= k * 1.05
    # explicit threshold grid agrees with the default scan at its points
    lam = [0.25, 0.5, 1.0]
    assert weak11_ratio(psi, lambdas=lam) <= weak11_ratio(psi) + 1e-12
    with pytest.raises(ParameterError):
        weak11_ratio(GridFunction(n, np.zeros(n)))
    with pytest.raises(ParameterError):
        weak11_ratio(psi, lambdas=[0.0, 1.0])


def test_holder_pairing(rng):
    n = 512
    th = grid_theta(n)
    for q in (1.5, 2.0, 3.0):
        phi = NFunction.power(q)
        for _ in range(5):
            f = GridFunction(n, np.exp(rng.uniform(-1, 1) * np.cos(th)))
            g = GridFunction(n, np.exp(rng.uniform(-1, 1) * np.sin(2 * th)))
            rep = holder_check(f, g, phi)
            assert rep.passed, rep
