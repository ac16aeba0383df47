"""N-functions, the two Orlicz norms, the Lambda modulus, and the constants."""

import bisect
import math

import mpmath
import numpy as np
import pytest

from specfact import (
    GridFunction,
    NFunction,
    NumericalConditioningError,
    ParameterError,
    davis_constant,
    grid_theta,
    k0_constant,
    lambda_phi,
    lemma_G_report,
    lp_norm,
    luxemburg_norm,
    orlicz_norm,
    random_density,
)
from specfact import orlicz
from specfact.orlicz import _BIG, _CATALAN, _SI_PI, GAUGES, _root_step

from oracles import holder_holds, phi_inv, weak11_ratio

CATALAN = 0.915965594177219


def _sample_density_functions():
    phi2 = NFunction.power(2.0)
    t = np.geomspace(1e-6, 1e6, 241)
    dens = NFunction.from_density(t, t)  # the power-2 density, exactly
    return phi2, dens


def test_power_phi_values():
    phi = NFunction.power(3.0)
    assert phi.phi(2.0) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert phi.phi(0.0) == 0.0
    assert phi.density(2.0) == pytest.approx(4.0, rel=1e-14)
    assert phi.rho(2.0) == pytest.approx(8.0, rel=1e-14)
    with pytest.raises(ParameterError):
        NFunction.power(1.0)
    with pytest.raises(ParameterError):
        NFunction.power(0.5)
    with pytest.raises(ParameterError, match="finite q > 1, got inf"):
        NFunction.power(math.inf)


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


def test_density_extends_by_its_end_power_laws():
    """Sampled only on [0.1, 10], the density is, outside its samples, the
    power law through its first or last segment, and Phi is its integral
    in closed form; the complement extends by the inverse power laws."""
    t = np.geomspace(0.1, 10.0, 9)
    u = np.log1p(t)
    phi = NFunction.from_density(t, u)
    a_lo = math.log(u[1] / u[0]) / math.log(t[1] / t[0])
    a_hi = math.log(u[-1] / u[-2]) / math.log(t[-1] / t[-2])
    head = u[0] * t[0] / (a_lo + 1.0)
    phi_top = head + float(np.sum(0.5 * (u[1:] + u[:-1]) * np.diff(t)))
    for x in (1e-6, 1e-3, 0.05):
        assert phi.density(x) == pytest.approx(
            u[0] * (x / t[0]) ** a_lo, rel=1e-14)
        assert phi.phi(x) == pytest.approx(
            head * (x / t[0]) ** (a_lo + 1.0), rel=1e-14)
    for x in (20.0, 1e3, 1e6):
        assert phi.density(x) == pytest.approx(
            u[-1] * (x / t[-1]) ** a_hi, rel=1e-14)
        assert phi.phi(x) == pytest.approx(
            phi_top + u[-1] * t[-1] / (a_hi + 1.0)
            * ((x / t[-1]) ** (a_hi + 1.0) - 1.0), rel=1e-14)
    psi = phi.complement()
    assert psi.alpha_lo == pytest.approx(1.0 / a_lo, rel=1e-14)
    assert psi.alpha_hi == pytest.approx(1.0 / a_hi, rel=1e-14)


def test_young_equality_across_ends_and_a_flat_segment():
    """Phi(x) + Psi(u(x)) = x u(x) to 1e-14 relative, for x below the first
    sample, on every segment (u is flat between t = 2 and 3, where the
    complement's inverse jumps over a ramp one ulp wide) and above the
    last sample."""
    t = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 8.0])
    u = np.array([0.25, 1.0, 2.0, 2.0, 3.0, 9.0])
    phi = NFunction.from_density(t, u)
    psi = phi.complement()
    assert np.nextafter(2.0, np.inf) in psi.t_nodes
    xs = np.concatenate([np.geomspace(1e-3, 0.5, 7),
                         np.linspace(0.5, 8.0, 31),
                         np.geomspace(8.0, 1e3, 7)])
    ux = phi.density(xs)
    assert np.all(ux[(xs > 2.0) & (xs < 3.0)] == 2.0)
    gap = phi.phi(xs) + psi.phi(ux) - xs * ux
    assert np.max(np.abs(gap) / (xs * ux)) <= 1e-14


def test_power_complement_of_a_huge_q_names_both_exponents():
    """For q = 1e17 the complement's exponent q/(q-1) rounds to 1: the
    refusal names q and the rounded exponent, and Phi itself is usable."""
    phi = NFunction.power(1e17)
    assert lambda_phi(phi, 2.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ParameterError,
                       match=r"q = 1e\+17 .* rounds to 1\.0, which is not > 1"):
        phi.complement()


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


#: one root-step tolerance below a solver's result, in the log variable z
#: the solvers work in: their 1e-10 plus 4 eps |z|, with |z| <= 700
_OTHER_SIDE = math.exp(-(1e-10 + 4.0 * np.finfo(float).eps * 700.0))


def test_density_solvers_are_feasible_and_tight():
    """On the L log L Phi and its complement, each density-kind Luxemburg
    norm kappa satisfies int Phi(|f|/kappa) <= 1 and each lambda_phi value t
    satisfies rho(1/t) <= 1/s (the feasible side), while one tolerance
    below the result the inequality fails, so the threshold lies within
    the solvers' 1e-10 (in the log variable) of it.  f is scaled by 1e-200
    and 1e200 and s spans 1e-300 to 1e300, to reach both ends of the
    searched range."""
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


def test_root_step_brackets_the_crossing():
    """On seeded nondecreasing functions every root step returns a point z
    where g >= 0 with the crossing at most xtol + 4 eps |z| below it:
    smooth and odd-power roots (flat at the crossing), values clipped at
    +-_BIG, a root at the bracket end and step functions.  A smooth root
    takes at most 16 steps; a step across +-1e300 needs about 1040
    bisections and is refused after 100 steps, and a nan of g is refused."""
    rng = np.random.default_rng(7)

    def clipped(y):
        return min(max(y, -_BIG), _BIG)

    def logged(g, points):
        def at(x):
            points.append(x)
            return g(x)
        return at

    cases = []
    for _ in range(40):
        c, s = rng.uniform(-5.0, 5.0), rng.uniform(0.1, 10.0)
        a, b = c - rng.uniform(0.01, 20.0), c + rng.uniform(0.01, 20.0)
        p = 2 * int(rng.integers(1, 4)) + 1
        cases += [
            (lambda x, c=c, s=s: math.tanh(s * (x - c)), a, b, 16),
            (lambda x, c=c, s=s, p=p: s * (x - c) ** p, a, b, 100),
            (lambda x, c=c, s=s: clipped(math.copysign(1e300 * s, x - c)
                                         * abs(x - c) ** 0.3 * 10.0), a, b,
             100),
            (lambda x, c=c: -1.0 if x < c else 1.0, a, b, 100),
        ]
    cases += [(lambda x: x - 1.0, 0.0, 1.0, 100),
              (lambda x: x, -1.0, 0.0, 100),
              (lambda x: clipped(math.exp(min(x, 709.0)) * 1e10) - 1.0,
               -700.0, 700.0, 100)]
    for g, a, b, max_steps in cases:
        for xtol in (1e-8, 1e-10, 2e-12):
            for ends in (((a, g(a)), (b, g(b))), ((b, g(b)), (a, g(a)))):
                points = []
                z = _root_step(logged(g, points), *ends, xtol)
                tol = xtol + 4.0 * np.finfo(float).eps * abs(z)
                assert g(z) >= 0.0 > g(z - tol), (a, b, xtol, z)
                assert len(points) <= max_steps, (a, b, xtol, len(points))
    points = []
    step = logged(lambda x: -1.0 if x < 0.3 else 1.0, points)
    with pytest.raises(NumericalConditioningError, match="100 steps"):
        _root_step(step, (-1e300, -1.0), (1e300, 1.0), 1e-12)
    assert len(points) == 100
    # _log_root refuses a nan of g, in its bracket search and in the step
    for nan_from, nan_to in ((0.5, math.inf), (0.3, 0.7)):
        def g(z):
            return -1.0 if z < nan_from else math.nan if z < nan_to else 1.0
        with pytest.raises(NumericalConditioningError, match="is nan"):
            orlicz._log_root(g, 0.0, 1e-10, "no bracket")


class _StubPhi(NFunction):
    """A density-kind stand-in that is not an N-function; it counts the
    evaluations of phi, and of the Young integral, one per solver step.

    linear, Phi(x) = |x|: nodes with u = 1 and end exponents 0, so
    x Phi'(x) - Phi(x) = 0, the Young integral Y(k) = -1 for every k and
    the Amemiya objective (1 + k ||f||_1)/k has no minimizer.  constant,
    Phi(x) = 1: int Phi(|f|/kappa) = 2 pi for every kappa, so the
    Luxemburg equation has no root.
    """

    def __init__(self, linear: bool):
        if linear:
            t = np.geomspace(1e-12, 1e12, 49)
            super().__init__("density", t_nodes=t, u_nodes=np.ones_like(t))
            assert (self.alpha_lo, self.alpha_hi) == (0.0, 0.0)
        else:
            self.kind = "density"
        self.linear = linear
        self.evaluations = 0

    def phi(self, x):
        self.evaluations += 1
        ax = np.abs(np.asarray(x, dtype=float))
        return ax if self.linear else np.ones_like(ax)

    def _sorted_phi(self, x):
        # the Luxemburg step's sorted pass, counted as phi
        return self.phi(x)

    def density(self, x):
        return np.full_like(np.asarray(x, dtype=float), float(self.linear))

    def __repr__(self):
        return f"_StubPhi(linear={self.linear})"


def test_amemiya_bracket_search_is_bounded(monkeypatch):
    """Without a root, the Amemiya and Luxemburg solvers refuse after
    widening to the end of the searched range, about a dozen evaluations
    each."""
    young_integral = orlicz._young_integral

    def counted(phi, w):
        integral = young_integral(phi, w)

        def step(z):
            phi.evaluations += 1
            return integral(z)
        return step

    monkeypatch.setattr(orlicz, "_young_integral", counted)
    n = 64
    f = GridFunction(n, np.exp(np.cos(grid_theta(n))))
    for linear, solve in ((True, lambda phi: orlicz_norm(f, phi)),
                          (False, lambda phi: luxemburg_norm(f, phi))):
        phi = _StubPhi(linear)
        with pytest.raises(NumericalConditioningError):
            solve(phi)
        assert 0 < phi.evaluations <= 20, (phi, phi.evaluations)


def _young_by_samples(phi, w, z):
    """sum_j [x_j Phi'(x_j) - Phi(x_j)] at x = e^z w, one sample at a time:
    +inf where a sample's Phi or x Phi' leaves the double range."""
    x = math.exp(z) * w
    with np.errstate(over="ignore", invalid="ignore"):
        p = phi.phi(x)
        terms = x * phi.density(x) - p
        terms[np.isinf(p)] = np.inf
        return float(np.sum(terms))


def _orlicz_norm_by_samples(f, phi):
    """orlicz_norm's solve with the Young integral summed sample by sample."""
    v = np.abs(f.values)
    peak = float(v.max())
    h = 2.0 * np.pi / f.n
    w = np.sort(v) / peak
    z = orlicz._log_root(lambda z: _young_by_samples(phi, w, z) * h - 1.0,
                         -math.log(float(np.mean(w))), 1e-8, "no root")
    k = math.exp(z) / peak
    return (1.0 + orlicz._modal_integral(phi.phi(k * v), h)) / k


def _young_phis():
    """The L log L Phi, its complement, the density copies of tau^2/2 and
    tau^3/3, L log L scaled by 1e-200 and sampled from t = 1e-100 (its
    terms are finite on all doubles, its e^z / t_0 overflows past
    z = 480), the
    complement of u through (1, 1), (2, 2), (8, 8), (3e293, 8) and
    (6e293, 9), whose flat segment becomes a ramp one ulp wide with an
    inf slope, and the complement of u through (1, 1e-300), (2, 1e-299)
    and (3, 1), whose nodes 1e-300 and 1e-299 have squares below the
    double range."""
    phi = _llogl_phi()
    t = np.geomspace(1e-100, 1e6, 107)
    return (phi, phi.complement(), _power_density_copy(2.0),
            _power_density_copy(3.0),
            NFunction.from_density(t, 1e-200 * np.log1p(t)),
            NFunction.from_density([1.0, 2.0, 8.0, 3e293, 6e293],
                                   [1.0, 2.0, 8.0, 8.0, 9.0]).complement(),
            NFunction.from_density([1.0, 2.0, 3.0],
                                   [1e-300, 1e-299, 1.0]).complement())


def _phi_by_masks(phi, x):
    """Phi of a density as the mask form computed it: each piece indexed
    by its own mask, the node search on the middle piece alone, and 0.0
    where no mask holds (nan).  The end pieces take the power laws'
    evaluator, which test_end_power_laws_match_mpmath checks."""
    ax = np.abs(np.asarray(x, dtype=float))
    t, u, cum = phi.t_nodes, phi.u_nodes, phi._cum
    p_lo, p_hi = phi.alpha_lo + 1.0, phi.alpha_hi + 1.0
    out = np.zeros_like(ax)
    lo = (ax > 0) & (ax <= t[0])
    mid = (ax > t[0]) & (ax <= t[-1])
    hi = ax > t[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        out[lo] = orlicz._end_power(u[0] * t[0] / p_lo, ax[lo], t[0], p_lo)
        if np.any(mid):
            i = np.searchsorted(t, ax[mid], side="right") - 1
            i = np.clip(i, 0, len(t) - 2)
            frac = (ax[mid] - t[i]) / (t[i + 1] - t[i])
            ux = u[i] + (u[i + 1] - u[i]) * frac
            out[mid] = cum[i] + 0.5 * (ax[mid] - t[i]) * (u[i] + ux)
        if np.any(hi):
            out[hi] = cum[-1] + orlicz._end_power(
                u[-1] * t[-1] / p_hi, ax[hi], t[-1], p_hi, minus_one=True)
    return out


def test_density_phi_matches_the_mask_form_bit_for_bit(rng):
    """One sort, the sorted pass and the scatter back give the mask form's
    floats on every Phi of _young_phis: at 0, +-inf, the exact nodes,
    their neighbours, both end pieces and random finite values of both
    signs, for arrays of any shape and for scalars.  nan is refused."""
    for phi in _young_phis():
        t = phi.t_nodes
        x = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7e308], t, -t,
            np.nextafter(t, 0.0), np.nextafter(t, np.inf),
            t[0] * np.geomspace(1e-30, 1.0, 50),
            t[-1] * np.geomspace(1.0, 1e30, 50),
            np.exp(rng.uniform(math.log(t[0]), math.log(t[-1]), 500))
            * rng.choice([-1.0, 1.0], 500)])
        want = _phi_by_masks(phi, x)
        assert phi.phi(x).tobytes() == want.tobytes(), phi
        assert phi.phi(x.reshape(2, -1)).tobytes() == want.tobytes(), phi
        for xi, wi in zip(x[:40].tolist(), want[:40].tolist()):
            got = phi.phi(xi)
            assert type(got) is float and (got, math.copysign(1, got)) == (
                wi, math.copysign(1, wi)), (phi, xi)
        for bad in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ParameterError, match="nan"):
                phi.phi(bad)


def test_sorted_phi_matches_the_mask_form_bit_for_bit(rng):
    """The sorted pass, called on sorted samples as the Amemiya objective
    calls it, gives the mask form's floats for every Phi of _young_phis
    and for u = 1e290 t on [1e-30, 1e6] (the CI job's Phi) and its
    complement: at zeros, 5e-324, the nodes, their neighbours, both end
    pieces and random values, and on runs that hold one piece only, or
    nothing."""
    t = np.geomspace(1e-30, 1e6, 97)
    scaled = NFunction.from_density(t, 1e290 * t)
    for phi in (*_young_phis(), scaled, scaled.complement()):
        t = phi.t_nodes
        with np.errstate(over="ignore"):
            x = np.concatenate([
                [0.0, 0.0, 5e-324, 1.7e308], t, np.nextafter(t, 0.0),
                np.nextafter(t, np.inf), t[0] * np.geomspace(1e-30, 1.0, 50),
                t[-1] * np.geomspace(1.0, 1e30, 50),
                np.exp(rng.uniform(math.log(t[0]), math.log(t[-1]), 500))])
        x = np.sort(x[np.isfinite(x)])
        assert x[0] == 0.0 and x[-1] > t[-1] and np.any(x == t[0]), phi
        for part in (x, x[x <= t[0]], x[(x > t[0]) & (x <= t[-1])],
                     x[x > t[-1]], x[:0]):
            assert (phi._sorted_phi(part).tobytes()
                    == _phi_by_masks(phi, part).tobytes()), phi


def _end_piece_exact(phi, x, top):
    """Phi(x) on an end piece at 50 digits, for the doubles that define
    it: nodes, cumulative integral and exponent alpha + 1 as phi holds
    them."""
    with mpmath.workdps(50):
        i = -1 if top else 0
        t, u = mpmath.mpf(phi.t_nodes[i]), mpmath.mpf(phi.u_nodes[i])
        p = mpmath.mpf((phi.alpha_hi if top else phi.alpha_lo) + 1.0)
        power = u * t / p * (mpmath.mpf(x) / t) ** p
        return +(mpmath.mpf(phi._cum[-1]) + power - u * t / p if top
                 else power)


def test_end_power_laws_match_mpmath():
    """Both end pieces of Phi are within 4 ulps of their exact value where
    that is a normal double, within one subnormal ulp below that, and inf
    only above the largest double, for every Phi of _young_phis and for
    u = 1e290 t on [1e-30, 1e6] and its complement: at 5e-324, the end
    nodes, their outer neighbours, points spread over each piece up to the
    ends of the double range and, above the top node, just past it.  The
    bottom piece of u = 1e290 t read 0 at x = 1e-295 and 1e-300 when it
    took its power first; it is 5e-301 and 5e-311 there."""
    t = np.geomspace(1e-30, 1e6, 97)
    scaled = NFunction.from_density(t, 1e290 * t)
    assert scaled.phi(1e-295) == pytest.approx(5e-301, rel=1e-15)
    assert scaled.phi(1e-300) == pytest.approx(5e-311, rel=1e-5)
    for phi in (*_young_phis(), scaled, scaled.complement()):
        t0, t1 = phi.t_nodes[0], phi.t_nodes[-1]
        below = np.concatenate([[5e-324, 1e-300, 1e-295, t0,
                                 np.nextafter(t0, 0.0)],
                                np.geomspace(5e-324, t0, 200)])
        above = np.concatenate([[np.nextafter(t1, np.inf)],
                                t1 * (1.0 + np.geomspace(1e-15, 1.0, 60)),
                                np.geomspace(t1, 1.7e308, 200)[1:]])
        for x, top in [(x, False) for x in below[below <= t0]] + [
                (x, True) for x in above[above > t1]]:
            got, want = phi.phi(x), _end_piece_exact(phi, x, top)
            assert _near_exact(got, want), (phi, x, got, want)


def _near_exact(got, want):
    """Whether the double got is within 4 ulps of the exact value want
    where that is a normal double, within one subnormal ulp below that,
    and inf only above the largest double."""
    if want > np.finfo(float).max:
        return got == math.inf
    if want >= np.finfo(float).tiny:
        return abs(got - want) <= 4 * 2.0 ** -52 * want
    return abs(got - want) <= 5e-324


def _density_end_phis():
    """_young_phis, u = 1e290 t^2 and u = 1e-200 t^3 on 67 nodes over
    [1e-30, 1e3]: the density's end pieces of the last two leave the
    double range early when they take the power first."""
    t = np.geomspace(1e-30, 1e3, 67)
    return (*_young_phis(), NFunction.from_density(t, 1e290 * t * t),
            NFunction.from_density(t, 1e-200 * t ** 3))


@pytest.mark.parametrize("which", range(len(_density_end_phis())))
def test_density_end_power_laws_match_mpmath(which):
    """Both end pieces of the density u = Phi' are within 4 ulps of their
    exact value u_end (x / t_end)^alpha for the doubles Phi holds where
    that is a normal double, within one subnormal ulp below that, and inf
    only above the largest double, for every Phi of _density_end_phis: at
    0, 5e-324, the end nodes' outer neighbours and points spread over each
    piece up to the ends of the double range.  Taking the power first, u
    of 1e290 t^2 read 0 at 1e-200 (against 1e-110) and u of 1e-200 t^3 read
    inf at 1e120 (against 1e160)."""
    phi = _density_end_phis()[which]
    t0, t1 = phi.t_nodes[0], phi.t_nodes[-1]
    below = np.concatenate([[0.0, 5e-324, 1e-300, 1e-200,
                             np.nextafter(t0, 0.0)],
                            np.geomspace(5e-324, t0, 300)])
    above = np.concatenate([[np.nextafter(t1, np.inf), 1e120],
                            t1 * (1.0 + np.geomspace(1e-15, 1.0, 60)),
                            np.geomspace(t1, 1.7e308, 300)[1:]])
    for x, i in [(x, 0) for x in below[below < t0]] + [
            (x, -1) for x in above[above > t1]]:
        with mpmath.workdps(50):
            alpha = mpmath.mpf(phi.alpha_hi if i else phi.alpha_lo)
            want = +(mpmath.mpf(phi.u_nodes[i])
                     * (mpmath.mpf(x) / mpmath.mpf(phi.t_nodes[i])) ** alpha)
        got = phi.density(x)
        assert _near_exact(got, want), (phi, x, got, want)


@pytest.mark.parametrize("which", range(len(_young_phis())))
def test_segments_match_mpmath(which):
    """Between the nodes, Phi and its density u are within 4 ulps of their
    exact value for the doubles Phi holds (a segment's end nodes and cum_i,
    Phi at its left node) where that is a normal double, and within one
    subnormal ulp below that, for each Phi of _young_phis: at the nodes,
    their neighbours and 400 log-spaced points."""
    phi = _young_phis()[which]
    t, u, cum = phi.t_nodes, phi.u_nodes, phi._cum
    x = np.concatenate([t, np.nextafter(t, 0.0), np.nextafter(t, np.inf),
                        np.geomspace(t[0], t[-1], 400)])
    x = x[(x >= t[0]) & (x <= t[-1])]
    # the segment t_i <= x < t_(i+1) of each sample, t[-1] in the last one
    seg = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
    for xj, i, got_phi, got_u in zip(x.tolist(), seg.tolist(),
                                     phi.phi(x).tolist(),
                                     phi.density(x).tolist()):
        with mpmath.workdps(50):
            ti, ui = mpmath.mpf(t[i]), mpmath.mpf(u[i])
            d = mpmath.mpf(xj) - ti
            ux = ui + (mpmath.mpf(u[i + 1]) - ui) * d / (mpmath.mpf(t[i + 1])
                                                          - ti)
            want_phi = +(mpmath.mpf(cum[i]) + d * (ui + ux) / 2)
            want_u = +ux
        assert _near_exact(got_phi, want_phi), (phi, xj, got_phi, want_phi)
        assert _near_exact(got_u, want_u), (phi, xj, got_u, want_u)


def _overflow_z(phi):
    """The z, to 1e-9, from which e^z Phi'(e^z) or Phi(e^z) is inf."""
    def over(z):
        x = math.exp(z)
        with np.errstate(over="ignore", invalid="ignore"):
            return math.isinf(phi.phi(x)) or math.isinf(x * phi.density(x))

    lo, hi = -700.0, 700.0
    assert over(hi) and not over(lo)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if over(mid) else (mid, hi)
    return hi


def test_young_moment_sum_matches_sample_sum():
    """The Young integral from moments of the sorted samples agrees with
    the sample-by-sample sum to 1e-12 relative wherever both are finite
    and normal, and is +inf exactly where that sum is: for each of
    _young_phis but the last (see the next test), f scaled by 1e-200, 1
    and 1e200 (and, for the second seed, zero on every 32nd sample), and
    z across [-700, 700].  Just past the z where the top sample's
    x Phi'(x) overflows, the integrand itself is still finite, but the
    sample sum is inf, and so must the moment sum be.  A second moment
    sum of the same samples takes the z in shuffled order, so that the
    end pieces' sums it keeps are first summed at other steps, and gives
    the same floats.
    """
    tiny = np.finfo(float).tiny
    rng = np.random.default_rng(11)
    for fn in _young_phis()[:-1]:
        zs = np.linspace(-700.0, 700.0, 281)
        # the scaled L log L Phi is finite on all doubles, 1.4e133 at the
        # largest: it has no overflow z to probe
        if math.isinf(fn.phi(math.exp(700.0))):
            zs = np.concatenate([zs, _overflow_z(fn) + np.array(
                [-1e-3, 0.0, 1e-6, 1e-3, 0.1, 0.3, 1.0, 2.0])])
        for seed in range(2):
            base = random_density(np.random.default_rng([seed, 2]), n=256)
            for scale in (1e-200, 1.0, 1e200):
                v = np.abs(base.values * scale)
                if seed:
                    v[::32] = 0.0
                w = np.sort(v) / v.max()
                young = orlicz._young_integral(fn, w)
                sums = [young(z) for z in zs]
                for z, got in zip(zs, sums):
                    want = _young_by_samples(fn, w, z)
                    if math.isinf(got) or math.isinf(want):
                        assert got == want, (fn, scale, z, got, want)
                        continue
                    assert math.isfinite(got), (fn, scale, z, got, want)
                    if abs(want) >= tiny:
                        assert abs(got - want) <= 1e-12 * abs(want), (
                            fn, scale, z, got, want)
                shuffled = orlicz._young_integral(fn, w)
                for j in rng.permutation(len(zs)):
                    assert shuffled(zs[j]) == sums[j], (fn, scale, zs[j])


def _young_exact(phi, w, z):
    """sum_j [x_j Phi'(x_j) - Phi(x_j)] at x = e^z w in 200-digit
    arithmetic, for the Phi that the nodes, end exponents and cumulative
    integrals of phi represent."""
    with mpmath.workdps(200):
        t = [mpmath.mpf(float(a)) for a in phi.t_nodes]
        u = [mpmath.mpf(float(a)) for a in phi.u_nodes]
        cum = [mpmath.mpf(float(a)) for a in phi._cum]
        a_lo, a_hi = mpmath.mpf(phi.alpha_lo), mpmath.mpf(phi.alpha_hi)
        total = mpmath.mpf(0)
        for wj in w[w > 0].tolist():
            x = mpmath.exp(z) * wj
            if x <= t[0]:
                ux = u[0] * (x / t[0]) ** a_lo
                px = u[0] * t[0] / (a_lo + 1) * (x / t[0]) ** (a_lo + 1)
            elif x > t[-1]:
                ux = u[-1] * (x / t[-1]) ** a_hi
                px = cum[-1] + u[-1] * t[-1] / (a_hi + 1) * (
                    (x / t[-1]) ** (a_hi + 1) - 1)
            else:
                i = min(bisect.bisect_right(t, x), len(t) - 1) - 1
                ux = u[i] + (u[i + 1] - u[i]) * (x - t[i]) / (t[i + 1] - t[i])
                px = cum[i] + (x - t[i]) * (u[i] + ux) / 2
            total += x * ux - px
        return total


def test_young_moment_sum_of_nodes_below_1e154():
    """For the last of _young_phis, whose nodes 1e-300 and 1e-299 have
    squares below the double range, the moment sum is within 1e-12
    relative of the exact sum across z in [-700, 700].  The sample sum is
    no reference here: in the interval [1e-299, 1) x Phi'(x) and Phi(x)
    agree to up to 150 digits, and their difference, g, carries the
    rounding of both (it is 100% off near z = -600)."""
    fn = _young_phis()[-1]
    base = random_density(np.random.default_rng([0, 2]), n=256)
    v = np.abs(base.values)
    w = np.sort(v) / v.max()
    young = orlicz._young_integral(fn, w)
    for z in np.linspace(-700.0, 700.0, 29):
        want = _young_exact(fn, w, z)
        assert abs(young(z) - want) <= 1e-12 * want, (z, young(z), want)


def test_orlicz_norm_matches_sample_sum_solve():
    """orlicz_norm is within 1e-14 relative of the same solve driven by the
    sample-by-sample Young integral, for each of _young_phis but the
    1e-200-scaled one, whose k = e^z / peak that solve cannot form."""
    fns = _young_phis()
    for fn in fns[:4] + fns[5:]:
        for seed in range(3):
            base = random_density(np.random.default_rng([seed, 3]), n=512)
            for scale in (1e-200, 1.0, 1e200):
                f = GridFunction(base.n, base.values * scale)
                want = _orlicz_norm_by_samples(f, fn)
                assert abs(orlicz_norm(f, fn) - want) <= 1e-14 * want, (
                    fn, seed, scale)


def test_orlicz_norm_is_homogeneous_where_k_overflows():
    """For the fifth of _young_phis the minimizer has e^z near 1e183, so
    k = e^z / peak would overflow once the peak of f is below about
    1e-125; the objective is summed in the normalized samples.  ||c f|| = c ||f||
    holds to 1e-8 there (the norm is subnormal below c = 1e-125), and at
    c = 1e-200, where the norm underflows, both sides are 0, not nan."""
    phi = _young_phis()[4]
    f = random_density(np.random.default_rng([0, 2]), n=256)
    norm = orlicz_norm(f, phi)
    for c in (1e-125, 1e-128, 1e-200):
        got = orlicz_norm(GridFunction(f.n, c * f.values), phi)
        assert got == pytest.approx(c * norm, rel=1e-8, abs=0.0), c

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


def test_lambda_density_at_tiny_and_subnormal_s():
    """Down to the smallest subnormal s, whose 1/s overflows, the density
    copy of tau^2/2 matches power(2)'s closed form s^(1/2)."""
    dens = _power_density_copy(2.0)
    for s in (1e-300, 1e-308, 1e-310, 5e-324):
        want = lambda_phi(NFunction.power(2.0), s)
        assert want == pytest.approx(s ** 0.5, rel=1e-15)
        assert lambda_phi(dens, s) == pytest.approx(want, rel=1e-9)


def _lambda_residual(fn, s, lam):
    """rho(1/lam) s - 1, formed as u(tau) (tau s), which stays in range
    where 1/s and rho(tau) overflow."""
    tau = 1.0 / lam
    return float(fn.density(tau)) * (tau * s) - 1.0


def test_lambda_density_closed_form_is_feasible_and_tight():
    """lambda_phi's closed form lands on the feasible side,
    rho(1/Lambda) <= 1/s, with |rho(1/Lambda) s - 1| <= 1e-12: on the
    L log L Phi, its complement and the power copies for s from 5e-324 to
    1e300, and at 1/s on every node value of rho.

    A complement whose Phi has flat density segments has one-ulp ramps,
    where rho jumps between the two nodes of a ramp.  At each ramp end,
    with 1/s at or just above the node value of rho, Lambda is feasible
    and either tight or the best double there is: one ulp less is not
    feasible.  (A ramp's upper node is sometimes no 1/Lambda of a double
    Lambda: 1/x skips doubles where the mantissa of x is above sqrt 2.)"""
    llogl = _llogl_phi()
    smooth = [llogl, llogl.complement(), _power_density_copy(2.0),
              _power_density_copy(3.0)]
    s_grid = [5e-324, 1e-320, 1e-310, *np.geomspace(1e-300, 1e300, 241)]
    for fn in smooth:
        node_s = [1.0 / float(fn.rho(t)) for t in fn.t_nodes[:: 1 + len(
            fn.t_nodes) // 400]]
        for s in [*s_grid, *node_s]:
            s = float(s)
            lam = lambda_phi(fn, s)
            assert fn.rho(1.0 / lam) <= 1.0 / s, (fn, s, lam)
            assert abs(_lambda_residual(fn, s, lam)) <= 1e-12, (fn, s, lam)
    t = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0])
    u = np.array([1.0, 1.9, 1.9, 3.7, 3.7, 3.7, 6.1, 7.5])
    ramps = NFunction.from_density(t, u).complement()
    assert np.sum(np.diff(ramps.t_nodes) <= 4e-16 * ramps.t_nodes[1:]) == 3
    for tau in ramps.t_nodes:
        s = 1.0 / float(ramps.rho(tau))
        while 1.0 / s < ramps.rho(tau):
            s = math.nextafter(s, 0.0)
        lam = lambda_phi(ramps, s)
        assert ramps.rho(1.0 / lam) <= 1.0 / s, (tau, s, lam)
        if abs(_lambda_residual(ramps, s, lam)) > 1e-12:
            closer = math.nextafter(lam, 0.0)
            assert ramps.rho(1.0 / closer) > 1.0 / s, (tau, s, lam)


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
            bound = 2.0 / phi_inv(phi, 1.0 / s)
            assert lambda_phi(phi, s) <= bound * (1 + 1e-9)


def test_nfunction_json_roundtrip():
    phi = NFunction.power(2.5)
    back = NFunction.from_json_dict({"kind": "power", "q": 2.5})
    assert back.phi(3.3) == pytest.approx(phi.phi(3.3), rel=1e-12)
    _, dens = _sample_density_functions()
    t = np.geomspace(1e-6, 1e6, 241)
    back = NFunction.from_json_dict(
        {"kind": "density", "u_grid": np.column_stack([t, t]).tolist()})
    assert back.phi(3.3) == pytest.approx(dens.phi(3.3), rel=1e-12)


@pytest.mark.parametrize("obj, key", [
    ({"kind": "power", "q": 3, "u_grid": [[1, 1]]}, "u_grid"),
    ({"kind": "density", "u_grid": [[1, 1], [2, 2], [4, 4]], "q": 3}, "q"),
    ({"kind": "power", "q": 3, "label": "cubic"}, "label"),
])
def test_nfunction_json_refuses_keys_its_kind_does_not_read(obj, key):
    """A power N-function with a u_grid (or a density one with a q) would
    run as one of the two; it is refused, naming the key."""
    with pytest.raises(ParameterError, match=f"does not read the key '{key}'"):
        NFunction.from_json_dict(obj)


def test_density_validation():
    with pytest.raises(ParameterError):
        NFunction.from_density([1.0, 2.0], [2.0, 1.0])
    with pytest.raises(ParameterError):
        NFunction.from_density([1.0, -2.0], [1.0, 2.0])
    with pytest.raises(ParameterError):
        NFunction.from_density([1.0, 2.0], [-1.0, 2.0])
    with pytest.raises(ParameterError, match=r"\[inf, 3.0\] is not finite"):
        NFunction.from_density([1.0, 2.0, math.inf], [1.0, 2.0, 3.0])
    # u climbs by 1e54 over the last segment while t climbs by 8e373: the
    # ratio of t overflows, and the last exponent is log(1e54) / inf = 0
    with pytest.raises(ParameterError, match="unusable power-law exponents"):
        NFunction.from_density(
            [3.4382991388337074e-281, 1.3392219886108555e-278,
             6.551632205429027e-277, 9.8448972316658e-203,
             8.189835743447366e+171],
            [1.0492257293e-312, 2.736162280370246e-277,
             6.490331086261677e+131, 7.129333895321158e+225,
             7.304156480138361e+279])
    # Phi = int u overflows near t = 2e9, inside the node range
    t = np.geomspace(1e-30, 1e12, 97)
    with pytest.raises(ParameterError, match="overflows inside the node"):
        NFunction.from_density(t, 1e290 * t)
    # Phi stays below 1.2e308 up to t = 1e12, but its complement, near
    # 3 t u / 4 there, does not
    t = np.geomspace(1.0, 1e12, 50)
    with pytest.raises(ParameterError, match="overflows inside the node"):
        NFunction.from_density(t, 4e260 * t ** 3)
    # u rises by one ulp on its last segment: Phi is valid, but the
    # complement's ramp there is an ulp wide and its evaluation is not
    # convex; the complement is built with Phi, so Phi is refused
    with pytest.raises(ParameterError, match="convex"):
        NFunction.from_density(
            [2.0435202590449956e-239, 2.05511896702174e-239,
             2.077926149854601e-239],
            [9.946981405662749e+269, 9.946981405738359e+269,
             9.94698140573836e+269])


def test_constants_pins():
    k = davis_constant()
    assert 1.3468 <= k <= 1.3470
    assert k == pytest.approx((math.pi ** 2 / 8.0) / CATALAN, rel=1e-12)
    k0 = k0_constant()
    assert k0 < 1.25
    assert 1.246 <= k0 <= 1.249
    assert k0 == pytest.approx(1.247173351473221, abs=1e-12)


def test_k0_against_sine_integral_series():
    """K0's Si(pi) is a literal: bit for bit what adaptive quadrature of
    sin(x)/x returns, and within 1e-15 of the alternating Taylor series."""
    from scipy.integrate import quad

    si_quad, _ = quad(lambda x: np.sinc(x / np.pi), 0.0, np.pi,
                      epsabs=1e-13, epsrel=1e-13)
    si_series = 0.0
    for k in range(0, 30):
        si_series += (-1) ** k * math.pi ** (2 * k + 1) / (
            (2 * k + 1) * math.factorial(2 * k + 1))
    assert _SI_PI == si_quad
    assert k0_constant() == davis_constant() / 2.0 * si_quad
    assert si_quad == pytest.approx(si_series, rel=1e-15)


def test_catalan_literal_against_series():
    """Catalan's constant is a literal: bit for bit the accelerated
    central-binomial series summed in doubles, and within 2 ulps of the
    correctly rounded value."""
    import mpmath

    # sum_n 1/((2n+1)^2 C(2n,n)) = (8 G - pi log(2+sqrt 3))/3
    total = 0.0
    n = 0
    while True:
        term = 1.0 / ((2 * n + 1) ** 2 * math.comb(2 * n, n))
        total += term
        if term < 1e-18 and n >= 4:
            break
        n += 1
    series = 3.0 * total / 8.0 + math.pi / 8.0 * math.log(2.0 + math.sqrt(3.0))
    assert _CATALAN == series
    assert abs(_CATALAN - float(mpmath.catalan)) <= 2 * math.ulp(_CATALAN)
    assert davis_constant() == (math.pi ** 2 / 8.0) / series


#: G' of each gauge row, for the quadrature check of its I(G)
_GAUGE_DERIVATIVES = {
    "1-cos": np.sin,
    "min(x^2,1)": lambda x: 2.0 * x if x <= 1.0 else 0.0,
}


def test_gauge_integrals():
    """Each row's I(G) is bit for bit what adaptive quadrature of G'(x)/x
    over [0, a] returns."""
    from scipy.integrate import quad

    assert set(GAUGES) == set(_GAUGE_DERIVATIVES)
    for label, (_, a, ig) in GAUGES.items():
        gprime = _GAUGE_DERIVATIVES[label]
        val, err = quad(lambda x: float(gprime(x)) / x if x > 0.0 else 0.0,
                        0.0, a, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert err <= 1e-8 * (1.0 + abs(val))
        assert ig == val, label
    assert GAUGES["1-cos"][2] == _SI_PI


def test_gauge_rows_are_gauges():
    """G(0) = 0 and G nondecreasing on [0, a], for each row."""
    for label, (g, a, _) in GAUGES.items():
        assert a > 0.0
        assert float(g(np.zeros(1))[0]) == 0.0, label
        vals = g(np.linspace(0.0, a, 1001))
        assert np.all(np.diff(vals) >= 0.0), label


def test_lemma_g_report(rng):
    n = 1024
    th = grid_theta(n)
    for gauge in GAUGES:
        for _ in range(5):
            w = np.zeros(n)
            for k in range(1, 9):
                w += rng.uniform(-1, 1) * np.cos(k * th)
                w += rng.uniform(-1, 1) * np.sin(k * th)
            rep = lemma_G_report(gauge, GridFunction(n, w))
            assert rep.passed, rep
            assert rep.details["gauge"] == gauge
    with pytest.raises(ParameterError, match="unknown gauge 'custom'"):
        lemma_G_report("custom", GridFunction(n, np.cos(th)))


@pytest.mark.parametrize("k", range(10))
def test_lemma_g_one_minus_cos_against_mpmath(k):
    """psi = c cos(theta) on 256 points, c = 10^-k: the 1 - cos gauge sums
    1 - cos(c sin(theta_j)), whose rectangle rule is 2 pi (1 - J_0(c))
    up to J_256(c); the report's lhs matches it to 1e-14 relative.  The
    difference 1 - cos x lost the small ones: 4e-5 relative at c = 1e-6,
    and 0.0 from c = 1e-8 on."""
    c = 10.0 ** -k
    n = 256
    rep = lemma_G_report("1-cos", GridFunction(n, c * np.cos(grid_theta(n))))
    with mpmath.workdps(50):
        want = float(2 * mpmath.pi * (1 - mpmath.besselj(0, mpmath.mpf(c))))
    assert rep.lhs == pytest.approx(want, rel=1e-14, abs=0.0), (c, rep.lhs)


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


def test_holder_pairing(rng):
    n = 512
    th = grid_theta(n)
    for q in (1.5, 2.0, 3.0):
        phi = NFunction.power(q)
        for _ in range(5):
            f = GridFunction(n, np.exp(rng.uniform(-1, 1) * np.cos(th)))
            g = GridFunction(n, np.exp(rng.uniform(-1, 1) * np.sin(2 * th)))
            assert holder_holds(f, g, phi), q
