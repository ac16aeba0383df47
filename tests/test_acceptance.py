"""Acceptance gate: one test per criterion, one [OK]/[FAIL] line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every tolerance below is a hard gate, not a fitted number; the
random draws are seeded so a failure is reproducible bit for bit.
"""

import math
import time

import numpy as np

from specfact import (
    FourierSeries,
    NFunction,
    check_identity,
    check_theorem_2,
    check_theorem_main,
    cross_validate_pipeline,
    davis_constant,
    factorize_boundary,
    factorize_herglotz,
    fejer_riesz,
    fourier_synthesize,
    GridFunction,
    harmonic_conjugate,
    k0_constant,
    lambda_phi,
    lemma_G_report,
    lp_norm,
    luxemburg_norm,
    orlicz_norm,
    random_density,
    random_phase,
    verify_theorem_1,
)

from oracles import (
    convergence_rows,
    dip_schedule,
    holder_holds,
    phi_inv,
    report,
    weak11_ratio,
)


def _finish(num: int, ok: bool, detail: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    ok = bool(ok) and elapsed < limit
    status = "OK" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {detail} ({elapsed:.2f}s)"
    print(line)
    assert ok, line


def _random_outer_poly(rng) -> np.ndarray:
    """Taylor coefficients of a polynomial with all roots outside the disk."""
    d = int(rng.integers(1, 17))
    roots = rng.uniform(1.1, 3.0, d) * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
    a = np.poly(roots)[::-1]
    a = a * np.exp(-1j * np.angle(a[0])) * rng.uniform(0.5, 2.0)
    return a


def _autocorrelation(a: np.ndarray) -> FourierSeries:
    d = len(a) - 1
    coeffs = {}
    for k in range(d + 1):
        c = complex(np.sum(a[k:] * np.conj(a[: len(a) - k])))
        coeffs[k] = c
        coeffs[-k] = c.conjugate()
    return FourierSeries(coeffs)


def test_criterion_1_constants():
    t0 = time.perf_counter()
    k = davis_constant()
    k0 = k0_constant()
    ok = 1.3468 <= k <= 1.3470 and 1.246 <= k0 <= 1.249 and k0 < 1.25
    _finish(1, ok, f"constants K={k:.10f} K0={k0:.10f} (K0 < 5/4)", t0, 1.0)


def test_criterion_2_polynomial_factorization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst_fr = 0.0
    worst_bd = 0.0
    for _ in range(100):
        a = _random_outer_poly(rng)
        series = _autocorrelation(a)
        scale = float(np.max(np.abs(a)))

        b = fejer_riesz(series)
        err_fr = float(np.max(np.abs(np.asarray(b) - a))) / scale
        worst_fr = max(worst_fr, err_fr)

        fac = factorize_boundary(fourier_synthesize(series, 4096))
        c = np.asarray(fac.coeffs)
        head = float(np.max(np.abs(c[: len(a)] - a)))
        tail = float(np.max(np.abs(c[len(a):]))) if len(c) > len(a) else 0.0
        worst_bd = max(worst_bd, (head + tail) / scale)
    ok = worst_fr <= 1e-8 and worst_bd <= 1e-6
    _finish(2, ok, "100 random polynomial densities, coefficient recovery "
            f"root-route {worst_fr:.2e} (<=1e-8) "
            f"boundary-route {worst_bd:.2e} (<=1e-6)", t0, 30.0)


def test_criterion_3_route_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(100):
        f = random_density(rng, n=2048, degree=12)
        z = (0.9 * np.sqrt(rng.uniform(0.0, 1.0, 20))
             * np.exp(1j * rng.uniform(-np.pi, np.pi, 20)))
        via_boundary = factorize_boundary(f)(z)
        via_herglotz = factorize_herglotz(f, z)
        err = float(np.max(np.abs(via_boundary - via_herglotz))
                    / np.max(np.abs(via_herglotz)))
        worst = max(worst, err)
    ok = worst <= 1e-6
    _finish(3, ok, "boundary vs integral route on 100 densities x 20 points, "
            f"worst rel gap {worst:.2e} (<=1e-6)", t0, 60.0)


def test_criterion_4_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4004)
    worst = 0.0
    n_pass = 0
    for _ in range(200):
        f = random_density(rng, n=1024, degree=10)
        g = random_density(rng, n=1024, degree=10)
        rep = check_identity(f, g)
        n_pass += rep.passed
        rel = abs(rep.details["sum"] - rep.details["h2_squared"]) / \
            max(rep.details["h2_squared"], 1e-300)
        worst = max(worst, rel)
    ok = n_pass == 200 and worst <= 1e-6
    _finish(4, ok, f"three-term expansion vs direct H2 distance, {n_pass}/200 "
            f"pairs, worst rel gap {worst:.2e} (<=1e-6)", t0, 60.0)


def test_criterion_5_inequality_gauntlet():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5005)
    fails = 0
    n_checks = 0
    for _ in range(1000):
        f = random_density(rng, n=1024, degree=10)
        g = random_density(rng, n=1024, degree=10)
        rep = check_theorem_2(f, g)
        fails += not (rep.passed and rep.details["pass_sharp"])
        n_checks += 1
    for p in (1.5, 2.0, 4.0):
        for _ in range(300):
            f = random_density(rng, n=1024, degree=10)
            g = random_density(rng, n=1024, degree=10)
            fails += not report("cor-p", (f, g), p).passed
            n_checks += 1
    for q in (1.5, 2.0, 3.0):
        phi = NFunction.power(q)
        for _ in range(300):
            f = random_density(rng, n=1024, degree=10)
            g = random_density(rng, n=1024, degree=10)
            fails += not check_theorem_main(f, g, phi).passed
            n_checks += 1
    ok = fails == 0
    _finish(5, ok, f"square-root and Orlicz continuity bounds, {n_checks} "
            f"random checks, {fails} failures", t0, 300.0)


def test_criterion_6_lemma_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6006)
    phi = NFunction.power(2.0)
    fails = 0
    worst_ratio = 0.0
    cap = davis_constant() * 1.05
    for _ in range(200):
        psi = random_phase(rng, n=1024, degree=12)
        fails += not report("lemma-l1", (psi,)).passed
        fails += not report("lemma-orl", (psi,), phi).passed
        fails += not lemma_G_report("1-cos", psi).passed
        fails += not lemma_G_report("min(x^2,1)", psi).passed
        ratio = weak11_ratio(psi)
        worst_ratio = max(worst_ratio, ratio)
        fails += not ratio <= cap
    ok = fails == 0
    _finish(6, ok, "conjugate-function lemmas on 200 phases, "
            f"{fails} failures, worst weak-(1,1) ratio {worst_ratio:.4f} "
            f"(cap {cap:.4f})", t0, 120.0)


def test_criterion_7_divergence_family():
    t0 = time.perf_counter()
    ok = True
    last = ""
    for n in (1, 2, 3, 4):
        rep = verify_theorem_1(n)
        ok = ok and rep.passed
        last = f"n={n}: ||f-g||_1={rep.details['m1']:.2e} " \
               f"H2 lower bound {rep.rhs:.4f} >= {rep.lhs:.4f}"
    worst = 0.0
    for eps in (5.0, 2.0 * math.pi):
        rep = cross_validate_pipeline(eps)
        ok = ok and rep.passed
        worst = max(worst, rep.lhs)
    _finish(7, ok, f"divergence family certified ({last}); analytic vs "
            f"grid pipeline worst rel gap {worst:.2e} (<=2e-2)", t0, 60.0)


def test_criterion_8_convergence_demo():
    t0 = time.perf_counter()
    f = random_density(np.random.default_rng(8008), n=2048, degree=8)
    rows = convergence_rows(f, dip_schedule(f, list(range(1, 65))))
    h2 = [r[2] for r in rows]
    l1 = [r[0] for r in rows]
    ok = (all(a > b for a, b in zip(h2, h2[1:]))
          and all(a > b for a, b in zip(l1, l1[1:]))
          and h2[-1] < 1e-2 * h2[0])
    _finish(8, ok, "factor convergence under shrinking perturbations, "
            f"H2 gap {h2[0]:.3e} -> {h2[-1]:.3e} "
            f"(ratio {h2[-1] / h2[0]:.2e} < 1e-2, monotone)", t0, 60.0)


def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9009)
    fails = 0

    # conjugation: involution, Fourier multiplier action, Parseval
    for _ in range(20):
        w = random_phase(rng, n=512, degree=12)
        mean = float(np.mean(w.values))
        twice = harmonic_conjugate(harmonic_conjugate(w))
        fails += not np.allclose(twice.values, mean - w.values, atol=1e-10)
        fails += not abs(lp_norm(harmonic_conjugate(w), 2)
                         - math.sqrt(lp_norm(w, 2) ** 2
                                     - 2 * math.pi * mean ** 2)) < 1e-9
    th = GridFunction.from_callable(lambda t: np.cos(3 * t), 512)
    fails += not np.allclose(harmonic_conjugate(th).values,
                             np.sin(3 * th.theta), atol=1e-10)

    # Orlicz structure: Young's inequality, norm sandwich, Holder
    grid = np.geomspace(1e-4, 1e4, 200)
    for phi in (NFunction.power(1.5), NFunction.power(3.0)):
        psi_c = phi.complement()
        gap = min(phi.phi(x) + psi_c.phi(y) - x * y
                  for x in grid[::20] for y in grid[::20])
        fails += not gap >= -1e-10
        for _ in range(20):
            h = random_density(rng, n=512, degree=8)
            lux = luxemburg_norm(h, phi)
            orl = orlicz_norm(h, phi)
            fails += not lux <= orl * (1 + 1e-9)
            fails += not orl <= 2 * lux * (1 + 1e-9)
        for _ in range(20):
            f = random_density(rng, n=512, degree=8)
            g = random_density(rng, n=512, degree=8)
            fails += not holder_holds(f, g, phi)

    # gauge function Lambda: increasing in s, dominated by 2/phi_inv(1/s)
    for phi in (NFunction.power(1.5), NFunction.power(2.0)):
        s_grid = np.geomspace(1e-3, 1e3, 25)
        vals = [lambda_phi(phi, float(s)) for s in s_grid]
        fails += not all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        fails += not all(v <= 2.0 / phi_inv(phi, 1.0 / float(s)) * (1 + 1e-9)
                         for v, s in zip(vals, s_grid))

    ok = fails == 0
    _finish(9, ok, f"property suite (conjugation, Orlicz, gauge), "
            f"{fails} failures", t0, 60.0)
