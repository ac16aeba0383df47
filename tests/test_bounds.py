"""The H2 expansion identity and every continuity-bound check."""

import math

import mpmath
import numpy as np
import pytest

from specfact import (
    AliasingError,
    GridFunction,
    NFunction,
    PairMetrics,
    ParameterError,
    check_identity,
    check_theorem_2,
    check_theorem_main,
    constant_c_inf,
    constant_c_p,
    factorize_boundary,
    grid_theta,
    h2_distance,
    h2_identity_terms,
    h2_squared_direct,
    k0_constant,
    lp_norm,
    pair_metrics,
    random_density,
    random_phase,
)
import specfact.bounds
import specfact.factorization
from specfact.bounds import _one_minus_cos, _sweep_blocks
from specfact.circle_fn import _conjugate
from specfact.cli import main
from specfact.factorization import _positive_log

import block_check
from oracles import convergence_rows, report


def test_identity_zero_for_equal_inputs(rng):
    f = random_density(rng, n=512)
    terms = h2_identity_terms(f, f)
    assert terms.t1 == 0.0 and terms.t2 == 0.0 and terms.t3 == 0.0
    assert h2_squared_direct(f, f) == 0.0


def test_identity_terms_match_the_fresh_array_formula_bit_for_bit(rng):
    """PairMetrics.terms forms its products in place: T1, T2 and T3 are
    the floats of the expression with a fresh array per operation, on
    random (B, n) blocks, on pairs scaled to 1e-300 and 1e300, and where
    the sums overflow to inf."""
    blocks = []
    for scale in (1.0, 1e-300, 1e300):
        f, g = (np.array([scale * random_density(rng, n=1024).values
                          for _ in range(3)]) for _ in range(2))
        blocks.append((f, g))
    blocks.append((np.full((1, 8), 1e308), np.full((1, 8), 1e307)))
    for f, g in blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            log_ratio = np.log(f) - np.log(g)
            defect = _one_minus_cos(
                _conjugate(log_ratio, multiplier=-0.25j))
            rf, rg = np.sqrt(f), np.sqrt(g)
            h = 2.0 * np.pi / f.shape[-1]
            want = (np.sum((rf - rg) ** 2, axis=-1) * h,
                    2.0 * (np.sum(rf * (rg - rf) * defect, axis=-1) * h),
                    2.0 * (np.sum(f * defect, axis=-1) * h))
        terms = PairMetrics(f, g).terms
        for got, expect in zip((terms.t1, terms.t2, terms.t3), want):
            assert got.tobytes() == expect.tobytes()


def test_identity_scaling_closed_form(rng):
    f = random_density(rng, n=1024, degree=8)
    for c in (0.25, 0.5, 2.0, 9.0):
        g = GridFunction(f.n, c * f.values)
        terms = h2_identity_terms(f, g)
        expect = (1.0 - math.sqrt(c)) ** 2 * lp_norm(f, 1)
        assert terms.total == pytest.approx(expect, rel=1e-12)
        assert abs(terms.t2) < 1e-12 and abs(terms.t3) < 1e-12
        assert h2_squared_direct(f, g) == pytest.approx(expect, rel=1e-9)


def test_identity_matches_direct_distance(rng):
    for _ in range(10):
        f = random_density(rng, n=2048, degree=12)
        g = random_density(rng, n=2048, degree=12)
        rep = check_identity(f, g)
        assert rep.passed, rep
        rel = abs(rep.details["sum"] - rep.details["h2_squared"]) / \
            rep.details["h2_squared"]
        assert rel < 1e-6


def test_identity_requires_matching_grids(rng):
    with pytest.raises(ParameterError):
        h2_identity_terms(random_density(rng, n=512), random_density(rng, n=1024))


def test_lower_bound_scaling_and_dominance(rng):
    f = random_density(rng, n=1024, degree=8)
    for c in (0.5, 2.0):
        g = GridFunction(f.n, c * f.values)
        pm = pair_metrics(f, g)
        assert pm.lower_bound == pytest.approx(
            -4.0 * abs(1.0 - c) * lp_norm(f, 1), rel=1e-12)
        assert pm.lower_bound <= pm.terms.total + 1e-9
    for _ in range(5):
        pm = pair_metrics(f, random_density(rng, n=1024, degree=8))
        assert pm.lower_bound <= pm.terms.total + 1e-9


@pytest.mark.parametrize("n", [8, 256, 4096])
def test_block_record_rows_equal_single_pairs(rng, n):
    """Row j of a B-pair record holds exactly (==) the floats of the B = 1
    record of pair j, field by field."""
    fs = [random_density(rng, n=n, degree=3) for _ in range(5)]
    gs = [random_density(rng, n=n, degree=3) for _ in range(5)]
    gs[2] = GridFunction(n, 1.5 * fs[2].values)
    block = PairMetrics(np.array([f.values for f in fs]),
                        np.array([g.values for g in gs]))
    for j, (f, g) in enumerate(zip(fs, gs)):
        one = pair_metrics(f, g)
        assert np.array_equal(one.log_ratio[0], block.log_ratio[j])
        for name in ("l1_diff", "log_l1_diff", "h2_squared", "lower_bound"):
            assert getattr(one, name)[0] == getattr(block, name)[j], name
        for name in ("t1", "t2", "t3", "total"):
            assert (getattr(one.terms, name)[0]
                    == getattr(block.terms, name)[j]), name
        for p in (1, 2, 3.5, np.inf):
            assert one.f_norm(p)[0] == block.f_norm(p)[j]
        assert one.h2_squared[0] == h2_squared_direct(f, g)
        assert one.h2_squared[0] == (h2_distance(
            factorize_boundary(f), factorize_boundary(g)) ** 2)


def test_theorem_2_scaling_closed_form(rng):
    f = random_density(rng, n=1024, degree=6)
    for c in (0.5, 2.0):
        g = GridFunction(f.n, c * f.values)
        rep = check_theorem_2(f, g)
        assert rep.passed
        assert rep.lhs == pytest.approx(
            (1 - math.sqrt(c)) ** 2 * lp_norm(f, 1), rel=1e-9)
        expect_rhs = 2 * abs(1 - c) * lp_norm(f, 1) + \
            2.5 * lp_norm(f, np.inf) * 2 * math.pi * abs(math.log(c))
        assert rep.rhs == pytest.approx(expect_rhs, rel=1e-12)


def test_theorem_2_sharper_constant_consistent(rng):
    """The 2*K0 right side never exceeds the 2.5 one, and both must hold."""
    assert 2.0 * k0_constant() < 2.5
    for _ in range(10):
        f = random_density(rng, n=1024, degree=8)
        g = random_density(rng, n=1024, degree=8)
        rep = check_theorem_2(f, g)
        assert rep.passed, rep
        assert rep.details["rhs_sharp"] <= rep.rhs
        assert rep.details["pass_sharp"]


def test_constant_c_p_values():
    k0 = k0_constant()
    assert constant_c_p(2.0) == pytest.approx(4.0 * math.sqrt(k0), rel=1e-12)
    assert constant_c_inf() == pytest.approx(2.0 * k0, rel=1e-14)
    # C(p) decreases toward 2*K0 as p grows
    assert constant_c_p(1.5) > constant_c_p(2.0) > constant_c_p(10.0)
    assert constant_c_p(200.0) == pytest.approx(constant_c_inf(), rel=0.05)
    for bad in (1.0, 0.5, math.inf):
        with pytest.raises(ParameterError):
            constant_c_p(bad)


def test_corollary_p_sweep(rng):
    for p in (1.5, 2.0, 4.0):
        for _ in range(5):
            f = random_density(rng, n=1024, degree=8)
            g = random_density(rng, n=1024, degree=8)
            rep = report("cor-p", (f, g), p)
            assert rep.passed, rep


def test_main_reduces_to_corollary_for_powers(rng):
    """With phi = tau^q/q the Orlicz bound IS the C(p) corollary, p = q'."""
    f = random_density(rng, n=1024, degree=8)
    g = random_density(rng, n=1024, degree=8)
    for q in (1.5, 2.0, 3.0):
        p = q / (q - 1.0)
        rep_main = check_theorem_main(f, g, NFunction.power(q))
        rep_cor = report("cor-p", (f, g), p)
        assert rep_main.rhs == pytest.approx(rep_cor.rhs, rel=1e-6)


def test_main_sweep_including_density_kind(rng):
    t = np.geomspace(1e-6, 1e6, 241)
    phis = [NFunction.power(1.5), NFunction.power(3.0),
            NFunction.from_density(t, t)]
    for phi in phis:
        for _ in range(3):
            f = random_density(rng, n=1024, degree=8)
            g = random_density(rng, n=1024, degree=8)
            rep = check_theorem_main(f, g, phi)
            assert rep.passed, rep
    f = random_density(rng, n=1024, degree=8)
    rep = check_theorem_main(f, f, NFunction.power(2.0))
    assert rep.passed and rep.rhs == 0.0


def test_lemma_l1_and_orl(rng):
    phi = NFunction.power(2.0)
    for _ in range(20):
        psi = random_phase(rng, n=1024, degree=12)
        rep1 = report("lemma-l1", (psi,))
        assert rep1.passed, rep1
        rep2 = report("lemma-orl", (psi,), phi)
        assert rep2.passed, rep2
    zero = GridFunction(256, np.zeros(256))
    assert report("lemma-l1", (zero,)).passed
    rep = report("lemma-orl", (zero,), phi)
    assert rep.passed and rep.rhs == 0.0


def test_lemma_l1_known_value():
    """psi = cos: lhs = integral of 1 - cos(sin t), rhs = 8 K0."""
    n = 4096
    psi = GridFunction.from_callable(np.cos, n)
    rep = report("lemma-l1", (psi,))
    # 2*pi*(1 - J_0(1)) with J_0(1) = 0.7651976865579666
    expect = 2 * math.pi * (1 - 0.7651976865579666)
    assert rep.lhs == pytest.approx(expect, rel=1e-10)
    # |cos| has corners, so the rectangle rule only gets ~1e-7 here
    assert rep.rhs == pytest.approx(8 * k0_constant(), rel=1e-6)
    assert rep.passed


@pytest.mark.parametrize("k", range(9))
def test_cosine_defect_against_mpmath(k):
    """1 - cos x at x = 10^-k within 2^-51 relative of 50 digits; the
    difference 1 - np.cos(x) is 0 at x = 1e-8 and 4e-5 off at 1e-6."""
    x = 10.0 ** -k
    got = float(_one_minus_cos(np.array([0.5 * x]))[0])
    with mpmath.workdps(50):
        want = float(1 - mpmath.cos(mpmath.mpf(x)))
    assert abs(got - want) <= 2.0 ** -51 * want, (got, want)


@pytest.mark.parametrize("k", range(9))
def test_lemma_l1_small_phase_against_mpmath(k):
    """psi = c cos t: lhs = 2 pi (1 - J_0(c)), about pi c^2 / 2, within
    1e-14 relative at c = 10^-k; the rectangle rule is exact to rounding
    for this entire periodic integrand on 256 points."""
    c = 10.0 ** -k
    psi = GridFunction.from_callable(lambda t: c * np.cos(t), 256)
    rep = report("lemma-l1", (psi,))
    with mpmath.workdps(50):
        want = float(2 * mpmath.pi * (1 - mpmath.besselj(0, c)))
    assert rep.lhs == pytest.approx(want, rel=1e-14, abs=0.0)
    assert rep.passed


def test_convergence_demo_scaling_schedule(rng):
    f = random_density(rng, n=1024, degree=6)
    ks = [1, 2, 4, 8, 16]
    schedule = [GridFunction(f.n, (1.0 + 1.0 / k) * f.values) for k in ks]
    rows = convergence_rows(f, schedule)
    for (l1, log_l1, h2), k in zip(rows, ks):
        assert l1 == pytest.approx(lp_norm(f, 1) / k, rel=1e-12)
        assert log_l1 == pytest.approx(2 * math.pi * math.log(1 + 1 / k), rel=1e-12)
        assert h2 == pytest.approx(
            (math.sqrt(1 + 1 / k) - 1) * math.sqrt(lp_norm(f, 1)), rel=1e-9)
    h2s = [r[2] for r in rows]
    assert all(a > b for a, b in zip(h2s, h2s[1:]))


def _loop_phase(rng, n, degree):
    """random_phase as a per-k trig loop: the reference for the FFT sum."""
    d = int(rng.integers(1, degree + 1))
    a = rng.uniform(-1.0, 1.0, d + 1)
    b = rng.uniform(-1.0, 1.0, d)
    theta = grid_theta(n)
    w = np.full(n, a[0])
    for k in range(1, d + 1):
        w += a[k] * np.cos(k * theta) + b[k - 1] * np.sin(k * theta)
    return w


@pytest.mark.parametrize("n, degree", [(4096, 16), (64, 31), (8, 3)])
def test_random_phase_matches_trig_loop(n, degree):
    """Same draws, same order; the FFT changes only the summation order."""
    for seed in range(10):
        fft = random_phase(np.random.default_rng([seed, 1]), n=n, degree=degree)
        loop = _loop_phase(np.random.default_rng([seed, 1]), n, degree)
        assert np.max(np.abs(fft.values - loop)) < 1e-12
    with pytest.raises(ParameterError):
        random_phase(np.random.default_rng(0), n=0)


@pytest.mark.parametrize("n, degree", [(8, 4), (8, 20), (16, 40), (64, 32)])
def test_random_draws_refuse_unresolved_degrees(n, degree):
    """A degree of n/2 or more would alias on the grid: both draws refuse
    it before drawing anything."""
    fresh = np.random.default_rng(0).bit_generator.state
    for draw in (random_phase, random_density):
        rng = np.random.default_rng(0)
        with pytest.raises(AliasingError, match=f"degree {degree}"):
            draw(rng, n=n, degree=degree)
        assert rng.bit_generator.state == fresh


def test_sweep_generators_deterministic():
    a = random_density(np.random.default_rng(42), n=512)
    b = random_density(np.random.default_rng(42), n=512)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values > 0)
    w = random_phase(np.random.default_rng(7), n=512, degree=4)
    assert w.values.dtype == np.float64
    assert np.array_equal(
        w.values, random_phase(np.random.default_rng(7), n=512, degree=4).values)


def test_draws_hand_over_their_samples():
    """random_density and random_phase make their samples and hand them
    over read-only: the grid function owns them and nothing can write."""
    for draw in (random_density, random_phase):
        v = draw(np.random.default_rng(3), n=256).values
        assert v.flags.owndata and not v.flags.writeable


def test_pair_rows_are_shared_only_from_read_only_blocks():
    """Rows of a sweep's read-only block go into GridFunction without a
    copy; rows of a caller's writeable block are copied, so writing to the
    block afterwards leaves the grid function as it was."""
    pm = next(_sweep_blocks(0, 2, 256, 16, True))
    assert not pm.f.flags.writeable
    assert np.shares_memory(GridFunction(256, pm.f[1]).values, pm.f)
    block = np.array(pm.f)
    user = PairMetrics(block, np.array(pm.g))
    row = GridFunction(256, user.f[1])
    assert not np.shares_memory(row.values, block)
    block[1] = 1.0
    assert np.array_equal(row.values, pm.f[1])


def test_sweep_block_path_gives_the_reference_bits():
    """A sweep's records, read out of order through their shared scratch,
    give the bytes of h2_squared and log_ratio that records without scratch
    give, at n = 8 ... 16384 with partial last blocks (block_check.py,
    which the numpy-only install runs too)."""
    assert not block_check.mismatches()


def test_sweep_takes_each_sides_log_once_per_block(monkeypatch, capsys):
    """bounds --check thm2 --sweep 8 --n 256 is one block of 8 trials: log
    f and log g are taken once each, over the block, and the factorizations
    and log_ratio reuse them."""
    calls = []

    def counted(v, out=None):
        calls.append(v.shape)
        return _positive_log(v, out=out)

    for module in (specfact.bounds, specfact.factorization):
        monkeypatch.setattr(module, "_positive_log", counted)
    argv = ["bounds", "--check", "thm2", "--sweep", "8", "--n", "256"]
    assert main(argv) == 0
    assert calls == [(8, 256), (8, 256)]
    assert len(capsys.readouterr().out.splitlines()) == 8
