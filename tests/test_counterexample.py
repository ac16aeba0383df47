"""Divergence family: frozen oracles, invariants, and the grid cross-check."""

import math

import numpy as np
import pytest

from specfact import (
    NumericalConditioningError,
    ParameterError,
    build_family,
    cross_validate_pipeline,
    family_metrics,
    family_row,
    grid_realization,
    grid_theta,
    lp_norm,
    verify_theorem_1,
)
from specfact.counterexample import _overlap_fraction, _three_shift_overlap

# Hand-checked sqrt(m3) values, du = 0.1.  m3 is the certified lower bound
# for the squared H2 distance, and must clear (2 - 1/n)^2.
SQRT_M3_FLOORED = {1: 1.7654, 2: 1.8817, 3: 1.9209, 4: 1.9406, 5: 1.9524}
SQRT_M3_PLUS_ONE = {1: 1.2540, 2: 1.6539, 3: 1.7735, 4: 1.8315}


def test_family_n1_frozen_values():
    fam = build_family(n=1)
    assert fam.eps == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert fam.bump_center_u == pytest.approx(4.0 * math.pi ** 3, rel=1e-10)
    # height: log c = u* - log(4 sinh du) up to the exponentially small
    # correction from the far tail of the weight
    asymptotic = fam.bump_center_u - math.log(4.0 * math.sinh(0.1))
    assert fam.log_bump_height == pytest.approx(asymptotic, abs=1e-10)


def test_sqrt_m3_tables():
    for n, expect in SQRT_M3_FLOORED.items():
        m = family_metrics(build_family(n=n))
        assert math.sqrt(m.m3) == pytest.approx(expect, abs=2e-3)
    for n, expect in SQRT_M3_PLUS_ONE.items():
        m = family_metrics(build_family(n=n, variant="plus-one"))
        assert math.sqrt(m.m3) == pytest.approx(expect, abs=2e-3)


def test_verify_passes_and_trends():
    prev_rhs = 0.0
    prev_m1 = math.inf
    for n in (1, 2, 3, 4, 5, 6, 50, 10 ** 3, 10 ** 5, 10 ** 8, 10 ** 12):
        rep = verify_theorem_1(n)
        assert rep.passed, rep
        assert rep.lhs == pytest.approx(2.0 - 1.0 / n, rel=1e-15)
        assert rep.rhs > rep.lhs
        assert rep.rhs > prev_rhs
        assert rep.details["m1"] < prev_m1
        assert rep.details["m1"] <= 1.0 / n
        assert rep.details["m2"] == pytest.approx(0.5 / n, rel=1e-12)
        prev_rhs, prev_m1 = rep.rhs, rep.details["m1"]


def test_metrics_internal_consistency():
    for variant in ("floored", "plus-one"):
        m = family_metrics(build_family(n=2, variant=variant))
        assert m.m3 <= m.m4
        assert m.m4 == pytest.approx(m.t1 + m.t2 + m.t3, rel=1e-12)
        assert m.m3 == pytest.approx(m.t3 - 4.0 * m.m1, rel=1e-12)
        assert 1.998 <= m.pairing_ratio <= 2.0
        assert m.ratio_error < 1e-14


def test_phase_hits_pi_at_bump_center():
    fam = build_family(eps=2.0 * math.pi, variant="plus-one")
    lo, hi = fam.bump_theta_support
    mid = 0.5 * (lo + hi)
    # the conjugate phase +(eps/2pi) log|tan(theta/2)| of the step
    psi = (fam.eps / (2.0 * math.pi)
           * math.log(abs(math.tan(mid / 2.0))))
    assert psi == pytest.approx(math.pi, abs=5e-3)


def test_grid_realization_invariants():
    fam = build_family(eps=2.0 * math.pi, variant="plus-one")
    f, g = grid_realization(fam, 16384)
    assert np.all(g.values >= 0.0)
    assert np.all(g.values <= f.values + 1e-12)
    # ||f||_1 = 1 + 2 pi: the unit-mass bump on the floor 1
    assert lp_norm(f, 1) == pytest.approx(1.0 + 2.0 * math.pi, rel=1e-12)
    m = family_metrics(fam)
    assert lp_norm(f, 1) - lp_norm(g, 1) == pytest.approx(m.m1, rel=1e-10)


def test_cross_validation_two_pipelines():
    for eps in (5.0, 2.0 * math.pi):
        rep = cross_validate_pipeline(eps)
        assert rep.passed, rep
        assert rep.lhs < 0.02


def test_build_family_validation():
    with pytest.raises(ParameterError):
        build_family(n=0)
    with pytest.raises(ParameterError):
        build_family(n=2.5)
    with pytest.raises(ParameterError):
        build_family()
    with pytest.raises(ParameterError):
        build_family(n=1, eps=0.5)
    with pytest.raises(ParameterError):
        build_family(n=1, du=0.0)
    with pytest.raises(ParameterError):
        build_family(n=1, du=1.5)
    with pytest.raises(ParameterError):
        build_family(n=1, variant="nope")
    with pytest.raises(ParameterError):
        build_family(eps=2.5)  # floored needs eps < 2
    # beta * du = eps du / (2 pi) must stay below pi/2
    with pytest.raises(ParameterError, match="positive-defect"):
        build_family(eps=10.0, du=1.0, variant="plus-one")


def test_budget_refusal():
    """The margin sqrt(m3) - (2 - 1/n) is about 0.76/n (floored) and 0.34/n
    (plus-one), against a budget plus rounding of about 5.6e-15: n = 10^13
    certifies in both variants and n = 10^14 in the floored one, while
    larger indices are refused, and so is an index whose bump center leaves
    the float64 range."""
    certified = {"floored": (10 ** 12, 10 ** 13, 10 ** 14),
                 "plus-one": (10 ** 12, 10 ** 13)}
    refused = {"floored": (10 ** 15, 10 ** 16, 10 ** 400),
               "plus-one": (10 ** 14, 10 ** 15, 10 ** 16, 10 ** 400)}
    for variant in ("floored", "plus-one"):
        for n in certified[variant]:
            rep = verify_theorem_1(n, variant=variant)
            assert rep.passed
            assert rep.slack > rep.details["ratio_error"] + 4.0 * math.ulp(2.0)
        for n in refused[variant]:
            with pytest.raises(NumericalConditioningError):
                verify_theorem_1(n, variant=variant)
    with pytest.raises(ParameterError):
        verify_theorem_1(0)


def test_grid_realization_refuses_narrow_bump():
    """Past n = 5 the bump height overflows float64, but the bump spans far
    less than one cell, so the cell check refuses it first."""
    with pytest.raises(ParameterError, match="cells"):
        grid_realization(build_family(n=6), 1 << 14)


@pytest.mark.parametrize("n", [8, 64, 16384])
def test_cut_cell_overlap_equals_the_three_shift_formula(n):
    """Only the cut cells run the overlap formula; every cell still equals
    the formula evaluated on all cells, bit for bit: random arcs inside
    (-pi, pi), the arc (0, pi), arcs that wrap at +-pi, and ends exactly on
    cell edges."""
    h = 2.0 * math.pi / n
    theta = grid_theta(n)
    lo, hi = theta - h / 2.0, theta + h / 2.0
    rng = np.random.default_rng([n, 5])
    arcs = [tuple(sorted(rng.uniform(-math.pi, math.pi, 2)))
            for _ in range(50)]
    arcs += [(0.0, math.pi), (-math.pi, math.pi), (2.0, 4.0), (-4.0, -2.0),
             (3.0, 3.0 + 2.0 * math.pi - 1e-3), (-math.pi - 0.5, -2.5)]
    arcs += [(x, x + w) for x, w in zip(rng.uniform(-math.pi, math.pi, 20),
                                        rng.uniform(0.0, 2.0 * math.pi, 20))]
    arcs += [(lo[1], hi[n // 2]), (hi[0], lo[n - 1]), (lo[0], hi[n - 1]),
             (lo[2], hi[2]), (hi[n // 4], hi[n // 4] + 0.5 * h)]
    for a, b in arcs:
        got = _overlap_fraction(lo, hi, a, b)
        want = _three_shift_overlap(lo, hi, a, b)
        assert np.array_equal(got, want), (a, b)


def test_cross_validation_validation():
    with pytest.raises(ParameterError):
        cross_validate_pipeline(1.0)  # u* > 12: bump too narrow for any grid
    # u* = 9.9 <= 12, but the bump spans under one of the 16384 cells
    with pytest.raises(ParameterError, match="cells.*raise eps"):
        cross_validate_pipeline(2.0)


def test_family_row_shape():
    row = family_row(1)
    assert set(row) == {"n", "l1_diff", "log_l1_diff", "h2_lower",
                        "h2_identity", "budget", "pass"}
    assert row["n"] == 1
    assert row["pass"] is True
    assert row["log_l1_diff"] == pytest.approx(0.5, rel=1e-12)
    assert row["h2_lower"] == pytest.approx(SQRT_M3_FLOORED[1], abs=2e-3)
