"""Divergence family: frozen oracles, invariants, and the grid cross-check."""

import math

import numpy as np
import pytest

from specfact import (
    CONJUGATE_ARC_SIGN,
    NumericalConditioningError,
    ParameterError,
    build_family,
    cross_validate_pipeline,
    family_metrics,
    family_row,
    grid_realization,
    lp_norm,
    verify_theorem_1,
)

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
    assert fam.bump_theta_width < 1e-50


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
        assert m.quad_error < 1e-10
    floored = family_metrics(build_family(n=2))
    assert floored.l1_f == 1.0
    plus = family_metrics(build_family(n=2, variant="plus-one"))
    assert plus.l1_f == pytest.approx(1.0 + 2.0 * math.pi, rel=1e-15)
    assert plus.log_l1_f is not None and plus.log_l1_f <= 1.0


def test_phase_hits_pi_at_bump_center():
    fam = build_family(eps=2.0 * math.pi, variant="plus-one",
                       enforce_bump_phase=False)
    lo, hi = fam.bump_theta_support
    mid = 0.5 * (lo + hi)
    # the conjugate phase (eps/2pi) log|tan(theta/2)| of the step
    psi = (CONJUGATE_ARC_SIGN * fam.eps / (2.0 * math.pi)
           * math.log(abs(math.tan(mid / 2.0))))
    assert psi == pytest.approx(math.pi, abs=5e-3)


def test_grid_realization_invariants():
    fam = build_family(eps=2.0 * math.pi, variant="plus-one",
                       enforce_bump_phase=False)
    f, g = grid_realization(fam, 16384)
    assert np.all(g.values >= 0.0)
    assert np.all(g.values <= f.values + 1e-12)
    m = family_metrics(fam)
    assert lp_norm(f, 1) == pytest.approx(m.l1_f, rel=1e-12)
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
    # phase error guard: beta*du must stay <= 0.1 unless relaxed
    with pytest.raises(ParameterError):
        build_family(eps=2.0 * math.pi, du=0.5, variant="plus-one")
    build_family(eps=2.0 * math.pi, du=0.5, variant="plus-one",
                 enforce_bump_phase=False)


def test_budget_refusal():
    """n = 10^12 clears its row's budget; from about 10^13 on the margin
    sqrt(m3) - (2 - 1/n) is within the budget plus rounding and is refused,
    and so is an index whose bump center leaves the float64 range."""
    for variant in ("floored", "plus-one"):
        rep = verify_theorem_1(10 ** 12, variant=variant)
        d = rep.details
        assert rep.passed
        assert rep.slack > d["quad_error"]
        for n in (10 ** 14, 10 ** 16, 10 ** 400):
            with pytest.raises(NumericalConditioningError):
                verify_theorem_1(n, variant=variant)
    with pytest.raises(ParameterError):
        verify_theorem_1(0)


def test_grid_realization_refuses_narrow_bump():
    """Past n = 5 the bump height overflows float64, but the bump spans far
    less than one cell, so the cell check refuses it first."""
    with pytest.raises(ParameterError, match="cells"):
        grid_realization(build_family(n=6), 1 << 14)


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
