"""mpmath oracle for the divergence family.

The family's formulas are written again here at 50 digits, in the original
coordinate u = log|tan(theta/2)|, where the angular measure is du / cosh u
and the bump is the box |u - u*| <= du.  The two integrals the float code
evaluates in shifted coordinates (the bump's mass and its cosine defect) and
the closed-form defect of the floor are integrated directly.  Only Python
ints and floats reach the float code, and only floats come back.
"""

import math

import mpmath
import numpy as np
import pytest

from specfact import build_family, family_metrics, verify_theorem_1
from specfact.counterexample import _pairing_ratio
from specfact.errors import NumericalConditioningError

_DPS = 50
_REL = 1e-12
#: a value below the normal range carries only its absolute spacing
_ABS = 4.0 * math.ulp(0.0)

_CASES = [(n, 0.1, variant)
          for n in (1, 6, 50, 10 ** 3, 10 ** 5, 10 ** 8, 10 ** 12, 10 ** 13,
                    10 ** 14)
          for variant in ("floored", "plus-one")]
# at n = 6 a halfwidth of 1 leaves the angular width of the bump subnormal
_CASES += [(6, 1.0, variant) for variant in ("floored", "plus-one")]
#: explicit eps as the grid cross-check uses them (plus-one, du = 0.5): the
#: 48 values the family benchmark draws in its first pass at seed 1
_EPS_CASES = sorted(float(e) for e in
                    np.random.default_rng([1, 0]).uniform(4.0, 12.0, 48))


def _bump_oracle(eps, du) -> dict:
    """The pairing ratio and the bump height for step eps and halfwidth du
    (mp numbers, inside workdps)."""
    mp = mpmath.mp
    beta = eps / (2 * mp.pi)
    u_star = 2 * mp.pi ** 2 / eps
    # split at u*: one tanh-sinh span over the whole bump misses
    # the 50 digits (2.4e-14 in the ratio at n = 6, du = 1)
    bump = [u_star - du, u_star, u_star + du]
    width = mp.quad(mp.sech, bump)
    ratio = mp.quad(lambda u: (1 - mp.cos(beta * u)) * mp.sech(u),
                    bump) / width
    return {"pairing_ratio": ratio, "delta_r": 1 - ratio / 2,
            "log_bump_height": -mp.log(width)}


def _oracle(n: int, du: float, variant: str) -> dict:
    """Every family quantity at index n, as 50-digit mp numbers."""
    mp = mpmath.mp
    with mpmath.workdps(_DPS):
        du = mp.mpf(du)
        eps = 1 / (2 * mp.pi * n)
        beta = eps / (2 * mp.pi)
        bump = _bump_oracle(eps, du)
        ratio = bump["pairing_ratio"]
        # int over one arc of (1 - cos psi) dtheta
        floor_defect = mp.quad(lambda u: (1 - mp.cos(beta * u)) * mp.sech(u),
                               [-mp.inf, 0, mp.inf])
        if variant == "floored":
            bump_coeff, floor = 1 - eps / 2, eps / (4 * mp.pi)
        else:
            bump_coeff, floor = mp.mpf(1), mp.mpf(1)
        arc_mass = floor * mp.pi + bump_coeff
        drop = 1 - mp.exp(-eps)            # 1 - h on the arc (0, pi)
        root_drop = 1 - mp.exp(-eps / 2)   # 1 - sqrt(h)
        m1 = drop * arc_mass
        t1 = root_drop ** 2 * arc_mass
        t2 = -2 * root_drop * (bump_coeff * ratio + floor * floor_defect)
        t3 = 2 * (bump_coeff * ratio + floor * 2 * floor_defect)
        return {
            **bump, "eps": eps, "m1": m1, "m2": eps * mp.pi,
            "m3": t3 - 4 * m1, "m4": t1 + t2 + t3, "t1": t1, "t2": t2,
            "t3": t3,
        }


def _close(got: float, want) -> bool:
    return math.isclose(got, float(want), rel_tol=_REL, abs_tol=_ABS)


def _check_bump(fam, want) -> float:
    """The pairing ratio, delta_r and the bump height against the oracle;
    returns the ratio's error budget."""
    ratio, ratio_error = _pairing_ratio(fam)
    assert 0.0 < ratio_error <= 1e-14
    met = family_metrics(fam)
    assert (ratio, ratio_error) == (met.pairing_ratio, met.ratio_error)
    # the ratio and delta_r = 1 - ratio/2 are good to the series' own error
    # bound (plus the rounding of the ratio near 2)
    allow = ratio_error + math.ulp(2.0)
    assert abs(ratio - float(want["pairing_ratio"])) <= allow
    assert abs(met.delta_r - float(want["delta_r"])) <= allow / 2.0
    assert _close(fam.log_bump_height, want["log_bump_height"]), (
        fam.log_bump_height, float(want["log_bump_height"]))
    return ratio_error


@pytest.mark.parametrize("n, du, variant", _CASES)
def test_family_matches_mpmath(n, du, variant):
    """Every metric, the bump height and the verdict's margin, at 50 digits."""
    want = _oracle(n, du, variant)
    fam = build_family(n=n, du=du, variant=variant)
    ratio_error = _check_bump(fam, want)
    met = family_metrics(fam)
    assert met.variant == variant
    for name, value in want.items():
        if name in ("pairing_ratio", "delta_r", "log_bump_height"):
            continue
        got = getattr(met, name)
        assert _close(got, value), (name, got, float(value))
    # the verdict's margin over 2 - 1/n has the oracle's sign and size
    with mpmath.workdps(_DPS):
        margin = mpmath.sqrt(want["m3"]) - (2 - mpmath.mpf(1) / n)
    assert margin > 0
    unresolved = ratio_error + 4.0 * math.ulp(2.0)
    try:
        rep = verify_theorem_1(n, du=du, variant=variant)
    except NumericalConditioningError:
        # a refusal is right only where the slack, good to the budget plus
        # rounding, can lie within that band of zero
        assert margin <= 2.0 * unresolved
        return
    assert rep.passed
    assert abs(rep.slack - float(margin)) <= unresolved


@pytest.mark.parametrize("eps", _EPS_CASES)
def test_cross_check_bump_matches_mpmath(eps):
    """The pairing ratio of the plus-one family the grid cross-check builds
    (du = 0.5, several series terms), at 50 digits."""
    fam = build_family(eps=eps, du=0.5, variant="plus-one")
    with mpmath.workdps(_DPS):
        want = _bump_oracle(mpmath.mpf(eps), mpmath.mpf(0.5))
    _check_bump(fam, want)
