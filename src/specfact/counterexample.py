"""Divergence family: L1-close densities whose outer factors stay H2-far.

The construction lives in the transformed coordinate u = log|tan(theta/2)|,
where the angular measure becomes dtheta = du / cosh(u) and the conjugate of
the two-valued step log h = -eps * 1_{(0,pi)} is the linear function

    psi = (eps / 2pi) * u        (sign fixed by CONJUGATE_ARC_SIGN).

A unit-mass box bump placed at u* = 2 pi^2 / eps sits exactly where psi = pi,
so the cosine defect 1 - cos(psi) is at its maximum 2 on the bump.  Shrinking
eps moves the bump out along u, making ||f - g||_1 and ||log f - log g||_1
small while the certified lower bound for ||f+ - g+||_H2 stays near 2.

The bump height is exp(u*)-sized, so everything here is evaluated in the
shifted coordinate s = u - u*, where the weight

    w(s) = dtheta/ds * e^{u*}/2 = e^{-s} / (1 + e^{-2(u* + s)})

is order one for every u*.  No closed form in this module ever holds a
number of size exp(u*); the only quantity that grows is log of the bump
height, kept in the log domain throughout.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import pair_metrics
from .circle_fn import GridFunction, grid_theta
from .errors import NumericalConditioningError, ParameterError
from .report import BoundReport

__all__ = [
    "CounterexampleFamily",
    "FamilyMetrics",
    "build_family",
    "family_metrics",
    "verify_theorem_1",
    "grid_realization",
    "cross_validate_pipeline",
    "family_row",
]

#: most terms of the pairing-ratio series; u* - du >= 0.2 needs fewer than
#: 85, the grid cross-check at most 15 and every index n one
_SERIES_TERMS = 100
#: rounding of one series term (exp, sinh, one complex quotient and product)
#: in ulps of the term's bound d_m; the sum adds one ulp per term
_ROUNDING_ULPS = 16


@dataclass(frozen=True)
class CounterexampleFamily:
    """One member of the divergence family.

    eps is the step height of log h; the box bump of f occupies
    |u - bump_center_u| <= bump_halfwidth_u in the transformed coordinate.
    For the indexed family eps = 1/(2 pi n); n is None when the family was
    built from an explicit eps (the moderate-scale regime used by the
    pipeline cross-check).
    """

    eps: float
    variant: str
    bump_center_u: float
    bump_halfwidth_u: float
    log_bump_height: float
    n: int | None = None

    @property
    def bump_theta_support(self) -> tuple[float, float]:
        """Angular support [theta_lo, theta_hi] of the bump, inside (0, pi)."""
        u0 = self.bump_center_u
        du = self.bump_halfwidth_u
        lo = math.pi - 2.0 * math.atan(math.exp(-(u0 - du)))
        hi = math.pi - 2.0 * math.atan(math.exp(-(u0 + du)))
        return lo, hi


def build_family(n: int | None = None, du: float = 0.1,
                 variant: str = "floored", *,
                 eps: float | None = None) -> CounterexampleFamily:
    """Construct the family member for index n (or explicit eps).

    Exactly one of n and eps must be given; n >= 1 sets eps = 1/(2 pi n),
    and an n whose bump center 4 pi^3 n leaves the float64 range raises
    NumericalConditioningError.
    The bump is a unit-mass box on |u - u*| <= du with u* = 2 pi^2 / eps.
    Its phase error |psi - pi| equals beta * du with beta = eps / (2 pi),
    and must stay below pi/2, where the defect stays positive.  An index
    gives beta * du = du / (4 pi^2 n) <= 1 / (4 pi^2); only an explicit
    eps, as in the grid cross-check, comes near the limit.
    """
    if (n is None) == (eps is None):
        raise ParameterError("give exactly one of n and eps")
    if n is not None:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ParameterError(f"n must be a positive integer, got {n!r}")
        n = int(n)
        if n > sys.float_info.max / (4.0 * math.pi ** 3):
            raise NumericalConditioningError(
                f"an index of {len(str(n))} digits puts the bump center "
                f"4 pi^3 n beyond float64")
        eps = 1.0 / (2.0 * math.pi * n)
    else:
        eps = float(eps)
        if not eps > 0.0:
            raise ParameterError(f"eps must be positive, got {eps}")
    du = float(du)
    if not 0.0 < du <= 1.0:
        raise ParameterError(f"need 0 < du <= 1, got {du}")
    if variant not in ("floored", "plus-one"):
        raise ParameterError(f"unknown variant {variant!r}")
    if variant == "floored" and eps >= 2.0:
        raise ParameterError(
            f"floored variant needs eps < 2 (weight 1 - eps/2 > 0), got {eps}")
    beta = eps / (2.0 * math.pi)
    phase_err = beta * du
    if phase_err >= math.pi / 2.0:
        raise ParameterError(
            f"bump leaves the positive-defect region (beta*du = {phase_err:.3g})")
    u_star = 2.0 * math.pi ** 2 / eps
    if u_star - du <= 0.0:
        raise ParameterError("bump must stay inside the arc (u* > du)")
    width = 2.0 * (math.atan(math.exp(-(u_star - du)))
                   - math.atan(math.exp(-(u_star + du))))
    if width >= sys.float_info.min:
        log_height = -math.log(width)
    else:
        # a subnormal or zero width has lost its digits; the tail of atan
        # is below resolution and the asymptotic form is exact to
        # O(e^{-2 u*})
        log_height = u_star - math.log(4.0 * math.sinh(du))
    return CounterexampleFamily(
        eps=eps, variant=variant, bump_center_u=u_star,
        bump_halfwidth_u=du, log_bump_height=log_height, n=n)


def _pairing_ratio(fam: CounterexampleFamily) -> tuple[float, float]:
    """Pairing ratio R = int (1 - cos psi) w ds / int w ds over the bump,
    and a bound on its error.

    With q = e^{-2u*} the weight w(s) = e^{-s} / (1 + q e^{-2s}) expands as
    sum_m (-q)^m e^{-ks}, k = 2m + 1, so both bump integrals are exact
    series: D = int w = sum (-q)^m 2 sinh(k du)/k and
    C = int cos(phi0 + beta s) w = sum (-q)^m Re[e^{i phi0}
    2 sinh((i beta - k) du)/(i beta - k)], and R = 1 - C/D.  Term m of
    either series is at most d_m = q^m 2 sinh(k du)/k, and d_{m+1}/d_m is
    below rho = q e^{2du}, so the tail after M terms is at most
    d_M / (1 - rho) in each.  The error bound is twice that tail plus
    (_ROUNDING_ULPS + M) eps sum d_m of rounding, over D (|C| <= D).
    Raises NumericalConditioningError when the tail needs more than
    _SERIES_TERMS terms to fall below the rounding, which only an explicit
    eps with u* - du near 0 reaches.
    """
    u0 = fam.bump_center_u
    du = fam.bump_halfwidth_u
    beta = fam.eps / (2.0 * math.pi)
    phase0 = beta * u0
    rot = complex(math.cos(phase0), math.sin(phase0))
    q = math.exp(-2.0 * u0)
    rho = math.exp(-2.0 * (u0 - du))
    mass = cos_mass = size = 0.0
    for m in range(_SERIES_TERMS + 1):
        k = 2 * m + 1
        q_m = q ** m
        d_m = q_m * 2.0 * math.sinh(k * du) / k
        tail = d_m / (1.0 - rho)
        if tail <= sys.float_info.epsilon * size:
            break
        if m == _SERIES_TERMS:
            raise NumericalConditioningError(
                f"pairing-ratio series needs more than {_SERIES_TERMS} terms "
                f"(u* - du = {u0 - du:.3g})")
        z = complex(-k, beta)
        sign = -1.0 if m % 2 else 1.0
        mass += sign * d_m
        cos_mass += sign * q_m * (rot * 2.0 * cmath.sinh(z * du) / z).real
        size += d_m
    rounding = (_ROUNDING_ULPS + m) * sys.float_info.epsilon * size
    return 1.0 - cos_mass / mass, (2.0 * tail + rounding) / mass


@dataclass(frozen=True)
class FamilyMetrics:
    """Closed-form metrics of one family member.

    m1 = ||f - g||_1, m2 = ||log f - log g||_1, m3 = T3 - 4 m1 (the
    certified lower bound for the squared H2 distance of the outer factors)
    and m4 = T1 + T2 + T3 (the exact squared H2 distance).  pairing_ratio
    is the mean of 1 - cos(psi) over the bump against the angular measure;
    delta_r = 1 - pairing_ratio/2 measures how far the bump sits from the
    ideal pairing value 2.  ratio_error bounds the error of pairing_ratio:
    the truncation of its two exact series plus their rounding.
    """

    variant: str
    eps: float
    m1: float
    m2: float
    m3: float
    m4: float
    t1: float
    t2: float
    t3: float
    pairing_ratio: float
    delta_r: float
    ratio_error: float


def family_metrics(fam: CounterexampleFamily) -> FamilyMetrics:
    """Evaluate every metric of the family member in closed form.

    The step height of h is the eps that placed the bump, so psi = pi at
    the bump center (the theorem's regime).  The pairing ratio comes from
    two exact series (see _pairing_ratio); ratio_error, its error bound, is
    3.8e-15 at every index n.
    """
    eps = fam.eps
    beta_s = eps / (2.0 * math.pi)
    sech_term = 1.0 / math.cosh(math.pi * beta_s / 2.0)
    defect_half_arc = math.pi * (1.0 - sech_term)

    if fam.variant == "floored":
        bump_coeff = 1.0 - eps / 2.0
        floor_density = eps / (4.0 * math.pi)
        arc_mass = 1.0 - eps / 4.0
    else:
        bump_coeff = 1.0
        floor_density = 1.0
        arc_mass = 1.0 + math.pi

    ratio, ratio_error = _pairing_ratio(fam)
    bump_defect = bump_coeff * ratio
    # expm1 keeps every digit of 1 - e^{-eps} and 1 - e^{-eps/2} as eps -> 0
    m1 = -math.expm1(-eps) * arc_mass
    m2 = eps * math.pi
    sqrt_h_step = math.expm1(-eps / 2.0)  # sqrt(h) - 1 on the arc
    t1 = sqrt_h_step ** 2 * arc_mass
    t2 = 2.0 * sqrt_h_step * (bump_defect + floor_density * defect_half_arc)
    t3 = 2.0 * (bump_defect + floor_density * 2.0 * defect_half_arc)
    m3 = t3 - 4.0 * m1
    m4 = t1 + t2 + t3

    return FamilyMetrics(
        variant=fam.variant, eps=eps,
        m1=m1, m2=m2, m3=m3, m4=m4, t1=t1, t2=t2, t3=t3,
        pairing_ratio=ratio, delta_r=1.0 - ratio / 2.0,
        ratio_error=ratio_error)


def verify_theorem_1(n: int, du: float = 0.1,
                     variant: str = "floored") -> BoundReport:
    """Check the divergence statement at index n.

    Passes iff ||f - g||_1 <= 1/n, ||log f - log g||_1 <= 1/n, and the
    certified lower bound satisfies sqrt(m3) >= 2 - 1/n, at any n.  A margin
    sqrt(m3) - (2 - 1/n), about 0.76/n (floored) or 0.34/n (plus-one),
    within the row's budget (ratio_error) plus rounding, 5.6e-15, is
    refused with NumericalConditioningError: n = 10^14 (plus-one) and
    every n from 10^15 on.
    """
    fam = build_family(n=n, du=du, variant=variant)
    n = fam.n
    met = family_metrics(fam)
    target = 2.0 - 1.0 / n
    achieved = math.sqrt(met.m3) if met.m3 > 0.0 else 0.0
    # a few ulps of the two values near 2 cover the rounding of m3, its
    # square root and the target
    unresolved = met.ratio_error + 4.0 * math.ulp(2.0)
    if abs(achieved - target) <= unresolved:
        raise NumericalConditioningError(
            f"n = {n}: margin {achieved - target:.3g} over 2 - 1/n is within "
            f"the row's budget plus rounding, {unresolved:.3g}")
    small = 1.0 / n
    details = {
        "n": n, "eps": fam.eps, "variant": variant,
        "u_star": fam.bump_center_u, "du": du,
        "m1": met.m1, "m2": met.m2, "m3": met.m3, "m4": met.m4,
        "l1_budget": small,
        "h2_lower": achieved, "h2_identity": math.sqrt(met.m4),
        "pairing_ratio": met.pairing_ratio, "delta_r": met.delta_r,
        "ratio_error": met.ratio_error,
        "m1_ok": met.m1 <= small, "m2_ok": met.m2 <= small,
    }
    return BoundReport("thm1", target, achieved, details)


def family_row(n: int, du: float = 0.1, variant: str = "floored") -> dict:
    """One plottable summary row for index n, as emitted by the CLI."""
    rep = verify_theorem_1(n, du=du, variant=variant)
    d = rep.details
    return {
        "n": n,
        "l1_diff": d["m1"],
        "log_l1_diff": d["m2"],
        "h2_lower": d["h2_lower"],
        "h2_identity": d["h2_identity"],
        "budget": d["ratio_error"],
        "pass": rep.passed,
    }


def _three_shift_overlap(edges_lo: np.ndarray, edges_hi: np.ndarray,
                         a: float, b: float) -> np.ndarray:
    """Fraction of each cell [lo, hi] covered by (a, b) or its 2 pi images."""
    h = edges_hi - edges_lo
    frac = np.zeros_like(edges_lo)
    for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
        lo = edges_lo + shift
        hi = edges_hi + shift
        frac += np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
    return frac / h


def _overlap_fraction(edges_lo: np.ndarray, edges_hi: np.ndarray,
                      a: float, b: float) -> np.ndarray:
    """_three_shift_overlap on increasing cell edges, evaluated only on the
    cells it can give a value other than 0.0 or 1.0.

    A cell inside (a, b) that no 2 pi image of (a, b) reaches gets h/h = 1.0
    from the formula, bit for bit, and a cell no image reaches gets 0.0.
    The formula runs on the cells that a or b cuts, and on every cell a
    shifted image reaches (two extra cells each side absorb the rounding of
    the shift), so the result equals the formula's on every cell.
    """
    n = len(edges_lo)
    frac = np.zeros_like(edges_lo)
    frac[np.searchsorted(edges_lo, a):np.searchsorted(edges_hi, b, "right")] = 1.0
    spans = [(np.searchsorted(edges_hi, x, "right"), np.searchsorted(edges_lo, x))
             for x in (a, b)]
    for shift in (-2.0 * math.pi, 2.0 * math.pi):
        spans.append((np.searchsorted(edges_hi, a - shift, "right") - 2,
                      np.searchsorted(edges_lo, b - shift) + 2))
    cut = np.concatenate([np.arange(max(start, 0), min(stop, n))
                          for start, stop in spans])
    frac[cut] = _three_shift_overlap(edges_lo[cut], edges_hi[cut], a, b)
    return frac


def grid_realization(fam: CounterexampleFamily,
                     n_pts: int) -> tuple[GridFunction, GridFunction]:
    """Sample the family on the uniform grid as cell averages (f, g).

    Cell averaging keeps the grid L1 norms of the box bump and of the step
    h equal to their exact values; pointwise sampling would make both
    depend on where the discontinuities fall between samples.  Requires at
    least 32 cells across the bump.
    """
    lo, hi = fam.bump_theta_support
    theta = grid_theta(n_pts)
    h_cell = 2.0 * math.pi / n_pts
    if (hi - lo) / h_cell < 32.0:
        raise ParameterError(
            f"bump spans {(hi - lo) / h_cell:.1f} cells on {n_pts} points; "
            f"need at least 32 (raise eps)")
    edges_lo = theta - h_cell / 2.0
    edges_hi = theta + h_cell / 2.0
    # in place: the roundings of c * frac and then of the affine maps, with
    # none of their n-sized temporaries, which page-fault in a small heap
    f_vals = _overlap_fraction(edges_lo, edges_hi, lo, hi)
    f_vals *= math.exp(fam.log_bump_height)
    if fam.variant == "floored":
        f_vals *= 1.0 - fam.eps / 2.0
        f_vals += fam.eps / (4.0 * math.pi)
    else:
        f_vals += 1.0
    h_vals = _overlap_fraction(edges_lo, edges_hi, 0.0, math.pi)
    h_vals *= math.exp(-fam.eps) - 1.0
    h_vals += 1.0
    h_vals *= f_vals
    return GridFunction(n_pts, f_vals), GridFunction(n_pts, h_vals)


def cross_validate_pipeline(eps: float) -> BoundReport:
    """Closed-form pipeline against direct grid factorization, at moderate eps.

    At moderate eps the bump sits at u* = 2 pi^2 / eps <= 12, close enough
    to resolve on a uniform grid, so every metric can be computed twice:
    by this module's closed forms and by factorize_boundary plus the
    H2 identity terms on the sampled realization.  Uses the plus-one
    variant (the floored weights need eps < 2) with bump halfwidth
    du = 0.5 on a grid of n_pts = 16384 points.  Passes iff all metric pairs
    agree to the relative tolerance tol = 0.02.
    """
    tol = 0.02
    du = 0.5
    n_pts = 16384
    eps = float(eps)
    u_star = 2.0 * math.pi ** 2 / eps
    if u_star > 12.0:
        raise ParameterError(
            f"eps = {eps} puts the bump at u* = {u_star:.2f} > 12, beyond "
            f"uniform-grid reach; need eps >= {2.0 * math.pi ** 2 / 12.0:.3f}")
    fam = build_family(eps=eps, du=du, variant="plus-one")
    met = family_metrics(fam)
    grid = pair_metrics(*grid_realization(fam, n_pts))
    h2_grid = float(grid.h2_squared[0])
    t1, t2, t3 = (float(t[0]) for t in (grid.terms.t1, grid.terms.t2,
                                          grid.terms.t3))

    scale = max(abs(met.m4), 1e-300)
    pairs = {
        "t1": (met.t1, t1, max(abs(met.t1), 0.05 * scale)),
        "t2": (met.t2, t2, max(abs(met.t2), 0.05 * scale)),
        "t3": (met.t3, t3, max(abs(met.t3), 0.05 * scale)),
        "m1": (met.m1, float(grid.l1_diff[0]), max(abs(met.m1), 0.05 * scale)),
        "m4": (met.m4, t1 + t2 + t3, abs(met.m4)),
        "h2_direct": (met.m4, h2_grid, abs(met.m4)),
        # m3 is a difference of same-size terms; measure it against the
        # identity sum to keep the comparison meaningful near cancellation
        "m3": (met.m3, float(grid.lower_bound[0]), max(abs(met.m3), scale)),
    }
    details: dict = {"eps": eps, "du": du, "n_pts": n_pts, "tol": tol,
                     "u_star": u_star}
    worst = 0.0
    for key, (analytic, grid, denom) in pairs.items():
        rel = abs(analytic - grid) / denom
        details[key + "_analytic"] = analytic
        details[key + "_grid"] = grid
        details[key + "_rel"] = rel
        worst = max(worst, rel)
    return BoundReport("cross-validation", worst, tol, details)
