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

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .bounds import pair_metrics
from .circle_fn import CONJUGATE_ARC_SIGN, GridFunction, grid_theta
from .errors import (
    NumericalConditioningError,
    ParameterError,
    PrecisionBudgetError,
)
from .report import BoundReport

__all__ = [
    "BUDGET_N_MAX",
    "CounterexampleFamily",
    "FamilyMetrics",
    "build_family",
    "family_metrics",
    "verify_theorem_1",
    "grid_realization",
    "cross_validate_pipeline",
    "family_row",
]

#: Largest index n the double-precision pipeline supports end-to-end.  The
#: bump height satisfies log c ~ 4 pi^3 n ~ 124 n, and exp(log c) must stay
#: below the float64 overflow threshold exp(709.78); n = 5 gives log c ~ 621
#: while n = 6 gives ~ 745.
BUDGET_N_MAX = 5

_QUAD_TOL = 1e-13


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
    bump_theta_width: float
    n: int | None = None

    @property
    def bump_theta_support(self) -> tuple[float, float]:
        """Angular support [theta_lo, theta_hi] of the bump, inside (0, pi)."""
        u0 = self.bump_center_u
        du = self.bump_halfwidth_u
        lo = math.pi - 2.0 * math.atan(math.exp(-(u0 - du)))
        hi = math.pi - 2.0 * math.atan(math.exp(-(u0 + du)))
        return lo, hi

    def psi_values(self, theta, step_eps: float | None = None) -> np.ndarray:
        """Conjugate phase (step_eps/2pi) * log|tan(theta/2)| pointwise.

        Diverges logarithmically at theta in {0, +-pi}; infinities are
        returned as such.
        """
        eps = self.eps if step_eps is None else float(step_eps)
        beta = CONJUGATE_ARC_SIGN * eps / (2.0 * math.pi)
        th = np.asarray(theta, dtype=float)
        with np.errstate(divide="ignore"):
            u = np.log(np.abs(np.tan(th / 2.0)))
        return beta * u


def build_family(n: int | None = None, du: float = 0.1,
                 variant: str = "floored", *, eps: float | None = None,
                 enforce_bump_phase: bool = True) -> CounterexampleFamily:
    """Construct the family member for index n (or explicit eps).

    Exactly one of n and eps must be given; n >= 1 sets eps = 1/(2 pi n).
    The bump is a unit-mass box on |u - u*| <= du with u* = 2 pi^2 / eps.
    With enforce_bump_phase (the default) the phase error |psi - pi| on the
    bump, which equals beta * du, must stay below 0.1; the pipeline
    cross-check disables that to reach moderate eps where the whole family
    fits on a uniform grid.
    """
    if CONJUGATE_ARC_SIGN != 1:
        raise NotImplementedError(
            "bump placement assumes the arc-(0,pi) conjugate sign +1")
    if (n is None) == (eps is None):
        raise ParameterError("give exactly one of n and eps")
    if n is not None:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ParameterError(f"n must be a positive integer, got {n!r}")
        n = int(n)
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
    if enforce_bump_phase and phase_err > 0.1:
        raise ParameterError(
            f"|psi - pi| reaches {phase_err:.3g} > 0.1 on the bump; "
            f"shrink du below {0.1 / beta:.3g}")
    if phase_err >= math.pi / 2.0:
        raise ParameterError(
            f"bump leaves the positive-defect region (beta*du = {phase_err:.3g})")
    u_star = 2.0 * math.pi ** 2 / eps
    if u_star - du <= 0.0:
        raise ParameterError("bump must stay inside the arc (u* > du)")
    width = 2.0 * (math.atan(math.exp(-(u_star - du)))
                   - math.atan(math.exp(-(u_star + du))))
    if width > 0.0:
        log_height = -math.log(width)
    else:
        # exp(-u*) underflowed; the tail of atan is below resolution and
        # the asymptotic form is exact to O(e^{-2 u*})
        log_height = u_star - math.log(4.0 * math.sinh(du))
    return CounterexampleFamily(
        eps=eps, variant=variant, bump_center_u=u_star,
        bump_halfwidth_u=du, log_bump_height=log_height,
        bump_theta_width=width, n=n)


def _bump_quadratures(fam: CounterexampleFamily, step_eps: float):
    """Pairing ratio R = int (1 - cos psi) w ds / int w ds over the bump.

    The weight w(s) = e^{-s} / (1 + e^{-2(u* + s)}) is the exact angular
    measure rescaled by e^{u*}/2, so the ratio carries no large factors.
    """
    u0 = fam.bump_center_u
    du = fam.bump_halfwidth_u
    beta = step_eps / (2.0 * math.pi)
    phase0 = beta * u0

    def weight(s):
        return math.exp(-s) / (1.0 + math.exp(-2.0 * (u0 + s)))

    num, err_n = quad(lambda s: (1.0 - math.cos(phase0 + beta * s)) * weight(s),
                      -du, du, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    den, err_d = quad(weight, -du, du,
                      epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    if err_n > 1e-10 or err_d > 1e-10:
        raise NumericalConditioningError(
            f"bump quadrature error estimate too large ({err_n:.2e}, {err_d:.2e})")
    ratio = num / den
    quad_error = (err_n + ratio * err_d) / den
    return ratio, quad_error


@dataclass(frozen=True)
class FamilyMetrics:
    """Closed-form metrics of one family member.

    m1 = ||f - g||_1, m2 = ||log f - log g||_1, m3 = T3 - 4 m1 (the
    certified lower bound for the squared H2 distance of the outer factors)
    and m4 = T1 + T2 + T3 (the exact squared H2 distance).  pairing_ratio
    is the mean of 1 - cos(psi) over the bump against the angular measure;
    delta_r = 1 - pairing_ratio/2 measures how far the bump sits from the
    ideal pairing value 2.  correction_bound bounds the weight-tail term
    e^{-2(u* - du)}, and quad_error propagates the quadrature estimates;
    both are already reflected in the values, not omitted from them.
    """

    variant: str
    eps: float
    step_eps: float
    m1: float
    m2: float
    m3: float
    m4: float
    t1: float
    t2: float
    t3: float
    l1_f: float
    arc_mass: float
    pairing_ratio: float
    delta_r: float | None
    log_l1_f: float | None
    correction_bound: float
    quad_error: float


def family_metrics(fam: CounterexampleFamily,
                   step_eps: float | None = None) -> FamilyMetrics:
    """Evaluate every metric of the family member in closed form.

    step_eps decouples the step height of h from the eps that placed the
    bump; the default couples them (the theorem's regime, psi = pi at the
    bump center).  With step_eps -> 0 at fixed fam all metrics vanish,
    which is the h -> 1 consistency limit.
    """
    coupled = step_eps is None
    se = fam.eps if coupled else float(step_eps)
    if not se >= 0.0:
        raise ParameterError(f"step height must be nonnegative, got {se}")
    eps = fam.eps
    beta_s = se / (2.0 * math.pi)
    sech_term = 1.0 / math.cosh(math.pi * beta_s / 2.0)
    defect_half_arc = math.pi * (1.0 - sech_term)

    if fam.variant == "floored":
        bump_coeff = 1.0 - eps / 2.0
        floor_density = eps / (4.0 * math.pi)
        arc_mass = 1.0 - eps / 4.0
        l1_f = 1.0
    else:
        bump_coeff = 1.0
        floor_density = 1.0
        arc_mass = 1.0 + math.pi
        l1_f = 1.0 + 2.0 * math.pi

    ratio, quad_error = _bump_quadratures(fam, se)
    bump_defect = bump_coeff * ratio
    m1 = (1.0 - math.exp(-se)) * arc_mass
    m2 = se * math.pi
    t1 = (1.0 - math.exp(-se / 2.0)) ** 2 * arc_mass
    t2 = 2.0 * (math.exp(-se / 2.0) - 1.0) * (
        bump_defect + floor_density * defect_half_arc)
    t3 = 2.0 * (bump_defect + floor_density * 2.0 * defect_half_arc)
    m3 = t3 - 4.0 * m1
    m4 = t1 + t2 + t3

    tail_arg = -2.0 * (fam.bump_center_u - fam.bump_halfwidth_u)
    correction_bound = math.exp(tail_arg) if tail_arg > -740.0 else 0.0

    log_l1_f = None
    if fam.variant == "plus-one":
        # ||log f||_1 = log(1 + c)/c with c the bump height
        lc = fam.log_bump_height
        if lc < 700.0:
            log_l1_f = math.log1p(math.exp(lc)) * math.exp(-lc)
        else:
            log_l1_f = math.exp(math.log(lc) - lc)

    return FamilyMetrics(
        variant=fam.variant, eps=eps, step_eps=se,
        m1=m1, m2=m2, m3=m3, m4=m4, t1=t1, t2=t2, t3=t3,
        l1_f=l1_f, arc_mass=arc_mass,
        pairing_ratio=ratio, delta_r=(1.0 - ratio / 2.0) if coupled else None,
        log_l1_f=log_l1_f,
        correction_bound=correction_bound, quad_error=quad_error)


def verify_theorem_1(n: int, du: float = 0.1,
                     variant: str = "floored") -> BoundReport:
    """Check the divergence statement at index n.

    Passes iff ||f - g||_1 <= 1/n, ||log f - log g||_1 <= 1/n, and the
    certified lower bound satisfies sqrt(m3) >= 2 - 1/n.  Indices beyond
    BUDGET_N_MAX raise PrecisionBudgetError rather than degrade silently.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    if n > BUDGET_N_MAX:
        raise PrecisionBudgetError(
            f"n = {n} exceeds the double-precision budget (n <= {BUDGET_N_MAX}); "
            f"the bump height exponent {4 * math.pi ** 3 * n:.0f} overflows "
            f"float64 and needs extended precision")
    fam = build_family(n=n, du=du, variant=variant)
    met = family_metrics(fam)
    target = 2.0 - 1.0 / n
    achieved = math.sqrt(met.m3) if met.m3 > 0.0 else 0.0
    small = 1.0 / n
    passed = (achieved >= target) and (met.m1 <= small) and (met.m2 <= small)
    details = {
        "n": n, "eps": fam.eps, "variant": variant,
        "u_star": fam.bump_center_u, "du": du,
        "m1": met.m1, "m2": met.m2, "m3": met.m3, "m4": met.m4,
        "l1_budget": small,
        "h2_lower": achieved, "h2_identity": math.sqrt(met.m4),
        "pairing_ratio": met.pairing_ratio, "delta_r": met.delta_r,
        "correction_bound": met.correction_bound,
        "quad_error": met.quad_error,
        "m1_ok": met.m1 <= small, "m2_ok": met.m2 <= small,
    }
    return BoundReport(name="thm1", lhs=target, rhs=achieved,
                       slack=achieved - target, passed=passed,
                       details=details)


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
        "budget": d["correction_bound"] + d["quad_error"],
        "pass": rep.passed,
    }


def _overlap_fraction(edges_lo: np.ndarray, edges_hi: np.ndarray,
                      a: float, b: float) -> np.ndarray:
    """Fraction of each cell [lo, hi] covered by (a, b), circle-aware."""
    h = edges_hi - edges_lo
    frac = np.zeros_like(edges_lo)
    for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
        lo = edges_lo + shift
        hi = edges_hi + shift
        frac += np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
    return frac / h


def grid_realization(fam: CounterexampleFamily, n_pts: int,
                     step_eps: float | None = None
                     ) -> tuple[GridFunction, GridFunction]:
    """Sample the family on the uniform grid as cell averages (f, g).

    Cell averaging keeps the grid L1 norms of the box bump and of the step
    h equal to their exact values; pointwise sampling would make both
    depend on where the discontinuities fall between samples.  Requires at
    least 32 cells across the bump.
    """
    se = fam.eps if step_eps is None else float(step_eps)
    c = math.exp(fam.log_bump_height)
    lo, hi = fam.bump_theta_support
    theta = grid_theta(n_pts)
    h_cell = 2.0 * math.pi / n_pts
    if (hi - lo) / h_cell < 32.0:
        raise ParameterError(
            f"bump spans {(hi - lo) / h_cell:.1f} cells on {n_pts} points; "
            f"need at least 32 (raise n_pts or eps)")
    edges_lo = theta - h_cell / 2.0
    edges_hi = theta + h_cell / 2.0
    bump = c * _overlap_fraction(edges_lo, edges_hi, lo, hi)
    if fam.variant == "floored":
        f_vals = fam.eps / (4.0 * math.pi) + (1.0 - fam.eps / 2.0) * bump
    else:
        f_vals = 1.0 + bump
    arc = _overlap_fraction(edges_lo, edges_hi, 0.0, math.pi)
    h_vals = 1.0 + (math.exp(-se) - 1.0) * arc
    f = GridFunction(n_pts, f_vals)
    g = GridFunction(n_pts, h_vals * f_vals)
    return f, g


def cross_validate_pipeline(eps: float, du: float = 0.5,
                            n_pts: int = 16384,
                            tol: float = 0.02) -> BoundReport:
    """Closed-form pipeline against direct grid factorization, at moderate eps.

    At moderate eps the bump sits at u* = 2 pi^2 / eps <= 12, close enough
    to resolve on a uniform grid, so every metric can be computed twice:
    by this module's closed forms and by factorize_boundary plus the
    H2 identity terms on the sampled realization.  Uses the plus-one
    variant (the floored weights need eps < 2).  Passes iff all metric
    pairs agree to the stated relative tolerance.
    """
    eps = float(eps)
    u_star = 2.0 * math.pi ** 2 / eps
    if u_star > 12.0:
        raise ParameterError(
            f"eps = {eps} puts the bump at u* = {u_star:.2f} > 12, beyond "
            f"uniform-grid reach; need eps >= {2.0 * math.pi ** 2 / 12.0:.3f}")
    fam = build_family(eps=eps, du=du, variant="plus-one",
                       enforce_bump_phase=False)
    met = family_metrics(fam)
    grid = pair_metrics(*grid_realization(fam, n_pts))
    h2_grid = grid.h2_squared
    terms = grid.terms

    scale = max(abs(met.m4), 1e-300)
    pairs = {
        "t1": (met.t1, terms.t1, max(abs(met.t1), 0.05 * scale)),
        "t2": (met.t2, terms.t2, max(abs(met.t2), 0.05 * scale)),
        "t3": (met.t3, terms.t3, max(abs(met.t3), 0.05 * scale)),
        "m1": (met.m1, grid.l1_diff, max(abs(met.m1), 0.05 * scale)),
        "m4": (met.m4, terms.total, abs(met.m4)),
        "h2_direct": (met.m4, h2_grid, abs(met.m4)),
        # m3 is a difference of same-size terms; measure it against the
        # identity sum to keep the comparison meaningful near cancellation
        "m3": (met.m3, grid.lower_bound, max(abs(met.m3), scale)),
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
    return BoundReport(name="cross-validation", lhs=worst, rhs=tol,
                       slack=tol - worst, passed=worst <= tol,
                       details=details)
