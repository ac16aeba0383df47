"""Machine checks for the continuity bounds of the factorization map.

Each check_* routine computes the exact left side (a squared H2 distance of
boundary factors, or a cosine-defect norm) and the quoted right side, and
returns a BoundReport.  The expansion behind all of them is the identity

    ||f+ - g+||_{H2}^2 = T1 + T2 + T3,

    T1 = ||(sqrt f - sqrt g)^2||_1,
    T2 = 2 int sqrt(f) (sqrt(g) - sqrt(f)) (1 - cos psi_hat) dtheta,
    T3 = 2 int f (1 - cos psi_hat) dtheta,

with psi_hat = (1/2) * (log f - log g)~, which PairMetrics.terms evaluates
term by term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .circle_fn import (
    GridFunction,
    _check_grid_size,
    h2_distance,
    harmonic_conjugate,
    lp_norm,
)
from .errors import ParameterError
from .factorization import _positive_log, factorize_boundary
from .orlicz import (
    NFunction,
    k0_constant,
    lambda_phi,
    luxemburg_norm,
    orlicz_norm,
)
from .report import BoundReport, bound_report

__all__ = [
    "IdentityTerms",
    "PairMetrics",
    "pair_metrics",
    "h2_identity_terms",
    "h2_squared_direct",
    "check_identity",
    "check_theorem_2",
    "check_corollary_p",
    "check_theorem_main",
    "check_lemma_orl",
    "check_lemma_l1",
    "constant_c_p",
    "constant_c_inf",
    "convergence_demo",
    "dip_schedule",
    "random_phase",
    "random_density",
]


@dataclass(frozen=True)
class IdentityTerms:
    t1: float
    t2: float
    t3: float

    @property
    def total(self) -> float:
        return self.t1 + self.t2 + self.t3


@dataclass(frozen=True, eq=False)
class PairMetrics:
    """What the pair checks read, each computed on first access and kept.

    A check pays only for what its formula reads: the identity terms cost a
    conjugate FFT that Theorem 2, Corollary p and the master bound skip.
    The logs are lazy too; kept alive across the two boundary factorizations
    they made cross_validate_pipeline page-fault measurably more.
    """

    f: GridFunction
    g: GridFunction

    @cached_property
    def log_ratio(self) -> np.ndarray:
        """log f - log g; raises DomainError where f or g is not positive."""
        return _positive_log(self.f, None) - _positive_log(self.g, None)

    @cached_property
    def l1_diff(self) -> float:
        """||f - g||_1."""
        return lp_norm(GridFunction(self.f.n, self.f.values - self.g.values), 1)

    @cached_property
    def log_l1_diff(self) -> float:
        """||log f - log g||_1."""
        return lp_norm(GridFunction(self.f.n, self.log_ratio), 1)

    @cached_property
    def h2_squared(self) -> float:
        """||f+ - g+||^2 from the two boundary factorizations."""
        return h2_distance(factorize_boundary(self.f),
                           factorize_boundary(self.g)) ** 2

    @cached_property
    def terms(self) -> IdentityTerms:
        """T1, T2, T3 of the expansion; their sum is h2_squared."""
        n = self.f.n
        psi_hat = 0.5 * harmonic_conjugate(
            GridFunction(n, self.log_ratio)).values
        defect = 1.0 - np.cos(psi_hat)
        rf = np.sqrt(self.f.values)
        rg = np.sqrt(self.g.values)
        h = 2.0 * np.pi / n
        t1 = float(np.sum((rf - rg) ** 2) * h)
        t2 = float(np.sum(2.0 * rf * (rg - rf) * defect) * h)
        t3 = float(np.sum(2.0 * self.f.values * defect) * h)
        return IdentityTerms(t1, t2, t3)

    @cached_property
    def lower_bound(self) -> float:
        """Certified lower bound T3 - 4 ||f - g||_1 for h2_squared."""
        terms = self.terms
        bound = terms.t3 - 4.0 * self.l1_diff
        if bound > terms.total + 1e-9:
            # T1 >= 0 and T2 >= -4 ||f - g||_1 make this impossible
            raise ParameterError(
                f"lower bound {bound} exceeds the identity sum {terms.total}; "
                f"inputs are inconsistent")
        return bound

    def f_norm(self, p) -> float:
        """||f||_p, p = inf for the sup norm."""
        return lp_norm(self.f, p)


def pair_metrics(f: GridFunction, g: GridFunction) -> PairMetrics:
    """Record for a pair of positive densities on one grid."""
    if f.n != g.n:
        raise ParameterError("f and g must share a grid")
    return PairMetrics(f, g)


def h2_identity_terms(f: GridFunction, g: GridFunction) -> IdentityTerms:
    """The three expansion terms; their sum is the squared H2 distance."""
    return pair_metrics(f, g).terms


def h2_squared_direct(f: GridFunction, g: GridFunction) -> float:
    """Squared H2 distance of the boundary factors, no expansion involved."""
    return pair_metrics(f, g).h2_squared


def check_identity(f: GridFunction, g: GridFunction,
                   tol: float = 1e-6) -> BoundReport:
    """Expansion sum against the directly computed squared H2 distance."""
    pm = pair_metrics(f, g)
    terms, direct = pm.terms, pm.h2_squared
    gap = abs(terms.total - direct)
    allow = tol * (1.0 + abs(direct))
    return bound_report("identity", gap, 0.0, tol=0.0, atol=allow,
                        details={"t1": terms.t1, "t2": terms.t2,
                                 "t3": terms.t3, "sum": terms.total,
                                 "h2_squared": direct, "rel_tol": tol})


def check_theorem_2(f: GridFunction, g: GridFunction,
                    tol: float = 1e-9) -> BoundReport:
    """||f+ - g+||^2 <= 2 ||f - g||_1 + 2.5 ||f||_inf ||log f - log g||_1.

    The headline right side uses the round constant 2.5; the sharper value
    2*K0 is reported alongside and both must hold for the check to pass.
    """
    pm = pair_metrics(f, g)
    lhs, l1diff, logdiff = pm.h2_squared, pm.l1_diff, pm.log_l1_diff
    peak = pm.f_norm(np.inf)
    rhs = 2.0 * l1diff + 2.5 * peak * logdiff
    rhs_sharp = 2.0 * l1diff + 2.0 * k0_constant() * peak * logdiff
    pass_sharp = lhs <= rhs_sharp * (1.0 + tol) + 1e-12
    rep = bound_report("thm2", lhs, rhs, tol=tol, atol=1e-12,
                       details={"l1_diff": l1diff, "log_l1_diff": logdiff,
                                "sup_f": peak, "rhs_sharp": rhs_sharp,
                                "pass_sharp": pass_sharp,
                                "two_k0": 2.0 * k0_constant()})
    return replace(rep, passed=rep.passed and pass_sharp)


def constant_c_p(p: float) -> float:
    """C(p) = 2^((p+1)/p) * K0^((p-1)/p) * (p/(p-1))^((p-1)/p) for 1 < p < inf."""
    p = float(p)
    if not (1.0 < p < np.inf):
        raise ParameterError(f"need 1 < p < inf, got {p}")
    k0 = k0_constant()
    return (2.0 ** ((p + 1.0) / p) * k0 ** ((p - 1.0) / p)
            * (p / (p - 1.0)) ** ((p - 1.0) / p))


def constant_c_inf() -> float:
    """Limit constant 2*K0 < 2.5 for the sup-norm bound."""
    return 2.0 * k0_constant()


def check_corollary_p(f: GridFunction, g: GridFunction, p: float,
                      tol: float = 1e-9) -> BoundReport:
    """||f+ - g+||^2 <= 2 ||f-g||_1 + C(p) ||f||_p ||log f - log g||_1^(1-1/p)."""
    pm = pair_metrics(f, g)
    lhs = pm.h2_squared
    cp = constant_c_p(p)
    l1diff, logdiff = pm.l1_diff, pm.log_l1_diff
    rhs = 2.0 * l1diff + cp * pm.f_norm(p) * logdiff ** ((p - 1.0) / p)
    return bound_report("cor-p", lhs, rhs, tol=tol, atol=1e-12,
                        details={"p": p, "C_p": cp, "l1_diff": l1diff,
                                 "log_l1_diff": logdiff})


def check_theorem_main(f: GridFunction, g: GridFunction, phi: NFunction,
                       tol: float = 1e-9) -> BoundReport:
    """The Orlicz-space master bound.

    ||f+ - g+||^2 <= 2 ||f-g||_1 + 4 ||f||_Psi Lambda_Phi((K0/2) ||log f - log g||_1)
    with Psi the complement of Phi and ||.||_Psi the Orlicz (Amemiya) norm.
    """
    pm = pair_metrics(f, g)
    lhs, l1diff, logdiff = pm.h2_squared, pm.l1_diff, pm.log_l1_diff
    norm_f = orlicz_norm(f, phi.complement())
    s = 0.5 * k0_constant() * logdiff
    lam = lambda_phi(phi, s) if s > 0.0 else 0.0
    rhs = 2.0 * l1diff + 4.0 * norm_f * lam
    return bound_report("main", lhs, rhs, tol=tol, atol=1e-12,
                        details={"l1_diff": l1diff, "log_l1_diff": logdiff,
                                 "orlicz_norm_f": norm_f, "lambda": lam,
                                 "s": s})


def check_lemma_orl(psi: GridFunction, phi: NFunction,
                    tol: float = 1e-9) -> BoundReport:
    """||1 - cos(psi~)||_(Phi) <= 2 Lambda_Phi(K0 ||psi||_1)."""
    if not psi.is_real:
        raise ParameterError("psi must be real")
    defect = 1.0 - np.cos(harmonic_conjugate(psi).values)
    lhs = luxemburg_norm(GridFunction(psi.n, defect), phi)
    s = k0_constant() * lp_norm(psi, 1)
    rhs = 2.0 * lambda_phi(phi, s) if s > 0.0 else 0.0
    return bound_report("lemma-orl", lhs, rhs, tol=tol, atol=1e-12,
                        details={"s": s})


def check_lemma_l1(psi: GridFunction, tol: float = 1e-9) -> BoundReport:
    """||1 - cos(psi~)||_1 <= 2 K0 ||psi||_1."""
    if not psi.is_real:
        raise ParameterError("psi must be real")
    defect = 1.0 - np.cos(harmonic_conjugate(psi).values)
    lhs = lp_norm(GridFunction(psi.n, defect), 1)
    rhs = 2.0 * k0_constant() * lp_norm(psi, 1)
    return bound_report("lemma-l1", lhs, rhs, tol=tol, atol=1e-12,
                        details={"psi_l1": lp_norm(psi, 1)})


def convergence_demo(f: GridFunction, perturbations) -> list[tuple[float, float, float]]:
    """Rows (||f - f_k||_1, ||log f - log f_k||_1, ||f+ - f_k+||_H2).

    The perturbations are grid functions converging to f in the first two
    metrics; the third column then tends to zero as well, which is the
    positive counterpart of the divergence family.
    """
    pairs = [pair_metrics(f, fk) for fk in perturbations]
    return [(pm.l1_diff, pm.log_l1_diff, float(np.sqrt(pm.h2_squared)))
            for pm in pairs]


def dip_schedule(f: GridFunction, ks, depth: float = 0.999,
                 sharpness: int = 32) -> list[GridFunction]:
    """Standard demo schedule f_k = f * (1 - (depth/k) * B), B a smooth bump.

    B = ((1 + cos theta)/2)^sharpness has values in [0, 1], so f_1 dips to
    (1 - depth) * f at the bump peak.  The first two metrics decay like 1/k
    while the H2 column starts in the strongly nonlinear near-zero regime,
    which is what makes the demo's decay visible.
    """
    if not 0.0 < depth < 1.0:
        raise ParameterError("depth must be in (0, 1)")
    bump = ((1.0 + np.cos(f.theta)) / 2.0) ** int(sharpness)
    out = []
    for k in ks:
        if not k >= 1:
            raise ParameterError("schedule indices must be >= 1")
        out.append(GridFunction(f.n, f.values * (1.0 - (depth / k) * bump)))
    return out


def random_phase(rng: np.random.Generator, n: int = 4096,
                 degree: int = 16, scale: float = 1.0) -> GridFunction:
    """Random real trig polynomial, coefficients uniform in [-1, 1].

    The degree is drawn uniformly from 1..degree and the result is scaled
    by `scale`.  This is the documented sweep distribution for conjugate
    phases; its exponential is the density distribution.
    """
    n = _check_grid_size(n)
    d = int(rng.integers(1, degree + 1))
    a = rng.uniform(-1.0, 1.0, d + 1)
    b = rng.uniform(-1.0, 1.0, d)
    # a_k cos(k theta_j) + b_k sin(k theta_j) = Re[z_k e^{2 pi i m j / n}]
    # with z_k = (-1)^k (a_k - i b_k) and m = k mod n (theta_0 = -pi), so
    # one inverse real FFT sums the series; a term with m > n/2 enters bin
    # n - m conjugated, and bins 0 and n/2 carry only the real part
    k = np.arange(d + 1)
    z = np.where(k % 2 == 0, 1.0, -1.0) * (a - 1j * np.concatenate(([0.0], b)))
    m = k % n
    z = np.where(m > n // 2, np.conj(z), z)
    m = np.minimum(m, n - m)
    edge = (m == 0) | (2 * m == n)
    spec = np.zeros(n // 2 + 1, dtype=np.complex128)
    np.add.at(spec, m, np.where(edge, n * z.real, 0.5 * n * z))
    return GridFunction(n, scale * np.fft.irfft(spec, n))


def random_density(rng: np.random.Generator, n: int = 4096,
                   degree: int = 16, scale: float = 1.0) -> GridFunction:
    """exp of a random_phase draw: positive, smooth, with integrable log."""
    w = random_phase(rng, n=n, degree=degree, scale=scale)
    return GridFunction(n, np.exp(w.values))
