"""N-functions, Orlicz and Luxemburg norms, and the harness constants.

An N-function is Phi(x) = int_0^|x| u(t) dt with u nondecreasing and
u(0+) = 0.  Two representations are supported:

* closed-form powers Phi(tau) = tau^q / q with q > 1, and
* densities given by samples of u, interpreted as piecewise linear on a
  geometric master grid spanning [1e-12, 1e12] and extended outside by the
  power laws fitted to the end segments.

The complement is built from the generalized inverse
v(y) = sup{t : u(t) <= y}, which for the piecewise-linear representation is
again piecewise linear (flat u-segments become near-vertical ramps one ulp
wide).  Young's inequality x*y <= Phi(x) + Psi(y) therefore holds for the
represented pair up to roundoff, not just up to interpolation error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .circle_fn import GridFunction, harmonic_conjugate, lp_norm
from .errors import DomainError, NumericalConditioningError, ParameterError
from .report import BoundReport, bound_report

__all__ = [
    "NFunction",
    "GSpec",
    "luxemburg_norm",
    "orlicz_norm",
    "lambda_phi",
    "holder_check",
    "davis_constant",
    "k0_constant",
    "gauge_integral",
    "lemma_G_report",
    "weak11_ratio",
    "g_one_minus_cos",
    "g_clipped_square",
]

MASTER_LO = 1e-12
MASTER_HI = 1e12
MASTER_POINTS = 24 * 32 + 1  # 32 nodes per decade across [1e-12, 1e12]


class NFunction:
    """Convex N-function with an explicit nondecreasing density.

    Use the factories NFunction.power(q) and NFunction.from_density(t, u);
    the bare constructor is internal.
    """

    def __init__(self, kind: str, *, q: float | None = None,
                 t_nodes: np.ndarray | None = None,
                 u_nodes: np.ndarray | None = None,
                 json_grid: list | None = None):
        self.kind = kind
        self._complement: NFunction | None = None
        if kind == "power":
            q = float(q)
            if not q > 1.0:
                raise ParameterError(f"power N-function needs q > 1, got {q}")
            self.q = q
            return
        if kind != "density":
            raise ParameterError(f"unknown N-function kind {kind!r}")
        t = np.asarray(t_nodes, dtype=float)
        u = np.asarray(u_nodes, dtype=float)
        if t.ndim != 1 or t.shape != u.shape or len(t) < 2:
            raise ParameterError("density needs matching 1-d node arrays")
        if np.any(t <= 0) or np.any(np.diff(t) <= 0):
            raise ParameterError("density abscissae must be positive and increasing")
        if np.any(u < 0) or np.any(np.diff(u) < -1e-15 * max(1.0, u.max())):
            raise ParameterError("density values must be nonnegative and nondecreasing")
        if not (u[0] > 0 and u[1] > u[0] and u[-1] > u[-2]):
            raise ParameterError(
                "density must be strictly increasing on its end segments "
                "(needed for power-law extension and complementation)")
        self.t_nodes = t
        self.u_nodes = u
        self._json_grid = json_grid
        self.alpha_lo = math.log(u[1] / u[0]) / math.log(t[1] / t[0])
        self.alpha_hi = math.log(u[-1] / u[-2]) / math.log(t[-1] / t[-2])
        if not (self.alpha_lo > 0 and math.isfinite(self.alpha_lo)
                and self.alpha_hi >= 0 and math.isfinite(self.alpha_hi)):
            raise ParameterError("end segments give unusable power-law exponents")
        # cumulative integral of the piecewise-linear density; the piece
        # below the first node is the exact power-law integral
        head = u[0] * t[0] / (self.alpha_lo + 1.0)
        increments = 0.5 * (u[1:] + u[:-1]) * np.diff(t)
        self._cum = head + np.concatenate([[0.0], np.cumsum(increments)])
        self._convexity_spot_check()

    # -- construction ----------------------------------------------------

    @classmethod
    def power(cls, q: float) -> "NFunction":
        """Phi(tau) = tau^q / q."""
        return cls("power", q=q)

    @classmethod
    def from_density(cls, t, u) -> "NFunction":
        """Build from samples (t_i, u(t_i)) of the density.

        The samples are resampled onto a geometric master grid covering
        [1e-12, 1e12] (extended if the samples reach further), linear
        between input nodes and power-law outside them.
        """
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=float)
        if t.ndim != 1 or t.shape != u.shape or len(t) < 2:
            raise ParameterError("u_grid needs at least two (t, u) samples")
        order = np.argsort(t)
        t, u = t[order], u[order]
        if np.any(t <= 0) or np.any(np.diff(t) <= 0):
            raise ParameterError("sample abscissae must be positive and distinct")
        if np.any(u < 0) or np.any(np.diff(u) < 0):
            raise ParameterError("density samples must be nonnegative and nondecreasing")
        if not (u[0] > 0 and u[1] > u[0] and u[-1] > u[-2]):
            raise ParameterError(
                "density samples must increase strictly on the end segments")
        a_lo = math.log(u[1] / u[0]) / math.log(t[1] / t[0])
        a_hi = math.log(u[-1] / u[-2]) / math.log(t[-1] / t[-2])
        lo = min(MASTER_LO, t[0])
        hi = max(MASTER_HI, t[-1])
        master = np.geomspace(lo, hi, MASTER_POINTS)
        nodes = np.unique(np.concatenate([master, t]))
        vals = np.empty_like(nodes)
        below = nodes < t[0]
        above = nodes > t[-1]
        mid = ~(below | above)
        vals[mid] = np.interp(nodes[mid], t, u)
        vals[below] = u[0] * (nodes[below] / t[0]) ** a_lo
        vals[above] = u[-1] * (nodes[above] / t[-1]) ** a_hi
        grid = [[float(a), float(b)] for a, b in zip(t, u)]
        return cls("density", t_nodes=nodes, u_nodes=vals, json_grid=grid)

    def _convexity_spot_check(self, tol: float = 1e-10) -> None:
        xs = np.geomspace(self.t_nodes[0], self.t_nodes[-1], 41)
        px = self.phi(xs)
        pm = self.phi(0.5 * (xs[:-1] + xs[1:]))
        gap = pm - 0.5 * (px[:-1] + px[1:])
        scale = 1.0 + np.abs(px[1:])
        if np.any(gap > tol * scale):
            raise ParameterError("density does not define a convex Phi")

    # -- evaluation ------------------------------------------------------

    def phi(self, x):
        """Phi(x), vectorized; even in x."""
        ax = np.abs(np.asarray(x, dtype=float))
        if self.kind == "power":
            with np.errstate(over="ignore"):
                out = ax ** self.q / self.q
            return out if out.ndim else float(out)
        t, u, cum = self.t_nodes, self.u_nodes, self._cum
        out = np.zeros_like(ax)
        lo = (ax > 0) & (ax <= t[0])
        mid = (ax > t[0]) & (ax <= t[-1])
        hi = ax > t[-1]
        with np.errstate(over="ignore"):
            out[lo] = (u[0] * t[0] / (self.alpha_lo + 1.0)
                       * (ax[lo] / t[0]) ** (self.alpha_lo + 1.0))
            if np.any(mid):
                i = np.searchsorted(t, ax[mid], side="right") - 1
                i = np.clip(i, 0, len(t) - 2)
                frac = (ax[mid] - t[i]) / (t[i + 1] - t[i])
                ux = u[i] + (u[i + 1] - u[i]) * frac
                out[mid] = cum[i] + 0.5 * (ax[mid] - t[i]) * (u[i] + ux)
            if np.any(hi):
                if self.alpha_hi == 0.0:
                    tail = u[-1] * (ax[hi] - t[-1])
                else:
                    tail = (u[-1] * t[-1] / (self.alpha_hi + 1.0)
                            * ((ax[hi] / t[-1]) ** (self.alpha_hi + 1.0) - 1.0))
                out[hi] = cum[-1] + tail
        return out if out.ndim else float(out)

    def density(self, x):
        """The density u(x) = Phi'(x) for x >= 0, vectorized."""
        ax = np.abs(np.asarray(x, dtype=float))
        if self.kind == "power":
            with np.errstate(over="ignore"):
                out = ax ** (self.q - 1.0)
            return out if out.ndim else float(out)
        t, u = self.t_nodes, self.u_nodes
        with np.errstate(over="ignore"):
            out = np.interp(ax, t, u)
            lo = (ax > 0) & (ax < t[0])
            hi = ax > t[-1]
            out = np.asarray(out)
            out[lo] = u[0] * (ax[lo] / t[0]) ** self.alpha_lo
            out[hi] = u[-1] * (ax[hi] / t[-1]) ** self.alpha_hi
            out[ax == 0] = 0.0
        return out if out.ndim else float(out)

    def rho(self, tau):
        """tau * Phi'(tau), the nondecreasing function driving Lambda."""
        tau = np.asarray(tau, dtype=float)
        with np.errstate(over="ignore"):
            out = tau * self.density(tau)
        return out if out.ndim else float(out)

    def phi_inv(self, y: float) -> float:
        """Inverse of Phi on [0, inf), scalar."""
        y = float(y)
        if y < 0:
            raise ParameterError("phi_inv needs y >= 0")
        if y == 0:
            return 0.0
        if self.kind == "power":
            return (self.q * y) ** (1.0 / self.q)
        t, u, cum = self.t_nodes, self.u_nodes, self._cum
        if y <= cum[0]:
            return t[0] * (y * (self.alpha_lo + 1.0) / (u[0] * t[0])) ** (
                1.0 / (self.alpha_lo + 1.0))
        if y >= cum[-1]:
            if self.alpha_hi == 0.0:
                return t[-1] + (y - cum[-1]) / u[-1]
            base = 1.0 + (y - cum[-1]) * (self.alpha_hi + 1.0) / (u[-1] * t[-1])
            return t[-1] * base ** (1.0 / (self.alpha_hi + 1.0))
        i = int(np.searchsorted(cum, y, side="right") - 1)
        i = min(max(i, 0), len(t) - 2)
        d = y - cum[i]
        slope = (u[i + 1] - u[i]) / (t[i + 1] - t[i])
        if abs(slope) < 1e-300:
            return t[i] + d / u[i]
        return t[i] + (math.sqrt(u[i] ** 2 + 2.0 * slope * d) - u[i]) / slope

    # -- structure -------------------------------------------------------

    def complement(self) -> "NFunction":
        """The complementary N-function via v(y) = sup{t : u(t) <= y}.

        Built on first use and kept on the instance.
        """
        if self._complement is None:
            self._complement = self._build_complement()
        return self._complement

    def _build_complement(self) -> "NFunction":
        if self.kind == "power":
            return NFunction.power(self.q / (self.q - 1.0))
        ys = self.u_nodes.copy()
        for i in range(1, len(ys)):
            if ys[i] <= ys[i - 1]:
                # flat u-segment: the inverse jumps; encode the jump as a
                # ramp one ulp wide so the node set stays a function graph
                ys[i] = np.nextafter(ys[i - 1], np.inf)
        return NFunction("density", t_nodes=ys, u_nodes=self.t_nodes)

    def to_json_dict(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "q": self.q}
        grid = self._json_grid
        if grid is None:
            grid = [[float(a), float(b)]
                    for a, b in zip(self.t_nodes, self.u_nodes)]
        return {"kind": "density", "u_grid": grid}

    @classmethod
    def from_json_dict(cls, obj) -> "NFunction":
        """Parse {"kind": "power", "q": q} or {"kind": "density", "u_grid": [[t, u], ...]}.

        A missing or ill-typed key raises ParameterError.
        """
        if not isinstance(obj, dict):
            raise ParameterError("N-function must be a JSON object with a 'kind' key")
        kind = obj.get("kind")
        if kind == "power":
            return cls.power(_json_field(obj, "q", "a number", float))
        if kind == "density":
            grid = _json_field(obj, "u_grid", "[[t, u], ...]",
                               lambda x: np.asarray(x, dtype=float))
            if grid.ndim != 2 or grid.shape[1] != 2:
                raise ParameterError("u_grid must be [[t, u], ...]")
            return cls.from_density(grid[:, 0], grid[:, 1])
        raise ParameterError(f"unknown N-function kind {kind!r}")

    def __repr__(self):
        if self.kind == "power":
            return f"NFunction.power({self.q})"
        return f"NFunction.density(<{len(self.t_nodes)} nodes>)"


def _json_field(obj: dict, key: str, expected: str, convert):
    if key not in obj:
        raise ParameterError(
            f"{obj['kind']} N-function needs the key {key!r} ({expected})")
    try:
        return convert(obj[key])
    except (TypeError, ValueError):
        raise ParameterError(f"N-function key {key!r} must be {expected}") from None


# -- norms ---------------------------------------------------------------


def _modal_integral(values: np.ndarray, phi: NFunction, h: float) -> float:
    with np.errstate(over="ignore"):
        vals = phi.phi(values)
    vals = np.asarray(vals)
    if np.any(np.isnan(vals)):
        raise DomainError("N-function evaluation produced NaN")
    return float(np.sum(vals) * h)


def _lq_norm(v: np.ndarray, peak: float, q: float, h: float) -> float:
    """(int v^q dtheta)^(1/q) for v >= 0 with max v = peak > 0, scaled by
    the peak so v^q neither overflows nor underflows."""
    return peak * (float(np.sum((v / peak) ** q)) * h) ** (1.0 / q)


#: solves run in a log variable z restricted to |z| <= _Z_MAX; beyond that
#: the quantities they compare leave the double range
_Z_MAX = 700.0
_BIG = np.finfo(float).max


def _log_root(g: Callable[[float], float], z0: float, xtol: float,
              failure: str) -> float:
    """Root of a nondecreasing g of a log variable, on the side where g >= 0.

    Widens from z0 by doubling steps within |z| <= _Z_MAX until g changes
    sign between the last two points (NumericalConditioningError(failure)
    when the range runs out), then solves once with Brent's method to xtol,
    which must be finite and positive (ParameterError).  Returns the
    smallest evaluated z with g(z) >= 0: Brent's final bracket puts it
    within xtol (plus 4 ulps of z) of the crossing.  g is clipped to the
    finite range so the interpolation steps stay finite.
    """
    if not (math.isfinite(xtol) and xtol > 0.0):
        raise ParameterError(
            f"solver tolerance must be finite and positive, got {xtol}")
    values: dict[float, float] = {}

    def g_at(z: float) -> float:
        if z not in values:
            values[z] = min(max(g(z), -_BIG), _BIG)
        return values[z]

    z = z0
    y = g_at(z)
    step = 1.0 if y < 0.0 else -1.0
    while (y < 0.0) == (step > 0.0):
        if abs(z) >= _Z_MAX:
            raise NumericalConditioningError(failure)
        z_prev = z
        z = min(max(z + step, -_Z_MAX), _Z_MAX)
        y = g_at(z)
        step *= 2.0
    brentq(g_at, min(z_prev, z), max(z_prev, z), xtol=xtol)
    return min(x for x, gx in values.items() if gx >= 0.0)


def luxemburg_norm(f: GridFunction, phi: NFunction,
                   rel_tol: float = 1e-10) -> float:
    """Luxemburg norm inf{kappa > 0 : int Phi(|f|/kappa) dtheta <= 1}.

    For Phi = tau^q/q this is (int |f|^q / q dtheta)^(1/q) in closed form.
    For the density kind, one Brent root-find in log kappa solves
    int Phi(|f|/kappa) dtheta = 1 to rel_tol (finite and positive); the
    returned kappa is on the feasible side, where the integral is <= 1.
    """
    v = np.abs(f.values)
    peak = float(v.max())
    if peak == 0.0:
        return 0.0
    h = 2.0 * np.pi / f.n
    if phi.kind == "power":
        return _lq_norm(v, peak, phi.q, h) * phi.q ** (-1.0 / phi.q)
    z = _log_root(
        lambda z: 1.0 - _modal_integral(v / (peak * math.exp(z)), phi, h),
        0.0, rel_tol, "no finite bracket for the Luxemburg norm")
    return peak * math.exp(z)


def orlicz_norm(f: GridFunction, phi: NFunction,
                rel_tol: float = 1e-8) -> float:
    """Orlicz norm by Amemiya's formula inf_{k>0} (1 + int Phi(k|f|))/k.

    For Phi = tau^q/q the infimum is (q/(q-1))^((q-1)/q) ||f||_q in closed
    form.  For the density kind, the objective's derivative in k has the
    sign of the Young integral

        Y(k) = int [k|f| Phi'(k|f|) - Phi(k|f|)] dtheta - 1,

    whose integrand Phi*(Phi'(k|f|)) is nondecreasing in k.  One bracketed
    Brent root-find on log k, to rel_tol, locates the minimizer; the
    objective there is returned, an upper bound on the infimum.  rel_tol
    must be finite and positive.  Raises NumericalConditioningError when no root lies in the searched range
    (the infimum is then approached only as k -> 0 or k -> inf).
    """
    v = np.abs(f.values)
    peak = float(v.max())
    if peak == 0.0:
        return 0.0
    h = 2.0 * np.pi / f.n
    if phi.kind == "power":
        q = phi.q
        return (q / (q - 1.0)) ** ((q - 1.0) / q) * _lq_norm(v, peak, q, h)
    # sorted once: the node lookups inside phi then see monotone queries
    w = np.sort(v) / peak

    def young(z: float) -> float:
        x = math.exp(z) * w
        with np.errstate(over="ignore", invalid="ignore"):
            p = phi.phi(x)
            terms = x * phi.density(x) - p
        # past the double range both products are inf; the integrand is
        # unbounded there, not undefined
        terms[np.isinf(p)] = np.inf
        return float(np.sum(terms)) * h - 1.0

    # start where k * mean|f| = 1
    z = _log_root(young, -math.log(float(np.mean(w))), rel_tol,
                  "no finite bracket for the Amemiya minimizer")
    k = math.exp(z) / peak
    return (1.0 + _modal_integral(k * v, phi, h)) / k


def lambda_phi(phi: NFunction, s: float, rel_tol: float = 1e-10) -> float:
    """Lambda_Phi(s) = inf{t > 0 : (1/t) Phi'(1/t) <= 1/s} for s > 0.

    For Phi = tau^q/q this is s^(1/q) in closed form.  For the density kind,
    one Brent root-find in log t solves rho(1/t) = 1/s, with
    rho(tau) = tau Phi'(tau), to rel_tol (finite and positive); the returned
    t is on the feasible side, where rho(1/t) <= 1/s.
    """
    s = float(s)
    if not s > 0.0:
        raise ParameterError(f"lambda_phi needs s > 0, got {s}")
    if phi.kind == "power":
        return s ** (1.0 / phi.q)
    z = _log_root(lambda z: 1.0 / s - phi.rho(1.0 / math.exp(z)), 0.0,
                  rel_tol, "lambda_phi bracket expansion failed")
    return math.exp(z)


def holder_check(f: GridFunction, g: GridFunction, phi: NFunction,
                 tol: float = 1e-9) -> BoundReport:
    """Orlicz Hoelder inequality |int f g| <= ||f||_Psi * ||g||_(Phi).

    Psi is the complement of Phi; the first factor carries the Orlicz norm
    and the second the Luxemburg norm.
    """
    if f.n != g.n:
        raise ParameterError("f and g must share a grid")
    h = 2.0 * np.pi / f.n
    lhs = abs(float(np.sum(f.values * g.values) * h))
    psi = phi.complement()
    nf = orlicz_norm(f, psi)
    ng = luxemburg_norm(g, phi)
    return bound_report("holder", lhs, nf * ng, tol=tol,
                        details={"orlicz_norm_f": nf, "luxemburg_norm_g": ng})


# -- constants -----------------------------------------------------------


@functools.cache
def _catalan() -> float:
    # accelerated series: sum_n 1/((2n+1)^2 C(2n,n)) = (8 G - pi log(2+sqrt 3))/3
    total = 0.0
    n = 0
    while True:
        term = 1.0 / ((2 * n + 1) ** 2 * math.comb(2 * n, n))
        total += term
        if term < 1e-18 and n >= 4:
            break
        n += 1
    return 3.0 * total / 8.0 + math.pi / 8.0 * math.log(2.0 + math.sqrt(3.0))


@functools.cache
def davis_constant() -> float:
    """K = (1 + 3^-2 + 5^-2 + ...) / (1 - 3^-2 + 5^-2 - ...), about 1.3469.

    Numerator pi^2/8 in closed form; denominator is Catalan's constant,
    summed by an accelerated central-binomial series to full precision.
    """
    return (math.pi ** 2 / 8.0) / _catalan()


@functools.cache
def k0_constant() -> float:
    """K0 = (K/2) * int_0^pi sin(x)/x dx, about 1.2472 and provably < 1.25."""

    def integrand(x):
        return np.sinc(x / np.pi)  # sin(x)/x, safe at 0

    si_pi, err = quad(integrand, 0.0, np.pi, epsabs=1e-13, epsrel=1e-13)
    if err > 1e-12:
        raise NumericalConditioningError(
            f"sine-integral quadrature error {err:.2e} too large")
    return davis_constant() / 2.0 * si_pi


# -- distribution-side checks --------------------------------------------


@dataclass(frozen=True)
class GSpec:
    """A gauge G on [0, a]: nondecreasing, G(0) = 0, with derivative gprime.

    Arguments above a contribute G(a); that is how the maximal-function
    lemma consumes gauges whose formula would decrease past a.
    """

    g: Callable
    gprime: Callable
    a: float
    label: str = ""

    def __post_init__(self):
        if not self.a > 0:
            raise ParameterError("GSpec needs a > 0")
        if abs(float(self.g(0.0))) > 1e-12:
            raise ParameterError("G(0) must be 0")
        xs = np.linspace(0.0, self.a, 1001)
        vals = np.asarray(self.g(xs), dtype=float)
        if np.any(np.diff(vals) < -1e-12):
            raise ParameterError("G must be nondecreasing on [0, a]")

    def capped(self, x):
        return self.g(np.minimum(np.asarray(x, dtype=float), self.a))


def g_one_minus_cos(a: float = math.pi) -> GSpec:
    return GSpec(g=lambda x: 1.0 - np.cos(x), gprime=np.sin, a=a,
                 label="1-cos")


def g_clipped_square(a: float = 1.0) -> GSpec:
    return GSpec(g=lambda x: np.minimum(np.square(x), 1.0),
                 gprime=lambda x: np.where(np.asarray(x) <= 1.0, 2.0 * np.asarray(x), 0.0),
                 a=a, label="min(x^2,1)")


def gauge_integral(gspec: GSpec) -> float:
    """I(G) = int_0^a G'(x)/x dx by adaptive quadrature."""

    def integrand(x):
        if x == 0.0:
            return 0.0
        return float(gspec.gprime(x)) / x

    val, err = quad(integrand, 0.0, gspec.a, epsabs=1e-12, epsrel=1e-12,
                    limit=200)
    if err > 1e-8 * (1.0 + abs(val)):
        raise NumericalConditioningError(
            f"gauge integral error estimate {err:.2e} too large")
    return val


def lemma_G_report(gspec: GSpec, psi: GridFunction,
                   tol: float = 0.02) -> BoundReport:
    """Check int G(|psi~|) dtheta <= K * I(G) * ||psi||_1.

    The left side is a grid quadrature of a function with |.|-kinks, so the
    documented pass tolerance is the loose grid tolerance.
    """
    if not psi.is_real:
        raise ParameterError("psi must be real")
    conj = harmonic_conjugate(psi)
    lhs = float(np.sum(gspec.capped(np.abs(conj.values)))) * 2.0 * np.pi / psi.n
    ig = gauge_integral(gspec)
    l1 = lp_norm(psi, 1)
    rhs = davis_constant() * ig * l1
    return bound_report("lemma-g", lhs, rhs, tol=tol,
                        details={"gauge": gspec.label or "custom",
                                 "a": gspec.a, "I_G": ig, "psi_l1": l1})


def weak11_ratio(psi: GridFunction, lambdas=None) -> float:
    """sup_lambda lambda * m{|psi~| >= lambda} / ||psi||_1 on the grid.

    lambdas defaults to the sample values of |psi~| themselves, which is
    where the supremum of the discrete distribution function lives.  The
    weak (1,1) bound says this never exceeds the constant K; the documented
    grid allowance is a further factor 1.05.
    """
    l1 = lp_norm(psi, 1)
    if l1 == 0.0:
        raise ParameterError("psi must not be identically zero")
    av = np.abs(harmonic_conjugate(psi).values)
    h = 2.0 * np.pi / psi.n
    if lambdas is None:
        srt = np.sort(av)[::-1]
        counts = h * np.arange(1, len(srt) + 1)
        best = float(np.max(srt * counts))
    else:
        lam = np.asarray(lambdas, dtype=float)
        if np.any(lam <= 0):
            raise ParameterError("lambda grid must be positive")
        measures = h * np.sum(av[None, :] >= lam[:, None], axis=1)
        best = float(np.max(lam * measures))
    return best / l1
