"""N-functions, Orlicz and Luxemburg norms, and the harness constants.

An N-function is Phi(x) = int_0^|x| u(t) dt with u nondecreasing and
u(0+) = 0.  Two representations are supported:

* closed-form powers Phi(tau) = tau^q / q with q > 1, and
* densities given by samples of u, kept as given: linear between the
  samples and, outside them, the power laws fitted to the first and the
  last segment.

The complement is built from the generalized inverse
v(y) = sup{t : u(t) <= y}.  The inverse of a linear piece is linear and
the inverse of u0 (t/t0)^alpha is a power law with exponent 1/alpha, so
the complement is the same representation on the swapped samples (flat
u-segments become near-vertical ramps one ulp wide).  Young's inequality
x*y <= Phi(x) + Psi(y) therefore holds for the represented pair up to
roundoff, not just up to interpolation error.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .circle_fn import (
    GridFunction,
    _json_keys,
    _json_numbers,
    _one_minus_cos,
    harmonic_conjugate,
    lp_norm,
)
from .errors import DomainError, NumericalConditioningError, ParameterError
from .report import BoundReport, bound_report


class NFunction:
    """Convex N-function with an explicit nondecreasing density.

    Use the factories NFunction.power(q) and NFunction.from_density(t, u);
    the bare constructor is internal.
    """

    def __init__(self, kind: str, *, q: float | None = None,
                 t_nodes: np.ndarray | None = None,
                 u_nodes: np.ndarray | None = None):
        # stores valid nodes: the factories validate what the caller gives
        self.kind = kind
        self._complement: NFunction | None = None
        if kind == "power":
            self.q = q
            return
        t, u = t_nodes, u_nodes
        self.t_nodes = t
        self.u_nodes = u
        self.alpha_lo, self.alpha_hi = _end_exponents(t, u)
        self._dt, self._du = np.diff(t), np.diff(u)
        # cumulative integral of the piecewise-linear density; the piece
        # below the first node is the exact power-law integral.  It is the
        # one check the constructor makes, for Phi and its complement alike
        with np.errstate(over="ignore"):
            head = u[0] * t[0] / (self.alpha_lo + 1.0)
            increments = 0.5 * (u[1:] + u[:-1]) * self._dt
            self._cum = head + np.concatenate([[0.0], np.cumsum(increments)])
        if not math.isfinite(self._cum[-1]):
            j = int(np.argmin(np.isfinite(self._cum)))
            raise ParameterError(
                f"Phi or its complement overflows inside the node range: "
                f"the integral of the density is inf at node {t[j]:.6g}")

    # -- construction ----------------------------------------------------

    @classmethod
    def power(cls, q: float) -> "NFunction":
        """Phi(tau) = tau^q / q."""
        q = float(q)
        if not (q > 1.0 and math.isfinite(q)):
            raise ParameterError(
                f"power N-function needs a finite q > 1, got {q}")
        return cls("power", q=q)

    @classmethod
    def from_density(cls, t, u) -> "NFunction":
        """Build from samples (t_i, u(t_i)) of the density.

        The samples are the nodes: u is linear between them and, outside
        them, the power law through the first or the last segment.  This
        is the one validation of a density: the samples must be finite,
        with positive distinct t and a nonnegative nondecreasing u that
        increases strictly on both end segments, whose power-law exponents
        must be positive and finite; Phi and its complement must stay
        finite up to the last node.  A nondecreasing u makes Phi convex;
        the complement is built here and kept, and its convexity, which
        rounding can break, is spot-checked, so every use of a density is
        refused or accepted alike.
        """
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=float)
        if t.ndim != 1 or t.shape != u.shape or len(t) < 2:
            raise ParameterError("u_grid needs at least two (t, u) samples")
        finite = np.isfinite(t) & np.isfinite(u)
        if not np.all(finite):
            j = int(np.argmin(finite))
            raise ParameterError(
                f"density sample [{float(t[j])}, {float(u[j])}] is not finite")
        order = np.argsort(t)
        t, u = t[order], u[order]
        if np.any(t <= 0) or np.any(np.diff(t) <= 0):
            raise ParameterError("sample abscissae must be positive and distinct")
        if np.any(u < 0) or np.any(np.diff(u) < 0):
            raise ParameterError("density samples must be nonnegative and nondecreasing")
        if not (u[0] > 0 and u[1] > u[0] and u[-1] > u[-2]):
            raise ParameterError(
                "density samples must increase strictly on the end segments")
        a_lo, a_hi = _end_exponents(t, u)
        if not (0.0 < a_lo < math.inf and 0.0 < a_hi < math.inf):
            raise ParameterError("end segments give unusable power-law exponents")
        phi = cls("density", t_nodes=t, u_nodes=u)
        phi.complement()
        return phi

    # -- evaluation ------------------------------------------------------

    def phi(self, x):
        """Phi(x), vectorized; even in x.  A density Phi refuses nan."""
        ax = np.abs(np.asarray(x, dtype=float))
        if self.kind == "power":
            with np.errstate(over="ignore"):
                out = ax ** self.q / self.q
            return out if out.ndim else float(out)
        if np.isnan(ax).any():
            raise ParameterError("Phi is not defined at nan")
        t = self.t_nodes
        # one search puts each sample on its segment; the power laws below
        # the first node and above the last then overwrite their samples
        x = ax.reshape(-1)
        i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _on_segments(x - t[i], self.u_nodes[i], self._du[i],
                               self._dt[i], self._cum[i])
            lo, hi = x <= t[0], x > t[-1]
            out[lo] = self._below(x[lo])
            out[hi] = self._above(x[hi])
        return out.reshape(ax.shape) if ax.ndim else float(out[0])

    def _below(self, x: np.ndarray) -> np.ndarray:
        """Phi at 0 <= x <= t[0] of a density: the first power law."""
        t, u = self.t_nodes[0], self.u_nodes[0]
        return u * t / (self.alpha_lo + 1.0) * (x / t) ** (self.alpha_lo + 1.0)

    def _above(self, x: np.ndarray) -> np.ndarray:
        """Phi at x > t[-1] of a density: the last power law."""
        t, u = self.t_nodes[-1], self.u_nodes[-1]
        return self._cum[-1] + (u * t / (self.alpha_hi + 1.0)
                                * ((x / t) ** (self.alpha_hi + 1.0) - 1.0))

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

    # -- structure -------------------------------------------------------

    def complement(self) -> "NFunction":
        """The complementary N-function via v(y) = sup{t : u(t) <= y}.

        Built on first use, for a density by from_density, and kept on the
        instance.
        """
        if self._complement is None:
            self._complement = self._build_complement()
        return self._complement

    def _build_complement(self) -> "NFunction":
        if self.kind == "power":
            p = self.q / (self.q - 1.0)
            if not p > 1.0:
                raise ParameterError(
                    f"power N-function q = {self.q} has no usable complement: "
                    f"its exponent q/(q-1) rounds to {p}, which is not > 1")
            return NFunction.power(p)
        ys = self.u_nodes.copy()
        for i in range(1, len(ys)):
            if ys[i] <= ys[i - 1]:
                # flat u-segment: the inverse jumps; encode the jump as a
                # ramp one ulp wide so the node set stays a function graph
                ys[i] = np.nextafter(ys[i - 1], np.inf)
        psi = NFunction("density", t_nodes=ys, u_nodes=self.t_nodes)
        psi._convexity_spot_check()
        return psi

    def _convexity_spot_check(self) -> None:
        # Psi is convex in exact arithmetic, but where u rises by a few ulps
        # over a segment, the ramp of v is a few ulps wide and its
        # evaluation is not convex to 1e-10: such a Phi is refused here
        xs = np.geomspace(self.t_nodes[0], self.t_nodes[-1], 41)
        px = self.phi(xs)
        pm = self.phi(0.5 * (xs[:-1] + xs[1:]))
        gap = pm - 0.5 * (px[:-1] + px[1:])
        scale = 1.0 + np.abs(px[1:])
        if np.any(gap > 1e-10 * scale):
            raise ParameterError("density does not define a convex Phi")

    @classmethod
    def from_json_dict(cls, obj) -> "NFunction":
        """Parse {"kind": "power", "q": q} or {"kind": "density", "u_grid": [[t, u], ...]}.

        A missing or ill-typed key, and a key the kind does not read,
        raise ParameterError.
        """
        if not isinstance(obj, dict):
            raise ParameterError("N-function must be a JSON object with a 'kind' key")
        kind = obj.get("kind")
        if kind not in ("power", "density"):
            raise ParameterError(f"unknown N-function kind {kind!r}")
        _json_keys(obj, ("kind", "q" if kind == "power" else "u_grid"),
                   f"{kind} N-function")
        if kind == "power":
            return cls.power(_json_field(obj, "q", "a number", float))
        grid = _json_field(obj, "u_grid", "[[t, u], ...]",
                           lambda x: np.asarray(x, dtype=float))
        if grid.ndim != 2 or grid.shape[1] != 2:
            raise ParameterError("u_grid must be [[t, u], ...]")
        return cls.from_density(grid[:, 0], grid[:, 1])


def _on_segments(d: np.ndarray, u: np.ndarray, du: np.ndarray,
                 dt: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Phi on the linear pieces of a density, in place in d = x - t_i:
    cum_i + 0.5 d (u_i + ux) with ux = u_i + du_i d / dt_i, given each
    sample's node values t_i, u_i, cum_i and segment differences du_i,
    dt_i.  Returns d."""
    ux = d / dt
    ux *= du
    ux += u
    ux += u  # now u_i + ux
    d *= 0.5
    d *= ux
    d += cum
    return d


def _end_exponents(t: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Power-law exponents log(u ratio) / log(t ratio) of the first and the
    last segment; inf or nan where a ratio leaves the double range."""
    return (math.log(float(u[1]) / float(u[0]))
            / math.log(float(t[1]) / float(t[0])),
            math.log(float(u[-1]) / float(u[-2]))
            / math.log(float(t[-1]) / float(t[-2])))


def _json_field(obj: dict, key: str, expected: str, convert):
    if key not in obj:
        raise ParameterError(
            f"{obj['kind']} N-function needs the key {key!r} ({expected})")
    try:
        if not _json_numbers(obj[key]):
            raise TypeError("JSON numbers only")
        return convert(obj[key])
    except (TypeError, ValueError):
        raise ParameterError(f"N-function key {key!r} must be {expected}") from None


# -- norms ---------------------------------------------------------------


def _modal_integral(vals: np.ndarray, h: float) -> float:
    """h times the sum of the N-function values vals; nan is refused."""
    if np.any(np.isnan(vals)):
        raise DomainError("N-function evaluation produced NaN")
    return float(np.sum(vals) * h)


#: solves run in a log variable z restricted to |z| <= _Z_MAX; beyond that
#: the quantities they compare leave the double range
_Z_MAX = 700.0
#: Python floats, not numpy scalars: an overflow inside a root step must
#: stay a silent inf, not become a numpy RuntimeWarning
_BIG = sys.float_info.max
#: below e^_LOG_SAFE no sample term of the Young integral can overflow
_LOG_SAFE = 700.0


def _root_step(g: Callable[[float], float], a: tuple[float, float],
               b: tuple[float, float], xtol: float) -> float:
    """Chandrupatla's method (Adv. Eng. Software 28 (1997) 145-149) on the
    bracket a, b = (x, g(x)) of a nondecreasing g, with g < 0 at one end.

    Each step evaluates g once, at the inverse quadratic interpolant where
    Chandrupatla's (xi, Phi) test allows it and at the midpoint otherwise,
    kept tol / 2 inside the bracket (tol = xtol + 4 eps |x|).  Once the
    bracket is at most tol wide, returns its end where g >= 0: the crossing
    lies within tol below it.  NumericalConditioningError after 100 steps.
    """
    (xa, ga), (xb, gb) = a, b
    xc, gc = a
    t = 0.5
    for _ in range(100):
        x = xa + t * (xb - xa)
        y = g(x)
        if (y < 0.0) == (ga < 0.0):
            xc, gc = xa, ga
        else:
            xc, gc, xb, gb = xb, gb, xa, ga
        xa, ga = x, y
        width = abs(xb - xa)
        tol = xtol + 4.0 * sys.float_info.epsilon * min(abs(xa), abs(xb))
        if width <= tol:
            return xa if ga >= 0.0 else xb
        xi, ph = (xa - xb) / (xc - xb), (ga - gb) / (gc - gb)
        t = 0.5
        if ph * ph < xi and (1.0 - ph) * (1.0 - ph) < 1.0 - xi:
            t = (ga / (gb - ga) * gc / (gb - gc)
                 + (xc - xa) / (xb - xa) * ga / (gc - ga) * gb / (gc - gb))
        t_min = 0.5 * tol / width
        t = min(max(t, t_min), 1.0 - t_min)
    raise NumericalConditioningError("root step: no convergence in 100 steps")


def _log_root(g: Callable[[float], float], z0: float, xtol: float,
              failure: str) -> float:
    """Root of a nondecreasing g of a log variable, on the side where g >= 0.

    Widens from z0 by doubling steps within |z| <= _Z_MAX until g changes
    sign between the last two points (NumericalConditioningError(failure)
    when the range runs out), then narrows that bracket to xtol with
    _root_step.  g is clipped to +-_BIG, and a nan of g is refused.
    """
    def g_at(z: float) -> float:
        y = g(z)
        if math.isnan(y):
            raise NumericalConditioningError(f"root step: g({z!r}) is nan")
        return min(max(y, -_BIG), _BIG)

    z = z0
    y = g_at(z)
    step = 1.0 if y < 0.0 else -1.0
    while (y < 0.0) == (step > 0.0):
        if abs(z) >= _Z_MAX:
            raise NumericalConditioningError(failure)
        prev = (z, y)
        z = min(max(z + step, -_Z_MAX), _Z_MAX)
        y = g_at(z)
        step *= 2.0
    return _root_step(g_at, prev, (z, y), xtol)


def luxemburg_norm(f: GridFunction, phi: NFunction) -> float:
    """Luxemburg norm inf{kappa > 0 : int Phi(|f|/kappa) dtheta <= 1}.

    For Phi = tau^q/q this is (int |f|^q / q dtheta)^(1/q) in closed form.
    For the density kind, one bracketed root step in log kappa solves
    int Phi(|f|/kappa) dtheta = 1 to 1e-10 in log kappa (_log_root); the
    returned kappa is on the feasible side, where the integral is <= 1.
    """
    if phi.kind == "power":
        return lp_norm(f, phi.q) * phi.q ** (-1.0 / phi.q)
    v = np.abs(f.values)
    peak = float(v.max())
    if peak == 0.0:
        return 0.0
    h = 2.0 * np.pi / f.n
    z = _log_root(
        lambda z: 1.0 - _modal_integral(phi.phi(v / (peak * math.exp(z))),
                                        h),
        0.0, 1e-10, "no finite bracket for the Luxemburg norm")
    return peak * math.exp(z)


def orlicz_norm(f: GridFunction, phi: NFunction) -> float:
    """Orlicz norm by Amemiya's formula inf_{k>0} (1 + int Phi(k|f|))/k.

    For Phi = tau^q/q the infimum is (q/(q-1))^((q-1)/q) ||f||_q in closed
    form.  For the density kind, the objective's derivative in k has the
    sign of the Young integral

        Y(k) = int [k|f| Phi'(k|f|) - Phi(k|f|)] dtheta - 1,

    whose integrand Phi*(Phi'(k|f|)) is nondecreasing in k.  One bracketed
    root step in log k to 1e-8 (_log_root) locates the minimizer.  Its
    steps read Y from running moments of the sorted samples
    (_young_integral), in a handful of numpy calls on the node arrays
    each; against the sample-by-sample sum they agree to 6e-13 relative
    where both are finite, and are +inf where it is.  The objective at the
    root is Phi summed sample by sample, in one pass over the sorted
    samples that gives NFunction.phi's floats (_phi_sorted), and it is
    returned: an upper bound on the infimum whatever the error of the
    moments.  Raises NumericalConditioningError when no root lies in the
    searched range (the infimum is then approached only as k -> 0 or
    k -> inf).
    """
    if phi.kind == "power":
        q = phi.q
        return (q / (q - 1.0)) ** ((q - 1.0) / q) * lp_norm(f, q)
    v = np.abs(f.values)
    peak = float(v.max())
    if peak == 0.0:
        return 0.0
    h = 2.0 * np.pi / f.n
    w = np.sort(v) / peak
    young = _young_integral(phi, w)
    # start where k * mean|f| = 1
    z = _log_root(lambda z: young(z) * h - 1.0, -math.log(float(np.mean(w))),
                  1e-8, "no finite bracket for the Amemiya minimizer")
    # the objective (1 + int Phi(k|f|))/k at k = e^z / peak, in the
    # normalized samples, so an extreme peak cannot push k out of range
    return (peak * math.exp(-z)
            * (1.0 + _modal_integral(_phi_sorted(phi, math.exp(z) * w), h)))


def _phi_sorted(phi: NFunction, x: np.ndarray) -> np.ndarray:
    """phi.phi(x), float for float, at sorted samples x >= 0 of a
    density-kind Phi.  One search of the nodes among the samples cuts them
    into one run per segment, and np.repeat spreads each segment's node
    values over its run: no search per sample."""
    t = phi.t_nodes
    # x[:lo] <= t[0] < x[lo:hi] <= t[-1] < x[hi:]
    lo, hi = x.searchsorted(t[::len(t) - 1], side="right")
    # segment i's run holds t_i <= x < t_(i+1), and t[-1] in the last one
    edges = x[lo:hi].searchsorted(t)
    edges[-1] = hi - lo
    runs = edges[1:] - edges[:-1]
    out = np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        _on_segments(np.subtract(x[lo:hi], np.repeat(t[:-1], runs),
                                 out=out[lo:hi]),
                     *(np.repeat(a, runs) for a in (
                         phi.u_nodes[:-1], phi._du, phi._dt, phi._cum[:-1])))
        if lo:
            out[:lo] = phi._below(x[:lo])
        if hi < len(x):
            out[hi:] = phi._above(x[hi:])
    return out


def _young_integral(phi: NFunction,
                    w: np.ndarray) -> Callable[[float], float]:
    """z -> sum_j g(e^z w_j) for the sorted samples w <= 1 of a density-kind
    Phi, with g(x) = x Phi'(x) - Phi(x), from moments of w.

    Between nodes the density is linear with slope s_i, so on
    [t_i, t_(i+1)) g(x) = c_i - q_i + (s_i / 2) x^2, with c_i = t_i u_i -
    Phi(t_i) and q_i = s_i t_i^2 / 2: an interval needs only its count and
    its sum of w^2, times e^z twice.  (Written as q_i ((x / t_i)^2 - 1),
    it is nan once t_i^2 underflows, below 1e-154.)  Below the first node
    g is a multiple of x^(alpha_lo + 1), above the last one an affine
    function of x^(alpha_hi + 1), so each end piece needs one power sum S
    of w; its coefficient C and S enter as ((C S)^(1/p) e^z / t_end)^p,
    which overflows only where the piece does.  S is summed only when a
    step puts samples in the piece, sequentially over them as a full
    cumulative sum would, and kept by its sample count for the later
    steps of the call.  A step is one search of the nodes among the
    samples plus a handful of numpy calls on the node arrays, and skips
    the end pieces while they hold no sample, as near the root they
    usually do.  When a complement's one-ulp ramp makes an interval's
    coefficients inf, a step reads only the intervals that hold samples.
    Where a sample's x Phi'(x) or Phi(x) leaves the double range the sum
    is +inf, as summing g sample by sample makes it.  The sums of
    w^2 are exact to rounding while every nonzero sample is above 1e-150
    of the peak, so that its square is a normal double; no node is
    squared, so nodes below 1e-154 keep that exactness.
    """
    t, u, cum = phi.t_nodes, phi.u_nodes, phi._cum
    a_lo, a_hi = phi.alpha_lo + 1.0, phi.alpha_hi + 1.0
    w = w[w.searchsorted(0.0, side="right"):]  # zeros add nothing
    n = len(w)
    with np.errstate(all="ignore"):
        c = t * u - cum
        # per interval: c_i - q_i, and s_i / 2 (t_i^2 can underflow)
        c_q = c[:-1] - 0.5 * phi._du * t[:-1] * (t[:-1] / phi._dt)
        half_slope = 0.5 * phi._du / phi._dt
        # a complement's one-ulp ramp can make them inf, and an interval
        # that holds no sample would add 0 * inf, nan: then mask them
        ramp = not np.isfinite([c_q, half_slope]).all()
        # the end pieces' coefficients, nodes and exponents
        coef = np.array([u[0] * t[0] * (1.0 - 1.0 / a_lo),
                         u[-1] * t[-1] * (1.0 - 1.0 / a_hi)])
        log_coef = np.log(coef)
        t_ends = np.array([t[0], t[-1]])
        powers = np.array([a_lo, a_hi])
        # the top piece's g is affine in x^(alpha_hi + 1): its constant
        c_top = float(c[-1] - coef[1])
    w2 = np.concatenate([[0.0], np.cumsum(w * w)])  # running sums of w^2
    lo_sums, hi_sums = {0: 0.0}, {0: 0.0}  # the end pieces' S, by count
    log_t_top = math.log(t[-1])
    log_u_top = math.log(u[-1])

    def integral(z: float) -> float:
        # x u(x) <= e^z u_top (e^z / t_top)^alpha_hi, and phi raises
        # x / t_top to alpha_hi + 1: below e^_LOG_SAFE no sample overflows
        above = max(z - log_t_top, 0.0)
        if max(z + log_u_top + phi.alpha_hi * above, a_hi * above) > _LOG_SAFE:
            k = math.exp(z)
            with np.errstate(over="ignore", invalid="ignore"):
                if math.isinf(phi.phi(k)) or math.isinf(k * phi.density(k)):
                    return math.inf
        ez = math.exp(z)
        with np.errstate(all="ignore"):
            # idx[i] counts the samples with e^z w < t_i
            idx = w.searchsorted(t * math.exp(-z))
            s2 = w2[idx]
            n_in = idx[1:] - idx[:-1]
            c_in, s_in = c_q, half_slope
            if ramp:
                c_in, s_in = (np.where(n_in, a, 0.0)
                              for a in (c_q, half_slope))
            total = (float(np.dot(n_in, c_in))
                     + float(np.dot(s_in, s2[1:] - s2[:-1])) * ez * ez)
            n_lo, n_hi = int(idx[0]), n - int(idx[-1])
            if n_lo or n_hi:
                if n_lo not in lo_sums:
                    lo_sums[n_lo] = np.cumsum(w[:n_lo] ** a_lo)[-1]
                if n_hi not in hi_sums:  # summed from the top sample down
                    hi_sums[n_hi] = np.cumsum(w[:-n_hi - 1:-1] ** a_hi)[-1]
                sums = np.array([lo_sums[n_lo], hi_sums[n_hi]])
                ends = (np.exp((log_coef + np.log(sums)) / powers)
                        * (ez / t_ends)) ** powers
                # an empty end piece may hold inf * 0
                total += (float(ends[sums > 0].sum())
                          + (n_hi * c_top if n_hi else 0.0))
        return total

    return integral


def lambda_phi(phi: NFunction, s: float) -> float:
    """Lambda_Phi(s) = inf{t > 0 : (1/t) Phi'(1/t) <= 1/s} for s > 0.

    For Phi = tau^q/q this is s^(1/q).  For the density kind, rho(tau) =
    tau Phi'(tau) = 1/s is solved in closed form on the piece where rho
    crosses 1/s, found among rho's node values in logs (log t + log u
    against -log s, finite down to s = 5e-324): between two nodes the
    quadratic (t_i + delta)(u_i + sigma_i delta) = 1/s, in the form that
    does not cancel; beyond the end nodes the power law, in logs, and one
    Newton step on the ratio s rho(tau).  1/tau is then stepped up by ulps
    to the feasible side, rho(1/t) <= 1/s; it is inf where tau underflows.
    """
    s = float(s)
    if not s > 0.0:
        raise ParameterError(f"lambda_phi needs s > 0, got {s}")
    if phi.kind == "power":
        return s ** (1.0 / phi.q)
    t, u = phi.t_nodes, phi.u_nodes
    log_rho = np.log(t) + np.log(u)
    k = int(np.searchsorted(log_rho, -math.log(s), side="right"))
    with np.errstate(all="ignore"):
        if 0 < k < len(t):
            ti, ui = t[k - 1], u[k - 1]
            # delta = 2c / (b + sqrt(b^2 + 4 sigma c)), c = 1/s - t_i u_i,
            # b = u_i + sigma t_i; hypot keeps b^2 and sigma c in range
            sigma = (u[k] - ui) / (t[k] - ti)
            c, b = max(1.0 / s - ti * ui, 0.0), ui + sigma * ti
            tau = ti + 2.0 * (c / (b + np.hypot(b, 2.0 * np.sqrt(sigma)
                                                 * np.sqrt(c))))
        else:
            j, alpha = (0, phi.alpha_lo) if k == 0 else (-1, phi.alpha_hi)
            p = 1.0 / (alpha + 1.0)
            tau = t[j] * np.exp((-math.log(s) - log_rho[j]) * p)
            ratio = float(phi.density(tau) * (tau * s))
            if 0.0 < ratio < math.inf:
                tau *= ratio ** -p
        lam = float(1.0 / tau)
    while lam > 0.0 and phi.rho(1.0 / lam) > 1.0 / s:
        lam = math.nextafter(lam, math.inf)
    return lam


# -- constants -----------------------------------------------------------


#: Catalan's constant G as double arithmetic gets it from the accelerated
#: series sum_n 1/((2n+1)^2 C(2n,n)) = (8 G - pi log(2+sqrt 3))/3: two ulps
#: below the correctly rounded G.  The tests sum the series to check it.
_CATALAN = 0.9159655941772188


def davis_constant() -> float:
    """K = (1 + 3^-2 + 5^-2 + ...) / (1 - 3^-2 + 5^-2 - ...), about 1.3469.

    Numerator pi^2/8 in closed form; denominator is Catalan's constant,
    the literal _CATALAN, which sits two ulps below the correctly rounded
    value.
    """
    return (math.pi ** 2 / 8.0) / _CATALAN


#: Si(pi) = int_0^pi sin(x)/x dx as adaptive quadrature returns it; the
#: alternating Taylor series sums to 1-2 ulp away.  It is also I(1 - cos),
#: the gauge integral of lemma_G_report.
_SI_PI = 1.851937051982466


def k0_constant() -> float:
    """K0 = (K/2) * int_0^pi sin(x)/x dx, about 1.2472 and provably < 1.25."""
    return davis_constant() / 2.0 * _SI_PI


# -- distribution-side checks --------------------------------------------


#: The gauges of the maximal-function lemma, keyed by the label its report
#: prints: (G, a, I(G)) with G nondecreasing on [0, a], G(0) = 0, and
#: I(G) = int_0^a G'(x)/x dx in closed form.  Arguments above a contribute
#: G(a).  For 1 - cos, I(G) = int_0^pi sin(x)/x dx = Si(pi); for min(x^2, 1),
#: I(G) = int_0^1 2 dx = 2.  The tests check both against quadrature.
GAUGES = {
    "1-cos": (lambda x: _one_minus_cos(0.5 * x), math.pi, _SI_PI),
    "min(x^2,1)": (lambda x: np.minimum(np.square(x), 1.0), 1.0, 2.0),
}


def lemma_G_report(gauge: str, psi: GridFunction) -> BoundReport:
    """Check int G(|psi~|) dtheta <= K * I(G) * ||psi||_1 for GAUGES[gauge].

    The left side is a grid quadrature of a function with |.|-kinks, so the
    documented pass tolerance is the loose grid tolerance 0.02.
    """
    if gauge not in GAUGES:
        raise ParameterError(
            f"unknown gauge {gauge!r}; known: {', '.join(GAUGES)}")
    g, a, ig = GAUGES[gauge]
    conj = harmonic_conjugate(psi)
    lhs = (float(np.sum(g(np.minimum(np.abs(conj.values), a))))
           * 2.0 * np.pi / psi.n)
    l1 = lp_norm(psi, 1)
    rhs = davis_constant() * ig * l1
    return bound_report("lemma-g", lhs, rhs, tol=0.02,
                        details={"gauge": gauge, "a": a, "I_G": ig,
                                 "psi_l1": l1})
