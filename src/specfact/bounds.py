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

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .circle_fn import (
    GridFunction,
    _check_grid_size,
    _conjugate,
    _lp_norms,
    _one_minus_cos,
    h2_distance,
)
from .errors import AliasingError, ParameterError
from .factorization import _positive, _positive_log, factorize_boundary
from .orlicz import (
    NFunction,
    k0_constant,
    lambda_phi,
    luxemburg_norm,
    orlicz_norm,
)
from .report import BoundReport, _plain, bound_report

#: Sweeps stack their trials in blocks whose (trials x n) densities take at
#: most this many bytes per side (at least one trial per block), so each
#: check formula, and the conjugate synthesis of the block's densities,
#: run once per block; only the rest of each factorization is per density.
#: CPU time per thm2 trial, measured when the block took batched logs and
#: conjugate FFTs (least of 15 runs, 2-core VM): at n = 4096, 635 us at
#: 128 KB (4 trials), 731 us at 8 KB and 621 us at 512 KB; at n = 256,
#: 186 us at 128 KB (64 trials), 212 us at 8 KB and 179 us at 512 KB.
#: The sweep's scratch holds 4 (trials) (n + 1) floats, four
#: times this size: the block's 2 (trials) conjugates of n floats, then
#: their 2 (trials) spectra of n/2 + 1 complex bins, whose room each
#: density's n complex boundary values reuse.
_SWEEP_BLOCK_BYTES = 1 << 17

#: The allowance of the bound checks, lhs <= rhs (1 + _TOL) + _ATOL, and
#: identity's relative one, which scales its atol with the pair.
_TOL = 1e-9
_ATOL = 1e-12
_IDENTITY_TOL = 1e-6


@dataclass(frozen=True)
class IdentityTerms:
    """T1, T2, T3 of one pair (floats) or of a block (length-B arrays)."""

    t1: float
    t2: float
    t3: float

    @property
    def total(self) -> float:
        return self.t1 + self.t2 + self.t3


@dataclass(frozen=True, eq=False)
class PairMetrics:
    """What the pair checks read, for a block of B pairs of densities.

    f and g are (B, n) arrays whose row j is pair j; every field holds one
    value per row, so a field is a length-B array (IdentityTerms of such
    arrays for terms) and a single pair is the B = 1 case.  Each field is
    computed on first access and kept, over the whole block at once, except
    h2_squared, which factors each density with factorize_boundary and takes
    h2_distance row by row: the last-axis kernels give row j the same floats
    for any B.

    A check pays only for what its formula reads: the identity terms cost a
    conjugate that Theorem 2, Corollary p and the master bound skip.  The
    logs are lazy too; kept alive across the two boundary factorizations
    they made cross_validate_pipeline page-fault measurably more.

    A sweep's record also holds bins, the (2B, degree + 1) complex spectra
    that random_density wrote for its draws, f's rows then g's: row j of f
    is exp(np.fft.irfft(bins[j], n)).  From them h2_squared and
    terms synthesize their conjugates without a log or a forward FFT; the
    floats differ from the logs' conjugates in their last bits.  A record
    without bins (explicit pairs, the family) takes the logs.  The sweep's
    records share scratch too, a float array of at least 4 B (n + 1)
    values, for h2_squared's temporaries; it holds nothing between
    accesses, so the records may be read in any order.
    """

    f: np.ndarray
    g: np.ndarray
    bins: np.ndarray | None = None
    scratch: np.ndarray | None = None

    @cached_property
    def log_ratio(self) -> np.ndarray:
        """log f - log g; raises DomainError where f or g is not positive."""
        return _positive_log(self.f) - _positive_log(self.g)

    @cached_property
    def l1_diff(self) -> np.ndarray:
        """||f - g||_1."""
        return _lp_norms(self.f - self.g, 1)

    @cached_property
    def log_l1_diff(self) -> np.ndarray:
        """||log f - log g||_1."""
        return _lp_norms(self.log_ratio, 1)

    @cached_property
    def h2_squared(self) -> np.ndarray:
        """||f+ - g+||^2 from factorize_boundary of each density.

        Each row goes in as a GridFunction, checked again but shared, not
        copied, when the block is read-only (as a sweep's blocks are).
        Without bins each call takes its density's log and conjugate
        itself.  With them, one batched irfft gives every row's conjugate
        -(log .)~ / 4, in the scratch when there is one, and each call gets
        its row and the scratch's spectrum part for its boundary values."""
        b, n = self.f.shape
        if self.bins is None:
            return np.array([
                h2_distance(factorize_boundary(GridFunction(n, f)),
                            factorize_boundary(GridFunction(n, g))) ** 2
                for f, g in zip(self.f, self.g)])
        conjugates = self._quarter_conjugates(self.bins, self.scratch)
        spare = None if self.scratch is None else self.scratch[2 * b * n:]
        return np.array([
            h2_distance(factorize_boundary(GridFunction(n, f), conjugate=u,
                                           scratch=spare),
                        factorize_boundary(GridFunction(n, g), conjugate=v,
                                           scratch=spare)) ** 2
            for f, g, u, v in zip(self.f, self.g, conjugates[:b],
                                  conjugates[b:])])

    def _quarter_conjugates(self, bins: np.ndarray,
                            scratch: np.ndarray | None = None) -> np.ndarray:
        """-v~ / 4 of every row v whose bins 0 .. degree are a row of bins,
        by one batched irfft of the bins times -0.25j, which scales them
        exactly, with bin 0 zeroed, padded with zeros to n/2 + 1 bins (an
        irfft of the short rows pads them too, but more slowly).  For R
        rows, scratch takes the conjugates in its first R n floats and the
        padded bins in the R (n + 2) after them.  f and g are checked
        positive first, as their logs would be."""
        _positive(self.f)
        _positive(self.g)
        (rows, width), n = bins.shape, self.f.shape[-1]
        if scratch is None:
            out, spectrum = None, np.zeros((rows, n // 2 + 1), np.complex128)
        else:
            out = scratch[: rows * n].reshape(rows, n)
            spectrum = scratch[rows * n: rows * (2 * n + 2)].view(
                np.complex128).reshape(rows, -1)
            spectrum[:, width:] = 0.0
        np.multiply(bins, -0.25j, out=spectrum[:, :width])
        spectrum[:, 0] = 0.0
        return np.fft.irfft(spectrum, n, out=out)

    @cached_property
    def terms(self) -> IdentityTerms:
        """T1, T2, T3 of the expansion; their sum is h2_squared.  A sum
        beyond the double range is inf, with no overflow warning."""
        # psi_hat = (log f - log g)~ / 2, so its half angle is the
        # conjugate at -0.25j, scaled exactly
        b = self.f.shape[0]
        defect = _one_minus_cos(
            _conjugate(self.log_ratio, multiplier=-0.25j) if self.bins is None
            else self._quarter_conjugates(self.bins[:b] - self.bins[b:]))
        rf = np.sqrt(self.f)
        rg = np.sqrt(self.g)
        h = 2.0 * np.pi / self.f.shape[-1]
        # the products go in place, into the difference and then the
        # defect; each rounds as in (rf - rg)^2, rf (rg - rf) defect and
        # f defect with fresh arrays
        with np.errstate(over="ignore"):
            d = rf - rg
            d *= d
            t1 = np.sum(d, axis=-1) * h
            np.subtract(rg, rf, out=d)
            d *= rf
            d *= defect
            # the factor 2 comes last, which is exact: 2 f would overflow
            # for f near the float maximum before a zero defect multiplies it
            t2 = 2.0 * (np.sum(d, axis=-1) * h)
            defect *= self.f
            t3 = 2.0 * (np.sum(defect, axis=-1) * h)
        return IdentityTerms(t1, t2, t3)

    @cached_property
    def lower_bound(self) -> np.ndarray:
        """Certified lower bound T3 - 4 ||f - g||_1 for h2_squared."""
        terms = self.terms
        bound = terms.t3 - 4.0 * self.l1_diff
        bad = bound > terms.total + 1e-9
        if np.any(bad):
            # T1 >= 0 and T2 >= -4 ||f - g||_1 make this impossible
            j = int(np.argmax(bad))
            raise ParameterError(
                f"lower bound {bound[j]} exceeds the identity sum "
                f"{terms.total[j]}; inputs are inconsistent")
        return bound

    def f_norm(self, p) -> np.ndarray:
        """||f||_p, p = inf for the sup norm."""
        return _lp_norms(self.f, p)


def pair_metrics(f: GridFunction, g: GridFunction) -> PairMetrics:
    """Record (B = 1) for a pair of positive densities on one grid."""
    if f.n != g.n:
        raise ParameterError("f and g must share a grid")
    return PairMetrics(f.values[None], g.values[None])


def h2_identity_terms(f: GridFunction, g: GridFunction) -> IdentityTerms:
    """The three expansion terms; their sum is the squared H2 distance."""
    terms = pair_metrics(f, g).terms
    return IdentityTerms(float(terms.t1[0]), float(terms.t2[0]),
                         float(terms.t3[0]))


def h2_squared_direct(f: GridFunction, g: GridFunction) -> float:
    """Squared H2 distance of the boundary factors, no expansion involved."""
    return float(pair_metrics(f, g).h2_squared[0])


def _rows(*fields):
    """Rows of Python floats from length-B field arrays."""
    return zip(*(x.tolist() for x in fields))


def _term(scale: float, distance: float) -> float:
    """scale * distance, and 0 for a zero distance even where the scale,
    a norm of f, overflowed to inf."""
    return scale * distance if distance else 0.0


def _identity(pm: PairMetrics):
    """Expansion sum against the directly computed squared H2 distance."""
    terms = pm.terms
    for t1, t2, t3, direct in _rows(terms.t1, terms.t2, terms.t3,
                                    pm.h2_squared):
        total = t1 + t2 + t3
        yield abs(total - direct), 0.0, {
            "t1": t1, "t2": t2, "t3": t3, "sum": total, "h2_squared": direct,
            "rel_tol": _IDENTITY_TOL,  # and an allowance scaled to the pair
            "atol": _IDENTITY_TOL * (1.0 + abs(direct))}


def _theorem_2(pm: PairMetrics):
    """||f+ - g+||^2 <= 2 ||f - g||_1 + 2.5 ||f||_inf ||log f - log g||_1."""
    two_k0 = constant_c_inf()
    for lhs, l1diff, logdiff, peak in _rows(pm.h2_squared, pm.l1_diff,
                                            pm.log_l1_diff,
                                            pm.f_norm(np.inf)):
        rhs_sharp = 2.0 * l1diff + _term(two_k0 * peak, logdiff)
        yield lhs, 2.0 * l1diff + _term(2.5 * peak, logdiff), {
            "l1_diff": l1diff, "log_l1_diff": logdiff, "sup_f": peak,
            "rhs_sharp": rhs_sharp,
            "pass_sharp": partial(_plain, lhs, rhs_sharp), "two_k0": two_k0}


def _corollary_p(pm: PairMetrics, p: float):
    """||f+ - g+||^2 <= 2 ||f-g||_1 + C(p) ||f||_p ||log f - log g||_1^(1-1/p)."""
    lhs = pm.h2_squared  # first: a nonpositive density outranks a bad p
    cp = constant_c_p(p)
    for lhs, l1diff, logdiff, norm_p in _rows(lhs, pm.l1_diff,
                                              pm.log_l1_diff, pm.f_norm(p)):
        rhs = 2.0 * l1diff + _term(cp * norm_p, logdiff ** ((p - 1.0) / p))
        yield lhs, rhs, {"p": p, "C_p": cp, "l1_diff": l1diff,
                         "log_l1_diff": logdiff}


def _theorem_main(pm: PairMetrics, phi: NFunction):
    """The Orlicz-space master bound, finished row by row."""
    for f, (lhs, l1diff, logdiff) in zip(pm.f, _rows(
            pm.h2_squared, pm.l1_diff, pm.log_l1_diff)):
        norm_f = orlicz_norm(GridFunction(len(f), f), phi.complement())
        s = 0.5 * k0_constant() * logdiff
        lam = lambda_phi(phi, s) if s > 0.0 else 0.0
        yield lhs, 2.0 * l1diff + _term(4.0 * norm_f, lam), {
            "l1_diff": l1diff, "log_l1_diff": logdiff,
            "orlicz_norm_f": norm_f, "lambda": lam, "s": s}


def _lemma_orl(psi: np.ndarray, phi: NFunction):
    """||1 - cos(psi~)||_(Phi) <= 2 Lambda_Phi(K0 ||psi||_1) per row of psi."""
    defect = _one_minus_cos(_conjugate(psi, multiplier=-0.5j))
    for d, psi_l1 in zip(defect, _lp_norms(psi, 1).tolist()):
        s = k0_constant() * psi_l1
        yield (luxemburg_norm(GridFunction(len(d), d), phi),
               2.0 * lambda_phi(phi, s) if s > 0.0 else 0.0, {"s": s})


def _lemma_l1(psi: np.ndarray):
    """||1 - cos(psi~)||_1 <= 2 K0 ||psi||_1 per row of psi."""
    defect = _one_minus_cos(_conjugate(psi, multiplier=-0.5j))
    for lhs, psi_l1 in _rows(_lp_norms(defect, 1), _lp_norms(psi, 1)):
        yield lhs, 2.0 * k0_constant() * psi_l1, {"psi_l1": psi_l1}


class Check(NamedTuple):
    """A check's report name, inputs, f g (read as a PairMetrics) or psi (a
    (B, n) block), the option ("p" or "phi") its formula takes after the
    record, the formula, which yields (lhs, rhs, details) per row, its
    allowance tol and atol, and whether it reads the complement of phi."""

    name: str
    inputs: tuple[str, ...]
    option: str | None
    formula: Callable[..., Iterator[tuple[float, float, dict]]]
    tol: float
    atol: float
    complement: bool = False

    def record(self, *grids: GridFunction):
        """The one-row record of explicit inputs."""
        return (pair_metrics(*grids) if len(grids) == 2
                else grids[0].values[None])

    def reports(self, record, *extra) -> list[BoundReport]:
        """A BoundReport per row of the formula on record, with the row's
        own atol if its details hold one; a details value that is a function
        (thm2's pass_sharp) is called with the allowance."""
        out = []
        for lhs, rhs, details in self.formula(record, *extra):
            allow = {"tol": self.tol, "atol": details.pop("atol", self.atol)}
            out.append(bound_report(self.name, lhs, rhs, **allow, details={
                key: value(allow) if callable(value) else value
                for key, value in details.items()}))
        return out


#: Every check the command line offers, by name.
CHECKS = {check.name: check for check in (
    Check("thm2", ("f", "g"), None, _theorem_2, _TOL, _ATOL),
    Check("cor-p", ("f", "g"), "p", _corollary_p, _TOL, _ATOL),
    Check("main", ("f", "g"), "phi", _theorem_main, _TOL, _ATOL,
          complement=True),
    Check("identity", ("f", "g"), None, _identity, 0.0, _ATOL),  # atol by row
    Check("lemma-orl", ("psi",), "phi", _lemma_orl, _TOL, _ATOL),
    Check("lemma-l1", ("psi",), None, _lemma_l1, _TOL, _ATOL),
)}


def check_identity(f: GridFunction, g: GridFunction) -> BoundReport:
    """Expansion sum against the directly computed squared H2 distance."""
    return CHECKS["identity"].reports(pair_metrics(f, g))[0]


def check_theorem_2(f: GridFunction, g: GridFunction) -> BoundReport:
    """||f+ - g+||^2 <= 2 ||f - g||_1 + 2.5 ||f||_inf ||log f - log g||_1.

    The headline right side uses the round constant 2.5; the sharper value
    2*K0 is reported alongside and both must hold for the check to pass.
    """
    return CHECKS["thm2"].reports(pair_metrics(f, g))[0]


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


def check_theorem_main(f: GridFunction, g: GridFunction,
                       phi: NFunction) -> BoundReport:
    """The Orlicz-space master bound.

    ||f+ - g+||^2 <= 2 ||f-g||_1 + 4 ||f||_Psi Lambda_Phi((K0/2) ||log f - log g||_1)
    with Psi the complement of Phi and ||.||_Psi the Orlicz (Amemiya) norm.
    """
    return CHECKS["main"].reports(pair_metrics(f, g), phi)[0]


def _phase_samples(rng: np.random.Generator, n: int, degree: int,
                   spectrum: np.ndarray | None = None) -> np.ndarray:
    """Samples of one random_phase draw before scaling; degree < n/2.  The
    bins 0 .. degree that the inverse FFT sums go to spectrum when given."""
    if 2 * degree >= n:
        raise AliasingError(f"degree {degree} is not resolved on {n} samples "
                            f"(need degree < n/2)")
    d = int(rng.integers(1, degree + 1))
    a = rng.uniform(-1.0, 1.0, d + 1)
    b = rng.uniform(-1.0, 1.0, d)
    # a_k cos(k theta_j) + b_k sin(k theta_j) = Re[z_k e^{2 pi i k j / n}]
    # with z_k = (-1)^k (a_k - i b_k) (theta_0 = -pi), so one inverse real
    # FFT of bins 0 .. d < n/2 sums the series; bin k > 0 holds (n/2) z_k
    # and bin 0 n a_0.  Scaling by n/2 and flipping signs are exact
    spec = np.zeros(n // 2 + 1, dtype=np.complex128)
    z = spec[: d + 1]
    np.multiply(a, 0.5 * n, out=z.real)
    np.multiply(b, -0.5 * n, out=z.imag[1:])
    z[1::2] *= -1.0
    z.real[0] = n * a[0]
    if spectrum is not None:
        spectrum[...] = spec[: degree + 1]
    return np.fft.irfft(spec, n)


def random_phase(rng: np.random.Generator, n: int = 4096,
                 degree: int = 16) -> GridFunction:
    """Random real trig polynomial, coefficients uniform in [-1, 1].

    The degree is drawn uniformly from 1..degree, and degree >= n/2, which
    the grid cannot resolve, raises AliasingError.  This is the documented
    sweep distribution for conjugate phases; its exponential is the density
    distribution.
    """
    n = _check_grid_size(n)
    return GridFunction(n, _handed_over(_phase_samples(rng, n, degree)))


def random_density(rng: np.random.Generator, n: int = 4096,
                   degree: int = 16, *,
                   spectrum: np.ndarray | None = None) -> GridFunction:
    """exp of a random_phase draw: positive, smooth, with integrable log.

    spectrum, when given, is a complex array of degree + 1 values that
    receives the phase's bins 0 .. degree at the scale the inverse real
    FFT sums them: np.fft.irfft(spectrum, n) gives log f's samples, the
    random_phase draw, bit for bit, so a harmonic conjugate of log f needs
    no log and no forward FFT.  The samples are the same with it or
    without it."""
    n = _check_grid_size(n)
    v = _phase_samples(rng, n, degree, spectrum)
    return GridFunction(n, _handed_over(np.exp(v, out=v)))


def _handed_over(v: np.ndarray) -> np.ndarray:
    """v, just made here, read-only: GridFunction and PairMetrics rows
    then share it rather than copy it."""
    v.setflags(write=False)
    return v


def _sweep_blocks(seed: int, trials: int, n: int, degree: int, pairs: bool):
    """A sweep's inputs, drawn trial by trial and yielded block by block.

    Trial i seeds default_rng([seed, i]) and draws f then g with
    random_density (pairs) or psi with random_phase; a block of trials is
    stacked into one record, so each check's formula runs once per block.
    Yields a PairMetrics per block of pairs, with the draws' bins, or a
    (B, n) array of phases.
    """
    n = _check_grid_size(n)
    size = max(1, _SWEEP_BLOCK_BYTES // (8 * n))
    # the records' shared scratch (see PairMetrics), made once per sweep
    scratch = np.empty(4 * min(size, trials) * (n + 1)) if pairs else None
    for start in range(0, trials, size):
        rngs = [np.random.default_rng([seed, i])
                for i in range(start, min(trials, start + size))]
        if not pairs:
            yield _handed_over(np.array([
                random_phase(rng, n=n, degree=degree).values for rng in rngs]))
            continue
        bins = np.empty((2, len(rngs), degree + 1), dtype=np.complex128)
        draws = [(random_density(rng, n=n, degree=degree, spectrum=bf),
                  random_density(rng, n=n, degree=degree, spectrum=bg))
                 for rng, bf, bg in zip(rngs, *bins)]
        yield PairMetrics(_handed_over(np.array([f.values for f, _ in draws])),
                          _handed_over(np.array([g.values for _, g in draws])),
                          _handed_over(bins.reshape(2 * len(rngs), -1)),
                          scratch)
