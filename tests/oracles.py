"""Test-side oracles over what the package runs.

A check's report on explicit inputs comes from `bounds.CHECKS`, the path
the command line takes.  The rest are small computations over public
functions: the criterion-8 dip schedule and its convergence rows, the
Orlicz Hoelder pairing, the weak-(1,1) ratio of the conjugate, an
inverse of Phi by bisection, and a factor's series inside the disk.
"""

import numpy as np

from specfact import (
    GridFunction,
    harmonic_conjugate,
    lp_norm,
    luxemburg_norm,
    orlicz_norm,
    pair_metrics,
)
from specfact.bounds import CHECKS


#: The printed floats of each pair check that a conjugate feeds.  A sweep
#: synthesizes its conjugates from the draws' spectra, a one-row record
#: takes them from logs, so these floats may differ in their last bits.
CONJUGATE_FIELDS = {
    "thm2": ("lhs", "slack"),
    "cor-p": ("lhs", "slack"),
    "main": ("lhs", "slack"),
    "identity": ("lhs", "slack", "t1", "t2", "t3", "sum", "h2_squared",
                 "atol"),
}


def same_report(got: dict, want: dict, rel: float = 1e-14) -> bool:
    """got and want, two reports' JSON dicts, hold the same keys in the
    same order and the same values, except CONJUGATE_FIELDS of their check,
    which lie within rel of want's, relative to the larger of the value's
    magnitude and the report's scale: |lhs|, or for identity the largest
    |T_i|, since its lhs and slack are |sum - h2_squared|, a difference of
    numbers of that size."""
    def flat(r):
        return [*((k, v) for k, v in r.items() if k != "details"),
                *r.get("details", {}).items()]

    a, b = flat(got), flat(want)
    if [k for k, _ in a] != [k for k, _ in b]:
        return False
    d = want["details"]
    scale = (max(abs(d["t1"]), abs(d["t2"]), abs(d["t3"]))
             if want["name"] == "identity" else abs(want["lhs"]))
    loose = CONJUGATE_FIELDS.get(want["name"], ())
    return all(x == y if k not in loose
               else abs(x - y) <= rel * max(abs(y), scale)
               for (k, x), (_, y) in zip(a, b))


def report(name: str, grids, *extra):
    """The report of CHECKS[name] on the one-row record of grids, (f, g)
    or (psi,), with the option value the check takes (p or phi)."""
    check = CHECKS[name]
    return check.reports(check.record(*grids), *extra)[0]


def dip_schedule(f: GridFunction, ks) -> list[GridFunction]:
    """f_k = f (1 - (0.999/k) B), B = ((1 + cos theta)/2)^32 in [0, 1]:
    f_1 dips to 0.001 f at the bump peak, and the first two metrics decay
    like 1/k."""
    bump = ((1.0 + np.cos(f.theta)) / 2.0) ** 32
    return [GridFunction(f.n, f.values * (1.0 - (0.999 / k) * bump))
            for k in ks]


def convergence_rows(f: GridFunction, perturbations):
    """(||f - f_k||_1, ||log f - log f_k||_1, ||f+ - f_k+||_H2) per f_k."""
    rows = []
    for fk in perturbations:
        pm = pair_metrics(f, fk)
        rows.append((float(pm.l1_diff[0]), float(pm.log_l1_diff[0]),
                     float(np.sqrt(pm.h2_squared[0]))))
    return rows


def holder_holds(f: GridFunction, g: GridFunction, phi) -> bool:
    """|int f g| <= ||f||_Psi ||g||_(Phi) (1 + 1e-9), Psi the complement of
    phi: the Orlicz norm on the first factor, the Luxemburg on the second."""
    lhs = abs(float(np.sum(f.values * g.values) * (2.0 * np.pi / f.n)))
    return lhs <= (orlicz_norm(f, phi.complement())
                   * luxemburg_norm(g, phi) * (1.0 + 1e-9))


def weak11_ratio(psi: GridFunction) -> float:
    """sup_lambda lambda m{|psi~| >= lambda} / ||psi||_1 on the grid, lambda
    over the samples of |psi~|, where the supremum of the discrete
    distribution function lives; the weak (1,1) bound keeps it <= K."""
    srt = np.sort(np.abs(harmonic_conjugate(psi).values))[::-1]
    counts = (2.0 * np.pi / psi.n) * np.arange(1, psi.n + 1)
    return float(np.max(srt * counts)) / lp_norm(psi, 1)


def phi_inv(phi, y: float) -> float:
    """x > 0 with Phi(x) >= y > Phi of the double below x, by bisection on
    the nondecreasing phi.phi."""
    lo, hi = 0.0, 1.0
    while phi.phi(hi) < y:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if phi.phi(mid) < y else (lo, mid)
    return hi


def series_at(factor, z) -> np.ndarray:
    """A SpectralFactor's series sum_k a_k z^k at points z of the closed
    unit disk."""
    return np.polynomial.polynomial.polyval(np.asarray(z), factor.coeffs)
