"""The sweeps' left sides against exact outer factors of their draws.

A sweep density is f = exp(v) with v = a_0 + sum_{k <= d} (a_k cos k theta
+ b_k sin k theta), so its outer factor is exp(q(z) / 2) with
q(z) = a_0 + sum_k (a_k - i b_k) z^k, an entire function whose Taylor
coefficients Miller's recurrence gives with no FFT and no log:

    alpha_0 = e^(a_0 / 2),  m alpha_m = sum_{k=1}^{min(m, d)} k (q_k / 2) alpha_(m-k)

(P. Henrici, Applied and Computational Complex Analysis, vol. 1, 1974,
section 1.6).  Then ||f+ - g+||^2 = 2 pi sum_m |alpha_m - beta_m|^2.  The
draws are made again here from default_rng([seed, i]) by the sweep's rule
(random_phase): the degree d uniform in 1 .. degree, then a_0 .. a_d, then
b_1 .. b_d, uniform in [-1, 1]; f first, then g.  Nothing here reads the
package's draws.
"""

import contextlib
import functools
import io
import json

import mpmath
import numpy as np
import pytest

from specfact.cli import main
from specfact.report import RULES, _plain

SEEDS = range(5)
TRIALS = 10
DEGREE = 16

#: How close each grid's printed h2_squared is to the exact value
#: (relative): n = 4096 resolves the draws to rounding, n = 256 to the
#: aliasing of exp(v), which is up to about 1e-6 there
REL = {4096: 1e-13, 256: 1e-6}

#: (seed, trial) -> the relative gap of its printed h2_squared at n = 256,
#: for trials beyond REL[256]: the grid's aliasing, which no verdict
#: reports yet (ROADMAP item 2).  Each must stay where it was found.
GAPS_256 = {(4, 7): 1.178e-6}

#: (check, n, seed, trial) of each printed pass flag that differs from the
#: flag of the exact value: at n = 256, seed 4, trial 7 that gap moves
#: identity's |sum - h2_squared| to 9.5e-5, past its allowance of 8.2e-5,
#: while the grid's sum is within 2.2e-9 of the exact h2_squared.  The
#: sweep then exits 1 on an identity that holds.
FLAG_MISMATCHES = {("identity", 256, 4, 7)}


def _draw(rng: np.random.Generator):
    d = int(rng.integers(1, DEGREE + 1))
    return rng.uniform(-1.0, 1.0, d + 1), rng.uniform(-1.0, 1.0, d)


def _taylor(a: np.ndarray, b: np.ndarray) -> list:
    """Taylor coefficients of exp(q / 2), until d of them in a row fall
    below 1e-40 of the largest (past m = 8 d, where they decay for good)."""
    d = len(b)
    kh = [mpmath.mpc(k * a[k], -k * b[k - 1]) / 2 for k in range(1, d + 1)]
    alpha = [mpmath.exp(mpmath.mpf(a[0]) / 2)]
    peak = abs(alpha[0])
    while True:
        m = len(alpha)
        k = min(m, d)
        alpha.append(mpmath.fdot(kh[:k], alpha[m - k:][::-1]) / m)
        peak = max(peak, abs(alpha[-1]))
        if m > 8 * d and all(abs(x) < 1e-40 * peak for x in alpha[-d:]):
            return alpha


@functools.lru_cache(maxsize=None)
def _exact_h2_squared(seed: int, trial: int) -> mpmath.mpf:
    rng = np.random.default_rng([seed, trial])
    with mpmath.workdps(30):
        f, g = _taylor(*_draw(rng)), _taylor(*_draw(rng))
        size = max(len(f), len(g))
        f += [0] * (size - len(f))
        g += [0] * (size - len(g))
        return 2 * mpmath.pi * mpmath.fsum(abs(x - y) ** 2
                                           for x, y in zip(f, g))


def _sweep(check: str, n: int, seed: int) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["bounds", "--check", check, "--sweep", str(TRIALS),
              "--n", str(n), "--seed", str(seed), "--degree", str(DEGREE)])
    return [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.mark.parametrize("n", [256, 4096])
def test_sweep_left_sides_match_exact_factors(n):
    """thm2's lhs and identity's h2_squared lie within REL[n] of the exact
    value (GAPS_256 excepted, each pinned within 1% of its gap), and each
    pass flag is the flag the exact value gives (FLAG_MISMATCHES
    excepted, which must stay as recorded)."""
    gaps, mismatches = {}, set()
    for seed in SEEDS:
        for i, (thm2, ident) in enumerate(zip(_sweep("thm2", n, seed),
                                              _sweep("identity", n, seed))):
            exact = _exact_h2_squared(seed, i)
            d = thm2["details"]
            # identity passes when |sum - h2_squared| <= 1e-6 (1 + h2_squared)
            flags = {
                "thm2": (thm2["pass"], RULES["thm2"](exact, thm2["rhs"], d)),
                "thm2 sharp": (d["pass_sharp"],
                               _plain(exact, d["rhs_sharp"], d)),
                "identity": (ident["pass"],
                             abs(ident["details"]["sum"] - exact)
                             <= 1e-6 * (1 + exact))}
            mismatches |= {(check, n, seed, i)
                           for check, (printed, true) in flags.items()
                           if printed != true}
            for printed in (thm2["lhs"], ident["details"]["h2_squared"]):
                gap = float(abs(printed - exact) / exact)
                if gap > REL[n]:
                    gaps[seed, i] = gap
    assert mismatches == {m for m in FLAG_MISMATCHES if m[1] == n}
    if n == 256:
        assert gaps.keys() == GAPS_256.keys()
        for key, gap in gaps.items():
            assert gap == pytest.approx(GAPS_256[key], rel=0.01), key
    else:
        assert gaps == {}
