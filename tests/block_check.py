"""A sweep's block path against the reference path, within a stated bound.

    python tests/block_check.py    print each difference; exit 1 on any

A sweep's pair records hold the bins that random_density wrote for their
draws and share one scratch array, where PairMetrics.h2_squared synthesizes
every row's conjugate -(log .)~ / 4 from the bins with one batched irfft
and hands each row to factorize_boundary.  The reference path takes each
density's log and its conjugate by FFT instead, so the two differ in the
conjugates' last bits.  Here every record of a sweep, at n = 8, 256, 4096
and 16384 with a partial last block wherever a block holds more than one
trial, is read in reverse order, so each record finds the scratch as the
later one left it.  Then, against records of the same densities:

* with the same bins and no scratch, h2_squared and the identity terms
  have the same bytes: the scratch holds nothing between accesses;
* with no bins (each density factored on its own from its log), log_ratio
  and T1 have the same bytes, and h2_squared, T2 and T3 lie within REL_TOL
  of the reference, relative to h2_squared and to the largest |T_i| of the
  row.

Each density's factor from the keyword path, given the reference path's
conjugate, must also equal the reference factor.  Needs numpy alone (no
pytest), so the numpy-only install runs it too.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from specfact.bounds import (  # noqa: E402
    _SWEEP_BLOCK_BYTES,
    PairMetrics,
    _sweep_blocks,
)
from specfact.circle_fn import GridFunction, _conjugate  # noqa: E402
from specfact.factorization import (  # noqa: E402
    _positive_log,
    factorize_boundary,
)

SIZES = (8, 256, 4096, 16384)

#: How far a conjugate synthesized from the bins may move what it feeds;
#: seeds 0-9 at SIZES moved it by at most 1.8e-15 (n = 8)
REL_TOL = 1e-14


def sweep_length(n: int) -> int:
    """Trials that leave a partial last block (n = 16384 holds one trial
    per block, so two blocks)."""
    size = max(1, _SWEEP_BLOCK_BYTES // (8 * n))
    return size + max(1, size // 2)


def _fields(pm: PairMetrics) -> dict[str, np.ndarray]:
    terms = pm.terms
    return {"h2_squared": pm.h2_squared, "t1": terms.t1, "t2": terms.t2,
            "t3": terms.t3, "log_ratio": pm.log_ratio}


def mismatches(seed: int = 3) -> list[str]:
    """One line per field or factor outside its rule."""
    out = []
    for n in SIZES:
        records = list(_sweep_blocks(seed, sweep_length(n), n,
                                     min(16, n // 2 - 1), True))
        for i, rec in reversed(list(enumerate(records))):
            got = _fields(rec)
            unshared = _fields(PairMetrics(rec.f, rec.g, rec.bins))
            ref = _fields(PairMetrics(rec.f, rec.g))
            scale = {"h2_squared": np.abs(ref["h2_squared"]),
                     "t2": np.max(np.abs([ref["t1"], ref["t2"], ref["t3"]]),
                                  axis=0)}
            scale["t3"] = scale["t2"]
            for name, value in got.items():
                if value.tobytes() != unshared[name].tobytes():
                    out.append(f"n = {n}, block {i}: {name} depends on "
                               f"the scratch")
                if name not in scale:
                    close = value.tobytes() == ref[name].tobytes()
                else:
                    close = np.all(np.abs(value - ref[name])
                                   <= REL_TOL * scale[name])
                if not close:
                    out.append(f"n = {n}, block {i}: {name} differs")
        for v in (records[-1].f[-1], records[0].g[0]):
            conjugate = _conjugate(_positive_log(v), multiplier=-0.25j)
            keyed = factorize_boundary(GridFunction(n, v), conjugate=conjugate,
                                       scratch=np.empty(2 * n))
            plain = factorize_boundary(GridFunction(n, v))
            if (keyed.coeffs.tobytes() != plain.coeffs.tobytes()
                    or keyed.neg_energy != plain.neg_energy):
                out.append(f"n = {n}: a factor differs")
    return out


if __name__ == "__main__":
    problems = mismatches()
    print("\n".join(problems)
          or f"the block path matches the reference path within {REL_TOL}")
    sys.exit(1 if problems else 0)
