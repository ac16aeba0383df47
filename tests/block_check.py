"""A sweep's block path against the reference path, bit for bit.

    python tests/block_check.py    print each difference; exit 1 on any

A sweep's pair records share one scratch array, where PairMetrics.h2_squared
takes the block's logs and their conjugates with batched FFTs and hands
each row to factorize_boundary.  Here every record of a sweep, at n = 8,
256, 4096 and 16384 with a partial last block wherever a block holds more
than one trial, is read in reverse order, so each record finds the scratch
as the later one left it, and its h2_squared and log_ratio bytes must equal
those of a record of the same densities without scratch (each density
factored on its own).  Each density's factor from the keyword path must
also equal the reference factor.  Needs numpy alone (no pytest), so the
numpy-only install runs it too.
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


def sweep_length(n: int) -> int:
    """Trials that leave a partial last block (n = 16384 holds one trial
    per block, so two blocks)."""
    size = max(1, _SWEEP_BLOCK_BYTES // (8 * n))
    return size + max(1, size // 2)


def mismatches(seed: int = 3) -> list[str]:
    """One line per field or factor whose bytes differ."""
    out = []
    for n in SIZES:
        records = list(_sweep_blocks(seed, sweep_length(n), n,
                                     min(16, n // 2 - 1), True))
        for i, rec in reversed(list(enumerate(records))):
            ref = PairMetrics(rec.f, rec.g)
            # h2_squared first: it fills log_ratio from the scratch's logs
            for name in ("h2_squared", "log_ratio"):
                if getattr(rec, name).tobytes() != getattr(ref, name).tobytes():
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
    print("\n".join(problems) or "the block path gives the reference bits")
    sys.exit(1 if problems else 0)
