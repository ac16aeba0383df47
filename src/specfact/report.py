"""Uniform pass/fail record for every checked inequality."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .errors import NumericalConditioningError


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one quantitative check.

    Reports built by bound_report pass iff  lhs <= rhs * (1 + tol) + atol,
    with tol and atol recorded in details.  Four state their own rule, each
    readable from the report's fields:

    * thm2 also needs details["pass_sharp"], the same rule against
      rhs_sharp with the constant 2 K0;
    * outer-check is two-sided: |lhs - rhs| <= tol (1 + |rhs|);
    * thm1 needs lhs <= rhs exactly, with details["m1_ok"] and ["m2_ok"];
    * cross-validation passes iff lhs (the worst relative gap) <= rhs,
      which is the tolerance.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    details: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": _json_safe(self.lhs),
            "rhs": _json_safe(self.rhs),
            "slack": _json_safe(self.slack),
            "pass": self.passed,
            "details": {k: _json_safe(v) for k, v in self.details.items()},
        }


def bound_report(name: str, lhs: float, rhs: float, tol: float,
                 atol: float = 0.0, details: dict | None = None) -> BoundReport:
    """Assemble a BoundReport, applying the shared pass rule.

    A side that is inf or nan, which inputs at the edge of the double range
    give, decides nothing (inf <= inf would pass): it raises
    NumericalConditioningError.
    """
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NumericalConditioningError(
            f"{name}: lhs = {lhs!r} and rhs = {rhs!r} must both be finite; "
            f"the inputs leave the double range")
    passed = bool(lhs <= rhs * (1.0 + tol) + atol)
    det = dict(details or {})
    det.setdefault("tol", tol)
    det.setdefault("atol", atol)
    return BoundReport(name=name, lhs=lhs, rhs=rhs, slack=rhs - lhs,
                       passed=passed, details=det)


def _json_safe(v):
    if isinstance(v, float):
        return float(v) if math.isfinite(v) else repr(v)
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, complex):
        return [v.real, v.imag]
    if hasattr(v, "item"):
        return _json_safe(v.item())
    return v
