"""Uniform pass/fail record for every checked inequality."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .errors import NumericalConditioningError


def _plain(lhs: float, rhs: float, details: dict) -> bool:
    """The rule of every name not in RULES: lhs <= rhs (1 + tol) + atol."""
    return lhs <= rhs * (1.0 + details["tol"]) + details["atol"]


#: Pass predicate (lhs, rhs, details) of each report name with its own rule.
RULES = {
    # Theorem 2 holds with 2.5 (rhs) and with the sharp 2 K0 (rhs_sharp),
    # and rhs_sharp <= rhs; a report without rhs_sharp has the plain rule
    "thm2": lambda lhs, rhs, d: _plain(
        lhs, min(rhs, d.get("rhs_sharp", rhs)), d),
    "outer-check": lambda lhs, rhs, d: (
        abs(lhs - rhs) <= d["tol"] * (1.0 + abs(rhs))),
    "thm1": lambda lhs, rhs, d: lhs <= rhs and d["m1_ok"] and d["m2_ok"],
    "cross-validation": lambda lhs, rhs, d: lhs <= rhs,
}


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one quantitative check.

    slack is rhs - lhs, and passed applies RULES to the other fields, so
    every verdict can be re-audited from the report itself.
    """

    name: str
    lhs: float
    rhs: float
    slack: float = field(init=False)
    passed: bool = field(init=False)
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        passed = RULES.get(self.name, _plain)(self.lhs, self.rhs, self.details)
        object.__setattr__(self, "slack", self.rhs - self.lhs)
        object.__setattr__(self, "passed", bool(passed))

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
    """Assemble a BoundReport with tol and atol recorded in its details.

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
    return BoundReport(name=name, lhs=lhs, rhs=rhs,
                       details={**(details or {}), "tol": tol, "atol": atol})


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
