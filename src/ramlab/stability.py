"""Principal D-stability: does a polynomial divide its own image under D?

A principal ideal (Q) is D-stable exactly when Q | DQ; the cofactor B with
DQ = Q*B is then constrained to the linear form a*X1 + b with integer a, b.
"""

from __future__ import annotations

from .arith import Record
from .ring import Polynomial, derive

__all__ = ["StabilityVerdict", "principal_stability"]


class StabilityVerdict(Record):
    stable: bool
    cofactor: Polynomial | None = None


def principal_stability(q: Polynomial) -> StabilityVerdict:
    """Compute DQ and test exact divisibility by Q."""
    if q.is_zero():
        raise ValueError("the zero polynomial generates the zero ideal")
    cof = derive(q).exact_divide(q)
    if cof is None:
        return StabilityVerdict(stable=False)
    return StabilityVerdict(stable=True, cofactor=cof)
