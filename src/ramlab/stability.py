"""Principal D-stability: does a polynomial divide its own image under D?

A principal ideal (Q) is D-stable exactly when Q | DQ; the cofactor B with
DQ = Q*B is then constrained to the linear form a*X1 + b with integer a, b.
A verdict stores B alone, None when Q does not divide DQ.
"""

from __future__ import annotations

from .arith import Record
# derive from ring, not _system, so the trace shim's ring.derive span counts it
from .ring import Polynomial, derive, format_polynomial

__all__ = ["StabilityVerdict", "principal_stability"]


class StabilityVerdict(Record):
    cofactor: Polynomial | None

    @property
    def stable(self) -> bool:
        return self.cofactor is not None


def principal_stability(q: Polynomial) -> StabilityVerdict:
    """Compute DQ and test exact divisibility by Q."""
    if q.is_zero():
        raise ValueError("the zero polynomial has no stability verdict")
    return StabilityVerdict(derive(q).exact_divide(q))


def stable_command(args, record) -> int:
    """`ramlab stable`: the verdict, and the cofactor when stable."""
    from ._parse import parse_argument

    verdict = principal_stability(parse_argument(args.poly, args.m))
    record["payload"] = {"stable": verdict.stable}
    if verdict.stable:
        record["payload"]["cofactor"] = format_polynomial(verdict.cofactor)
    return 0
