"""Principal D-stability: does a polynomial divide its own image under D?

A principal ideal (Q) is D-stable exactly when Q | DQ; the cofactor B with
DQ = Q*B is then constrained to the linear form a*X1 + b with integer a, b.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .arith import Record
from .ring import Polynomial, SystemConfig, derive

__all__ = [
    "StabilityVerdict",
    "CofactorProfile",
    "principal_stability",
    "power_identity",
    "cofactor_profile",
]


class StabilityVerdict(Record):
    stable: bool
    cofactor: Optional[Polynomial] = None


class CofactorProfile(Record):
    phi_of_cofactor: Optional[int]  # None when the cofactor is zero
    z_degree_of_cofactor: int
    linear_form: Optional[tuple[Fraction, Fraction]]  # (a, b) when B = a*X1 + b
    min_weight_part_z_degree: int


def principal_stability(q: Polynomial) -> StabilityVerdict:
    """Compute DQ and test exact divisibility by Q."""
    if q.is_zero():
        raise ValueError("the zero polynomial generates the zero ideal")
    cof = derive(q).exact_divide(q)
    if cof is None:
        return StabilityVerdict(stable=False)
    return StabilityVerdict(stable=True, cofactor=cof)


def power_identity(a: int, b: int, cfg: Optional[SystemConfig] = None) -> bool:
    """Check D(Delta^a * z^b) = (a*X1 + b) * Delta^a * z^b exactly."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    if cfg is None:
        cfg = SystemConfig(1)
    x2 = Polynomial.variable("E4", cfg)
    x3 = Polynomial.variable("E6", cfg)
    z = Polynomial.variable("z", cfg)
    delta = x2**3 - x3**2
    q = delta**a * z**b
    x1 = Polynomial.variable("E2", cfg)
    expected = (x1.scale(a) + Polynomial.constant(b, cfg)) * q
    return derive(q) == expected


def cofactor_profile(q: Polynomial) -> CofactorProfile:
    """Profile the cofactor of a stable generator; error when not stable."""
    verdict = principal_stability(q)
    if not verdict.stable:
        raise ValueError("polynomial is not D-stable")
    cof = verdict.cofactor
    cfg = q.config
    phi_b = None if cof.is_zero() else cof.phi()
    linear: Optional[tuple[Fraction, Fraction]] = None
    x1_index = cfg.index("E2")
    a = Fraction(0)
    b = Fraction(0)
    is_linear = True
    for mono, c in cof:
        if sum(mono) == 0:
            b = c
        elif sum(mono) == 1 and mono[x1_index] == 1:
            a = c
        else:
            is_linear = False
            break
    if is_linear:
        linear = (a, b)
    return CofactorProfile(
        phi_of_cofactor=phi_b,
        z_degree_of_cofactor=cof.deg_x0(),
        linear_form=linear,
        min_weight_part_z_degree=q.weight_part("min", "phi2").deg_x0(),
    )
