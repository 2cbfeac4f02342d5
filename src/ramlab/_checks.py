"""The two checks of the system against the q-expansions: `verify_system`
checks D's velocities by the chain rule on the generators, and
`ak_polynomial` checks E_{2k} in E4 and E6, as `_system.eisenstein_polynomial`
writes it, against the q-expansion of E_{2k}.  Both compare cross-multiplied
integers, coefficient by coefficient, and build no Fraction: a polynomial's
side is `forms.evaluate_side`, the evaluation core that `forms.evaluate`
reads too.  `ak_polynomial` returns the checked polynomial, and an
`EquationCheck` its first mismatch, from which its verdict `ok` is derived.

Callers import these names from here.  `forms` forwards `verify_system` and
`ak_polynomial` (`arith.forward_names`), only because the benchmark's trace
shim wraps them there, so only `verify-system` and `ak` compile this module,
which holds their two handlers too.
"""

from __future__ import annotations

from itertools import repeat

# `forms.function_tuple` is looked up at each call, so the trace shim's span counts it
from . import forms
from ._system import eisenstein_polynomial, velocity
from .arith import InternalConsistencyError, Record, bernoulli, fraction_str, y_pairs
from .forms import evaluate_side
from .ring import SystemConfig

__all__ = ["ak_polynomial", "EquationCheck", "SystemReport", "verify_system"]


# The largest k of an A_k.  The Weierstrass recurrence costs about k^6 time:
# `ak --k 200` takes 4.1 s, k=300 41 s, k=340 65 s and k=350 82 s (24 MiB;
# one run each, 2 vCPUs, Python 3.11), so time is the binding cost.
MAX_AK_INDEX = 340


def ak_polynomial(k: int, precision: int) -> Polynomial:
    """`eisenstein_polynomial(k)`, E_{2k} in E4^a E6^b with 2a + 3b = k at m = 1,
    checked on the q-expansions' coefficients through `precision`."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > MAX_AK_INDEX:
        raise ValueError(f"k={k} is over the limit {MAX_AK_INDEX}")
    poly = eisenstein_polynomial(k)
    den, nums = forms._eisenstein_numerators(k, precision)
    lhs = evaluate_side(poly, forms.function_tuple(1, precision))
    check = _compare(f"A_{k}", lhs, (nums, repeat(den)), precision)
    if not check.ok:
        raise InternalConsistencyError(f"A_{k} verification failed at coefficient {check.first_mismatch}")
    return poly


class EquationCheck(Record):
    name: str
    first_mismatch: int | None  # the first coefficient that differs, None if none does

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


class SystemReport(Record):
    equations: tuple[EquationCheck, ...]
    errata: tuple[EquationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(eq.ok for eq in self.equations)


# A side of an identity is a pair (numerators, denominators) of iterables:
# coefficient n is the n-th numerator over the n-th denominator, in any terms.


def _compare(name: str, lhs, rhs, upto: int) -> EquationCheck:
    """Check lhs = rhs through z^upto, a/b = c/d as a*d == c*b in integers."""
    for n, a, b, c, d in zip(range(upto + 1), *lhs, *rhs):
        if a * d != c * b:
            return EquationCheck(name, n)
    return EquationCheck(name, None)


def _closing_rhs_literal(v: int, precision: int):
    """The uncorrected closing formula B_{2v+2} * (A_{v+1}(E4,E6) - 1) / (2v+2)
    as a side; A_{v+1}(E4,E6) = E_{2v+2}, whose constant term 1 cancels."""
    den, nums = forms._eisenstein_numerators(v + 1, precision)
    beta = bernoulli(2 * v + 2) / (2 * v + 2)
    return [0] + [beta.numerator * x for x in nums[1:]], repeat(beta.denominator * den)


def verify_system(m: int, precision: int) -> SystemReport:
    """Check D's velocities coefficient-by-coefficient, by the chain rule.

    For every generator x but z, delta(x) must equal D(x) evaluated at the
    function tuple, through z^(precision-1).  The literal textbook variant
    of each closing equation is re-checked alongside and its verdict
    recorded as errata evidence.  delta(x) reads x's q-expansion by slot,
    and `evaluate_side` gives a one-variable velocity g[u+1,v] the same way,
    so no g series enters the tuple's cache.
    """
    cfg = SystemConfig(m)
    tup = forms.function_tuple(m, precision)
    checks, errata, upto = [], [], precision - 1

    def check(i: int, var: str, rhs: str):
        """Compare delta(var), var in slot i, with D(var); return the delta side."""
        side = evaluate_side(velocity(var, cfg), tup)
        nums, dens = forms._generator_side(i, precision)
        delta = [n * a for n, a in enumerate(nums)], dens  # z d/dz: n*a/b at z^n
        checks.append(_compare(f"delta({var}) = {rhs}", delta, side, upto))
        return delta

    check(1, "E2", "(E2^2 - E4)/12")
    check(2, "E4", "(E2*E4 - E6)/3")
    check(3, "E6", "(E2*E6 - E4^2)/2")
    for i, (u, v) in enumerate(y_pairs(m), 4):
        var = f"g[{u},{v}]"
        if u < v - 1:
            check(i, var, f"g[{u + 1},{v}]")
        else:
            delta = check(i, var, f"B_{v + 1}*(1 - E_{v + 1})/{2 * v + 2}")
            if v > 1:
                literal = f"literal: delta({var}) = B_{2 * v + 2}*(A_{v + 1} - 1)/{2 * v + 2}"
                errata.append(_compare(literal, delta, _closing_rhs_literal(v, precision), upto))
    return SystemReport(tuple(checks), tuple(errata))


# -- the handlers of verify-system and ak (see cli._COMMANDS); each calls its
# check as forms' name, so the trace shim's span counts it


def verify_system_command(args, record) -> int:
    """`ramlab verify-system`: exit 1 when an equation of the system fails."""
    report = forms.verify_system(args.m, args.prec)

    def check(eq: EquationCheck) -> dict:
        mismatch = {} if eq.ok else {"first_mismatch": eq.first_mismatch}
        return {"equation": eq.name, "ok": eq.ok, **mismatch}

    record["payload"] = {
        "ok": report.ok,
        "equations": [check(eq) for eq in report.equations],
        "errata": [check(eq) for eq in report.errata],
    }
    return 0 if report.ok else 1


def ak_command(args, record) -> int:
    """`ramlab ak`: the coefficients of A_k, by exponent pair."""
    ak = forms.ak_polynomial(args.k, args.prec)
    # an m = 1 exponent tuple is (z, E2, E4, E6, g[0,1]), and only E4 and E6 occur
    record["payload"] = {
        "monomials": [
            {"e4_exp": a, "e6_exp": b, "coefficient": fraction_str(c)}
            for (_, _, a, b, _), c in sorted(ak)
        ]
    }
    return 0
