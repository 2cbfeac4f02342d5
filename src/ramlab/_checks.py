"""The two checks of the system against the q-expansions: `verify_system`
checks D's velocity table by the chain rule on the generators, and
`ak_polynomial` checks E_{2k} in E4 and E6, as `ring.eisenstein_polynomial`
writes it, against the q-expansion of E_{2k}.  Both compare cross-multiplied
integers, coefficient by coefficient, and build no Fraction.

`forms` resolves the public names here on first use
(`arith.forward_names`), so only `verify-system` and `ak` compile this
module.  It reaches the series
through `forms` and D through `ring`, looked up when a check runs.
"""

from __future__ import annotations

from itertools import repeat

from . import forms
from .arith import InternalConsistencyError, Record, bernoulli, y_pairs

__all__ = ["AkPolynomial", "ak_polynomial", "EquationCheck", "SystemReport", "verify_system"]


class AkPolynomial(Record):
    """E_{2k} written as a polynomial in (X2, X3) = (E4, E6).

    Only exponent pairs (a, b) with 2a + 3b = k occur.
    """

    k: int
    coefficients: dict[tuple[int, int], Fraction]


def ak_polynomial(k: int, precision: int = 60) -> AkPolynomial:
    """`ring.eisenstein_polynomial(k)` as a combination of E4^a E6^b with
    2a + 3b = k, checked on the q-expansions' coefficients through `precision`."""
    if k < 2:
        raise ValueError("k must be at least 2")
    from .ring import eisenstein_polynomial

    poly = eisenstein_polynomial(k)
    den, nums = forms._eisenstein_numerators(k, precision)
    check = _compare(f"A_{k}", _at(poly, forms.function_tuple(1, precision)), (nums, repeat(den)), precision)
    if not check.ok:
        raise InternalConsistencyError(f"A_{k} verification failed at coefficient {check.first_mismatch}")
    # an m = 1 exponent tuple is (z, E2, E4, E6, g[0,1])
    return AkPolynomial(k=k, coefficients={(a, b): c for (_, _, a, b, _), c in poly})


class EquationCheck(Record):
    name: str
    ok: bool
    first_mismatch: int | None = None


class SystemReport(Record):
    m: int
    precision: int
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
            return EquationCheck(name=name, ok=False, first_mismatch=n)
    return EquationCheck(name=name, ok=True)


def _terms(s: TruncatedSeries):
    """A stored series as a side, term by term."""
    return [c.numerator for c in s.coeffs], [c.denominator for c in s.coeffs]


def _delta(s: TruncatedSeries):
    """delta(s) = z ds/dz as a side: n*a/b at z^n, a/b the stored coefficient."""
    nums, dens = _terms(s)
    return [n * a for n, a in enumerate(nums)], dens


def _at(poly, tup: FunctionTuple):
    """poly at the function tuple as a side.  A monomial with coefficient 1 is
    its stored series, term by term; any other polynomial is taken over one
    denominator by `ring.evaluate_numerators`."""
    from .ring import evaluate_numerators, monomial_series

    if len(poly.terms) == 1 and 1 in poly.terms.values():
        return _terms(monomial_series(next(iter(poly.terms)), tup))
    den, nums = evaluate_numerators(poly, tup)
    return nums, repeat(den)


def _closing_rhs_literal(v: int, precision: int):
    """The uncorrected closing formula B_{2v+2} * (A_{v+1}(E4,E6) - 1) / (2v+2)
    as a side; A_{v+1}(E4,E6) = E_{2v+2}, whose constant term 1 cancels."""
    den, nums = forms._eisenstein_numerators(v + 1, precision)
    beta = bernoulli(2 * v + 2) / (2 * v + 2)
    return [0] + [beta.numerator * x for x in nums[1:]], repeat(beta.denominator * den)


def verify_system(m: int, precision: int) -> SystemReport:
    """Check D's velocity table coefficient-by-coefficient, by the chain rule.

    For every generator x but z, delta(x) must equal D(x) evaluated at the
    function tuple, through z^(precision-1).  The literal textbook variant
    of each closing equation is re-checked alongside and its verdict
    recorded as errata evidence.
    """
    from . import ring

    cfg = ring.SystemConfig(m)
    tup = forms.function_tuple(m, precision)
    upto = precision - 1
    labels = [
        "delta(E2) = (E2^2 - E4)/12",
        "delta(E4) = (E2*E4 - E6)/3",
        "delta(E6) = (E2*E6 - E4^2)/2",
    ]
    for u, v in y_pairs(m):
        if u < v - 1:
            labels.append(f"delta(g[{u},{v}]) = g[{u + 1},{v}]")
        else:
            labels.append(f"delta(g[{u},{v}]) = B_{v + 1}*(1 - E_{v + 1})/{2 * v + 2}")
    # each delta side is built when it is compared, so one is held at a time
    checks = [
        _compare(label, _delta(s), _at(ring.velocity(var, cfg), tup), upto)
        for label, var, s in zip(labels, tup.names[1:], tup.series[1:])
    ]
    by_name = dict(zip(tup.names, tup.series))
    errata = [
        _compare(
            f"literal: delta(g[{v - 1},{v}]) = B_{2 * v + 2}*(A_{v + 1} - 1)/{2 * v + 2}",
            _delta(by_name[f"g[{v - 1},{v}]"]),
            _closing_rhs_literal(v, precision),
            upto,
        )
        for v in range(3, m + 1, 2)
    ]
    return SystemReport(
        m=m, precision=precision, equations=tuple(checks), errata=tuple(errata)
    )
