"""Concrete series of the system: E_{2k}, g_{u,v}, Delta, Theta and its
order k0, the reduction polynomials A_k, and the whole-system verifier.

The system is defined once, as D's velocity table in `ring`; `verify_system`
checks that table by the chain rule on the generators.  A_k is computed
once too, by the Weierstrass recurrence in `ring.eisenstein_polynomial`;
`ak_polynomial` evaluates it at the function tuple with `ring`'s evaluation
core and checks it against the q-expansion of E_{2k}.  Both checks compare
cross-multiplied integers, coefficient by coefficient, and build no Fraction.
Loading this module loads `arith` and `series`; `verify_system` and
`ak_polynomial` import `ring`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from .arith import InternalConsistencyError, Record, bernoulli, check_m, divisor_power_sums
from .arith import variable_names, y_pairs
from .series import Order, TruncatedSeries

__all__ = [
    "eisenstein",
    "g_series",
    "AkPolynomial",
    "ak_polynomial",
    "discriminant_series",
    "theta_series",
    "PrecisionError",
    "compute_k0",
    "FunctionTuple",
    "function_tuple",
    "EquationCheck",
    "SystemReport",
    "verify_system",
    "InternalConsistencyError",
]


def eisenstein(k: int, precision: int) -> TruncatedSeries:
    """E_{2k} = 1 - (4k/B_{2k}) * sum_n sigma_{2k-1}(n) z^n, truncated."""
    if k < 1:
        raise ValueError("k must be positive")
    den, nums = _eisenstein_numerators(k, precision)
    return TruncatedSeries._of(tuple(Fraction(x, den) for x in nums))


def _eisenstein_numerators(k: int, precision: int) -> tuple[int, list[int]]:
    """E_{2k} through z^precision as (den, nums), coefficient n being nums[n]/den."""
    factor = -Fraction(4 * k) / bernoulli(2 * k)
    fn, fd = factor.numerator, factor.denominator
    return fd, [fd] + [fn * s for s in divisor_power_sums(2 * k - 1, precision)[1:]]


def g_series(u: int, v: int, precision: int) -> TruncatedSeries:
    """g_{u,v} = sum_n n^u sigma_{-v}(n) z^n = sum_n sigma_v(n)/n^(v-u) z^n,
    truncated; v odd, 0 <= u < v."""
    if v < 1 or v % 2 == 0:
        raise ValueError("v must be a positive odd integer")
    if not 0 <= u < v:
        raise ValueError("u must satisfy 0 <= u < v")
    sums = divisor_power_sums(v, precision)
    return TruncatedSeries._of(
        (Fraction(0),) + tuple(Fraction(sums[n], n ** (v - u)) for n in range(1, precision + 1))
    )


def discriminant_series(precision: int) -> TruncatedSeries:
    """E4^3 - E6^2; vanishes to order exactly 1 with leading coefficient 1728."""
    e4 = eisenstein(2, precision)
    e6 = eisenstein(3, precision)
    return e4**3 - e6**2


def theta_series(precision: int) -> TruncatedSeries:
    """z * (E4^3 - E6^2)."""
    return discriminant_series(precision).shift(1)


class PrecisionError(Exception):
    """The requested quantity is not visible at the stored precision."""


def compute_k0(m: int, precision: int) -> Order:
    """ord of Theta = z*(X2^3 - X3^2) evaluated at the function tuple; only
    z, E4 and E6 occur in it, so m is only validated."""
    check_m(m)
    order = theta_series(precision).order()
    if not order.is_finite:
        raise PrecisionError(
            f"Theta evaluation vanishes through precision {precision}; raise it"
        )
    return order


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
    den, nums = _eisenstein_numerators(k, precision)
    check = _compare(f"A_{k}", _at(poly, function_tuple(1, precision)), (nums, repeat(den)), precision)
    if not check.ok:
        raise InternalConsistencyError(f"A_{k} verification failed at coefficient {check.first_mismatch}")
    # an m = 1 exponent tuple is (z, E2, E4, E6, g[0,1])
    return AkPolynomial(k=k, coefficients={(a, b): c for (_, _, a, b, _), c in poly})


class FunctionTuple(Record):
    """The ordered series tuple (z, E2, E4, E6, g_{0,1}, g_{0,3}, ...)."""

    m: int
    precision: int
    series: tuple[TruncatedSeries, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        # monomial -> its series at this tuple; filled by ring.monomial_series.
        # Not a field, so it takes no part in ==, hash or repr.
        self.__dict__["monomial_cache"] = {}


def function_tuple(m: int, precision: int) -> FunctionTuple:
    check_m(m)
    series = [TruncatedSeries.z(precision)]
    series += [eisenstein(k, precision) for k in (1, 2, 3)]
    series += [g_series(u, v, precision) for u, v in y_pairs(m)]
    return FunctionTuple(m=m, precision=precision, series=tuple(series), names=variable_names(m))


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
    den, nums = _eisenstein_numerators(v + 1, precision)
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
    tup = function_tuple(m, precision)
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
