"""Concrete series of the system: E_{2k}, g_{u,v}, Delta, Theta and its
order k0, and the function tuple at which the ring is evaluated.

The system is defined once, as D's velocity table in `_system` (read
through `ring`), and E_{2k} is written in E4 and E6 once, by the Weierstrass
recurrence there.  The two checks of these against the q-expansions here,
`verify_system` and `ak_polynomial` with their records, live in `_checks`,
which is loaded when one of their names is first looked up here.  So
loading this module loads `arith` and `series` only, and compiles only what
the search, `series` and `k0` run.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import InternalConsistencyError, Record, bernoulli, check_m, divisor_power_sums
from .arith import forward_names, variable_names, y_pairs
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

# the checks and their records, resolved from `_checks` on first use
__getattr__ = forward_names(
    globals(),
    "_checks",
    ("AkPolynomial", "ak_polynomial", "EquationCheck", "SystemReport", "verify_system"),
)


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
