"""Concrete series of the system: E_{2k}, g_{u,v}, Delta, Theta and its
order k0, the function tuple, and a polynomial's value at it.

A tuple is (m, precision), and each generator's series is built on its
first read, into the monomial cache, which evaluation fills: `evaluate_side`
is the one core, p at the tuple as (numerators, denominators), and
`evaluate` reads it.  `ring` forwards `evaluate` for the trace shim alone.

The system is defined once, by D's velocities in `_system`, and E_{2k}
is written in E4 and E6 once, by the Weierstrass recurrence there.  The two
checks of these against the q-expansions, `verify_system` and
`ak_polynomial`, live in `_checks`.  The names forwarded here are those two
functions, which the benchmark's trace shim wraps as `forms.verify_system`
and `forms.ak_polynomial`; they load `_checks` when first looked up.  So
loading this module loads `arith` and `series` only, and compiles only what
the search and the commands `series`, `k0` and `ord` run; the handlers of
these three commands are here too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import isqrt, lcm

from . import CliError
from .arith import Record, bernoulli, check_m, divisor_power_sums
from .arith import forward_names, fraction_str, integer_numerators
from .series import Order, TruncatedSeries

__all__ = [
    "eisenstein",
    "g_series",
    "discriminant_series",
    "theta_series",
    "PrecisionError",
    "compute_k0",
    "FunctionTuple",
    "function_tuple",
    "monomial_series",
    "evaluate_side",
    "evaluate",
]

# the trace shim's two check spans, resolved from `_checks` on first use
__getattr__ = forward_names(globals(), {"verify_system": "_checks", "ak_polynomial": "_checks"})


# The largest weight 2k of an E_{2k}.  B_{2k} costs about k^3 time, and
# `series --which E4000 --prec 50` takes 9.7 s, E6000 32 s and E8000 67 s
# (58 MiB; one run each, 2 vCPUs, Python 3.11), so time is the binding cost.
MAX_EISENSTEIN_WEIGHT = 8000


def eisenstein(k: int, precision: int) -> TruncatedSeries:
    """E_{2k} = 1 - (4k/B_{2k}) * sum_n sigma_{2k-1}(n) z^n, truncated."""
    if k < 1:
        raise ValueError("k must be positive")
    if 2 * k > MAX_EISENSTEIN_WEIGHT:
        raise ValueError(f"the weight {2 * k} is over the limit {MAX_EISENSTEIN_WEIGHT}")
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
    """The series of `arith.variable_names(m)` through z^precision, each built
    on its first read into the monomial cache (see `monomial_series`)."""

    m: int
    precision: int

    def __post_init__(self):
        check_m(self.m)
        # monomial -> its series at this tuple; filled by monomial_series.
        # Not a field, so it takes no part in ==, hash or repr.
        self.__dict__["monomial_cache"] = {}


def function_tuple(m: int, precision: int) -> FunctionTuple:
    return FunctionTuple(m, precision)


def _generator_series(i: int, precision: int) -> TruncatedSeries:
    """The series of the variable in slot i: z, E2, E4, E6, then g[u,v] in
    `y_pairs` order, where the v pairs follow the ((v-1)/2)^2 of smaller v."""
    if i < 4:
        return eisenstein(i, precision) if i else TruncatedSeries.z(precision)
    r = isqrt(i - 4)
    return g_series(i - 4 - r * r, 2 * r + 1, precision)


# -- evaluation at the function tuple ---------------------------------------


def monomial_series(mono: Monomial, tup: FunctionTuple) -> TruncatedSeries:
    """The series of one monomial at the function tuple, memoised on the tuple.

    A z factor is a shift, and a generator's series is built here, on its
    first read (`_generator_series`).  Otherwise the monomial is its graded
    parent (one unit of its first nonzero variable removed) times that
    variable's series: one product when the parent is cached, as it always
    is along a downward-closed basis taken in graded order.  Without a cached
    parent, a pure power is built by squaring and any other monomial as that
    power times the rest.
    """
    cache = tup.monomial_cache
    found = cache.get(mono)
    if found is not None:
        return found
    first = next(filter(None, mono), 0)  # the first nonzero exponent
    if mono[0]:
        result = monomial_series((0,) + mono[1:], tup).shift(mono[0])
    elif not first:
        result = TruncatedSeries.constant(1, tup.precision)
    else:
        i = mono.index(first)
        unit = (0,) * i + (1,) + (0,) * (len(mono) - i - 1)
        if mono == unit:
            result = _generator_series(i, tup.precision)
        elif (parent := mono[:i] + (first - 1,) + mono[i + 1 :]) in cache:
            result = cache[parent] * monomial_series(unit, tup)
        elif sum(mono) > first:
            power = unit[:i] + (first,) + unit[i + 1 :]
            rest = mono[:i] + (0,) + mono[i + 1 :]
            result = monomial_series(power, tup) * monomial_series(rest, tup)
        else:
            result = monomial_series(unit, tup) ** first
    cache[mono] = result
    return result


def evaluate_side(p: Polynomial, tup: FunctionTuple):
    """p at the function tuple as a side: a pair (numerators, denominators),
    coefficient n being the n-th numerator over the n-th denominator, not
    reduced.  A tuple of another m is refused first.  A unit monomial (one
    term, coefficient 1) is its cached series, term by term, in two lists:
    a g series over one common denominator would need lcm(1..P)^(v-u).  Any other p is the sum of c *
    monomial series in integers over one denominator, repeated."""
    if tup.m != p.config.m:
        raise ValueError("function tuple and polynomial have different m")
    if len(p.terms) == 1 and 1 in p.terms.values():
        coeffs = monomial_series(next(iter(p.terms)), tup).coeffs
        return [c.numerator for c in coeffs], [c.denominator for c in coeffs]
    scaled = [(c, integer_numerators(monomial_series(mono, tup).coeffs)) for mono, c in p.terms.items()]
    # c * col = c.numerator * nums / (c.denominator * d)
    den = lcm(*(c.denominator * d for c, (d, _) in scaled))
    total = [0] * (tup.precision + 1)
    for c, (d, nums) in scaled:
        weight = c.numerator * (den // (c.denominator * d))
        total = [t + weight * x for t, x in zip(total, nums)]
    return total, repeat(den)


def evaluate(p: Polynomial, tup: FunctionTuple) -> TruncatedSeries:
    """Substitute the function tuple into p; exact truncated series, read
    from `evaluate_side`.  A unit monomial's side is term by term, and its
    cached series is returned itself; any other side has one denominator,
    and each coefficient is one Fraction (and its gcd)."""
    nums, dens = evaluate_side(p, tup)
    if isinstance(dens, repeat):
        return TruncatedSeries._of(tuple(map(Fraction, nums, dens)))
    return tup.monomial_cache[next(iter(p.terms))]


# -- the handlers of series, k0 and ord (see cli._COMMANDS) -----------------


def series_command(args, record) -> int:
    """`ramlab series`: the named series' exact coefficients."""
    which, precision = args.which, args.prec
    if which == "Delta":
        s = discriminant_series(precision)
    elif which == "Theta":
        s = theta_series(precision)
    elif m := re.fullmatch(r"E(\d+)", which):
        weight = int(m.group(1))
        if weight < 2 or weight % 2:
            raise CliError(f"no Eisenstein series of weight {weight}")
        s = eisenstein(weight // 2, precision)
    elif m := re.fullmatch(r"g\[(\d+),(\d+)\]", which):
        s = g_series(int(m.group(1)), int(m.group(2)), precision)
    else:
        raise CliError(f"unknown series {which!r}; use E2k, g[u,v], Delta or Theta")
    record["payload"] = {"precision": s.precision, "coefficients": [fraction_str(c) for c in s.coeffs]}
    return 0


def k0_command(args, record) -> int:
    """`ramlab k0`: exit 1 when Theta vanishes through --prec."""
    try:
        order = compute_k0(args.m, args.prec)
    except PrecisionError as exc:
        raise CliError(str(exc), code=1) from None
    record["payload"] = {"ord": order.value}
    return 0


def ord_command(args, record) -> int:
    """`ramlab ord`: the order of the polynomial at the function tuple; with
    --strict, exit 1 when it is not resolved at --prec."""
    from ._parse import parse_argument

    poly = parse_argument(args.poly, args.m)
    if poly.is_zero():
        raise CliError("the zero polynomial has no order of vanishing")
    order = evaluate(poly, function_tuple(args.m, args.prec)).order()
    record["payload"] = {"ord": str(order), "finite": order.is_finite}
    return 1 if args.strict and not order.is_finite else 0
