"""Concrete series of the system: E_{2k}, g_{u,v}, Delta, Theta and its
order k0, the function tuple, and a polynomial's value at it.

A tuple is (m, precision).  Each variable's q-expansion is written once,
as an unreduced side (numerators, denominators) by slot, `_generator_side`,
and its series is built from that on its first read into the monomial
cache.  `evaluate_side` is the one core, p at the tuple as a side, and
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
    return _series((nums, repeat(den)))


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
    return _series(_generator_side(4 + (v // 2) ** 2 + u, precision))


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


def _generator_side(i: int, precision: int):
    """The q-expansion of the variable in slot i as a side, not reduced: z;
    E2, E4, E6 over their one denominator; then g[u,v] in `y_pairs` order
    (after the ((v-1)/2)^2 pairs of smaller v) as sigma_v(n) over n^(v-u)."""
    if i == 0:
        return [int(n == 1) for n in range(precision + 1)], repeat(1)
    if i < 4:
        den, nums = _eisenstein_numerators(i, precision)
        return nums, repeat(den)
    r = isqrt(i - 4)
    e = 2 * r + 1 - (i - 4 - r * r)  # v - u
    return list(divisor_power_sums(2 * r + 1, precision)), [1] + [n**e for n in range(1, precision + 1)]


def _series(side) -> TruncatedSeries:
    """A side's coefficients as reduced Fractions."""
    return TruncatedSeries._of(tuple(map(Fraction, *side)))


# -- evaluation at the function tuple ---------------------------------------


def monomial_series(mono: Monomial, tup: FunctionTuple) -> TruncatedSeries:
    """The series of one monomial at the function tuple, memoised on the tuple.

    A z factor is a shift, and a generator's series is built here, on its
    first read, as the Fractions of its side (`_generator_side`).  Otherwise
    the monomial is its graded parent (one unit of its first nonzero
    variable removed) times that variable's series: one product when the
    parent is cached, as it always is along a downward-closed basis taken in
    graded order.  Without a cached parent, a pure power is built by
    squaring and any other monomial as that power times the rest.
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
            result = _series(_generator_side(i, tup.precision))
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
    reduced.  A tuple of another m is refused first.  A variable (one term,
    coefficient 1, degree 1) is its q-expansion, `_generator_side`, which
    enters no cache: a g series over one common denominator would need
    lcm(1..P)^(v-u).  Any other p is the sum of c * monomial series in
    integers over one denominator, repeated."""
    if tup.m != p.config.m:
        raise ValueError("function tuple and polynomial have different m")
    if len(p.terms) == 1 and 1 in p.terms.values() and sum(unit := next(iter(p.terms))) == 1:
        return _generator_side(unit.index(1), tup.precision)
    scaled = [(c, integer_numerators(monomial_series(mono, tup).coeffs)) for mono, c in p.terms.items()]
    # c * col = c.numerator * nums / (c.denominator * d)
    den = lcm(*(c.denominator * d for c, (d, _) in scaled))
    total = [0] * (tup.precision + 1)
    for c, (d, nums) in scaled:
        weight = c.numerator * (den // (c.denominator * d))
        total = [t + weight * x for t, x in zip(total, nums)]
    return total, repeat(den)


def evaluate(p: Polynomial, tup: FunctionTuple) -> TruncatedSeries:
    """Substitute the function tuple into p: a monomial (one term, coefficient
    1) at a tuple of its m is its cached series itself, and any other p the
    Fractions of `evaluate_side`, which refuses a tuple of another m."""
    if tup.m == p.config.m and len(p.terms) == 1 and 1 in p.terms.values():
        return monomial_series(next(iter(p.terms)), tup)
    return _series(evaluate_side(p, tup))


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
