"""Exact integer/rational helpers: Bernoulli numbers, divisor sums, the
scaling of a rational vector to integers, square-and-multiply, the domain
of m, the names and index pairs of the system's variables, the exact text
of a rational and of a long integer, the error raised when a self-check
fails, the base of the immutable value classes, and the lookup by which a
module reaches names kept in a sibling module.  Every other module may
import this one; it imports no other ramlab module.

Everything here is exact; no floating point anywhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

__all__ = [
    "InternalConsistencyError",
    "Record",
    "bernoulli",
    "divisor_power_sums",
    "sigma_table",
    "integer_numerators",
    "positive_power",
    "power_work",
    "MAX_M",
    "check_m",
    "y_pairs",
    "variable_names",
    "fraction_str",
    "int_str",
    "forward_names",
]


class InternalConsistencyError(Exception):
    """A self-check that must always pass did not."""


class Record:
    """Base of the immutable value classes.

    The annotated names of a subclass body are its fields, in order; a view
    derived from them, such as a ratio or a verdict, is a property.  A record
    is built by position or keyword, each field given once, compares and
    hashes as the tuple of its fields, and prints as ``Name(field=value,
    ...)``.  Nothing is compiled when a subclass is defined.  A subclass's
    `__post_init__` runs once the fields are set, to validate them or to add
    state outside them.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields) or kwargs.keys() != set(fields[len(args) :]):
            raise TypeError(f"{type(self).__name__}() takes each of {', '.join(fields)} once")
        values = dict(zip(fields, args), **kwargs)
        self.__dict__.update(values, _values=tuple(map(values.__getitem__, fields)))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({shown})"


def _tangent_numbers(n: int) -> list[int]:
    """[T_1, ..., T_n], the tangent numbers, by Brent and Harvey's integer
    recurrence ("Fast computation of Bernoulli, tangent and secant numbers",
    2011): n^2 / 2 products of a small integer and an O(n log n)-bit one."""
    t = [1]
    for k in range(2, n + 1):
        t.append((k - 1) * t[-1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j - 1] = (j - k) * t[j - 2] + (j - k + 2) * t[j - 1]
    return t


# Append-only cache of B_0, B_1, ...; extended at the end, which is atomic
# enough for concurrent readers (CPython list semantics).
_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli(n: int) -> Fraction:
    """B_n as an exact Fraction, convention B_1 = -1/2.

    B_{2k} = (-1)^(k-1) * 2k * T_k / (4^k * (4^k - 1)) for the tangent number
    T_k, and B_n = 0 for odd n >= 3.  The tangent numbers are computed all at
    once, up to at least n and at most n + n/6 (twice the cache's length when
    that is less): asking for B_0, ..., B_n in rising order recomputes them
    at geometrically spaced n, and one step past the cache costs at most
    about 1.6 times a cold call (the work grows about as n^2.8).
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n >= len(_BERNOULLI):
        values = [Fraction(1), Fraction(-1, 2)]
        top = max(n, min(2 * len(_BERNOULLI), n + n // 6))
        for k, t in enumerate(_tangent_numbers(top // 2), 1):
            values += [Fraction((-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1)), Fraction(0)]
        _BERNOULLI.extend(values[len(_BERNOULLI):])
    return _BERNOULLI[n]


@lru_cache(maxsize=None)
def divisor_power_sums(e: int, N: int) -> tuple[int, ...]:
    """(0, sigma_e(1), ..., sigma_e(N)) by a divisor sieve (outer loop over
    d), run once per (e, N) in a process."""
    table = [0] * (N + 1)
    for d in range(1, N + 1):
        de = d**e
        for mult in range(d, N + 1, d):
            table[mult] += de
    return tuple(table)


def sigma_table(k: int, N: int) -> list[Fraction]:
    """[sigma_k(1), ..., sigma_k(N)]; for negative k the entry is
    sigma_|k|(n) / n^|k|, since the divisors d and n/d pair up."""
    if N < 1:
        raise ValueError("N must be positive")
    table = divisor_power_sums(abs(k), N)
    return [Fraction(table[n], n ** max(-k, 0)) for n in range(1, N + 1)]


def integer_numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, [D*x for x in values]) with D the lcm of the denominators."""
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def positive_power(base, e: int):
    """base**e for e >= 1 by square-and-multiply from the base, stopping after
    the top bit: at most 2*floor(log2 e) products, none with a unit."""
    result = None
    while True:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if not e:
            return result
        base = base * base


def power_work(size, e: int) -> int:
    """The sum of size(i) * size(j) over the products base**i * base**j
    that positive_power(base, e) makes, for e >= 1: its work when each
    product costs |X|*|Y| and size(j) is the size of base**j."""
    work, result, power = 0, 0, 1
    while True:
        if e & 1:
            if result:
                work += size(result) * size(power)
            result += power
        e >>= 1
        if not e:
            return work
        work += size(power) ** 2
        power *= 2


# The largest m: 4 + ((m+1)/2)^2 variables, 10,004 at m = 199.  A command
# builds only the variables it reads (`deriv --poly E2 --m 199`: 0.07 s and
# 17 MiB), but `verify-system --m 199 --prec 300` checks all of them, in
# 13-21 s and 139 MiB (2 vCPUs, Python 3.11), so time is the binding cost.
MAX_M = 199


def check_m(m: int) -> None:
    """Refuse m unless it is a positive odd integer no larger than MAX_M."""
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be a positive odd integer")
    if m > MAX_M:
        raise ValueError(f"m={m} is over the limit {MAX_M}")


def y_pairs(m: int) -> list[tuple[int, int]]:
    """(u, v) index pairs in canonical order: v ascending over odd v, then u."""
    return [(u, v) for v in range(1, m + 1, 2) for u in range(v)]


def variable_names(m: int) -> tuple[str, ...]:
    """The variables z, E2, E4, E6, g[u,v] in canonical order (the y_pairs order)."""
    return ("z", "E2", "E4", "E6") + tuple(f"g[{u},{v}]" for u, v in y_pairs(m))


def fraction_str(c: Fraction) -> str:
    """c as an integer string, or "p/q" in lowest terms."""
    n, d = c.numerator, c.denominator
    return int_str(n) if d == 1 else f"{int_str(n)}/{int_str(d)}"


# Integers of up to INT_STR_BITS bits print by str(), which is quadratic in
# the digits.  Longer ones are split at a power of two, 2**h, the halves are
# printed the same way as Decimals, and joined by one Decimal product and
# sum, which libmpdec does in subquadratic time (CPython 3.12's _pylong
# does the same).  2**h for each h used is kept, exact, across calls.
INT_STR_BITS = 16384
_LEAF_BITS = 1024
_POWERS_OF_TWO: dict = {}


def int_str(n: int) -> str:
    """str(n), in subquadratic time for long n; raises past the interpreter's
    digit limit exactly when str(n) does."""
    if n.bit_length() <= INT_STR_BITS:
        return str(n)
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(_to_decimal(abs(n), n.bit_length(), decimal.Decimal))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if 0 < limit < len(digits):
        return str(n)  # raises the interpreter's own ValueError
    return digits if n > 0 else "-" + digits


def _to_decimal(x: int, bits: int, dec):
    """x, with 0 <= x < 2**bits, as a Decimal, by halves at a power of two."""
    if bits <= _LEAF_BITS:
        return dec(x)
    h = 1 << (bits - 1).bit_length() - 1  # the largest power of two below bits
    high = x >> h
    low = _to_decimal(x - (high << h), h, dec)
    return low + _to_decimal(high, bits - h, dec) * _power_of_two(h, dec)


def _power_of_two(h: int, dec):
    """2**h as a Decimal, for h a power of two."""
    power = _POWERS_OF_TWO.get(h)
    if power is None:
        power = dec(1 << h) if h <= _LEAF_BITS else _power_of_two(h >> 1, dec) ** 2
        _POWERS_OF_TWO[h] = power
    return power


def forward_names(namespace: dict, homes: dict[str, str]):
    """A module `__getattr__` (PEP 562) for names that live in sibling
    modules, `homes` mapping each name to its module, such as "_system": the
    home is imported when the name is first looked up, and the name is kept
    in namespace once resolved.  So the module holds its homes' own objects,
    and a later lookup, import or patch sees a plain module attribute.  It
    serves only the benchmark's trace shim, which wraps `derive`, `evaluate`,
    the two checks and the Bareiss elimination at the homes they had before
    they moved."""

    def __getattr__(name):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        # the import statement's own path, so that -X importtime lists home
        module = __import__(home, namespace, None, (name,), 1)
        value = namespace[name] = getattr(module, name)
        return value

    return __getattr__
