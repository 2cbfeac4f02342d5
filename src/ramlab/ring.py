"""Sparse multivariate polynomials over exact rationals in the variables
z, X1, X2, X3 (printed as z, E2, E4, E6) and Y_{u,v} (printed g[u,v]),
with exact division and a text parser/printer: the polynomial algebra
alone.

Loading this module loads only `arith`, and `parse` loads the parser,
`_parse`, only when it runs.  D, its velocity table and E_{2k} in E4 and E6
live in `_system`; evaluation at the function tuple lives in `forms`, beside
the tuple.  The two names forwarded here are `derive` and `evaluate`, which
the benchmark's trace shim wraps as `ring.derive` and `ring.evaluate`; each
loads its home, `_system` or `forms`, when first looked up.  Nothing here or
in `_system` imports `forms` or `series`: D writes E_{2k} in E4 and E6
itself, with no linear solve.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add

from .arith import Record, check_m, forward_names, int_str, positive_power, variable_names

__all__ = [
    "SystemConfig",
    "Polynomial",
    "parse",
    "format_polynomial",
    "ParseError",
]

Monomial = tuple[int, ...]  # exponents aligned with SystemConfig.names

# the trace shim's `ring.derive` and `ring.evaluate` spans, each resolved
# from its home on first use
__getattr__ = forward_names(globals(), {"derive": "_system", "evaluate": "forms"})


class SystemConfig(Record):
    """Fixes the odd parameter m, hence the variable set and D."""

    m: int

    def __post_init__(self):
        check_m(self.m)

    @property
    def names(self) -> tuple[str, ...]:
        return _names(self.m)

    @property
    def nvars(self) -> int:
        return len(self.names)


_names = lru_cache(maxsize=None)(variable_names)


@lru_cache(maxsize=None)
def _slots(m: int) -> dict[str, int]:
    """Each variable's slot in a monomial, by name."""
    return {x: i for i, x in enumerate(_names(m))}


@lru_cache(maxsize=None)
def _units(m: int) -> dict[str, Monomial]:
    """Each variable's monomial by name, and the monomial 1 under ""."""
    n = len(_names(m))
    return {"": (0,) * n} | {x: (0,) * i + (1,) + (0,) * (n - i - 1) for x, i in _slots(m).items()}


def monomial_key(mono: Monomial) -> tuple:
    """Graded-lex sort key (total degree first, then exponent tuple)."""
    return (sum(mono), mono)


class Polynomial:
    """Immutable sparse polynomial; term map from exponent tuple to Fraction."""

    __slots__ = ("config", "terms")

    def __init__(self, config: SystemConfig, terms: dict[Monomial, Fraction]):
        object.__setattr__(self, "config", config)
        object.__setattr__(
            self, "terms", {m: c for m, c in terms.items() if c}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.config, self.terms)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, config: SystemConfig) -> "Polynomial":
        return cls(config, {})

    @classmethod
    def constant(cls, c: int | Fraction, config: SystemConfig) -> "Polynomial":
        return cls(config, {(0,) * config.nvars: Fraction(c)})

    @classmethod
    def variable(cls, name: str, config: SystemConfig) -> "Polynomial":
        units = _units(config.m)
        if not name or name not in units:  # "" is the monomial 1, not a variable
            raise KeyError(f"unknown variable {name!r} for m={config.m}")
        return cls(config, {units[name]: Fraction(1)})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.config == other.config
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.config, frozenset(self.terms.items())))

    def _check(self, other: "Polynomial"):
        if self.config != other.config:
            raise ValueError("polynomials over different system configurations")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.config)
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + c
        return Polynomial(self.config, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.config, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)  # __add__ takes a scalar too

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: int | Fraction) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.config, {m: c * x for m, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        left, right = ([(m, c.numerator, c.denominator) for m, c in p.terms.items()]
                       for p in (self, other))
        return Polynomial(self.config, _products([(left, right)]))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return Polynomial.constant(1, self.config)
        return positive_power(self, e)

    # -- division -----------------------------------------------------

    def exact_divide(self, q: "Polynomial") -> Polynomial | None:
        """self / q when the division is exact, else None.

        The remainder is one dict updated in place; its leading monomial
        comes from a heap, where an entry whose term has cancelled is skipped
        when popped.  A step only adds monomials below the one it removes.
        Leading means in graded reverse lex order: every monomial order gives
        the same quotient and verdict, and this one's heap key is a slice.
        """
        self._check(q)
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        q_mono = min(q.terms, key=_descending)
        q_coeff = q.terms[q_mono]
        q_rest = [(mono, c) for mono, c in q.terms.items() if mono != q_mono]
        rem = dict(self.terms)
        heap = [_descending(mono) for mono in rem]
        heapify(heap)
        quotient: dict[Monomial, Fraction] = {}
        while rem:
            r_mono = heappop(heap)[1][::-1]
            r_coeff = rem.pop(r_mono, None)
            if r_coeff is None:
                continue
            diff = tuple(a - b for a, b in zip(r_mono, q_mono))
            if any(e < 0 for e in diff):
                return None
            c = r_coeff / q_coeff
            quotient[diff] = c
            for mono, qc in q_rest:
                key = tuple(a + b for a, b in zip(diff, mono))
                if key not in rem:
                    heappush(heap, _descending(key))
                value = rem.get(key, 0) - c * qc
                if value:
                    rem[key] = value
                else:
                    del rem[key]
        return Polynomial(self.config, quotient)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r}, m={self.config.m})"

    def __str__(self) -> str:
        return format_polynomial(self)


def _descending(mono: Monomial) -> tuple:
    """Min-heap key that pops monomials in descending graded reverse lex order."""
    return (-sum(mono), mono[::-1])


def _products(pairs) -> dict[Monomial, Fraction]:
    """Sum over (left, right) in pairs of the products of their (monomial,
    numerator, denominator) terms.  A coefficient is an unnormalised pair [n, d]
    until the end: x/d' adds x to n if d' == d, else gives n*d' + x*d over d*d'."""
    acc: dict[Monomial, list[int]] = {}
    for left, right in pairs:
        for m1, n1, d1 in left:
            for m2, n2, d2 in right:
                key = tuple(map(add, m1, m2))
                x, d = n1 * n2, d1 * d2
                pair = acc.get(key)
                if pair is None:
                    acc[key] = [x, d]
                elif pair[1] == d:
                    pair[0] += x
                else:
                    pair[0] = pair[0] * d + x * pair[1]
                    pair[1] *= d
    return {mono: Fraction(n, d) for mono, (n, d) in acc.items() if n}


# -- printing ------------------------------------------------------------


def format_polynomial(p: Polynomial) -> str:
    """Canonical rendering; graded-lex descending, exact rationals."""
    if p.is_zero():
        return "0"
    names, terms = p.config.names, p.terms
    pieces: list[str] = []
    for mono in sorted(terms, key=monomial_key, reverse=True):
        c = terms[mono]
        n, d = c.numerator, c.denominator  # sign and magnitude with no Fraction work
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e]
        if n not in (1, -1) or d != 1 or not factors:
            factors.insert(0, int_str(abs(n)) if d == 1 else f"{int_str(abs(n))}/{int_str(d)}")
        pieces += (" + " if n > 0 else " - ", "*".join(factors))
    pieces[0] = "" if pieces[0] == " + " else "-"  # the leading term's sign
    return "".join(pieces)


# -- parsing -------------------------------------------------------------


class ParseError(Exception):
    """Syntax or variable error in polynomial text, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def parse(text: str, cfg: SystemConfig) -> Polynomial:
    """Parse polynomial text over the given configuration.

    The tokenizer and parser are in `_parse`, loaded on the first call, so a
    process that never parses does not compile them.
    """
    from ._parse import parse_polynomial

    return parse_polynomial(text, cfg)
