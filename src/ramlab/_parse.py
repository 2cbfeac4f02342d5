"""The parser of polynomial text, and the handler of `ramlab deriv`.

`ring.parse` imports this module when it first runs, so a command that
never parses (auxsearch, verify-system, k0, ...) never compiles it.  Work is
bounded before it runs: each bound below refuses, at the operator or the
parenthesis, a result that may pass it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from operator import add

from . import CliError, ring
from .arith import integer_numerators, power_work
from .ring import ParseError, Polynomial, SystemConfig, _units

__all__ = [
    "MAX_PARSED_TERMS",
    "MAX_POWER_PRODUCTS",
    "MAX_POWER_BITS",
    "MAX_PARSED_BITS",
    "MAX_NESTING",
    "parse_polynomial",
]

MAX_PARSED_TERMS = 100_000  # the most terms a parsed product or power may have
MAX_POWER_PRODUCTS = 2_500_000  # the most term products a parsed power may make
# the most bits, ceil(log2 |n|) + ceil(log2 d), that a coefficient n/d of a
# power may have: e * (ceil(log2 |n|) + ceil(log2 d)) for a single term's
# coefficient n/d to the power e, e * _height(p) for a sum p to the power e
MAX_POWER_BITS = 200_000
# the most bits, numerators and denominators together, that the coefficients
# of a parsed product or power of a sum may have in all (see _weight)
MAX_PARSED_BITS = 2_000_000
# the deepest that parentheses may nest, well inside the recursion limit
MAX_NESTING = 100


# A run of whitespace, skipped whole so that the work is linear in the text;
# a run of decimal digits; g[u,v] without whitespace, or a run of letters and
# digits; a symbol; or any other character that is not whitespace.  For str
# patterns \s is exactly str.isspace, \d str.isdecimal and [^\W_] str.isalnum,
# non-ASCII characters included, so the matches split the text where a scan
# with those methods would.
_TOKEN = re.compile(r"(?P<WS>\s+)|(?P<NUM>\d+)|(?P<NAME>g\[\d+,\d+\]|[^\W_]+)|(?P<SYM>[-+*^()[\],/])|\S")


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of text[offset]; a column counts characters."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, offset); kind is NUM, NAME, EOF or a symbol."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, word = match.lastgroup, match[0]
        if kind == "WS":
            continue
        if kind is None or kind == "NAME" and not word[0].isalpha():  # a name starts with a letter
            raise ParseError(f"unexpected character {word[0]!r}", *_position(text, match.start()))
        tokens.append((word if kind == "SYM" else kind, word, match.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


def _weight(p: Polynomial) -> int:
    """The sum over p's coefficients n/d of ceil(log2 |n|) + 2*ceil(log2 d).

    A product's weight is at most the sum of its factors' weights.  A sum of
    j fractions has at most the sum of their weights plus ceil(log2 j) <= j-1
    bits, numerator and denominator together.  So the coefficients of a
    product or power of sums have at most the weights of all the term
    products it forms, plus one bit per term product, in all.
    """
    return sum((abs(c.numerator) - 1).bit_length() + 2 * (c.denominator - 1).bit_length()
               for c in p.terms.values())


def _height(p: Polynomial) -> int:
    """ceil(log2 L) + ceil(log2 D), where D is the lcm of p's denominators and
    L the sum of |c| * D over p's coefficients c.

    p = N/D with N integral, so p**e = N**e / D**e.  Each coefficient of N**e
    is at most L**e in absolute value, because the coefficients of
    (sum |N_i| x_i)**e bound those of N**e term by term and sum to L**e.  In
    lowest terms a coefficient n/d of p**e has |n| <= L**e and d <= D**e, so
    ceil(log2 |n|) + ceil(log2 d) <= e * _height(p).
    """
    den, nums = integer_numerators(p.terms.values())
    return (sum(map(abs, nums)) - 1).bit_length() + (den - 1).bit_length()


class _Parser:
    """Recursive descent.  A single term is a (monomial, coefficient) pair; a
    Polynomial is built for a parenthesised sum and a product with one."""

    def __init__(self, text: str, cfg: SystemConfig):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open at the current token
        self.cfg = cfg
        self.units = _units(cfg.m)

    def peek(self) -> str:
        """The next token's kind."""
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def error(self, message: str, tok: tuple[str, str, int]) -> ParseError:
        return ParseError(message, *_position(self.text, tok[2]))

    def bound(self, size: int, limit: int, message: str, op: tuple[str, str, int]) -> None:
        """Refuse at op a result that may pass limit; message shows size at {}."""
        if size > limit:
            raise self.error(f"{message.format(size)}, over the limit {limit}", op)

    def parse_expression(self) -> Polynomial:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        elif self.peek() == "+":
            self.next()
        # one dict for the whole sum: adding Polynomials term by term would copy
        # the sum so far for every term.  No Fraction is added to 0 or rebuilt
        terms: dict[Monomial, int | Fraction] = {}
        while True:
            term = self.parse_term()
            for mono, c in term.terms.items() if type(term) is Polynomial else (term,):
                c = c if sign > 0 else -c
                terms[mono] = c if (old := terms.get(mono)) is None else old + c
            if self.peek() not in ("+", "-"):
                return Polynomial(self.cfg, {mono: c if type(c) is Fraction else Fraction(c)
                                             for mono, c in terms.items()})
            sign = 1 if self.next()[0] == "+" else -1

    def parse_term(self):
        result = self.parse_factor()
        while self.peek() == "*":
            op = self.next()
            factor = self.parse_factor()
            if type(result) is tuple is type(factor):
                # two single terms: a monomial sum, and a coefficient product unless c is 1
                c = factor[1]
                result = tuple(map(add, result[0], factor[0])), result[1] if c == 1 else result[1] * c
            else:
                a, b = (x if type(x) is Polynomial else Polynomial(self.cfg, dict([x]))
                        for x in (result, factor))
                terms = len(a.terms) * len(b.terms)
                self.bound(terms, MAX_PARSED_TERMS, "product may have {} terms", op)
                # each term of a meets each term of b once
                bits = len(b.terms) * _weight(a) + len(a.terms) * _weight(b) + terms
                self.bound(bits, MAX_PARSED_BITS, "product's coefficients may have {} bits", op)
                result = a * b
        return result

    def parse_factor(self):
        base = self.parse_base()
        if self.peek() != "^":
            return base
        op = self.next()
        e = int(self.expect("NUM")[1])
        if type(base) is tuple:
            # |k|**e <= 2**(e * ceil(log2 |k|)) for k the numerator or denominator
            c = base[1]
            bits = e * ((abs(c.numerator) - 1).bit_length() + (c.denominator - 1).bit_length())
            self.bound(bits, MAX_POWER_BITS, "coefficient power may have {} bits", op)
            return tuple(x * e for x in base[0]), c**e
        t = len(base.terms)
        terms = comb(t + e - 1, e)
        self.bound(terms, MAX_PARSED_TERMS, "power may have {} terms", op)
        work = power_work(lambda j: comb(t + j - 1, j), e)
        self.bound(work, MAX_POWER_PRODUCTS, "power may make {} term products", op)
        # the term products of base**e are multinomial(k) * prod c_i**k_i over
        # the `terms` vectors k of t exponents with sum e, multinomial(k) <=
        # t**e, and by symmetry each k_i sums to terms * e / t over them
        bits = terms * e // t * _weight(base) + terms * (e * (t - 1).bit_length() + 1)
        self.bound(bits, MAX_PARSED_BITS, "power's coefficients may have {} bits", op)
        # printing a coefficient takes time quadratic in its digits
        self.bound(e * _height(base), MAX_POWER_BITS, "power's largest coefficient may have {} bits", op)
        return base**e

    def parse_base(self):
        kind, word, _ = tok = self.next()
        if kind == "NUM":
            if self.peek() != "/":
                return self.units[""], int(word)
            self.next()
            den_tok = self.expect("NUM")
            if int(den_tok[1]) == 0:
                raise self.error("zero denominator", den_tok)
            return self.units[""], Fraction(int(word), int(den_tok[1]))
        if kind == "(":
            # each level costs four frames of this recursion
            self.depth += 1
            self.bound(self.depth, MAX_NESTING, "parentheses nest {} deep", tok)
            inner = self.parse_expression()
            self.expect(")")
            self.depth -= 1
            return inner if len(inner.terms) > 1 else next(iter(inner.terms.items()), (self.units[""], 0))
        if kind == "NAME":
            return self.parse_variable(tok)
        raise self.error(f"expected a number, variable or '(', found {word or 'end of input'!r}", tok)

    def parse_variable(self, tok: tuple[str, str, int]) -> tuple[Monomial, int]:
        name = tok[1]
        if name in self.units:
            return self.units[name], 1
        if name == "g":
            self.expect("[")
            u = self.expect("NUM")[1]
            self.expect(",")
            v = self.expect("NUM")[1]
            self.expect("]")
        elif name.startswith("g["):
            u, v = name[2:-1].split(",")
        else:
            raise self.error(f"unknown variable {name!r}", tok)
        name = f"g[{int(u)},{int(v)}]"
        if name not in self.units:
            raise self.error(f"{name} is out of range for m={self.cfg.m}", tok)
        return self.units[name], 1


def parse_polynomial(text: str, cfg: SystemConfig) -> Polynomial:
    """The whole text as one polynomial over cfg; see `ring.parse`."""
    parser = _Parser(text, cfg)
    poly = parser.parse_expression()
    tok = parser.next()
    if tok[0] != "EOF":
        raise parser.error(f"unexpected trailing input {tok[1]!r}", tok)
    return poly


def parse_argument(text: str, m: int) -> Polynomial:
    """A command's --poly over SystemConfig(m), through `ring.parse`."""
    try:
        return ring.parse(text, SystemConfig(m))
    except ParseError as exc:
        raise CliError(f"polynomial syntax error: {exc}") from None


def deriv_command(args, record) -> int:
    """`ramlab deriv`: D of the polynomial."""
    poly = parse_argument(args.poly, args.m)
    record["payload"] = {"derivative": ring.format_polynomial(ring.derive(poly))}
    return 0
