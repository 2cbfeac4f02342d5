"""Shared random generators for the test suite (seeded, deterministic)."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from ramlab import ring
from ramlab._linalg import RowReducer
from ramlab.forms import FunctionTuple, InternalConsistencyError, function_tuple
from ramlab.multlab import ExperimentRow, operational_exponent, paper_exponent
from ramlab.ring import Polynomial, SystemConfig, evaluate, monomial_series, velocity
from ramlab.series import TruncatedSeries


def sigma(k: int, n: int) -> Fraction:
    """Oracle for divisor sums: sum of d^k over the positive divisors d of n."""
    if n < 1:
        raise ValueError("n must be positive")
    total = Fraction(0)
    for d in range(1, n + 1):
        if n % d == 0:
            total += Fraction(d) ** k
    return total


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    return comb(n, k)


def random_monomial(cfg: SystemConfig, rng: random.Random, max_total_deg: int = 3):
    mono = [0] * cfg.nvars
    for _ in range(rng.randint(0, max_total_deg)):
        mono[rng.randrange(cfg.nvars)] += 1
    return tuple(mono)


def random_coefficient(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-9, 10) if n != 0])
    return Fraction(num, rng.randint(1, 9))


def random_polynomial(
    cfg: SystemConfig,
    rng: random.Random,
    max_total_deg: int = 3,
    max_terms: int = 4,
) -> Polynomial:
    """Nonzero random polynomial with bounded total degree."""
    while True:
        terms: dict = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = random_monomial(cfg, rng, max_total_deg)
            terms[mono] = terms.get(mono, Fraction(0)) + random_coefficient(rng)
        poly = Polynomial(cfg, terms)
        if not poly.is_zero():
            return poly


def random_two_term_polynomial(cfg: SystemConfig, rng: random.Random) -> Polynomial:
    """Exactly two distinct monomials, both with nonzero coefficients."""
    while True:
        m1 = random_monomial(cfg, rng)
        m2 = random_monomial(cfg, rng)
        if m1 != m2:
            return Polynomial(
                cfg, {m1: random_coefficient(rng), m2: random_coefficient(rng)}
            )


def random_series(
    rng: random.Random,
    precision: int,
    digits: int = 3,
    max_den: int = 9,
    density: float = 1.0,
    leading_zeros: int = 0,
) -> TruncatedSeries:
    """Signed numerators up to `digits` digits over denominators 1..max_den.

    Each coefficient past the leading zeros is nonzero with chance `density`.
    """
    top = 10**digits
    coeffs = []
    for n in range(precision + 1):
        if n < leading_zeros or rng.random() >= density:
            coeffs.append(Fraction(0))
        else:
            coeffs.append(Fraction(rng.randint(-top, top), rng.randint(1, max_den)))
    return TruncatedSeries(coeffs)


def schoolbook_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Slow oracle for series products: the Fraction double loop."""
    p = min(a.precision, b.precision)
    out = [Fraction(0)] * (p + 1)
    for i, x in enumerate(a.coeffs[: p + 1]):
        if x == 0:
            continue
        for j in range(p + 1 - i):
            y = b.coeffs[j]
            if y:
                out[i + j] += x * y
    return TruncatedSeries(out)


def naive_derive(p: Polynomial) -> Polynomial:
    """Slow oracle for ring.derive: one immutable Polynomial sum per term."""
    cfg = p.config
    result = Polynomial.zero(cfg)
    for mono, c in p.terms.items():
        for i, e in enumerate(mono):
            if e == 0:
                continue
            lowered = list(mono)
            lowered[i] -= 1
            partial = Polynomial.from_monomial(tuple(lowered), cfg, c * e)
            result = result + partial * velocity(cfg.names[i], cfg)
    return result


def naive_exact_divide(p: Polynomial, q: Polynomial):
    """Slow oracle for Polynomial.exact_divide: one immutable remainder per step."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return Polynomial.zero(p.config)
    q_mono, q_coeff = q.leading_term()
    quotient: dict = {}
    rem = p
    while not rem.is_zero():
        r_mono, r_coeff = rem.leading_term()
        diff = tuple(a - b for a, b in zip(r_mono, q_mono))
        if any(e < 0 for e in diff):
            return None
        c = r_coeff / q_coeff
        quotient[diff] = quotient.get(diff, Fraction(0)) + c
        rem = rem - q * Polynomial.from_monomial(diff, p.config, c)
    return Polynomial(p.config, quotient)


def naive_monomial_series(mono, tup: FunctionTuple) -> TruncatedSeries:
    """Slow oracle: one series product per unit of every exponent, no cache."""
    result = TruncatedSeries.constant(1, tup.precision)
    for gen, e in zip(tup.series, mono):
        for _ in range(e):
            result = result * gen
    return result


def naive_evaluate(p: Polynomial, tup: FunctionTuple) -> TruncatedSeries:
    """Slow oracle for ring.evaluate: sum of c * naive_monomial_series."""
    total = TruncatedSeries.zero(tup.precision)
    for mono, c in p:
        total = total + naive_monomial_series(mono, tup).scale(c)
    return total


def fraction_sum_evaluate(p: Polynomial, tup: FunctionTuple) -> TruncatedSeries:
    """Slow oracle for ring.evaluate: one Fraction series sum per term."""
    total = TruncatedSeries.zero(tup.precision)
    for mono, c in p:
        total = total + monomial_series(mono, tup).scale(c)
    return total


@dataclass(frozen=True)
class ScanToken:
    kind: str  # NUM, NAME, EOF, or a literal symbol
    text: str
    line: int
    col: int


def char_scan_tokenize(text: str) -> list[ScanToken]:
    """Slow oracle for ring._tokenize: one character at a time, classified by
    str.isspace, isdigit, isalpha and isalnum."""
    tokens: list[ScanToken] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(ScanToken("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(ScanToken("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()[],/":
            tokens.append(ScanToken(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ring.ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(ScanToken("EOF", "", line, col))
    return tokens


class LeftFoldParser(ring._Parser):
    """Oracle for the parser's sums and products: one immutable Polynomial
    sum per term and one Polynomial product per factor."""

    def parse_expression(self) -> Polynomial:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        elif self.peek().kind == "+":
            self.next()
        result = self.parse_term().scale(sign)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek().kind == "*":
            self.next()
            result = result * self.parse_factor()
        return result


def left_fold_parse(text: str, cfg: SystemConfig) -> Polynomial:
    parser = LeftFoldParser(char_scan_tokenize(text), cfg)
    poly = parser.parse_expression()
    if parser.peek().kind != "EOF":
        raise ValueError("trailing input")
    return poly


def count_series_products(monkeypatch) -> list[int]:
    """Count series-by-series products from now on; read the count at [0]."""
    count = [0]
    original = TruncatedSeries.__mul__

    def counting(self, other):
        if isinstance(other, TruncatedSeries):
            count[0] += 1
        return original(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    return count


def gauss_jordan_solve(matrix, rhs):
    """Slow oracle for _linalg.solve_square: Gauss-Jordan over Fraction."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        aug[col] = [x / piv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def inverse_mod_p(matrix, p):
    """Slow oracle for _linalg._inverse_columns: the rows of M^-1 mod p by
    Gauss-Jordan on [M | I] over plain lists, or None if M is singular mod p."""
    n = len(matrix)
    aug = [[a % p for a in row] + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class FractionRowReducer:
    """Slow oracle for _linalg.RowReducer: a monic reduced echelon over Fraction.

    Same interface; add() reduces its row again, so it accepts any row.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        # pivot column -> monic reduced row
        self.rows: dict[int, list[Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row):
        row = [Fraction(x) for x in row]
        for col in sorted(self.rows):
            if row[col] != 0:
                factor = row[col]
                basis = self.rows[col]
                for c in range(col, self.ncols):
                    if basis[c]:
                        row[c] -= factor * basis[c]
        return row

    def add(self, row) -> bool:
        reduced = self.reduce(row)
        pivot = next((c for c, x in enumerate(reduced) if x != 0), None)
        if pivot is None:
            return False
        piv = reduced[pivot]
        reduced = [x / piv for x in reduced]
        # back-eliminate the new pivot column from existing rows
        for col, basis in self.rows.items():
            if basis[pivot] != 0:
                factor = basis[pivot]
                self.rows[col] = [x - factor * y for x, y in zip(basis, reduced)]
        self.rows[pivot] = reduced
        return True

    def kernel_vector(self) -> list[Fraction]:
        if self.rank >= self.ncols:
            raise ValueError("kernel is trivial")
        free = next(c for c in range(self.ncols) if c not in self.rows)
        vec = [Fraction(0)] * self.ncols
        vec[free] = Fraction(1)
        for col, basis in self.rows.items():
            # rows are fully reduced, so pivots solve directly
            vec[col] = -basis[free]
        lead = next(x for x in vec if x != 0)
        return [x / lead for x in vec]


def reducer_search(budget, cfg, basis, precision, reducer_cls=RowReducer) -> ExperimentRow:
    """Oracle for multlab._search: exact row reduction over Q, one row at a time.

    The cutoff is the first row that would bring the rank to T, and the
    witness is the reducer's kernel vector of the rows before it.
    """
    T = len(basis)
    tup = function_tuple(cfg.m, precision)
    columns = [monomial_series(mono, tup) for mono in basis]
    reducer = reducer_cls(T)
    n_star = None
    for r in range(precision + 1):
        row = [col.coefficient(r) for col in columns]
        reduced = reducer.reduce(row)
        if any(x != 0 for x in reduced):
            if reducer.rank + 1 == T:
                n_star = r
                break
            reducer.add(reduced)
    flagged = n_star is None
    kernel = reducer.kernel_vector()
    witness = Polynomial(cfg, {mono: c for mono, c in zip(basis, kernel) if c != 0})
    measured = evaluate(witness, tup).order()
    if flagged:
        n_star = precision + 1
        if measured.is_finite:
            raise InternalConsistencyError("oracle witness does not vanish")
    elif not (measured.is_finite and measured.value == n_star):
        raise InternalConsistencyError("oracle witness order disagrees with its cutoff")
    denom = (budget.d0 + 1) * (budget.d + 1) ** operational_exponent(cfg.m)
    denom_paper = (budget.d0 + 1) * (budget.d + 1) ** paper_exponent(cfg.m)
    return ExperimentRow(
        m=cfg.m,
        d0=budget.d0,
        d=budget.d,
        T=T,
        n_star=n_star,
        measured_ord=measured,
        ratio=Fraction(n_star, denom),
        ratio_paper=Fraction(n_star, denom_paper),
        witness=witness,
        precision=precision,
        precision_limited=flagged,
    )
