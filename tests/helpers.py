"""Shared random generators for the test suite (seeded, deterministic)."""

from __future__ import annotations

import importlib.util
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from math import comb, lcm
from pathlib import Path

from ramlab import _argparse, cli, ring
from ramlab._bareiss import RowReducer
from ramlab._checks import EquationCheck, SystemReport
from ramlab._linalg import solve_lifted_scaled
from ramlab._system import derive, velocity
from ramlab.arith import InternalConsistencyError, bernoulli, sigma_table, variable_names, y_pairs
from ramlab.forms import FunctionTuple, eisenstein, evaluate, function_tuple, g_series, monomial_series
from ramlab.multlab import ExperimentRow
from ramlab.ring import Polynomial, SystemConfig
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


def bernoulli_recurrence(n: int) -> list[Fraction]:
    """Oracle for arith.bernoulli: [B_0, ..., B_n] by the defining recurrence
    sum_{k=0}^{m} C(m+1,k) B_k = 0, in O(n^2) Fraction operations."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum((comb(m + 1, k) * values[k] for k in range(m)), Fraction(0))
        values.append(-s / (m + 1))
    return values


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    return comb(n, k)


def from_monomial(mono, cfg: SystemConfig, coeff=1) -> Polynomial:
    """The polynomial coeff * mono."""
    return Polynomial(cfg, {tuple(mono): Fraction(coeff)})


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


def coprime_denominators(count: int, digits: int = 100) -> list[int]:
    """count pairwise-coprime integers of `digits` digits: (count + i)*M + 1
    for i < count, with M a multiple of lcm(1..count-1).  A common prime
    factor of two of them divides their difference (i - j)*M, hence M, yet
    each is 1 mod M."""
    low = 10 ** (digits - 1)
    step = lcm(*range(1, count))
    mult = step * -(-low // (count * step))
    dens = [(count + i) * mult + 1 for i in range(count)]
    if not all(len(str(d)) == digits for d in dens):
        raise ValueError("too many denominators for that many digits")
    return dens


def oracle_corpus(cfg: SystemConfig, rng: random.Random) -> list[Polynomial]:
    """Seeded polynomials for the ring's fast paths: small denominators,
    pairwise-coprime 100-digit denominators, integers only (powers of Delta),
    a negative leading term, unit and constant terms, and sums that cancel
    to zero (in the corpus, in its products and in its derivatives)."""
    e2, e4, e6 = (Polynomial.variable(name, cfg) for name in ("E2", "E4", "E6"))
    delta = e4**3 - e6**2
    corpus = [random_polynomial(cfg, rng, max_total_deg=3, max_terms=8) for _ in range(3)]
    for dens in (coprime_denominators(12), coprime_denominators(12)[::-1]):
        terms = {}
        for den in dens:
            mono = random_monomial(cfg, rng, 4)
            terms[mono] = Fraction(rng.randrange(-10**100, 10**100), den)
        corpus.append(Polynomial(cfg, terms))
    corpus += [delta, delta**2 * Polynomial.variable("z", cfg), delta**4]
    lead = random_polynomial(cfg, rng, max_total_deg=4, max_terms=6)
    if lead.terms[max(lead.terms, key=ring.monomial_key)] > 0:
        lead = -lead
    corpus.append(lead)
    corpus += [e4 * e6 - e2 + 1, -e6 + Fraction(1, 2), Polynomial.constant(-1, cfg)]
    corpus += [(e2 + e4) * (e2 - e4) - e2**2 + e4**2, e2 - e4, e2 + e4]
    return corpus


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
    """Slow oracle for _system.derive: one immutable Polynomial sum per term."""
    cfg = p.config
    result = Polynomial.zero(cfg)
    for mono, c in p.terms.items():
        for i, e in enumerate(mono):
            if e == 0:
                continue
            lowered = list(mono)
            lowered[i] -= 1
            partial = from_monomial(tuple(lowered), cfg, c * e)
            result = result + partial * velocity(cfg.names[i], cfg)
    return result


def leading_term(p: Polynomial):
    """The graded-lex greatest monomial of p and its coefficient."""
    mono = max(p.terms, key=ring.monomial_key)
    return mono, p.terms[mono]


def naive_exact_divide(p: Polynomial, q: Polynomial):
    """Slow oracle for Polynomial.exact_divide: one immutable remainder per step."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return Polynomial.zero(p.config)
    q_mono, q_coeff = leading_term(q)
    quotient: dict = {}
    rem = p
    while not rem.is_zero():
        r_mono, r_coeff = leading_term(rem)
        diff = tuple(a - b for a, b in zip(r_mono, q_mono))
        if any(e < 0 for e in diff):
            return None
        c = r_coeff / q_coeff
        quotient[diff] = quotient.get(diff, Fraction(0)) + c
        rem = rem - q * from_monomial(diff, p.config, c)
    return Polynomial(p.config, quotient)


def eager_generators(m: int, precision: int) -> list[TruncatedSeries]:
    """Eager oracle for the series a function tuple builds on first read:
    all of them, in variable order, from eisenstein and g_series."""
    series = [TruncatedSeries.z(precision)] + [eisenstein(k, precision) for k in (1, 2, 3)]
    return series + [g_series(u, v, precision) for u, v in y_pairs(m)]


def seeded_tuple(m: int, series) -> FunctionTuple:
    """A function tuple whose generators are `series`, in variable order,
    each put into its monomial cache before anything is read."""
    tup = FunctionTuple(m, series[0].precision)
    tup.monomial_cache.update(zip(generator_units(m).values(), series))
    return tup


def naive_monomial_series(mono, tup: FunctionTuple) -> TruncatedSeries:
    """Slow oracle: one series product per unit of every exponent, no cache,
    over the eager generators."""
    result = TruncatedSeries.constant(1, tup.precision)
    for gen, e in zip(eager_generators(tup.m, tup.precision), mono):
        for _ in range(e):
            result = result * gen
    return result


def naive_evaluate(p: Polynomial, tup: FunctionTuple) -> TruncatedSeries:
    """Slow oracle for forms.evaluate: sum of c * naive_monomial_series."""
    total = TruncatedSeries.zero(tup.precision)
    for mono, c in p:
        total = total + naive_monomial_series(mono, tup).scale(c)
    return total


def fraction_sum_evaluate(p: Polynomial, tup: FunctionTuple) -> TruncatedSeries:
    """Slow oracle for forms.evaluate: one Fraction series sum per term."""
    total = TruncatedSeries.zero(tup.precision)
    for mono, c in p:
        total = total + monomial_series(mono, tup).scale(c)
    return total


def delta(s: TruncatedSeries) -> TruncatedSeries:
    """Oracle for the Euler operator z d/dz: multiplies the z^n coefficient by n."""
    return TruncatedSeries._of(tuple(n * c for n, c in enumerate(s.coeffs)))


def sigma_table_eisenstein(k: int, precision: int) -> TruncatedSeries:
    """Oracle for forms.eisenstein: 1, then the factor -4k/B_{2k} times each
    Fraction of sigma_table(2k-1, precision)."""
    factor = -Fraction(4 * k) / bernoulli(2 * k)
    coeffs = [Fraction(1)]
    if precision >= 1:
        coeffs += [factor * s for s in sigma_table(2 * k - 1, precision)]
    return TruncatedSeries._of(tuple(coeffs))


def sigma_table_g_series(u: int, v: int, precision: int) -> TruncatedSeries:
    """Oracle for forms.g_series: 0, then n^u times each Fraction of
    sigma_table(-v, precision)."""
    coeffs = [Fraction(0)]
    if precision >= 1:
        table = sigma_table(-v, precision)
        coeffs += [n**u * table[n - 1] for n in range(1, precision + 1)]
    return TruncatedSeries._of(tuple(coeffs))


def fraction_verify_system(m: int, precision: int, velocity=velocity) -> SystemReport:
    """Oracle for _checks.verify_system by Fraction series: over the tuple of
    the sigma_table definitions, delta of each generator's series against
    forms.evaluate of `velocity` (D's table unless a test perturbs it), and
    against the literal closing formula built as a series, compared
    coefficient by coefficient with ==."""
    cfg = SystemConfig(m)
    series = [TruncatedSeries.z(precision)] + [sigma_table_eisenstein(k, precision) for k in (1, 2, 3)]
    series += [sigma_table_g_series(u, v, precision) for u, v in y_pairs(m)]
    tup = seeded_tuple(m, series)
    names = variable_names(m)

    def check(name, lhs, rhs):
        n = next((n for n in range(precision) if lhs.coeffs[n] != rhs.coeffs[n]), None)
        return EquationCheck(name=name, first_mismatch=n)

    labels = ["delta(E2) = (E2^2 - E4)/12", "delta(E4) = (E2*E4 - E6)/3", "delta(E6) = (E2*E6 - E4^2)/2"]
    labels += [
        f"delta(g[{u},{v}]) = g[{u + 1},{v}]" if u < v - 1
        else f"delta(g[{u},{v}]) = B_{v + 1}*(1 - E_{v + 1})/{2 * v + 2}"
        for u, v in y_pairs(m)
    ]
    deltas = dict(zip(names[1:], map(delta, series[1:])))
    equations = [
        check(label, deltas[var], evaluate(velocity(var, cfg), tup))
        for label, var in zip(labels, names[1:])
    ]
    one = TruncatedSeries.constant(1, precision)
    errata = [
        check(
            f"literal: delta(g[{v - 1},{v}]) = B_{2 * v + 2}*(A_{v + 1} - 1)/{2 * v + 2}",
            deltas[f"g[{v - 1},{v}]"],
            (sigma_table_eisenstein(v + 1, precision) - one).scale(bernoulli(2 * v + 2) / (2 * v + 2)),
        )
        for v in range(3, m + 1, 2)
    ]
    return SystemReport(equations=tuple(equations), errata=tuple(errata))


@dataclass(frozen=True)
class ScanToken:
    kind: str  # NUM, NAME, EOF, or a literal symbol
    text: str
    line: int
    col: int


def _spaceless_g_end(text: str, i: int):
    """The end of g[u,v] written without whitespace from i, with decimal u and
    v, or None."""
    if not text.startswith("g[", i):
        return None
    j = i + 2
    for stop in ",]":
        k = j
        while k < len(text) and text[k].isdecimal():
            k += 1
        if k == j or k == len(text) or text[k] != stop:
            return None
        j = k + 1
    return j


def char_scan_tokenize(text: str) -> list[ScanToken]:
    """Slow oracle for _parse._tokenize: one character at a time, classified by
    str.isspace, isdecimal, isalpha and isalnum.  A name that starts as
    g[u,v] without whitespace is that one token."""
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
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(ScanToken("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = _spaceless_g_end(text, i)
            if j is None:
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


class LeftFoldParser:
    """Oracle for ring's parser: the recursive descent with one immutable
    Polynomial sum per term, one Polynomial product per factor and one
    Polynomial power per exponent, and the same errors at the same tokens."""

    def __init__(self, tokens, cfg: SystemConfig):
        self.tokens = tokens
        self.pos = 0
        self.cfg = cfg

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok.kind != kind:
            raise ring.ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col
            )
        return self.next()

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

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        if self.peek().kind == "^":
            self.next()
            base = base ** int(self.expect("NUM").text)
        return base

    def parse_base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "NUM":
            self.next()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.next()
                den_tok = self.expect("NUM")
                den = int(den_tok.text)
                if den == 0:
                    raise ring.ParseError("zero denominator", den_tok.line, den_tok.col)
                return Polynomial.constant(Fraction(num, den), self.cfg)
            return Polynomial.constant(num, self.cfg)
        if tok.kind == "(":
            self.next()
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if tok.kind == "NAME":
            self.next()
            return self.parse_variable(tok)
        raise ring.ParseError(
            f"expected a number, variable or '(', found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )

    def parse_variable(self, tok) -> Polynomial:
        name = tok.text
        if name == "g":
            self.expect("[")
            u = int(self.expect("NUM").text)
            self.expect(",")
            v = int(self.expect("NUM").text)
            self.expect("]")
        elif name.startswith("g["):
            # g[u,v] written without whitespace is one token
            u, v = (int(x) for x in name[2:-1].split(","))
        elif name in ("z", "E2", "E4", "E6"):
            return Polynomial.variable(name, self.cfg)
        else:
            raise ring.ParseError(f"unknown variable {name!r}", tok.line, tok.col)
        if v % 2 == 0 or not 0 <= u < v or v > self.cfg.m:
            raise ring.ParseError(
                f"g[{u},{v}] is out of range for m={self.cfg.m}", tok.line, tok.col
            )
        return Polynomial.variable(f"g[{u},{v}]", self.cfg)


def left_fold_parse(text: str, cfg: SystemConfig) -> Polynomial:
    """Oracle for ring.parse on char_scan_tokenize's tokens."""
    parser = LeftFoldParser(char_scan_tokenize(text), cfg)
    poly = parser.parse_expression()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ring.ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return poly


def naive_poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Slow oracle for Polynomial.__mul__: one Fraction sum per contribution."""
    terms: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
    return Polynomial(p.config, terms)


def naive_format(p: Polynomial) -> str:
    """Slow oracle for ring.format_polynomial: the magnitude as abs() of the
    Fraction, printed by str()."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for idx, mono in enumerate(sorted(p.terms, key=ring.monomial_key, reverse=True)):
        c = p.terms[mono]
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(p.config.names, mono) if e
        ]
        mag = abs(c)
        text = str(mag.numerator) if mag.denominator == 1 else str(mag)
        if not factors:
            body = text
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([text] + factors)
        if idx == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(pieces)


def ak_coefficients(ak: Polynomial) -> dict[tuple[int, int], Fraction]:
    """The coefficient of each E4^a * E6^b in A_k, a polynomial of m = 1,
    by (a, b); its exponent tuples are (z, E2, E4, E6, g[0,1])."""
    return {(a, b): c for (_, _, a, b, _), c in ak}


def ak_evaluate(ak: Polynomial, e4: TruncatedSeries, e6: TruncatedSeries) -> TruncatedSeries:
    """A_k(E4, E6) as a series: the sum of c * E4^a * E6^b over its terms."""
    total = TruncatedSeries.zero(min(e4.precision, e6.precision))
    for (a, b), c in ak_coefficients(ak).items():
        total = total + (e4**a * e6**b).scale(c)
    return total


def phi_weights(cfg: SystemConfig) -> tuple[int, ...]:
    """z -> 0, X1 -> 1, X2 -> 2, X3 -> 3, every Y -> 2m+2."""
    return (0, 1, 2, 3) + tuple(2 * cfg.m + 2 for _ in y_pairs(cfg.m))


def phi2_weights(cfg: SystemConfig) -> tuple[int, ...]:
    """z -> 0, X1 -> 1, X2 -> 2, X3 -> 3, Y_{u,v} -> 4(u-v)."""
    return (0, 1, 2, 3) + tuple(4 * (u - v) for u, v in y_pairs(cfg.m))


def phi(p: Polynomial) -> int:
    """The largest phi weight of a term of p."""
    if p.is_zero():
        raise ValueError("phi of the zero polynomial is undefined")
    w = phi_weights(p.config)
    return max(sum(x * e for x, e in zip(w, mono)) for mono in p.terms)


def power_identity(a: int, b: int) -> bool:
    """Check D(Delta^a * z^b) = (a*X1 + b) * Delta^a * z^b exactly, for m = 1."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    cfg = SystemConfig(1)
    x2 = Polynomial.variable("E4", cfg)
    x3 = Polynomial.variable("E6", cfg)
    z = Polynomial.variable("z", cfg)
    delta = x2**3 - x3**2
    q = delta**a * z**b
    x1 = Polynomial.variable("E2", cfg)
    expected = (x1.scale(a) + Polynomial.constant(b, cfg)) * q
    return derive(q) == expected


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
    """Slow oracle for _bareiss.solve_square: Gauss-Jordan over Fraction."""
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


def ak_by_linear_solve(k: int) -> dict[tuple[int, int], Fraction]:
    """Slow oracle for _system.eisenstein_polynomial: E_{2k} as the combination
    of the s products E4^a * E6^b with 2a + 3b = k that matches E_{2k} on its
    first s q-coefficients, by Gauss-Jordan over Fraction."""
    pairs = [((k - 3 * b) // 2, b) for b in range(k // 3 + 1) if (k - 3 * b) % 2 == 0]
    s = len(pairs)
    e4, e6, target = (eisenstein(j, s - 1) for j in (2, 3, k))
    products = [e4**a * e6**b for a, b in pairs]
    matrix = [[product.coeffs[n] for product in products] for n in range(s)]
    solution = gauss_jordan_solve(matrix, [target.coeffs[n] for n in range(s)])
    return {pair: c for pair, c in zip(pairs, solution) if c != 0}


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


def solve_lifted(matrix, rhs, p) -> list[Fraction]:
    """The exact solution of M x = b that _linalg.solve_lifted_scaled returns, as Fractions."""
    nums, den = solve_lifted_scaled(matrix, rhs, p)
    return [Fraction(v, den) for v in nums]


def euclid_reconstruct(residue: int, modulus: int, bound: int):
    """Oracle for _linalg._reconstruct: Wang's half extended Euclid, one
    quotient at a time on the full numbers."""
    r0, r1 = modulus, residue % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not t1 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def recursive_monomial_basis(cell) -> list:
    """Oracle for multlab.Cell.basis: the exponent tuples of the non-z
    variables built one variable per recursion level, then sorted."""
    rest = []

    def gen(prefix, remaining, slots):
        if slots == 0:
            rest.append(prefix)
            return
        for e in range(remaining + 1):
            gen(prefix + (e,), remaining - e, slots - 1)

    gen((), cell.d, SystemConfig(cell.m).nvars - 1)
    monos = [(e0,) + r for e0 in range(cell.d0 + 1) for r in rest]
    monos.sort(key=ring.monomial_key)
    return monos


def generator_units(m: int) -> dict:
    """Oracle for ring._unit: each variable's unit exponent tuple, by name,
    built slot by slot."""
    names = variable_names(m)
    n = len(names)
    return {x: tuple(int(j == i) for j in range(n)) for i, x in enumerate(names)}


class FractionRowReducer:
    """Slow oracle for _bareiss.RowReducer: a monic reduced echelon over Fraction.

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


def reducer_search(cell, basis, precision, tup, witness=True, reducer_cls=RowReducer) -> ExperimentRow:
    """Oracle for multlab._search: exact row reduction over Q, one row at a time.

    The cutoff is the first row that would bring the rank to T, and the
    witness is the reducer's kernel vector of the rows before it; the row
    has a witness whatever `witness` asks.  The oracle builds its own
    function tuple at `precision`; the search's `tup`, which may be at a
    higher precision, is not read.
    """
    T = len(basis)
    tup = function_tuple(cell.m, precision)
    columns = [monomial_series(mono, tup) for mono in basis]
    reducer = reducer_cls(T)
    n_star = None
    for r in range(precision + 1):
        row = [col.coeffs[r] for col in columns]
        reduced = reducer.reduce(row)
        if any(x != 0 for x in reduced):
            if reducer.rank + 1 == T:
                n_star = r
                break
            reducer.add(reduced)
    flagged = n_star is None
    kernel = reducer.kernel_vector()
    witness = Polynomial(SystemConfig(cell.m), {mono: c for mono, c in zip(basis, kernel) if c != 0})
    measured = evaluate(witness, tup).order()
    if flagged:
        n_star = precision + 1
        if measured.is_finite:
            raise InternalConsistencyError("oracle witness does not vanish")
    elif not (measured.is_finite and measured.value == n_star):
        raise InternalConsistencyError("oracle witness order disagrees with its cutoff")
    return ExperimentRow(cell=cell, n_star=n_star, witness=witness, precision=precision)


# option values for random_argv: ones that an option of each kind (typed,
# or a plain string) takes, and odd ones, which the option's type refuses
# or argparse may read as an option.  Each list has tokens that start with
# "-", with and without a space
ARGV_VALUES = {
    "int": ["1", "3", "0", "2", "-1", "-12", " 4", "-1 "],
    "str": ["E2", "E4 - 1", "1:2", "deriv", "-E2 + 1", "-1/2*z + E4", "-3", "-.5"],
    "odd": ["x", "1.5", "", "-E2", "-h E2", "-hE2", "--E2", "-1.5e3", "-x=y z", "-=5 x", "-",
            "--", "-- E2", "-1/2*z"],
}


def random_argv(choice) -> list[str]:
    """A command line near the canonical form, for checking cli's table
    parser against argparse; `choice(seq)` picks an element of seq.  One
    in two is written canonically: each option once as `--name value` or
    not at all.  In the others an option may also be given as
    `--name=value`, abbreviated or twice, and -h, --help, --, a stray token
    or a second subcommand may go anywhere.  The global options go before
    or after the subcommand."""
    canonical = choice([True, False])
    forms = ["canonical"] * 7 + ["absent"] + ([] if canonical else ["equals", "abbreviated", "twice"])

    def given(name: str, kwargs: dict) -> list[list[str]]:
        if kwargs.get("action") == "store_true":
            value = None
        else:
            values = kwargs.get("choices") or ARGV_VALUES["str" if kwargs.get("type") is None else "int"]
            value = choice([choice(values)] * 7 + [choice([*ARGV_VALUES["odd"], "xml"])])
        token = f"--{name}"
        form = choice(forms)
        if form == "absent":
            return []
        if form == "equals" and value is not None:
            return [[f"{token}={value}"]]
        if form == "abbreviated":
            token = token[:-1]
        chunk = [token] if value is None else [token, value]
        return [chunk, chunk] if form == "twice" else [chunk]

    command = choice([*cli._COMMANDS] * 4 + ["nope"])
    before, after = [], []
    for name, (kwargs, _) in cli._GLOBALS.items():
        for chunks in choice([[], [], [before], [after]] + ([] if canonical else [[before, after]])):
            chunks.extend(given(name, kwargs))
    for name, kwargs in cli._COMMANDS.get(command, (None, {}))[1].items():
        after.extend(given(name, kwargs))
    shuffled = []
    while after:
        shuffled.append(after.pop(choice(range(len(after)))))
    argv = [token for chunk in [*before, [command], *shuffled] for token in chunk]
    extra = None if canonical else choice([None, "-h", "--help", "--", "E2", "--nope", "series"])
    if extra is not None:
        argv.insert(choice(range(len(argv) + 1)), extra)
    return argv


def argparse_namespace(argv: list[str]):
    """What the argparse parser makes of argv: its namespace, or the code
    it exits with on help or a usage error."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            return _argparse.parse_args(list(argv), cli._GLOBALS, cli._COMMANDS)
        except SystemExit as exc:
            return exc.code


def perfbench_workloads():
    """The benchmark's workloads module, which imports no ramlab."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads
