"""Shared random generators for the test suite (seeded, deterministic)."""

from __future__ import annotations

import random
from fractions import Fraction

from ramlab.forms import FunctionTuple
from ramlab.ring import Polynomial, SystemConfig
from ramlab.series import TruncatedSeries


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
