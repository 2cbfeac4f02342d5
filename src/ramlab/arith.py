"""Exact integer/rational helpers: Bernoulli numbers, divisor sums, binomials.

Everything here is exact; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

__all__ = ["bernoulli", "sigma", "sigma_table", "binomial"]

# Append-only cache of B_0, B_1, ...; grown on demand.  Appending is atomic
# enough for concurrent readers (CPython list semantics).
_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """B_n as an exact Fraction, convention B_1 = -1/2.

    Computed by the defining recurrence sum_{k=0}^{m} C(m+1,k) B_k = 0
    with memoization.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        s = sum((comb(m + 1, k) * _BERNOULLI[k] for k in range(m)), Fraction(0))
        _BERNOULLI.append(-s / (m + 1))
    return _BERNOULLI[n]


def sigma(k: int, n: int) -> Fraction:
    """Sum of k-th powers of the positive divisors of n; k may be negative."""
    if n < 1:
        raise ValueError("n must be positive")
    total = Fraction(0)
    for d in range(1, n + 1):
        if n % d == 0:
            total += Fraction(d) ** k
    return total


def sigma_table(k: int, N: int) -> list[Fraction]:
    """[sigma_k(1), ..., sigma_k(N)] via a divisor sieve (outer loop over d).

    The sieve runs on sigma_|k| in plain integers; for negative k the entry
    is sigma_|k|(n) / n^|k|, since the divisors d and n/d pair up.
    """
    if N < 1:
        raise ValueError("N must be positive")
    e = abs(k)
    table = [0] * (N + 1)
    for d in range(1, N + 1):
        de = d**e
        for mult in range(d, N + 1, d):
            table[mult] += de
    if k < 0:
        return [Fraction(table[n], n**e) for n in range(1, N + 1)]
    return [Fraction(s) for s in table[1:]]


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    return comb(n, k)
