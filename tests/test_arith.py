import random
import sys
from fractions import Fraction

import pytest

from helpers import bernoulli_recurrence, binomial, sigma
from ramlab import arith
from ramlab.arith import MAX_M, bernoulli, check_m, fraction_str, int_str, sigma_table


def bernoulli_akiyama_tanigawa(n):
    """Independent oracle: Akiyama-Tanigawa, adjusted to B_1 = -1/2."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = Fraction(-1, 2)  # AT yields the B_1 = +1/2 convention
    return out


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_independent_oracle():
    oracle = bernoulli_akiyama_tanigawa(40)
    for n in range(41):
        assert bernoulli(n) == oracle[n]


def test_bernoulli_matches_the_defining_recurrence(monkeypatch):
    # from an empty cache, B_2, B_4, ... in rising order, as the ring's
    # velocities ask for them; each growth at least doubles the cache
    monkeypatch.setattr(arith, "_BERNOULLI", [Fraction(1), Fraction(-1, 2)])
    oracle = bernoulli_recurrence(300)
    lengths = []
    for n in range(2, 301, 2):
        assert bernoulli(n) == oracle[n]
        if len(arith._BERNOULLI) not in lengths:
            lengths.append(len(arith._BERNOULLI))
    assert all(2 * a <= b for a, b in zip([2] + lengths, lengths))
    assert [bernoulli(n) for n in range(301)] == oracle


def test_bernoulli_odd_zero_and_even_sign_alternation():
    for k in range(1, 20):
        assert bernoulli(2 * k + 1) == 0
    signs = [1 if bernoulli(2 * k) > 0 else -1 for k in range(1, 15)]
    assert all(s1 == -s2 for s1, s2 in zip(signs, signs[1:]))


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_sigma_examples():
    assert sigma(1, 1) == 1
    assert sigma(1, 6) == 12
    assert sigma(-3, 2) == Fraction(9, 8)
    assert sigma(0, 12) == 6  # number of divisors


def test_sigma_negative_k_identity():
    # n^k * sigma_{-k}(n) = sigma_k(n)
    for n in range(1, 300):
        for k in range(1, 10):
            assert Fraction(n) ** k * sigma(-k, n) == sigma(k, n)


def test_sigma_minus_one_special_case():
    for n in range(1, 200):
        assert n * sigma(-1, n) == sigma(1, n)


def test_sigma_table_matches_sigma():
    for k in (-7, -5, -3, -1, 0, 1, 3, 5, 11):
        table = sigma_table(k, 200)
        for n in range(1, 201):
            assert table[n - 1] == sigma(k, n)


def test_sigma_table_examples():
    assert sigma_table(1, 4) == [1, 3, 4, 7]
    assert sigma_table(3, 3) == [1, 9, 28]
    assert sigma_table(0, 1) == [1]


def test_binomial():
    assert binomial(6, 4) == 15
    assert binomial(7, 4) == 35
    assert binomial(5, 0) == 1
    assert binomial(3, 7) == 0
    # Pascal recurrence oracle
    for n in range(1, 20):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_check_m_states_the_domain_and_its_limit():
    # every m a test or the benchmark uses (up to 25) is inside the limit
    for m in (1, 3, 25, MAX_M):
        check_m(m)
    for m in (0, -1, 2, 4, MAX_M + 1):
        with pytest.raises(ValueError, match="^m must be a positive odd integer$"):
            check_m(m)
    for m in (MAX_M + 2, 401):
        with pytest.raises(ValueError, match=f"^m={m} is over the limit {MAX_M}$"):
            check_m(m)


@pytest.fixture
def no_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


def test_int_str_equals_str(no_digit_limit):
    rng = random.Random(73)
    values = [0, 1, -1, 2**arith.INT_STR_BITS, 2**arith.INT_STR_BITS - 1]
    for k in (1, 9, 4932, 4933, 5000, 12345, 40000):
        values += [10**k - 1, 10**k, 10**k + 1]
    for bits in (64, arith.INT_STR_BITS, arith.INT_STR_BITS + 1, 30000, 100000, 200000):
        values += [rng.getrandbits(bits) for _ in range(3)]
    for x in values + [-x for x in values]:
        assert int_str(x) == str(x)
    n, d = 3**40000 + 1, 7**20000
    assert fraction_str(Fraction(-n, d)) == f"-{n}/{d}"
    assert fraction_str(Fraction(n)) == str(n)


def test_int_str_refuses_past_the_digit_limit_as_str_does():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no digit limit")
    saved = sys.get_int_max_str_digits()
    try:
        for limit in (4300, 6000, 30000):
            sys.set_int_max_str_digits(limit)
            for x in (10**limit - 1, 10**limit, -(10**limit), 2**100000):
                try:
                    expected = str(x)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        int_str(x)
                    assert str(got.value) == str(exc)
                else:
                    assert int_str(x) == expected
    finally:
        sys.set_int_max_str_digits(saved)
