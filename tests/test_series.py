import random
from fractions import Fraction
from math import ceil, isqrt, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_series_products, delta, random_series, schoolbook_mul, sigma
from ramlab.forms import (
    discriminant_series,
    eisenstein,
    function_tuple,
    g_series,
    theta_series,
)
from ramlab.ring import Polynomial, SystemConfig, evaluate
from ramlab.series import Order, TruncatedSeries

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
series_strategy = st.lists(rationals, min_size=1, max_size=12).map(TruncatedSeries)


def test_add_examples():
    one_plus = TruncatedSeries([1, 1])
    one_minus = TruncatedSeries([1, -1])
    assert (one_plus + one_minus) == TruncatedSeries([2, 0])
    e4_shifted = eisenstein(2, 5) + TruncatedSeries.constant(-1, 5)
    assert e4_shifted.coeffs[0] == 0
    assert e4_shifted.coeffs[1] == 240
    a = TruncatedSeries([3, 5, 7])
    assert a + TruncatedSeries.zero(2) == a


def test_add_min_precision():
    a = TruncatedSeries([1, 2, 3, 4])
    b = TruncatedSeries([1, 1])
    assert (a + b).precision == 1


def test_mul_examples():
    one_plus = TruncatedSeries([1, 1, 0])
    one_minus = TruncatedSeries([1, -1, 0])
    assert one_plus * one_minus == TruncatedSeries([1, 0, -1])
    prod = TruncatedSeries.z(4) * discriminant_series(4)
    assert prod.coeffs[0] == 0
    assert prod.coeffs[1] == 0
    assert prod.coeffs[2] == 1728
    a = TruncatedSeries([2, 3, 5])
    assert a * TruncatedSeries.constant(1, 2) == a


def _check_product(a, b):
    prod = a * b
    assert prod.precision == min(a.precision, b.precision)
    assert prod == schoolbook_mul(a, b)


@pytest.mark.parametrize(
    "shape",
    [
        {"digits": 1, "max_den": 1},
        {"digits": 120},
        {"max_den": 10**6},
        {"digits": 40, "max_den": 10**30},
        {"density": 0.15},
        {"leading_zeros": 4},
    ],
    ids=["small-ints", "120-digits", "mixed-dens", "big-both", "sparse", "lead0"],
)
def test_mul_matches_schoolbook(shape):
    rng = random.Random(4100)
    precisions = [(0, 0), (0, 9), (9, 0)]
    precisions += [(rng.randint(0, 14), rng.randint(0, 14)) for _ in range(30)]
    for pa, pb in precisions:
        a = random_series(rng, pa, **shape)
        b = random_series(rng, pb, **shape)
        _check_product(a, b)
        _check_product(b, a)


def test_mul_zero_operand():
    rng = random.Random(4200)
    for p in (0, 1, 9):
        a = random_series(rng, p + 3, digits=50, max_den=1000)
        zero = TruncatedSeries.zero(p)
        _check_product(a, zero)
        _check_product(zero, a)


@pytest.mark.parametrize("bits", [8, 16, 24, 64, 336])
@pytest.mark.parametrize("sign", [1, -1])
def test_mul_slot_boundary(bits, sign):
    # the top coefficient reaches the bound (p+1)*max|a|*max|b|, whose bit
    # length is a whole number of bytes, so rounding the slot up to bytes
    # leaves no spare bit
    p = 5
    m = isqrt((1 << (bits - 1)) // (p + 1)) + 1
    bound = (p + 1) * m * m
    assert bound.bit_length() == bits
    a = TruncatedSeries([m] * (p + 1))
    b = TruncatedSeries([sign * m] * (p + 1))
    prod = a * b
    assert prod.coeffs[p] == sign * bound
    assert prod == schoolbook_mul(a, b)
    # the same over denominators: the bound is on the integer numerators
    assert a.scale(Fraction(1, 7)) * b.scale(Fraction(5, 3)) == prod.scale(Fraction(5, 21))


def test_mul_real_products():
    g03 = g_series(0, 3, 200)
    _check_product(g03, g03)
    e4 = eisenstein(2, 300)
    e6 = eisenstein(3, 300)
    e4_cubed = e4 * e4 * e4
    e6_squared = e6 * e6
    assert e4_cubed == schoolbook_mul(schoolbook_mul(e4, e4), e4)
    assert e6_squared == schoolbook_mul(e6, e6)
    assert (e4_cubed - e6_squared).order() == Order.finite(1)


def test_delta():
    assert delta(TruncatedSeries.constant(7, 3)) == TruncatedSeries.zero(3)
    assert delta(TruncatedSeries([0, 1, 3])) == TruncatedSeries([0, 1, 6])
    # nth coefficient of delta(g_{0,1}) is sigma_1(n), via n*sigma_{-1}(n)=sigma_1(n)
    d = delta(g_series(0, 1, 20))
    for n in range(1, 21):
        assert d.coeffs[n] == sigma(1, n)


def test_order():
    assert TruncatedSeries.zero(10).order() == Order.at_least(11)
    assert discriminant_series(8).order() == Order.finite(1)
    assert theta_series(8).order() == Order.finite(2)
    assert str(Order.finite(2)) == "2"
    assert str(Order.at_least(11)) == ">=11"


def test_pow():
    sq = TruncatedSeries([1, 1, 0]) ** 2
    assert sq == TruncatedSeries([1, 2, 1])
    a = TruncatedSeries([2, 5, 1])
    assert a**0 == TruncatedSeries.constant(1, 2)
    e4sq = eisenstein(2, 3) ** 2
    assert e4sq.coeffs[0] == 1
    assert e4sq.coeffs[1] == 480


def test_pow_equals_repeated_product():
    base = eisenstein(2, 12) + g_series(0, 1, 12)
    product = TruncatedSeries.constant(1, 12)
    for e in range(10):
        assert base**e == product
        product = product * base


def test_pow_squares_no_more_than_needed(monkeypatch):
    e4 = eisenstein(2, 30)
    expected = e4**60
    count = count_series_products(monkeypatch)
    assert e4**60 == expected
    # 60 = 0b111100: five squarings and three multiplies
    assert count[0] == 8
    assert count[0] <= 2 * ceil(log2(60))


def test_shift_is_product_with_z_power():
    s = eisenstein(3, 8)
    for k in range(11):
        assert s.shift(k) == s * TruncatedSeries.z(8) ** k
    with pytest.raises(ValueError):
        s.shift(-1)


@given(a=series_strategy, b=series_strategy)
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(a, b):
    lhs = delta(a * b)
    rhs = delta(a) * b + a * delta(b)
    assert lhs == rhs


@given(a=series_strategy, b=series_strategy)
@settings(max_examples=60, deadline=None)
def test_mul_commutative_add_commutative(a, b):
    assert a * b == b * a
    assert a + b == b + a


@given(a=series_strategy, b=series_strategy, c=series_strategy)
@settings(max_examples=40, deadline=None)
def test_associativity_at_matched_precision(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(a=series_strategy, b=series_strategy)
@settings(max_examples=60, deadline=None)
def test_ord_additive_when_visible(a, b):
    oa, ob = a.order(), b.order()
    prod = a * b
    if oa.is_finite and ob.is_finite and oa.value + ob.value <= prod.precision:
        assert prod.order() == Order.finite(oa.value + ob.value)


def test_immutability():
    s = TruncatedSeries([1, 2])
    with pytest.raises(AttributeError):
        s.coeffs = ()


def _public_copy(s: TruncatedSeries) -> TruncatedSeries:
    """The same coefficients through the coercing public constructor."""
    return TruncatedSeries([Fraction(c) for c in s.coeffs])


def test_every_operation_stores_a_tuple_of_fractions():
    rng = random.Random(71)
    a = random_series(rng, 12, max_den=30)
    b = random_series(rng, 9, max_den=30, leading_zeros=2)
    tup = function_tuple(3, 12)
    cfg = SystemConfig(3)
    poly = Polynomial.variable("E4", cfg) * Polynomial.variable("g[1,3]", cfg)
    results = [
        a * b,
        a * 0,
        a + b,
        a - b,
        -a,
        a.scale(3),
        a.scale(Fraction(-2, 7)),
        a.shift(0),
        a.shift(4),
        delta(a),
        a**3,
        evaluate(poly.scale(Fraction(5, 6)), tup),
        TruncatedSeries([1, Fraction(1, 2), 0]),
    ]
    for s in results:
        assert type(s.coeffs) is tuple
        assert all(type(c) is Fraction for c in s.coeffs)
        copy = _public_copy(s)
        assert s == copy and hash(s) == hash(copy)
        assert hash(s) == hash(s.coeffs)
    # storing as-is keeps equality, hashing and immutability of the public type
    same = TruncatedSeries._of(a.coeffs)
    assert same == a and hash(same) == hash(a) and same is not a
    assert a + TruncatedSeries.zero(12) == a
    with pytest.raises(AttributeError):
        same.coeffs = ()
    # the public constructor still coerces
    coerced = TruncatedSeries([1, 2, Fraction(3, 4)])
    assert all(type(c) is Fraction for c in coerced.coeffs)
    assert coerced == TruncatedSeries._of((Fraction(1), Fraction(2), Fraction(3, 4)))
