import random

import pytest

from helpers import phi, power_identity, random_two_term_polynomial
from ramlab.forms import function_tuple
from ramlab.ring import Polynomial, SystemConfig, evaluate, format_polynomial
from ramlab.stability import principal_stability

CFG = SystemConfig(1)
Z = Polynomial.variable("z", CFG)
X1 = Polynomial.variable("E2", CFG)
X2 = Polynomial.variable("E4", CFG)
X3 = Polynomial.variable("E6", CFG)
DELTA = X2**3 - X3**2
THETA = Z * DELTA


def test_stable_generators():
    v = principal_stability(Z)
    assert v.stable and v.cofactor == Polynomial.constant(1, CFG)
    v = principal_stability(DELTA)
    assert v.stable and v.cofactor == X1
    v = principal_stability(THETA)
    assert v.stable and v.cofactor == X1 + Polynomial.constant(1, CFG)


def test_unstable_generators():
    for q in (X1, X2, X3, Polynomial.variable("g[0,1]", CFG)):
        assert not principal_stability(q).stable


def test_zero_rejected():
    with pytest.raises(ValueError):
        principal_stability(Polynomial.zero(CFG))


def test_power_identity_grid():
    for a in range(4):
        for b in range(4):
            assert power_identity(a, b)
    assert power_identity(1, 1)  # D(Theta) = (X1+1)*Theta
    with pytest.raises(ValueError):
        power_identity(-1, 0)


def test_cofactor_phi_bound():
    for a in range(4):
        for b in range(4):
            q = DELTA**a * Z**b
            verdict = principal_stability(q)
            assert verdict.stable
            if not verdict.cofactor.is_zero():
                assert phi(verdict.cofactor) <= 1


def test_power_cofactor_linear_form_and_order():
    tup = function_tuple(1, 20)
    for a in range(4):
        for b in range(4):
            q = DELTA**a * Z**b
            verdict = principal_stability(q)
            expected = X1.scale(a) + Polynomial.constant(b, CFG)
            assert verdict.cofactor == expected
            order = evaluate(q, tup).order()
            assert order.is_finite and order.value == a + b


def test_random_two_term_smoke():
    rng = random.Random(41)
    stable_hits = []
    for _ in range(50):
        q = random_two_term_polynomial(CFG, rng)
        if principal_stability(q).stable:
            stable_hits.append(format_polynomial(q))
    # a hit is only legitimate for constant multiples of Delta^a z^b
    assert stable_hits == [], stable_hits
