"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import random
import time
from fractions import Fraction

from helpers import (
    ak_coefficients,
    ak_evaluate,
    delta,
    from_monomial,
    phi,
    phi2_weights,
    power_identity,
    random_monomial,
    random_polynomial,
    random_two_term_polynomial,
)
from ramlab._checks import ak_polynomial, verify_system
from ramlab._system import derive, velocity
from ramlab.arith import bernoulli, fraction_str
from ramlab.forms import compute_k0, eisenstein, evaluate, function_tuple
from ramlab.multlab import Cell, _experiment_rows, experiment_grid
from ramlab.ring import Polynomial, SystemConfig, format_polynomial, parse
from ramlab.series import Order
from ramlab.stability import principal_stability


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_eisenstein_vs_divisor_oracle():
    start = time.monotonic()
    for k in range(1, 8):
        s = eisenstein(k, 200)
        factor = -Fraction(4 * k) / bernoulli(2 * k)
        assert s.coeffs[0] == 1
        for n in range(1, 201):
            # independent oracle: direct divisor enumeration
            sig = sum(Fraction(d) ** (2 * k - 1) for d in range(1, n + 1) if n % d == 0)
            assert s.coeffs[n] == factor * sig
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report(1, f"eisenstein(k,200) matches divisor oracle for k<=7 ({elapsed:.1f}s)")


def test_criterion_2_ak_table():
    assert ak_coefficients(ak_polynomial(4, 60)) == {(2, 0): Fraction(1)}
    assert ak_coefficients(ak_polynomial(5, 60)) == {(1, 1): Fraction(1)}
    assert ak_coefficients(ak_polynomial(6, 60)) == {
        (3, 0): Fraction(441, 691),
        (0, 2): Fraction(250, 691),
    }
    e4 = eisenstein(2, 60)
    e6 = eisenstein(3, 60)
    for k in range(2, 13):
        assert ak_evaluate(ak_polynomial(k, 60), e4, e6) == eisenstein(k, 60)
    report(2, "A_k exact for k=4,5,6 and verified against E_2k for k<=12 at prec 60")


def test_criterion_3_system_verification():
    for m in (1, 3, 5, 7):
        rep = verify_system(m, 100)
        assert rep.ok, [eq for eq in rep.equations if not eq.ok]
        if m >= 3:
            v3 = [eq for eq in rep.errata if "g[2,3]" in eq.name]
            assert v3 and not v3[0].ok and v3[0].first_mismatch == 1
    report(3, "canonical system verified for m in {1,3,5,7} at prec 100; "
              "literal closing variant fails at v=3, z^1")


def test_criterion_4_chain_rule():
    for m in (1, 3):
        cfg = SystemConfig(m)
        tup = function_tuple(m, 30)
        rng = random.Random(100 + m)
        for _ in range(100):
            p = random_polynomial(cfg, rng, max_total_deg=3)
            assert evaluate(derive(p), tup) == delta(evaluate(p, tup))
    report(4, "evaluate(D p) = delta(evaluate p) on 100 random polynomials per m in {1,3}")


def test_criterion_5_stability():
    cfg = SystemConfig(1)
    z = Polynomial.variable("z", cfg)
    x1 = Polynomial.variable("E2", cfg)
    x2 = Polynomial.variable("E4", cfg)
    x3 = Polynomial.variable("E6", cfg)
    delta = x2**3 - x3**2
    theta = z * delta
    one = Polynomial.constant(1, cfg)

    v = principal_stability(z)
    assert v.stable and v.cofactor == one
    v = principal_stability(delta)
    assert v.stable and v.cofactor == x1
    v = principal_stability(theta)
    assert v.stable and v.cofactor == x1 + one
    for q in (x2, x3, x1, Polynomial.variable("g[0,1]", cfg)):
        assert not principal_stability(q).stable
    rng = random.Random(500)
    for _ in range(50):
        q = random_two_term_polynomial(cfg, rng)
        verdict = principal_stability(q)
        assert not verdict.stable, f"unexpected stable hit: {format_polynomial(q)}"
    for a in range(4):
        for b in range(4):
            assert power_identity(a, b)
    report(5, "stability verdicts and power identity all as expected")


def test_criterion_6_weight_laws():
    start = time.monotonic()
    rng = random.Random(600)
    for _ in range(200):
        cfg = SystemConfig(rng.choice((1, 3)))
        p = random_polynomial(cfg, rng)
        q = random_polynomial(cfg, rng)
        dp = derive(p)
        if not dp.is_zero():
            assert phi(dp) <= phi(p) + 1
        assert phi(p * q) == phi(p) + phi(q)
    # phi2 strict increase of every D_v contribution on random monomials
    checked = 0
    while checked < 50:
        cfg = SystemConfig(rng.choice((1, 3)))
        mono = random_monomial(cfg, rng)
        if not any(mono):
            continue
        checked += 1
        w2 = phi2_weights(cfg)
        base = sum(w * e for w, e in zip(w2, mono))
        for i, e in enumerate(mono):
            if e == 0 or cfg.names[i] == "z":
                continue
            lowered = list(mono)
            lowered[i] -= 1
            part = from_monomial(tuple(lowered), cfg, e) * velocity(
                cfg.names[i], cfg
            )
            for term_mono, _ in part:
                assert sum(w * x for w, x in zip(w2, term_mono)) > base
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"took {elapsed:.1f}s"
    report(6, f"phi growth/additivity and phi2 strict increase hold ({elapsed:.1f}s)")


def test_criterion_7_k0():
    for m in (1, 3, 5):
        assert compute_k0(m, 10) == Order.finite(2)
    report(7, "K0 = ord(Theta evaluation) = 2 for m in {1,3,5}")


def test_criterion_8_multiplicity_lab():
    start = time.monotonic()
    cells = [Cell(1, d0, d) for d0 in (0, 1) for d in (0, 1, 2)]
    rows = experiment_grid(cells)  # adaptive default precision
    for row in rows:
        assert not row.precision_limited
        assert row.measured_ord.is_finite
        assert row.measured_ord.value == row.n_star
        assert row.n_star >= row.T - 1
        d0, d = row.cell.d0, row.cell.d
        assert row.ratio == Fraction(row.n_star, (d0 + 1) * (d + 1) ** 4)
        assert row.ratio_paper == Fraction(row.n_star, (d0 + 1) * (d + 1) ** 3)
    payload = _experiment_rows(1, rows)
    assert payload["exponent_operational"] == 4
    assert payload["exponent_paper"] == 3
    assert payload["max_ratio"] == fraction_str(max(row.ratio for row in rows))
    assert payload["max_ratio_paper"] == fraction_str(max(row.ratio_paper for row in rows))
    assert payload["flagged"] == []
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(
        8,
        f"m=1 grid (d0<=1, d<=2): all orders finite and maximal, "
        f"max ratio {payload['max_ratio']} (operational) / {payload['max_ratio_paper']} "
        f"(paper exponent) ({elapsed:.1f}s)",
    )


def test_criterion_9_parser_round_trip():
    rng = random.Random(900)
    for m in (1, 3):
        cfg = SystemConfig(m)
        for _ in range(50):
            p = random_polynomial(cfg, rng, max_total_deg=4, max_terms=5)
            first = format_polynomial(p)
            second = format_polynomial(parse(first, cfg))
            assert first == second
    report(9, "100 random polynomials survive format -> parse -> format byte-identically")
