import importlib.util
import random
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from helpers import (
    ScanToken,
    char_scan_tokenize,
    count_series_products,
    delta,
    fraction_sum_evaluate,
    from_monomial,
    generator_units,
    left_fold_parse,
    naive_derive,
    naive_evaluate,
    naive_exact_divide,
    naive_format,
    naive_poly_mul,
    oracle_corpus,
    phi,
    phi2_weights,
    random_coefficient,
    random_monomial,
    random_polynomial,
)
from ramlab import _system, ring
from ramlab._system import derive, velocity
from ramlab.arith import bernoulli, y_pairs
from ramlab._parse import MAX_NESTING, MAX_PARSED_TERMS, _position, _tokenize
from ramlab.forms import discriminant_series, evaluate, evaluate_side, function_tuple, monomial_series
from ramlab.ring import ParseError, Polynomial, SystemConfig, format_polynomial, parse
from ramlab.series import Order

CFG1 = SystemConfig(1)
CFG3 = SystemConfig(3)


def gens(cfg):
    return (
        Polynomial.variable("z", cfg),
        Polynomial.variable("E2", cfg),
        Polynomial.variable("E4", cfg),
        Polynomial.variable("E6", cfg),
    )


def delta_poly(cfg):
    z, x1, x2, x3 = gens(cfg)
    return x2**3 - x3**2


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(2)
    with pytest.raises(ValueError):
        SystemConfig(0)


def test_variable_order():
    assert CFG3.names == ("z", "E2", "E4", "E6", "g[0,1]", "g[0,3]", "g[1,3]", "g[2,3]")


def test_arithmetic_basics():
    z, x1, x2, x3 = gens(CFG1)
    d = delta_poly(CFG1)
    assert (d + (x3**2 - x2**3)).is_zero()
    assert d.scale(1) == d
    theta = z * d
    assert len(theta.terms) == 2


def test_mixed_config_rejected():
    with pytest.raises(ValueError):
        Polynomial.variable("z", CFG1) + Polynomial.variable("z", CFG3)


def test_phi_weights():
    z, x1, x2, x3 = gens(CFG1)
    assert phi(delta_poly(CFG1)) == 6
    assert phi(z) == 0
    assert phi(Polynomial.variable("g[0,1]", CFG1)) == 4  # 2m+2 with m=1
    assert phi(Polynomial.variable("g[1,3]", CFG3)) == 8  # 2m+2 with m=3
    with pytest.raises(ValueError):
        phi(Polynomial.zero(CFG1))


def test_exact_divide():
    z, x1, x2, x3 = gens(CFG1)
    d = delta_poly(CFG1)
    assert (x1 * d).exact_divide(d) == x1
    assert x2.exact_divide(x3) is None
    assert Polynomial.zero(CFG1).exact_divide(d) == Polynomial.zero(CFG1)
    with pytest.raises(ZeroDivisionError):
        d.exact_divide(Polynomial.zero(CFG1))


def test_exact_divide_multiply_back():
    rng = random.Random(11)
    for _ in range(30):
        p = random_polynomial(CFG1, rng, max_total_deg=2, max_terms=3)
        q = random_polynomial(CFG1, rng, max_total_deg=2, max_terms=3)
        quotient = (p * q).exact_divide(q)
        assert quotient == p


def _symbolic_inputs(seed):
    """The benchmark's seeded symbolic workload cases."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.symbolic_inputs(seed)


def test_exact_divide_matches_naive_oracle():
    rng = random.Random(31)
    verdicts = set()
    for cfg in (CFG1, CFG3):
        zero = Polynomial.zero(cfg)
        for _ in range(40):
            p = random_polynomial(cfg, rng, max_total_deg=3, max_terms=5)
            q = random_polynomial(cfg, rng, max_total_deg=2, max_terms=4)
            r = random_polynomial(cfg, rng, max_total_deg=3, max_terms=2)
            c = Polynomial.constant(random_coefficient(rng), cfg)
            for a, b in ((p * q, q), (p * q + r, q), (zero, q), (p, c), (c, q), (c, c)):
                quotient = a.exact_divide(b)
                assert quotient == naive_exact_divide(a, b)
                verdicts.add(quotient is None)
    assert verdicts == {True, False}


def test_exact_divide_matches_naive_oracle_on_stable_inputs():
    # the five `stable` inputs of the benchmark's symbolic workload, seed 1
    cases = [case for case in _symbolic_inputs(1) if case["argv"][0] == "stable"]
    assert len(cases) == 5
    verdicts = set()
    for case in cases:
        q = parse(case["argv"][2], SystemConfig(case["m"]))
        dq = derive(q)
        quotient = dq.exact_divide(q)
        assert quotient == naive_exact_divide(dq, q)
        verdicts.add(quotient is None)
    assert verdicts == {True, False}


def test_derive_examples():
    z, x1, x2, x3 = gens(CFG1)
    assert derive(x1) == (x1 * x1 - x2).scale(Fraction(1, 12))
    d = delta_poly(CFG1)
    assert derive(d) == x1 * d
    assert derive(Polynomial.variable("g[0,3]", CFG3)) == Polynomial.variable(
        "g[1,3]", CFG3
    )
    # closing equation for v=1: D(Y_{0,1}) = (1 - X1)/24
    one = Polynomial.constant(1, CFG1)
    assert derive(Polynomial.variable("g[0,1]", CFG1)) == (one - x1).scale(
        Fraction(1, 24)
    )
    # closing for v=3: D(Y_{2,3}) = (X2 - 1)/240
    one3 = Polynomial.constant(1, CFG3)
    x2_3 = Polynomial.variable("E4", CFG3)
    assert derive(Polynomial.variable("g[2,3]", CFG3)) == (x2_3 - one3).scale(
        Fraction(1, 240)
    )


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_derive_matches_naive_oracle(m):
    # m=7 reaches g[0..6,7], whose closing velocity is the A_4 polynomial
    cfg = SystemConfig(m)
    rng = random.Random(900 + m)
    closing = Polynomial.variable(cfg.names[-1], cfg)
    for _ in range(40):
        p = random_polynomial(cfg, rng, max_total_deg=4, max_terms=8)
        assert derive(p) == naive_derive(p)
        assert derive(p * closing) == naive_derive(p * closing)
    for p in (Polynomial.zero(cfg), Polynomial.constant(Fraction(-5, 3), cfg)):
        assert derive(p) == naive_derive(p) == Polynomial.zero(cfg)


def test_derive_leibniz():
    rng = random.Random(5)
    for cfg in (CFG1, CFG3):
        for _ in range(25):
            p = random_polynomial(cfg, rng)
            q = random_polynomial(cfg, rng)
            assert derive(p * q) == derive(p) * q + p * derive(q)


def test_chain_rule():
    for m in (1, 3):
        cfg = SystemConfig(m)
        tup = function_tuple(m, 20)
        rng = random.Random(7)
        for _ in range(20):
            p = random_polynomial(cfg, rng)
            assert evaluate(derive(p), tup) == delta(evaluate(p, tup))


def test_phi_growth_and_additivity():
    rng = random.Random(13)
    for cfg in (CFG1, CFG3):
        for _ in range(40):
            p = random_polynomial(cfg, rng)
            q = random_polynomial(cfg, rng)
            dp = derive(p)
            if not dp.is_zero():
                assert phi(dp) <= phi(p) + 1
            assert phi(p * q) == phi(p) + phi(q)


def test_phi2_strict_increase_off_the_euler_term():
    # every part of D except z d/dz strictly increases phi2
    rng = random.Random(17)
    for cfg in (CFG1, CFG3):
        w2 = phi2_weights(cfg)
        for _ in range(25):
            mono = random_monomial(cfg, rng)
            if not any(mono):
                continue
            base = sum(w * e for w, e in zip(w2, mono))
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                name = cfg.names[i]
                lowered = list(mono)
                lowered[i] -= 1
                part = from_monomial(tuple(lowered), cfg, e) * velocity(
                    name, cfg
                )
                for term_mono, _ in part:
                    weight = sum(w * x for w, x in zip(w2, term_mono))
                    if name == "z":
                        assert weight == base
                    else:
                        assert weight > base


def test_euler_identity_on_z_monomials():
    for b in range(5):
        p = Polynomial.variable("z", CFG1) ** b
        assert derive(p) == p.scale(b)


def test_evaluate_examples():
    z = Polynomial.variable("z", CFG1)
    theta = z * delta_poly(CFG1)
    tup = function_tuple(1, 6)
    s = evaluate(theta, tup)
    assert s.coeffs[2] == 1728
    assert s.coeffs[3] == -41472
    assert s.order() == Order.finite(2)
    assert evaluate(Polynomial.constant(Fraction(5, 3), CFG1), tup).coeffs[0] == Fraction(5, 3)
    assert evaluate(Polynomial.variable("E2", CFG1), tup) == tup.series[1]
    with pytest.raises(ValueError):
        evaluate(theta, function_tuple(3, 6))


def test_a_tuple_of_another_m_is_refused():
    # the tuple stores its series only; their count tells its m.  The core
    # checks m before it reads a unit monomial's stored series
    tup = function_tuple(3, 6)
    theta = Polynomial.variable("z", CFG1) * delta_poly(CFG1)
    for p, at in [
        *((p, tup) for p in (theta, Polynomial.variable("E2", CFG1), Polynomial.variable("g[0,1]", CFG1))),
        (Polynomial.variable("g[2,3]", CFG3), function_tuple(1, 6)),
    ]:
        for evaluation in (evaluate, evaluate_side):
            with pytest.raises(ValueError, match="^function tuple and polynomial have different m$"):
                evaluation(p, at)


def test_evaluate_matches_naive_oracle_with_high_exponents():
    rng = random.Random(29)
    for cfg in (CFG1, CFG3):
        shared = function_tuple(cfg.m, 15)
        for _ in range(12):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = list(random_monomial(cfg, rng))
                mono[rng.randrange(cfg.nvars)] += rng.randint(8, 12)
                terms[tuple(mono)] = random_coefficient(rng)
            p = Polynomial(cfg, terms)
            # a fresh tuple has an empty cache; the shared one fills up
            expected = naive_evaluate(p, shared)
            assert evaluate(p, function_tuple(cfg.m, 15)) == expected
            assert evaluate(p, shared) == expected


def test_evaluate_matches_fraction_sum():
    rng = random.Random(61)
    for cfg in (CFG1, CFG3, SystemConfig(5)):
        tup = function_tuple(cfg.m, 30)
        for _ in range(25):
            p = random_polynomial(cfg, rng, max_total_deg=5, max_terms=12)
            got = evaluate(p, tup)
            assert got == fraction_sum_evaluate(p, tup)
            assert type(got.coeffs) is tuple
            assert all(type(c) is Fraction for c in got.coeffs)
        zero = evaluate(Polynomial.zero(cfg), tup)
        assert zero == fraction_sum_evaluate(Polynomial.zero(cfg), tup)
        assert all(type(c) is Fraction for c in zero.coeffs)
    # Ramanujan's D(E2) = (E2^2 - E4)/12: large terms that cancel to a small sum
    tup = function_tuple(1, 40)
    assert evaluate(velocity("E2", CFG1), tup) == delta(tup.series[1])


def test_pow_equals_repeated_product():
    base = delta_poly(CFG1) + Polynomial.variable("z", CFG1)
    product = Polynomial.constant(1, CFG1)
    for e in range(10):
        assert base**e == product
        product = product * base


def test_pow_squares_no_more_than_needed(monkeypatch):
    base = delta_poly(CFG1)
    expected = Polynomial.constant(1, CFG1)
    for _ in range(60):
        expected = expected * base
    count = [0]
    original = Polynomial.__mul__

    def counting(self, other):
        count[0] += 1
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert base**60 == expected
    # 60 = 0b111100: five squarings and three multiplies
    assert count[0] == 8


def test_evaluate_builds_pure_powers_by_squaring(monkeypatch):
    tup = function_tuple(1, 20)
    e4_60 = from_monomial((0, 0, 60, 0, 0), CFG1)
    count = count_series_products(monkeypatch)
    evaluate(e4_60, tup)
    assert count[0] <= 12
    # the 21 terms E4^(3a)*E6^(40-2a) of Delta^20: building each from its
    # graded parent, one product per unit of E4, would take over 600
    count[0] = 0
    s = evaluate(delta_poly(CFG1) ** 20, function_tuple(1, 20))
    assert count[0] < 300
    assert s == discriminant_series(20) ** 20


def test_a_generator_is_its_own_series(monkeypatch):
    tup = function_tuple(3, 30)
    monomial_series((0,) * CFG3.nvars, tup)  # caches the constant column
    count = count_series_products(monkeypatch)
    for i in range(1, CFG3.nvars):
        mono = tuple(int(j == i) for j in range(CFG3.nvars))
        assert monomial_series(mono, tup) is tup.series[i]
        assert evaluate(from_monomial(mono, CFG3), tup) is tup.series[i]
    assert count[0] == 0


def test_parse_examples():
    theta = Polynomial.variable("z", CFG1) * delta_poly(CFG1)
    assert parse("z*(E4^3 - E6^2)", CFG1) == theta
    p = parse("g[0,1] + 1/2*E2", CFG1)
    expected = Polynomial.variable("g[0,1]", CFG1) + Polynomial.variable(
        "E2", CFG1
    ).scale(Fraction(1, 2))
    assert p == expected
    assert parse("-z + 3", CFG1) == Polynomial.constant(3, CFG1) - Polynomial.variable(
        "z", CFG1
    )


def random_sum_text(cfg, rng: random.Random, nterms: int) -> str:
    """A sum of signed rational multiples of monomials, some repeated and some
    cancelling an earlier term, with an optional leading sign.  A coefficient
    may be zero and may stand anywhere among its term's factors, and some
    terms have a two-term factor in parentheses."""
    names = cfg.names
    pieces = []
    earlier = []
    for i in range(nterms):
        if earlier and rng.random() < 0.2:
            # the same monomial again, sometimes with the opposite coefficient
            sign, coeff, body = rng.choice(earlier)
            if rng.random() < 0.5:
                sign = "-" if sign == "+" else "+"
        else:
            sign = rng.choice("+-")
            coeff = f"{rng.choice([0, *range(1, 10)])}/{rng.randint(1, 9)}"
            factors = [
                f"{rng.choice(names)}^{rng.randint(1, 3)}" for _ in range(rng.randint(0, 3))
            ]
            if rng.random() < 0.2:
                factors.append(f"({rng.choice(names)} - {rng.randint(1, 9)})")
            factors.insert(rng.randint(0, len(factors)), coeff)
            body = "*".join(factors)
            earlier.append((sign, coeff, body))
        if i == 0:
            lead = rng.choice(["", "-", "+"])
            pieces.append(lead + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


@pytest.mark.parametrize("m", [3, 5])
def test_parse_sum_matches_left_fold(m):
    cfg = SystemConfig(m)
    rng = random.Random(67 + m)
    cancelled = 0
    for _ in range(60):
        nterms = rng.randint(1, 40)
        text = random_sum_text(cfg, rng, nterms)
        got = parse(text, cfg)
        expected = left_fold_parse(text, cfg)
        assert got == expected
        assert format_polynomial(got) == format_polynomial(expected)
        assert all(c != 0 for c in got.terms.values())
        cancelled += len(got.terms) < nterms
    assert cancelled > 10
    # nested sums and a sum that cancels to zero
    text = "-(E2 - E4)*(E2 + E4) + E2^2 - E4^2 - (1/2*z - 1/2*z)"
    assert parse(text, cfg) == left_fold_parse(text, cfg) == Polynomial.zero(cfg)


def test_parse_multiplies_single_terms_without_polynomial_products(monkeypatch):
    calls = [0]
    original = Polynomial.__mul__

    def counting(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    p = parse("3/4*z*E2*E4^1*E6*g[1,3] - E2*2*g[0,1]", CFG3)
    assert calls[0] == 0
    z, x1, x2, x3 = gens(CFG3)
    g01, g13 = (Polynomial.variable(name, CFG3) for name in ("g[0,1]", "g[1,3]"))
    assert p == (z * x1 * x2 * x3 * g13).scale(Fraction(3, 4)) - (x1 * g01).scale(2)
    # a factor of more than one term still takes the general product
    calls[0] = 0
    assert parse("(E2 - 1)*5", CFG3) == (x1 - 1).scale(5)
    assert calls[0] == 1


def _positioned_tokenize(text):
    """_tokenize's (kind, text, offset) tokens, each with the (line, column)
    that _parse computes from its offset."""
    return [ScanToken(kind, word, *_position(text, offset)) for kind, word, offset in _tokenize(text)]


def _scan(tokenize, text):
    """Every token as (kind, text, line, col), or the error and its position."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def test_tokenize_matches_char_scan_on_symbolic_inputs():
    # the nine seed-1 inputs of the benchmark's symbolic workload
    texts = [case["argv"][2] for case in _symbolic_inputs(1)]
    assert len(texts) == 9
    for text in texts:
        tokens = _scan(_positioned_tokenize, text)
        assert len(tokens) > 10 and tokens == _scan(char_scan_tokenize, text)


# whitespace (tab, carriage return, vertical tab, form feed, \x1c, \x1f,
# NEL, no-break, line separator, ideographic), characters no token takes,
# and letters and digits beyond ASCII: é and a CJK letter, superscript two
# (a digit but not decimal, so no token takes it), one half and Roman twelve
# (numeric, neither digit nor letter), and the decimal digits Arabic-Indic
# three, fullwidth one and double-struck one, which numbers take
ODD_CHARACTERS = (
    "\t\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"
    "_$@.=;"
    "\u00e9\u4e00\u00b2\u00bd\u216b\u0663\uff11\U0001d7d9"
)


def test_tokenize_matches_char_scan_on_malformed_text():
    texts = [
        "", "   ", "\n\n", "z\n", "E4 ", "2E4", "E4 2", "z\t+\tE4",
        "E2\n  + 3/4*E4\r\n- g[0,1]\n  *z", "z + ", "z ** 2",
        "E2^\u00b2", "3\u00b2", "g[\u00b2,3]",
        "g[1,3]", "g [1,3]", "g[1, 3]", "g[1,3", "g[\u0661,3]", "g[5,3]", "2g[1,3]^2",
    ]
    for ch in ODD_CHARACTERS:
        texts += [ch, f"E4{ch}2", f"2{ch}E4", f"z +\n {ch}E6", f"12{ch}", f"E{ch}", f"{ch}{ch}z"]
    errors = 0
    for text in texts:
        got = _scan(_positioned_tokenize, text)
        assert got == _scan(char_scan_tokenize, text), repr(text)
        errors += got[0] == "error"
    assert 20 < errors < len(texts) - 20
    # a decimal digit beyond ASCII is a number, as int() reads it
    assert parse("\u0663*E4 + \uff11\uff12/5", CFG1) == parse("3*E4 + 12/5", CFG1)


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown variable"):
        parse("E7", CFG1)
    with pytest.raises(ParseError, match="out of range"):
        parse("g[0,3]", CFG1)
    with pytest.raises(ParseError, match="out of range"):
        parse("g[3,3]", CFG3)
    with pytest.raises(ParseError) as exc:
        parse("z + ", CFG1)
    assert exc.value.line == 1 and exc.value.col == 5
    with pytest.raises(ParseError):
        parse("z ** 2", CFG1)


def test_format_canonical():
    z, x1, x2, x3 = gens(CFG1)
    theta = z * delta_poly(CFG1)
    assert format_polynomial(theta) == "z*E4^3 - z*E6^2"
    assert format_polynomial(Polynomial.zero(CFG1)) == "0"
    assert format_polynomial(x1.scale(Fraction(-1, 2))) == "-1/2*E2"


def test_format_prints_long_coefficients_as_str_does():
    # coefficients past arith.INT_STR_BITS print by halves in decimal
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = "(3^15000*E2+1)*(3^12001*E4-1/7^9000)*(2^30000*E6+3^20000)"
        poly = parse(text, CFG1)
        for p in (poly, derive(poly), poly.scale(Fraction(-1, 3**12000))):
            assert format_polynomial(p) == naive_format(p)
        assert parse(format_polynomial(poly), CFG1) == poly
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("m", [1, 3, 25, 61])
def test_units_equal_the_slot_by_slot_construction(m):
    assert ring._units(m) == generator_units(m)


@pytest.mark.parametrize("name", ["E8", "g[0,5]", "", "e2"])
def test_variable_refuses_a_name_outside_the_system(name):
    # "" keys the monomial 1 in ring._units; it names no variable
    with pytest.raises(KeyError) as excinfo:
        Polynomial.variable(name, CFG3)
    assert excinfo.value.args == (f"unknown variable {name!r} for m=3",)


@pytest.mark.parametrize("m", [1, 3, 25, 61])
def test_velocities_equal_the_slot_by_slot_construction(m):
    cfg = SystemConfig(m)
    units = generator_units(m)

    def var(name):
        return Polynomial(cfg, {units[name]: Fraction(1)})

    x1, x2, x3 = var("E2"), var("E4"), var("E6")
    expected = [
        var("z"),
        (x1 * x1 - x2).scale(Fraction(1, 12)),
        (x1 * x2 - x3).scale(Fraction(1, 3)),
        (x1 * x3 - x2 * x2).scale(Fraction(1, 2)),
    ]
    for u, v in y_pairs(m):
        if u < v - 1:
            expected.append(var(f"g[{u + 1},{v}]"))
        else:
            e = Polynomial.zero(cfg)
            for (_, a1, a2, a3, _), c in _system.eisenstein_polynomial((v + 1) // 2):
                e = e + (x1**a1 * x2**a2 * x3**a3).scale(c)
            expected.append((1 - e).scale(bernoulli(v + 1) / (2 * v + 2)))
    assert _system._velocities(m) == tuple(expected)


def test_parse_format_round_trip():
    rng = random.Random(23)
    for cfg in (CFG1, CFG3):
        for _ in range(40):
            p = random_polynomial(cfg, rng, max_total_deg=4, max_terms=5)
            text = format_polynomial(p)
            again = parse(text, cfg)
            assert again == p
            assert format_polynomial(again) == text


CORPUS_CONFIGS = (CFG1, CFG3, SystemConfig(5))


def _corpora():
    return [(cfg, oracle_corpus(cfg, random.Random(400 + cfg.m))) for cfg in CORPUS_CONFIGS]


def test_products_match_naive_oracle():
    zero_products = 0
    for cfg, corpus in _corpora():
        for p in corpus:
            for q in corpus:
                got = p * q
                assert got == naive_poly_mul(p, q)
                assert all(type(c) is Fraction and c for c in got.terms.values())
                zero_products += got.is_zero()
    assert zero_products > 0


def test_derive_and_format_match_naive_oracles_on_corpus():
    for cfg, corpus in _corpora():
        for p in corpus:
            dp = derive(p)
            assert dp == naive_derive(p)
            assert all(type(c) is Fraction and c for c in dp.terms.values())
            for poly in (p, dp, p * p):
                assert format_polynomial(poly) == naive_format(poly)


def test_parse_matches_left_fold_on_corpus():
    for cfg, corpus in _corpora():
        texts = [format_polynomial(p) for p in corpus]
        for p, text in zip(corpus, texts):
            assert parse(text, cfg) == left_fold_parse(text, cfg) == p
        # parenthesised sums in products and powers, and single terms in parentheses
        for a, b in zip(texts, texts[1:] + texts[:1]):
            for text in (f"({a})^2*({b})", f"-({a})*(E2)^3*2/3*({b})^0", f"(({a}))*(z)*({b})"):
                got = parse(text, cfg)
                assert got == left_fold_parse(text, cfg)
                assert all(type(c) is Fraction for c in got.terms.values())


MALFORMED = [
    "", "z +", "(E2", "E2)", "(E2)(E4)", "E2 E4", "g[1,3]g[0,1]", "g", "g[", "g[1", "g[1,",
    "g[1,3", "g [1, 3]]", "g[5,3]", "g [5, 3]", "g[0,2]", "g[\u0661,5]", "g[01,3] + g[1,03]",
    "1/0*E2", "3/ 0", "E2^", "E2^E4", "E2^-1", "E7", "e2", "2E", "*", ",", "/2", "z^2^3",
    "(z+E2)^2 *", "E2^\u00b2", "3\u00b2", "g[\u00b2,3]", "z\n + (E4\n", "g[1,3]^2 - g 3",
]


def _outcome(parse_fn, text, cfg):
    try:
        return parse_fn(text, cfg)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def test_parse_errors_match_left_fold_oracle():
    errors = 0
    for text in MALFORMED:
        got = _outcome(parse, text, CFG3)
        assert got == _outcome(left_fold_parse, text, CFG3), repr(text)
        errors += type(got) is tuple
    # all but the leading-zero g[u,v], which parses
    assert errors == len(MALFORMED) - 1


def test_spaceless_g_is_one_token_and_spaced_g_keeps_its_tokens():
    for text in ("g[1,3]^2", "g [1,3]"):
        assert _scan(_positioned_tokenize, text) == _scan(char_scan_tokenize, text)
    assert [word for _, word, _ in _tokenize("g[1,3]^2")] == ["g[1,3]", "^", "2", ""]
    assert [word for _, word, _ in _tokenize("g [1,3]")] == ["g", "[", "1", ",", "3", "]", ""]
    g13 = Polynomial.variable("g[1,3]", CFG3)
    for text in ("g[1,3]", "g [1,3]", "g[1, 3]", "g[01,3]", "g[\u0661,3]"):
        assert parse(text, CFG3) == g13


@pytest.mark.parametrize("blank", [" ", "\t", "\r"])
def test_trailing_blanks_tokenize_in_linear_time(blank):
    # each run of whitespace is one match, so no position rescans the run
    start = time.perf_counter()
    assert parse("E2" + blank * 100_000, CFG1) == Polynomial.variable("E2", CFG1)
    assert time.perf_counter() - start < 1


def test_parentheses_nest_at_most_max_nesting_deep():
    nested = "(" * MAX_NESTING + "E2" + ")" * MAX_NESTING
    assert parse(nested, CFG1) == Polynomial.variable("E2", CFG1)
    for text in ("(" + nested + ")", "(" * 300 + "E2", "(" * 100_000 + "E2"):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse(text, CFG1)
        assert time.perf_counter() - start < 1
        # refused at the parenthesis that passes the limit
        assert str(exc.value) == (
            f"parentheses nest {MAX_NESTING + 1} deep, over the limit {MAX_NESTING} "
            f"(line 1, column {MAX_NESTING + 1})"
        )
    # the depth counts the parentheses open, not those opened so far
    assert parse("+".join([nested] * 3), CFG1) == Polynomial.variable("E2", CFG1).scale(3)
    with pytest.raises(ParseError) as exc:
        parse("z +\n" + "(" * 150, CFG1)
    assert (exc.value.line, exc.value.col) == (2, MAX_NESTING + 1)


@pytest.mark.parametrize("text", ["E2^\u00b2", "3\u00b2", "g[\u00b2,3]"])
def test_non_decimal_digit_is_a_positioned_parse_error(text):
    with pytest.raises(ParseError, match="unexpected character '\u00b2'") as exc:
        parse(text, CFG3)
    assert (exc.value.line, exc.value.col) == (1, text.index("\u00b2") + 1)


def test_parser_bounds_products_and_powers_before_running():
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse("(z+E2+E4+E6)^200", CFG1)
    assert time.perf_counter() - start < 1
    assert "power may have 1373701 terms" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, 13)
    # 455 terms times 455 terms, refused at the product's operator
    with pytest.raises(ParseError, match="product may have 207025 terms") as exc:
        parse("(z+E2+E4+E6)^12\n * (z+E2+E4+E6)^12", CFG1)
    assert (exc.value.line, exc.value.col) == (2, 2)
    # the bound is the count of monomials, which a power of a sum attains
    assert len(parse("(z+E2+E4+E6)^12", CFG1).terms) == 455
    assert comb(4 + 40 - 1, 40) <= MAX_PARSED_TERMS < comb(4 + 200 - 1, 200)
    # single terms are never bounded
    assert parse("E2^1000000*2^10", CFG1) == from_monomial((0, 1000000, 0, 0, 0), CFG1, 1024)


def test_benchmark_inputs_parse_within_the_bound():
    # every seed has the same shapes; seed 1's texts are parsed above
    for case in _symbolic_inputs(90017):
        assert not parse(case["argv"][2], SystemConfig(case["m"])).is_zero()


def test_parser_bounds_a_single_terms_coefficient_power():
    from ramlab._parse import MAX_POWER_BITS

    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse("3^10000000*E2", CFG1)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == (
        "coefficient power may have 20000000 bits, over the limit 200000 (line 1, column 2)"
    )
    # 3**e and 1/3**e count 2 bits a factor: up to the limit they parse
    assert MAX_POWER_BITS == 200_000
    assert parse("1/3^100000*E2", CFG1) == from_monomial((0, 1, 0, 0, 0), CFG1, Fraction(1, 3**100000))
    with pytest.raises(ParseError, match="may have 200002 bits"):
        parse("1/3^100001*E2", CFG1)
    # a unit coefficient never grows
    assert parse("(-1)^99999999999*E2", CFG1) == -parse("E2", CFG1)
    # the count bounds the bits of the numerator and of the denominator
    for n in range(1, 40):
        for d in range(1, 12):
            for e in range(1, 9):
                c = Fraction(n, d)
                bits = e * ((c.numerator - 1).bit_length() + (c.denominator - 1).bit_length())
                assert (c**e).numerator.bit_length() + (c**e).denominator.bit_length() <= bits + 2


def test_parser_bounds_a_powers_term_products_before_running():
    from ramlab._parse import MAX_POWER_PRODUCTS

    for text, products, col in [("(z+E2+E4+E6)^80", 90224497, 13), ("(z+1)^99999", 3746805621, 6)]:
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse(text, CFG1)
        assert time.perf_counter() - start < 1
        assert str(exc.value) == (
            f"power may make {products} term products, over the limit "
            f"{MAX_POWER_PRODUCTS} (line 1, column {col})"
        )
    # the term bound runs first: (z+1)^99999 has exactly 100,000 terms
    assert comb(2 + 99999 - 1, 99999) == MAX_PARSED_TERMS
    # 2,047,452 term products
    assert len(parse("(z+E2+E4+E6)^40", CFG1).terms) == comb(4 + 40 - 1, 40)


def test_parser_bounds_the_bits_of_products_and_powers_of_sums():
    from ramlab._parse import MAX_PARSED_BITS

    factors = [f"(3^99999*{x}+1)" for x in ("E2", "E4", "E6", "z")]
    big = "*".join(factors)
    for text, message, col in [
        ("(3^99999*E2+1)^8", "power's coefficients may have 5705901 bits", 15),
        ("(z+1)^2577", "power's coefficients may have 6646084 bits", 6),
        ("(z+1)^1414", "power's coefficients may have 2002225 bits", 6),
        (big, "product's coefficients may have 5071854 bits", 45),
    ]:
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse(text, CFG1)
        assert time.perf_counter() - start < 1
        assert str(exc.value) == f"{message}, over the limit {MAX_PARSED_BITS} (line 1, column {col})"
    assert MAX_PARSED_BITS == 2_000_000
    # 1414**2 bits: up to the limit powers of sums parse
    assert len(parse("(z+1)^1413", CFG1).terms) == 1414
    assert len(parse("*".join(factors[:3]), CFG1).terms) == 8


def _coefficient_bits(p):
    return sum((abs(c.numerator) - 1).bit_length() + (c.denominator - 1).bit_length()
               for c in p.terms.values())


def test_parsed_bits_bound_the_coefficients_bits(monkeypatch):
    # with the limit below every product and power of sums, the refusal
    # states the bound, which must hold for the result: small random sums
    # and the corpus's sums with pairwise-coprime 100-digit denominators
    from ramlab import _parse

    rng = random.Random(12)
    cases = []
    for _ in range(60):
        a, b = (format_polynomial(random_polynomial(CFG3, rng, max_total_deg=2, max_terms=5))
                for _ in range(2))
        cases += [(f"({a})^{rng.randint(0, 6)}", CFG3), (f"({a})*({b})", CFG3)]
    for cfg, corpus in _corpora():
        texts = [format_polynomial(p) for p in corpus if len(p.terms) > 1]
        cases += [(f"({a})^2", cfg) for a in texts]
        cases += [(f"({a})*({b})", cfg) for a, b in zip(texts, texts[1:])]
    checked = 0
    for text, cfg in cases:
        bits = sum((abs(c.numerator) - 1).bit_length() + (c.denominator - 1).bit_length()
                   for c in parse(text, cfg).terms.values())
        monkeypatch.setattr(_parse, "MAX_PARSED_BITS", -1)
        try:
            parse(text, cfg)
        except ParseError as exc:
            stated = int(str(exc).split(" may have ")[1].split()[0])
            assert bits <= stated, text
            checked += 1
        monkeypatch.undo()
    assert checked > 100


def _largest_coefficient_bits(p):
    return max((abs(c.numerator) - 1).bit_length() + (c.denominator - 1).bit_length()
               for c in p.terms.values())


def test_height_bounds_the_largest_coefficient_of_a_power():
    # e * _height(base) bounds every coefficient of base**e: small random
    # sums, and the corpus's sums with pairwise-coprime 100-digit denominators
    from ramlab._parse import _height

    rng = random.Random(13)
    cases = [(random_polynomial(CFG3, rng, max_total_deg=2, max_terms=5), rng.randint(1, 6))
             for _ in range(80)]
    for cfg, corpus in _corpora():
        cases += [(p, e) for p in corpus for e in (2, 3)]
    cases = [(base, e) for base, e in cases if len(base.terms) > 1]
    for base, e in cases:
        power = base**e
        assert power.is_zero() or _largest_coefficient_bits(power) <= e * _height(base)
    assert len(cases) > 100
    # one denominator and a binomial: 8 * ceil(log2(3^15000 + 1)) bounds 3^120000
    big = parse("3^15000*E2+1", CFG1)
    assert (_height(big), _largest_coefficient_bits(big**8)) == (23775, 190196)


def test_parser_bounds_the_largest_coefficient_of_a_power_of_sums():
    from ramlab._parse import MAX_POWER_BITS

    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse("(3^35000*E2+1)^8", CFG1)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == (
        "power's largest coefficient may have 443792 bits, over the limit "
        f"{MAX_POWER_BITS} (line 1, column 15)"
    )
    assert len(parse("(3^15000*E2+1)^8", CFG1).terms) == 9


def test_power_work_counts_the_products_positive_power_makes():
    from ramlab.arith import positive_power, power_work

    class Power:
        """base**j, recording the exponents of each product."""

        def __init__(self, j, log):
            self.j, self.log = j, log

        def __mul__(self, other):
            self.log.append((self.j, other.j))
            return Power(self.j + other.j, self.log)

    for t in range(1, 6):
        size = lambda j: comb(t + j - 1, j)  # noqa: E731
        for e in range(1, 200):
            log = []
            assert positive_power(Power(1, log), e).j == e
            assert power_work(size, e) == sum(size(i) * size(j) for i, j in log)


def test_power_work_is_the_term_products_of_a_power_of_a_sum(monkeypatch):
    # a power of a sum of distinct variables attains C(t+j-1, j) terms
    from ramlab.arith import power_work

    counted = []
    real = Polynomial.__mul__

    def counting(a, b):
        counted.append(len(a.terms) * len(b.terms))
        return real(a, b)

    base = parse("z+E2+E4+E6", CFG1)
    monkeypatch.setattr(Polynomial, "__mul__", counting)
    for e in (1, 2, 3, 7, 12):
        counted.clear()
        base**e
        assert sum(counted) == power_work(lambda j: comb(4 + j - 1, j), e)
