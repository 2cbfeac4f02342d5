from fractions import Fraction

import pytest

from helpers import ak_by_linear_solve, ak_coefficients, ak_evaluate, delta, eager_generators, fraction_verify_system
from helpers import generator_units, sigma
from helpers import sigma_table_eisenstein, sigma_table_g_series
from ramlab import _checks, forms
from ramlab._checks import ak_polynomial, verify_system
from ramlab._system import eisenstein_polynomial, velocity
from ramlab.arith import MAX_M, InternalConsistencyError, bernoulli, variable_names
from ramlab.forms import discriminant_series, eisenstein, function_tuple, g_series, monomial_series, theta_series
from ramlab.ring import SystemConfig, parse
from ramlab.series import Order, TruncatedSeries


def test_eisenstein_leading_coefficients():
    assert eisenstein(1, 4).coeffs == (1, -24, -72, -96, -168)
    assert eisenstein(2, 3).coeffs == (1, 240, 2160, 6720)
    assert eisenstein(3, 2).coeffs == (1, -504, -16632)


def test_eisenstein_divisor_oracle():
    for k in range(1, 6):
        s = eisenstein(k, 40)
        factor = -Fraction(4 * k) / bernoulli(2 * k)
        for n in range(1, 41):
            assert s.coeffs[n] == factor * sigma(2 * k - 1, n)


def test_g_series_examples():
    g01 = g_series(0, 1, 4)
    assert g01.coeffs == (0, 1, Fraction(3, 2), Fraction(4, 3), Fraction(7, 4))
    g23 = g_series(2, 3, 3)
    assert g23.coeffs[2] == Fraction(9, 2)
    for v in (1, 3, 5, 7):
        assert g_series(0, v, 2).coeffs[1] == 1


def test_generator_series_store_tuples_of_fractions():
    # built without the coercing constructor, they must still hold exactly
    # what it would store
    made = [eisenstein(k, prec) for k in (1, 2, 3, 6) for prec in (0, 1, 30)]
    made += [g_series(u, v, prec) for v in (1, 3, 5) for u in range(v) for prec in (0, 1, 30)]
    for s in made:
        assert type(s.coeffs) is tuple
        assert all(type(c) is Fraction for c in s.coeffs)
        assert s == TruncatedSeries(list(s.coeffs))
    g23 = g_series(2, 3, 30)
    assert g23.coeffs[1:] == tuple(n**2 * sigma(-3, n) for n in range(1, 31))


def test_g_series_validation():
    with pytest.raises(ValueError):
        g_series(3, 3, 10)
    with pytest.raises(ValueError):
        g_series(0, 2, 10)


def test_ak_small_cases():
    assert ak_coefficients(ak_polynomial(2, 20)) == {(1, 0): Fraction(1)}
    assert ak_coefficients(ak_polynomial(3, 20)) == {(0, 1): Fraction(1)}
    assert ak_coefficients(ak_polynomial(4, 20)) == {(2, 0): Fraction(1)}
    assert ak_coefficients(ak_polynomial(5, 20)) == {(1, 1): Fraction(1)}
    assert ak_coefficients(ak_polynomial(6, 20)) == {
        (3, 0): Fraction(441, 691),
        (0, 2): Fraction(250, 691),
    }
    # the checked polynomial itself, in the ring of m = 1
    assert ak_polynomial(6, 20) == parse("441/691*E4^3 + 250/691*E6^2", SystemConfig(1))


def test_ak_monomial_constraint():
    for k in range(2, 13):
        for (a, b) in ak_coefficients(ak_polynomial(k, 20)):
            assert 2 * a + 3 * b == k


def test_ak_reproduces_eisenstein():
    e4 = eisenstein(2, 30)
    e6 = eisenstein(3, 30)
    for k in range(2, 13):
        combo = ak_evaluate(ak_polynomial(k, 30), e4, e6)
        assert combo == eisenstein(k, 30)


@pytest.mark.parametrize("k", range(2, 41))
def test_ak_matches_the_linear_solve_oracle(k):
    # the Weierstrass recurrence in the ring against the q-series solve
    assert ak_coefficients(ak_polynomial(k, 0)) == ak_by_linear_solve(k)


def test_ak_rejects_k_below_2_before_the_recurrence_runs(monkeypatch):
    def refuse(k):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(_checks, "eisenstein_polynomial", refuse)
    for k in (1, 0, -3):
        with pytest.raises(ValueError, match="k must be at least 2"):
            ak_polynomial(k, 60)


@pytest.mark.parametrize(
    "k, extra, first",
    [(6, "1/7*E6^2", 0), (6, "-3*E4^3 + 3*E6^2", 1), (12, "1/5*(E4^3 - E6^2)^2", 2)],
)
def test_ak_refuses_a_perturbed_eisenstein_polynomial(monkeypatch, k, extra, first):
    from ramlab import ring

    wrong = eisenstein_polynomial(k) + ring.parse(extra, ring.SystemConfig(1))
    monkeypatch.setattr(_checks, "eisenstein_polynomial", lambda j: wrong)
    precision = 30
    combo = ak_evaluate(wrong, eisenstein(2, precision), eisenstein(3, precision))
    target = eisenstein(k, precision)
    n = next(n for n in range(precision + 1) if combo.coeffs[n] != target.coeffs[n])
    assert n == first
    for through in (n, precision):
        with pytest.raises(InternalConsistencyError) as excinfo:
            ak_polynomial(k, through)
        assert str(excinfo.value) == f"A_{k} verification failed at coefficient {n}"
    # below its first mismatch the perturbed polynomial passes the check
    if n:
        assert ak_polynomial(k, n - 1) == wrong


def test_discriminant_and_theta():
    d = discriminant_series(6)
    assert d.coeffs[1] == 1728
    assert d.coeffs[2] == -41472
    assert d.order() == Order.finite(1)
    assert theta_series(6).order() == Order.finite(2)


def test_function_tuple_shape():
    for m, count in ((1, 5), (3, 8), (5, 13)):
        tup = function_tuple(m, 10)
        assert (tup.m, tup.precision, tup.monomial_cache) == (m, 10, {})
        units = generator_units(m).values()
        assert len(units) == count
        assert all(monomial_series(unit, tup).precision == 10 for unit in units)
    with pytest.raises(ValueError):
        function_tuple(2, 10)
    with pytest.raises(ValueError):
        function_tuple(-1, 10)
    with pytest.raises(ValueError, match=f"m={MAX_M + 2} is over the limit {MAX_M}"):
        function_tuple(MAX_M + 2, 10)


def test_function_tuple_constant_terms_and_order():
    tup = function_tuple(3, 8)
    names = variable_names(3)
    assert names == ("z", "E2", "E4", "E6", "g[0,1]", "g[0,3]", "g[1,3]", "g[2,3]")
    series = [monomial_series(unit, tup) for unit in generator_units(3).values()]
    assert series[0].coeffs[:2] == (0, 1)
    for name, s in zip(names, series):
        assert s.coeffs[0] == (1 if name.startswith("E") else 0)


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_each_generator_is_built_on_first_read_as_the_eager_oracle(m):
    tup = function_tuple(m, 30)
    for unit, eager in zip(generator_units(m).values(), eager_generators(m, 30)):
        assert monomial_series(unit, tup) == eager
        assert tup.monomial_cache[unit] == eager
    # the side a series is built from, read by slot, is the same expansion
    for precision in (0, 1, 30):
        for i, eager in enumerate(eager_generators(m, precision)):
            nums, dens = forms._generator_side(i, precision)
            assert len(nums) == precision + 1
            assert tuple(map(Fraction, nums, dens)) == eager.coeffs


def test_a_generator_at_m_199_is_built_alone():
    # the eager oracle builds all 10,004 series; the tuple builds the one read
    names = variable_names(199)
    eager = eager_generators(199, 20)
    for name in ("g[0,199]", "g[198,199]"):
        tup = function_tuple(199, 20)
        i = names.index(name)
        unit = tuple(int(j == i) for j in range(len(names)))
        assert monomial_series(unit, tup) == eager[i]
        assert list(tup.monomial_cache) == [unit]


def test_delta_of_g_is_next_g():
    for v in (3, 5, 7):
        for u in range(v - 1):
            assert delta(g_series(u, v, 50)) == g_series(u + 1, v, 50)


def test_verify_system_passes():
    for m in (1, 3):
        report = verify_system(m, 40)
        assert report.ok, [eq for eq in report.equations if not eq.ok]


def test_verify_system_errata_v3():
    report = verify_system(3, 40)
    literal = [eq for eq in report.errata if "g[2,3]" in eq.name]
    assert len(literal) == 1
    assert not literal[0].ok
    assert literal[0].first_mismatch == 1


def test_verify_system_closing_m1():
    # delta(g[0,1]) coefficient at z^n is sigma_1(n), equal to (1-E2)/24
    report = verify_system(1, 30)
    closing = [eq for eq in report.equations if "g[0,1]" in eq.name]
    assert closing and closing[0].ok


# verify_system's equation labels at m=13, pinned as they were printed before
# the system was checked through D's velocity table; a smaller m prints the
# first 3 + ((m+1)/2)^2 of them and the first (m-1)/2 errata labels
CLOSING_M13 = {
    1: "delta(g[0,1]) = B_2*(1 - E_2)/4",
    3: "delta(g[2,3]) = B_4*(1 - E_4)/8",
    5: "delta(g[4,5]) = B_6*(1 - E_6)/12",
    7: "delta(g[6,7]) = B_8*(1 - E_8)/16",
    9: "delta(g[8,9]) = B_10*(1 - E_10)/20",
    11: "delta(g[10,11]) = B_12*(1 - E_12)/24",
    13: "delta(g[12,13]) = B_14*(1 - E_14)/28",
}
EQUATIONS_M13 = [
    "delta(E2) = (E2^2 - E4)/12",
    "delta(E4) = (E2*E4 - E6)/3",
    "delta(E6) = (E2*E6 - E4^2)/2",
] + [
    label
    for v, closing in CLOSING_M13.items()
    for label in [f"delta(g[{u},{v}]) = g[{u + 1},{v}]" for u in range(v - 1)] + [closing]
]
ERRATA_M13 = [
    "literal: delta(g[2,3]) = B_8*(A_4 - 1)/8",
    "literal: delta(g[4,5]) = B_12*(A_6 - 1)/12",
    "literal: delta(g[6,7]) = B_16*(A_8 - 1)/16",
    "literal: delta(g[8,9]) = B_20*(A_10 - 1)/20",
    "literal: delta(g[10,11]) = B_24*(A_12 - 1)/24",
    "literal: delta(g[12,13]) = B_28*(A_14 - 1)/28",
]


@pytest.mark.parametrize("precision", [0, 1, 2, 3, 40])
@pytest.mark.parametrize("m", range(1, 14, 2))
def test_verify_system_labels_and_verdicts_are_pinned(m, precision):
    report = verify_system(m, precision)
    assert [(eq.name, eq.ok, eq.first_mismatch) for eq in report.equations] == [
        (name, True, None) for name in EQUATIONS_M13[: 3 + ((m + 1) // 2) ** 2]
    ]
    # the literal variant agrees at z^0 and fails at z^1 for every v >= 3
    literal = (True, None) if precision < 2 else (False, 1)
    assert [(eq.name, eq.ok, eq.first_mismatch) for eq in report.errata] == [
        (name, *literal) for name in ERRATA_M13[: (m - 1) // 2]
    ]


@pytest.mark.parametrize("m", [15, 19, 25])
def test_verify_system_passes_past_m13(m):
    # the closing velocities of m = 15..25 write E_16 .. E_26 by the
    # Weierstrass recurrence
    report = verify_system(m, 30)
    assert report.ok, [eq for eq in report.equations if not eq.ok]


@pytest.mark.parametrize(
    "name, equation",
    [("E4", "delta(E4) = (E2*E4 - E6)/3"), ("g[2,3]", "delta(g[2,3]) = B_4*(1 - E_4)/8")],
)
def test_verify_system_checks_the_velocities_of_d(monkeypatch, name, equation):
    # verify_system must certify the D that the ring runs: a wrong velocity
    # in D's table fails exactly that generator's equation
    from ramlab import ring

    def perturbed(var, cfg):
        vel = velocity(var, cfg)
        return vel + ring.Polynomial.variable("z", cfg) if var == name else vel

    monkeypatch.setattr(_checks, "velocity", perturbed)
    report = verify_system(3, 20)
    assert [(eq.name, eq.first_mismatch) for eq in report.equations if not eq.ok] == [
        (equation, 1)
    ]


@pytest.mark.parametrize("precision", [2, 3, 50, 200])
@pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
def test_verify_system_equals_the_fraction_path(m, precision):
    # labels, verdicts, first mismatches and errata, against Fraction series
    # compared with ==
    assert verify_system(m, precision) == fraction_verify_system(m, precision)


@pytest.mark.parametrize("precision", [2, 3, 20, 50])
@pytest.mark.parametrize(
    "name, extra",
    # the last one keeps g[0,3]'s velocity a single variable, the wrong one
    [("E4", "z"), ("g[2,3]", "z"), ("g[0,3]", "z"), ("g[0,3]", "g[2,3] - g[1,3]")],
)
def test_verify_system_equals_the_fraction_path_under_a_perturbed_velocity(
    monkeypatch, name, extra, precision
):
    from ramlab import ring

    def perturbed(var, cfg):
        vel = velocity(var, cfg)
        return vel + ring.parse(extra, cfg) if var == name else vel

    monkeypatch.setattr(_checks, "velocity", perturbed)
    report = verify_system(3, precision)
    assert report == fraction_verify_system(3, precision, perturbed)
    if precision == 50:
        assert [eq.name for eq in report.equations if not eq.ok] == [
            next(eq.name for eq in report.equations if eq.name.startswith(f"delta({name})"))
        ]


def test_verify_system_reads_a_single_variable_velocity_term_by_term(monkeypatch):
    # g[u,v] -> g[u+1,v] is compared with g[u+1,v]'s q-expansion, term by
    # term: over one common denominator it would need lcm(1..P)^(v-u)
    cfg, precision = SystemConfig(7), 30
    sides = []
    original = _checks.evaluate_side

    def record(p, tup):
        nums, dens = original(p, tup)
        sides.append((p, nums, [d for _, d in zip(nums, dens)], set(tup.monomial_cache)))
        return sides[-1][1:3]

    monkeypatch.setattr(_checks, "evaluate_side", record)
    assert verify_system(7, precision).ok
    names = variable_names(7)[1:]
    closing = [f"g[{v - 1},{v}]" for v in (1, 3, 5, 7)]
    assert [p for p, _, _, _ in sides] == [velocity(var, cfg) for var in names]
    units = generator_units(7)
    for var, (p, nums, dens, cached) in zip(names, sides):
        if var in ["E2", "E4", "E6", *closing]:
            assert len(set(dens)) == 1  # one common denominator
        else:
            # g[u+1,v]'s own side, sigma_v(n) over n^(v-u-1), not read from the cache
            [(mono, c)] = p
            u, v = map(int, var[2:-1].split(","))
            assert c == 1 and mono == units[f"g[{u + 1},{v}]"] and mono not in cached
            assert nums == [sigma(v, n) if n else 0 for n in range(precision + 1)]
            assert dens == [n ** (v - u - 1) if n else 1 for n in range(precision + 1)]


def test_verify_system_caches_no_g_series(monkeypatch):
    # every delta(x) and every one-variable velocity is read from its side,
    # so no monomial with a g factor is cached at any evaluate_side call
    held = []
    original = _checks.evaluate_side

    def record(p, tup):
        held.append(sum(1 for mono in tup.monomial_cache if any(mono[4:])))
        side = original(p, tup)
        held.append(sum(1 for mono in tup.monomial_cache if any(mono[4:])))
        return side

    monkeypatch.setattr(_checks, "evaluate_side", record)
    assert verify_system(7, 30).ok
    assert held == [0] * 2 * (len(variable_names(7)) - 1)


@pytest.mark.parametrize("precision", [0, 1, 2, 100])
def test_eisenstein_and_g_equal_their_sigma_table_definitions(precision):
    for k in range(1, 9):
        assert eisenstein(k, precision) == sigma_table_eisenstein(k, precision)
    for v in range(1, 10, 2):
        for u in range(v):
            assert g_series(u, v, precision) == sigma_table_g_series(u, v, precision)


@pytest.mark.parametrize("precision", [0, 1, 300])
def test_theta_is_delta_shifted_by_one(precision):
    # a shift, not a series product: the same series as z times Delta
    assert theta_series(precision) == TruncatedSeries.z(precision) * discriminant_series(precision)


def test_the_eisenstein_bounds_admit_their_largest_index(monkeypatch):
    # at the limit the work starts: here, replaced by a stub that stops it
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(forms, "_eisenstein_numerators", started)
    monkeypatch.setattr(_checks, "eisenstein_polynomial", started)
    with pytest.raises(Started):
        forms.eisenstein(forms.MAX_EISENSTEIN_WEIGHT // 2, 50)
    with pytest.raises(Started):
        _checks.ak_polynomial(_checks.MAX_AK_INDEX, 60)
    with pytest.raises(ValueError, match="^the weight 8002 is over the limit 8000$"):
        forms.eisenstein(forms.MAX_EISENSTEIN_WEIGHT // 2 + 1, 50)
    with pytest.raises(ValueError, match="^k=341 is over the limit 340$"):
        _checks.ak_polynomial(_checks.MAX_AK_INDEX + 1, 60)
