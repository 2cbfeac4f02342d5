"""The eight immutable value classes of the layers: construction by
position and by keyword with every field given once, field-wise equality
and hashing, immutability, repr, the views derived from the fields, and the
validation of SystemConfig and DegreeBudget."""

import copy
import pickle
from fractions import Fraction

import pytest

from ramlab._checks import EquationCheck, SystemReport, verify_system
from ramlab.forms import FunctionTuple, function_tuple, monomial_series
from ramlab.multlab import DegreeBudget, ExperimentRow, max_vanishing_search
from ramlab.ring import Polynomial, SystemConfig, parse
from ramlab.series import Order, TruncatedSeries
from ramlab.stability import StabilityVerdict

CFG = SystemConfig(1)
E2 = Polynomial.variable("E2", CFG)
Z = TruncatedSeries([0, 1])
OK = EquationCheck("b", None)
# the series of function_tuple(1, 1) and function_tuple(3, 2)
TUP1 = tuple(map(TruncatedSeries, ([0, 1], [1, -24], [1, 240], [1, -504], [0, 1])))
TUP3 = tuple(map(TruncatedSeries, (
    [0, 1, 0], [1, -24, -72], [1, 240, 2160], [1, -504, -16632],
    [0, 1, Fraction(3, 2)], [0, 1, Fraction(9, 8)], [0, 1, Fraction(9, 4)], [0, 1, Fraction(9, 2)],
)))
# the reports of verify_system(1, 2) and verify_system(3, 2)
REPORT1 = (
    tuple(EquationCheck(name, None) for name in (
        "delta(E2) = (E2^2 - E4)/12", "delta(E4) = (E2*E4 - E6)/3",
        "delta(E6) = (E2*E6 - E4^2)/2", "delta(g[0,1]) = B_2*(1 - E_2)/4",
    )),
    (),
)
REPORT3 = (
    tuple(EquationCheck(name, None) for name in (
        "delta(E2) = (E2^2 - E4)/12", "delta(E4) = (E2*E4 - E6)/3",
        "delta(E6) = (E2*E6 - E4^2)/2", "delta(g[0,1]) = B_2*(1 - E_2)/4",
        "delta(g[0,3]) = g[1,3]", "delta(g[1,3]) = g[2,3]", "delta(g[2,3]) = B_4*(1 - E_4)/8",
    )),
    (EquationCheck("literal: delta(g[2,3]) = B_8*(A_4 - 1)/8", 1),),
)
# the rows that the search finds on the cells m=1, d0=0, d=1 at precision 8
# (T=5) and m=3, d0=1, d=2 at precision 1 (T=72, precision-limited)
W1 = parse("-5145/5297*E2 - 147/5297*E4 - 5/5297*E6 - 90720/5297*g[0,1] + 1", CFG)
W3 = parse("-g[1,3] + g[2,3]", SystemConfig(3))
ROW = (1, 0, 1, 4, W1, 8)
LIMITED = (3, 1, 2, 2, W3, 1)

# class, its fields in order, and two value tuples that differ in every field
CASES = [
    (SystemConfig, ("m",), (1,), (3,)),
    (StabilityVerdict, ("cofactor",), (E2,), (None,)),
    (Order, ("is_finite", "value"), (True, 3), (False, 4)),
    (FunctionTuple, ("series",), (TUP1,), (TUP3,)),
    (EquationCheck, ("name", "first_mismatch"), ("a", 3), ("b", None)),
    (SystemReport, ("equations", "errata"), REPORT1, REPORT3),
    (DegreeBudget, ("d0", "d"), (0, 1), (2, 3)),
    (ExperimentRow, ("m", "d0", "d", "n_star", "witness", "precision"), ROW, LIMITED),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, values, other", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, values, other):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    mixed = cls(values[0], **dict(zip(fields[1:], values[1:])))
    for record in (by_position, by_keyword, mixed):
        assert tuple(getattr(record, name) for name in fields) == values
        assert record == by_position
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("cls, fields, values, other", CASES, ids=IDS)
def test_equality_and_hash_go_by_field(cls, fields, values, other):
    record = cls(*values)
    copy = cls(*values)
    assert copy is not record and copy == record and not copy != record
    assert hash(record) == hash(copy) == hash(values)
    assert len({record, copy}) == 1
    for i in range(len(fields)):
        changed = cls(*values[:i], other[i], *values[i + 1 :])
        assert changed != record and not changed == record
    assert record != values
    assert record != object()


@pytest.mark.parametrize("cls, fields, values, other", CASES, ids=IDS)
def test_records_are_immutable(cls, fields, values, other):
    record = cls(*values)
    for name, value in zip(fields, other):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert record == cls(*values)


@pytest.mark.parametrize("cls, fields, values, other", CASES, ids=IDS)
def test_every_field_is_required(cls, fields, values, other):
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], values[1:])))


def test_a_derived_view_is_not_a_field():
    # the verdicts and the row's order and ratios follow from the fields, so
    # a record cannot be given them, and cannot disagree with them
    with pytest.raises(TypeError):
        EquationCheck("a", True, 3)
    with pytest.raises(TypeError):
        EquationCheck(name="a", ok=False, first_mismatch=3)
    with pytest.raises(TypeError):
        StabilityVerdict(True, None)
    with pytest.raises(TypeError):
        StabilityVerdict(stable=False, cofactor=None)
    with pytest.raises(TypeError):
        ExperimentRow(1, 0, 1, 4, 3, Order(True, 3), Fraction(3, 4), Fraction(3, 2), E2, 8, False)
    # nor the basis size, the precision-limited flag, a tuple's m and
    # precision, or a report's m and precision, which the other fields fix
    with pytest.raises(TypeError):
        ExperimentRow(1, 0, 1, 5, 4, W1, 8, False)
    with pytest.raises(TypeError):
        ExperimentRow(*ROW, T=5, precision_limited=False)
    with pytest.raises(TypeError):
        FunctionTuple(1, 1, TUP1)
    with pytest.raises(TypeError):
        FunctionTuple(m=1, precision=1, series=TUP1)
    with pytest.raises(TypeError):
        SystemReport(1, 2, *REPORT1)
    assert (EquationCheck("a", 3).ok, EquationCheck("a", 0).ok, EquationCheck("a", None).ok) == (
        False, False, True,
    )
    assert (StabilityVerdict(E2).stable, StabilityVerdict(None).stable) == (True, False)
    # a zero cofactor is a cofactor: DQ = 0 = Q * 0
    assert StabilityVerdict(Polynomial.zero(CFG)).stable
    row, limited = ExperimentRow(*ROW), ExperimentRow(*LIMITED)
    assert (row.T, row.precision_limited, row.measured_ord, row.ratio, row.ratio_paper) == (
        5, False, Order.finite(4), Fraction(4, 2**4), Fraction(4, 2**3),
    )
    assert (limited.T, limited.precision_limited, limited.measured_ord) == (72, True, Order.at_least(2))
    assert (limited.ratio, limited.ratio_paper) == (Fraction(2, 2 * 3**7), Fraction(2, 2 * 3**4))
    assert (FunctionTuple(TUP1).precision, FunctionTuple(TUP3).precision) == (1, 2)
    assert (SystemReport(*REPORT1).ok, SystemReport(*REPORT3).ok) == (True, True)


def test_the_fixture_records_are_the_ones_the_code_builds():
    assert function_tuple(1, 1) == FunctionTuple(TUP1)
    assert function_tuple(3, 2) == FunctionTuple(TUP3)
    assert verify_system(1, 2) == SystemReport(*REPORT1)
    assert verify_system(3, 2) == SystemReport(*REPORT3)
    assert max_vanishing_search(DegreeBudget(0, 1), CFG, 8) == ExperimentRow(*ROW)
    assert max_vanishing_search(DegreeBudget(1, 2), SystemConfig(3), 1) == ExperimentRow(*LIMITED)


def test_reprs():
    assert repr(SystemConfig(1)) == "SystemConfig(m=1)"
    assert repr(StabilityVerdict(E2)) == "StabilityVerdict(cofactor=Polynomial('E2', m=1))"
    assert repr(StabilityVerdict(None)) == "StabilityVerdict(cofactor=None)"
    assert repr(Order(True, 3)) == "Order(is_finite=True, value=3)"
    assert repr(Order.at_least(4)) == "Order(is_finite=False, value=4)"
    assert (str(Order.finite(3)), str(Order.at_least(4))) == ("3", ">=4")
    assert repr(function_tuple(1, 1)) == (
        "FunctionTuple(series=(TruncatedSeries([0, 1]; precision=1), "
        "TruncatedSeries([1, -24]; precision=1), TruncatedSeries([1, 240]; precision=1), "
        "TruncatedSeries([1, -504]; precision=1), TruncatedSeries([0, 1]; precision=1)))"
    )
    assert repr(EquationCheck("a", 3)) == "EquationCheck(name='a', first_mismatch=3)"
    assert repr(SystemReport((OK,), ())) == (
        "SystemReport(equations=(EquationCheck(name='b', first_mismatch=None),), errata=())"
    )
    assert repr(DegreeBudget(0, 1)) == "DegreeBudget(d0=0, d=1)"
    assert repr(ExperimentRow(*LIMITED)) == (
        "ExperimentRow(m=3, d0=1, d=2, n_star=2, witness=Polynomial('-g[1,3] + g[2,3]', m=3), "
        "precision=1)"
    )


@pytest.mark.parametrize("m", [0, 2, -1, 4])
def test_system_config_rejects_even_or_nonpositive_m(m):
    with pytest.raises(ValueError, match="m must be a positive odd integer"):
        SystemConfig(m)
    with pytest.raises(ValueError, match="m must be a positive odd integer"):
        SystemConfig(m=m)


@pytest.mark.parametrize("d0, d", [(-1, 0), (0, -1), (-2, -3)])
def test_degree_budget_rejects_negative_degrees(d0, d):
    with pytest.raises(ValueError, match="degree budgets must be nonnegative"):
        DegreeBudget(d0, d)
    with pytest.raises(ValueError, match="degree budgets must be nonnegative"):
        DegreeBudget(d0=d0, d=d)


def test_function_tuple_cache_is_outside_equality_hash_and_repr():
    tup = function_tuple(3, 6)
    other = function_tuple(3, 6)
    assert tup.monomial_cache == {} and tup.monomial_cache is not other.monomial_cache
    mono = (0, 1, 1, 0, 0, 0, 0, 1)
    monomial_series(mono, tup)
    assert tup.monomial_cache and not other.monomial_cache
    assert tup == other and hash(tup) == hash(other) and repr(tup) == repr(other)
    assert "monomial_cache" not in repr(tup)
    with pytest.raises(AttributeError):
        tup.monomial_cache = {}
    with pytest.raises(TypeError):
        FunctionTuple(tup.series, {})
    with pytest.raises(TypeError):
        FunctionTuple(tup.series, monomial_cache={})


def test_polynomials_series_and_verdicts_copy_and_pickle():
    from ramlab.ring import parse
    from ramlab.stability import principal_stability

    delta = parse("E4^3 - 1/3*E6^2 + g[0,1]", CFG)
    verdict = principal_stability(parse("z*(E4^3 - E6^2)", CFG))
    assert verdict.stable and not verdict.cofactor.is_zero()
    for value in (E2, delta, Z, function_tuple(1, 4).series[2], verdict):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)
            assert repr(twin) == repr(value)
