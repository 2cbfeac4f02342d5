"""The ten immutable value classes of the layers: construction by
position, by keyword and with defaults, field-wise equality and hashing,
immutability, repr, and the validation of SystemConfig and DegreeBudget."""

import copy
import pickle
from fractions import Fraction

import pytest

from ramlab.forms import AkPolynomial, EquationCheck, FunctionTuple, SystemReport, function_tuple
from ramlab.multlab import DegreeBudget, ExperimentRow, GridSummary
from ramlab.ring import Polynomial, SystemConfig, monomial_series
from ramlab.series import Order, TruncatedSeries
from ramlab.stability import StabilityVerdict

CFG = SystemConfig(1)
E2 = Polynomial.variable("E2", CFG)
Z = TruncatedSeries([0, 1])
OK = EquationCheck("b", True)

# class, its fields in order, and two value tuples that differ in every field
CASES = [
    (SystemConfig, ("m",), (1,), (3,)),
    (StabilityVerdict, ("stable", "cofactor"), (True, E2), (False, None)),
    (Order, ("is_finite", "value"), (True, 3), (False, 4)),
    (
        AkPolynomial,
        ("k", "coefficients"),
        (4, {(2, 0): Fraction(1)}),
        (6, {(3, 0): Fraction(1, 2)}),
    ),
    (
        FunctionTuple,
        ("m", "precision", "series", "names"),
        (1, 1, (Z,), ("z",)),
        (3, 2, (Z, Z), ("z", "E2")),
    ),
    (EquationCheck, ("name", "ok", "first_mismatch"), ("a", False, 3), ("b", True, None)),
    (
        SystemReport,
        ("m", "precision", "equations", "errata"),
        (1, 2, (OK,), ()),
        (3, 4, (), (OK,)),
    ),
    (DegreeBudget, ("d0", "d"), (0, 1), (2, 3)),
    (
        ExperimentRow,
        ("m", "d0", "d", "T", "n_star", "measured_ord", "ratio", "ratio_paper", "witness",
         "precision", "precision_limited"),
        (1, 0, 1, 4, 3, Order(True, 3), Fraction(3, 4), Fraction(3, 2), E2, 8, False),
        (3, 1, 2, 5, 9, Order(False, 9), Fraction(1, 4), Fraction(1, 2), E2 * E2, 12, True),
    ),
    (
        GridSummary,
        ("m", "exponent_operational", "exponent_paper", "max_ratio", "max_ratio_paper", "flagged"),
        (1, 4, 3, Fraction(3, 4), Fraction(3, 2), (DegreeBudget(0, 1),)),
        (3, 7, 4, Fraction(1), Fraction(2), ()),
    ),
]
IDS = [case[0].__name__ for case in CASES]

# the classes whose fields are all hashable
HASHABLE = {cls for cls, *_ in CASES} - {AkPolynomial}


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
    if cls in HASHABLE:
        assert hash(record) == hash(copy) == hash(values)
        assert len({record, copy}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)
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


def test_defaults():
    assert StabilityVerdict(True) == StabilityVerdict(True, None)
    assert StabilityVerdict(stable=False).cofactor is None
    assert EquationCheck("a", True) == EquationCheck(name="a", ok=True, first_mismatch=None)
    for cls, fields, values, other in CASES:
        if cls not in (StabilityVerdict, EquationCheck):
            with pytest.raises(TypeError):
                cls(*values[:-1])
    with pytest.raises(TypeError):
        StabilityVerdict()
    with pytest.raises(TypeError):
        EquationCheck("a")


def test_reprs():
    assert repr(SystemConfig(1)) == "SystemConfig(m=1)"
    assert repr(StabilityVerdict(True, E2)) == (
        "StabilityVerdict(stable=True, cofactor=Polynomial('E2', m=1))"
    )
    assert repr(StabilityVerdict(False)) == "StabilityVerdict(stable=False, cofactor=None)"
    assert repr(Order(True, 3)) == "Order(is_finite=True, value=3)"
    assert repr(Order.at_least(4)) == "Order(is_finite=False, value=4)"
    assert (str(Order.finite(3)), str(Order.at_least(4))) == ("3", ">=4")
    assert repr(AkPolynomial(4, {(2, 0): Fraction(1)})) == (
        "AkPolynomial(k=4, coefficients={(2, 0): Fraction(1, 1)})"
    )
    assert repr(function_tuple(1, 1)) == (
        "FunctionTuple(m=1, precision=1, series=(TruncatedSeries([0, 1]; precision=1), "
        "TruncatedSeries([1, -24]; precision=1), TruncatedSeries([1, 240]; precision=1), "
        "TruncatedSeries([1, -504]; precision=1), TruncatedSeries([0, 1]; precision=1)), "
        "names=('z', 'E2', 'E4', 'E6', 'g[0,1]'))"
    )
    assert repr(EquationCheck("a", False, 3)) == (
        "EquationCheck(name='a', ok=False, first_mismatch=3)"
    )
    assert repr(SystemReport(1, 2, (OK,), ())) == (
        "SystemReport(m=1, precision=2, "
        "equations=(EquationCheck(name='b', ok=True, first_mismatch=None),), errata=())"
    )
    assert repr(DegreeBudget(0, 1)) == "DegreeBudget(d0=0, d=1)"
    assert repr(ExperimentRow(*CASES[8][2])) == (
        "ExperimentRow(m=1, d0=0, d=1, T=4, n_star=3, "
        "measured_ord=Order(is_finite=True, value=3), ratio=Fraction(3, 4), "
        "ratio_paper=Fraction(3, 2), witness=Polynomial('E2', m=1), precision=8, "
        "precision_limited=False)"
    )
    assert repr(GridSummary(*CASES[9][2])) == (
        "GridSummary(m=1, exponent_operational=4, exponent_paper=3, max_ratio=Fraction(3, 4), "
        "max_ratio_paper=Fraction(3, 2), flagged=(DegreeBudget(d0=0, d=1),))"
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
        FunctionTuple(3, 6, tup.series, tup.names, {})
    with pytest.raises(TypeError):
        FunctionTuple(3, 6, tup.series, tup.names, monomial_cache={})


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
