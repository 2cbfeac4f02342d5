from fractions import Fraction
from functools import partial
from math import isqrt
from types import SimpleNamespace

import pytest

from helpers import (
    FractionRowReducer,
    count_series_products,
    eager_generators,
    naive_monomial_series,
    recursive_monomial_basis,
    reducer_search,
    seeded_tuple,
)
from ramlab import multlab
from ramlab.arith import InternalConsistencyError
from ramlab.forms import (
    PrecisionError,
    compute_k0,
    evaluate,
    function_tuple,
    monomial_series,
)
from ramlab.ring import Polynomial, SystemConfig, format_polynomial, parse
from ramlab.multlab import (
    Cell,
    experiment_grid,
    max_vanishing_search,
    operational_exponent,
    paper_exponent,
)
from ramlab.series import Order, TruncatedSeries

CFG1 = SystemConfig(1)


def test_exponents():
    assert operational_exponent(1) == 4
    assert operational_exponent(3) == 7
    assert paper_exponent(1) == 3
    assert paper_exponent(3) == 4


def test_compute_k0():
    for m in (1, 3, 5):
        assert compute_k0(m, 10) == Order.finite(2)


def test_compute_k0_precision_error():
    with pytest.raises(PrecisionError):
        compute_k0(1, 1)


def test_monomial_basis_counts():
    assert len(Cell(1, 1, 2).basis()) == Cell(1, 1, 2).T == 30
    assert Cell(1, 0, 0).basis() == [(0,) * CFG1.nvars]
    assert len(Cell(3, 0, 1).basis()) == Cell(3, 0, 1).T == 8


def test_monomial_basis_respects_budget_and_order():
    basis = Cell(1, 2, 3).basis()
    assert len(basis) == len(set(basis))
    keys = [(sum(m), m) for m in basis]
    assert keys == sorted(keys)
    for mono in basis:
        assert mono[0] <= 2
        assert sum(mono[1:]) <= 3


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_monomial_basis_equals_the_recursive_enumeration(m):
    for d0 in range(3):
        for d in range(4):
            cell = Cell(m, d0, d)
            oracle = recursive_monomial_basis(cell)
            # the count formula is the oracle's basis size
            assert cell.basis() == oracle and cell.T == len(oracle)


def test_search_trivial_budgets():
    row = max_vanishing_search(Cell(1, 0, 0))
    assert row.T == 1
    assert row.n_star == 0
    assert row.measured_ord == Order.finite(0)
    assert format_polynomial(row.witness) == "1"

    row = max_vanishing_search(Cell(1, 1, 0))
    assert row.n_star == 1
    assert row.measured_ord == Order.finite(1)
    assert format_polynomial(row.witness) == "z"
    assert row.ratio == Fraction(1, 2)


def test_search_pigeonhole_floor_and_maximality():
    row = max_vanishing_search(Cell(1, 1, 2), precision=60)
    assert row.T == 30
    assert row.n_star >= row.T - 1
    assert row.measured_ord == Order.finite(row.n_star)
    # independent re-measurement of the witness
    tup = function_tuple(1, row.precision)
    assert evaluate(row.witness, tup).order() == row.measured_ord


def test_search_determinism():
    a = max_vanishing_search(Cell(1, 1, 1))
    b = max_vanishing_search(Cell(1, 1, 1))
    assert format_polynomial(a.witness) == format_polynomial(b.witness)
    assert (a.n_star, a.ratio) == (b.n_star, b.ratio)


def test_witness_normalization():
    # first nonzero coordinate in graded-lex column order is 1
    row = max_vanishing_search(Cell(1, 1, 1))
    basis = Cell(1, 1, 1).basis()
    coeffs = [row.witness.terms.get(mono, Fraction(0)) for mono in basis]
    lead = next(c for c in coeffs if c != 0)
    assert lead == 1


def test_experiment_grid_summary():
    rows = experiment_grid([Cell(1, 0, 0), Cell(1, 1, 0)])
    assert rows[0].ratio == 0
    assert rows[1].ratio == Fraction(1, 2)
    summary = multlab._experiment_rows(1, rows)
    assert summary["max_ratio"] == "1/2"
    assert summary["flagged"] == []
    assert summary["exponent_operational"] == 4
    assert summary["exponent_paper"] == 3


class DiscriminantCell:
    """A cell that is not a degree budget: the span of E4^3 and E6^2 at m=1."""

    m = 1
    T = 2

    def basis(self):
        return [(0, 0, 3, 0, 0), (0, 0, 0, 2, 0)]

    def scale(self, nu):
        return 2


@pytest.mark.parametrize("witness", [True, False])
def test_a_cell_that_is_not_a_budget_certifies_the_order_of_delta(witness):
    # E4^3 - E6^2 = 1728*Delta, and Delta = q - 24q^2 + ... has order 1, a
    # fact from outside the lab; the search reads the cell's basis, T and scale
    row = max_vanishing_search(DiscriminantCell(), witness=witness)
    assert (row.T, row.n_star, row.measured_ord, row.ratio) == (2, 1, Order.finite(1), Fraction(1, 2))
    assert not row.precision_limited
    if not witness:
        assert row.witness is None
        return
    delta = parse("E4^3 - E6^2", CFG1)
    assert sorted(row.witness.terms) == sorted(delta.terms) == sorted(DiscriminantCell().basis())
    # a rational multiple of E4^3 - E6^2
    assert len({row.witness.terms[mono] / delta.terms[mono] for mono in delta.terms}) == 1
    assert evaluate(row.witness, function_tuple(1, row.precision)).order() == Order.finite(1)


def test_an_empty_grid_summary_reads_ratio_0():
    summary = multlab._experiment_rows(3, [])
    assert summary == {
        "exponent_operational": 7,
        "exponent_paper": 4,
        "rows": [],
        "max_ratio": "0",
        "max_ratio_paper": "0",
        "flagged": [],
    }


def _stored_views(row):
    """The order and ratios as the search computed and stored them before
    they became properties of the row."""
    measured = Order.at_least(row.n_star) if row.precision_limited else Order.finite(row.n_star)
    m, d0, d = row.cell.m, row.cell.d0, row.cell.d
    denom = (d0 + 1) * (d + 1) ** operational_exponent(m)
    denom_paper = (d0 + 1) * (d + 1) ** paper_exponent(m)
    return measured, Fraction(row.n_star, denom), Fraction(row.n_star, denom_paper)


def _grid(m, d0max, dmax):
    """The cells of `auxsearch --m M --grid D0MAX:DMAX`, in its order."""
    return [Cell(m, d0, d) for d0 in range(d0max + 1) for d in range(dmax + 1)]


# both `search` grids, the `rank` cell, m=1 grid 2:3 and a precision-limited cell
SEARCH_CELLS = pytest.mark.parametrize(
    "m, budgets, precision, limited",
    [
        (1, _grid(1, 1, 2), None, False),
        (3, _grid(3, 1, 1), None, False),
        (5, [Cell(5, 3, 1)], 57, False),
        (1, _grid(1, 2, 3), None, False),
        (1, [Cell(1, 1, 2)], 12, True),
    ],
    ids=["search-m1-1:2", "search-m3-1:1", "rank", "grid-2:3", "precision-limited"],
)


@SEARCH_CELLS
def test_derived_views_equal_the_formulas_once_stored(m, budgets, precision, limited):
    rows = experiment_grid(budgets, precision)
    assert any(row.precision_limited for row in rows) == limited
    for row in rows:
        assert row.cell.m == m
        assert (row.measured_ord, row.ratio, row.ratio_paper) == _stored_views(row)
        # the basis size and the flag the search stored before they became properties
        assert row.T == len(recursive_monomial_basis(row.cell))
        assert row.precision_limited == (row.n_star == row.precision + 1)


def test_k0_independent_of_m():
    # Theta involves no Y variable, so the order cannot depend on m
    values = {compute_k0(m, 8).value for m in (1, 3, 5)}
    assert values == {2}


CRITERION_8_GRID = (1, _grid(1, 1, 2))
M3_GRID = (3, _grid(3, 1, 1))


@pytest.mark.parametrize("m, budgets", [CRITERION_8_GRID, M3_GRID])
def test_columns_match_naive_oracle(m, budgets):
    for cell in budgets:
        basis = cell.basis()
        tup = function_tuple(m, 3 * len(basis))
        # in basis order, as the search builds them
        columns = [monomial_series(mono, tup) for mono in basis]
        for mono, col in zip(basis, columns):
            assert col == naive_monomial_series(mono, tup)


def test_search_products_are_the_z_free_columns_only(monkeypatch):
    # z columns are shifts, and the witness is a combination of cached columns
    cell = Cell(1, 1, 2)
    z_free = [mono for mono in cell.basis() if mono[0] == 0]
    count = count_series_products(monkeypatch)
    max_vanishing_search(cell, precision=40)
    # the constant column and the nvars - 1 generator columns cost nothing
    assert count[0] == len(z_free) - 1 - (CFG1.nvars - 1)


def _answer(row):
    return (
        row.T,
        row.n_star,
        format_polynomial(row.witness),
        str(row.measured_ord),
        row.ratio,
        row.ratio_paper,
        row.precision_limited,
    )


@pytest.mark.parametrize("m, budgets", [CRITERION_8_GRID, M3_GRID])
def test_adaptive_precision_equals_search_at_3t(m, budgets):
    for cell in budgets:
        adaptive = max_vanishing_search(cell)
        fixed = max_vanishing_search(cell, precision=3 * adaptive.T)
        assert _answer(adaptive) == _answer(fixed)
        assert adaptive.precision == min(adaptive.T + multlab.PRECISION_SLACK, 3 * adaptive.T)
        assert fixed.precision == 3 * fixed.T


def test_adaptive_precision_doubles_while_precision_limited(monkeypatch):
    cell = Cell(1, 1, 2)  # T = 30, n* = 29
    fixed = max_vanishing_search(cell, precision=90)
    monkeypatch.setattr(multlab, "PRECISION_SLACK", -20)
    escalated = max_vanishing_search(cell)  # 10, 20, then 40
    assert escalated.precision == 40
    assert _answer(escalated) == _answer(fixed)


def test_adaptive_precision_stops_at_3t(monkeypatch):
    tried = []

    def always_limited(cell, basis, precision, tup, witness):
        tried.append(precision)
        return SimpleNamespace(precision_limited=True, precision=precision)

    monkeypatch.setattr(multlab, "_search", always_limited)
    row = max_vanishing_search(Cell(1, 1, 2))  # T = 30
    assert tried == [35, 70, 90]
    assert row.precision == 90


def _constant_witness(monkeypatch) -> list[int]:
    """Make every prime's kernel vector that of the basis monomial 1, with
    its order over the rows (0, as the series of 1 is 1); keep the cutoff.
    Returns the primes tried."""
    primes = []

    def constant(profile, T, p):
        primes.append(p)
        cutoff, _, scaled = profile
        order = next((r for r, row in enumerate(scaled) if row[0]), None)
        return cutoff, [Fraction(1)] + [Fraction(0)] * (T - 1), order

    monkeypatch.setattr(multlab, "kernel_mod_p", constant)
    return primes


def test_witness_cutoff_mismatch_raises(monkeypatch):
    # witness 1 has order 0, which contradicts any cutoff n* > 0, whatever the prime
    _constant_witness(monkeypatch)
    with pytest.raises(InternalConsistencyError, match="disagrees"):
        max_vanishing_search(Cell(1, 1, 1))
    # precision-limited branch: the witness must vanish through the precision
    with pytest.raises(InternalConsistencyError, match="does not vanish"):
        max_vanishing_search(Cell(1, 1, 1), precision=3)


@pytest.mark.parametrize(
    "m, budgets, precision",
    [
        (*CRITERION_8_GRID, None),
        (*M3_GRID, None),
        (1, [Cell(1, 0, 2)], 4),  # precision-limited: T = 15, 5 rows
    ],
)
def test_search_matches_fraction_reducer(monkeypatch, m, budgets, precision):
    fast = [max_vanishing_search(cell, precision) for cell in budgets]
    oracle = partial(reducer_search, reducer_cls=FractionRowReducer)
    monkeypatch.setattr(multlab, "_search", oracle)
    slow = [max_vanishing_search(cell, precision) for cell in budgets]
    assert [(_answer(r), r.precision) for r in fast] == [
        (_answer(r), r.precision) for r in slow
    ]
    if precision is not None:
        assert fast[0].precision_limited


RANK_CELL = (5, [Cell(5, 3, 1)], 57)  # T = 52, the rank benchmark's cell
LIMITED_CELL = (1, [Cell(1, 0, 2)], 4)  # T = 15, kernel of dimension > 1


def _search_with_oracle(monkeypatch, cells, precision):
    with monkeypatch.context() as patch:
        patch.setattr(multlab, "_search", reducer_search)
        return [max_vanishing_search(cell, precision) for cell in cells]


def _full_answer(rows):
    return [(_answer(r), r.precision) for r in rows]


@pytest.mark.parametrize(
    "m, budgets, precision",
    [(*CRITERION_8_GRID, None), (*M3_GRID, None), RANK_CELL, LIMITED_CELL],
)
def test_search_matches_bareiss_oracle(monkeypatch, m, budgets, precision):
    fast = [max_vanishing_search(cell, precision) for cell in budgets]
    assert _full_answer(fast) == _full_answer(_search_with_oracle(monkeypatch, budgets, precision))


def _record_primes(monkeypatch) -> list[int]:
    primes = []
    kernel = multlab.kernel_mod_p

    def recording(profile, T, p):
        primes.append(p)
        return kernel(profile, T, p)

    monkeypatch.setattr(multlab, "kernel_mod_p", recording)
    return primes


@pytest.mark.parametrize("m, budgets, precision", [(*CRITERION_8_GRID, None), LIMITED_CELL])
def test_search_retries_after_a_bad_prime(monkeypatch, m, budgets, precision):
    # 7 divides denominators of the rows, so the rank mod 7 drops and the
    # witness it gives fails the exact order check; the next prime is used
    expected = _search_with_oracle(monkeypatch, budgets, precision)
    big = multlab.PRIMES[0]
    primes = _record_primes(monkeypatch)
    monkeypatch.setattr(multlab, "PRIMES", (7, big))
    got = [max_vanishing_search(cell, precision) for cell in budgets]
    assert _full_answer(got) == _full_answer(expected)
    assert set(primes) == {7, big}


def test_search_raises_when_every_prime_fails(monkeypatch):
    monkeypatch.setattr(multlab, "PRIMES", (7,))
    with pytest.raises(InternalConsistencyError, match="every prime"):
        max_vanishing_search(Cell(1, 1, 1))
    with pytest.raises(InternalConsistencyError, match="every prime"):
        max_vanishing_search(Cell(1, 0, 2), precision=4)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first 12 prime bases: deterministic below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_against_trial_division():
    # 561 and 41041 are Carmichael numbers, which pass Fermat's test to every coprime base
    assert [n for n in range(2000) if _is_prime(n)] == [
        n for n in range(2, 2000) if all(n % d for d in range(2, isqrt(n) + 1))
    ]
    assert not _is_prime(561) and not _is_prime(41041) and not _is_prime(3215031751)
    assert _is_prime(2**61 - 1) and not _is_prime((2**31 - 1) * (2**29 - 3))


def test_search_primes_are_distinct_primes_below_2_60():
    # below 2**60 a residue fills two of CPython's 30-bit digits
    assert len(set(multlab.PRIMES)) == len(multlab.PRIMES) >= 2
    for p in multlab.PRIMES:
        assert p < 2**60 and _is_prime(p)


# three 61-bit primes, each scalar three digits wide: no answer may depend on the primes
PRIMES_61 = (2**61 - 1, 2**61 - 31, 2**61 - 45)


@SEARCH_CELLS
def test_search_answers_do_not_depend_on_the_primes(monkeypatch, m, budgets, precision, limited):
    assert all(_is_prime(p) for p in PRIMES_61)
    answers = []
    for primes in (PRIMES_61, multlab.PRIMES):
        monkeypatch.setattr(multlab, "PRIMES", primes)
        rows = [max_vanishing_search(cell, precision) for cell in budgets]
        answers.append(_full_answer(rows))
    assert answers[0] == answers[1]
    assert any(row.precision_limited for row in rows) == limited


def test_compute_k0_builds_no_function_tuple(monkeypatch):
    from ramlab import forms

    calls = []

    def recording(*args):
        calls.append(args)
        return function_tuple(*args)

    monkeypatch.setattr(multlab, "function_tuple", recording)
    monkeypatch.setattr(forms, "function_tuple", recording)
    assert compute_k0(15, 200) == Order.finite(2)
    assert calls == []
    with pytest.raises(ValueError, match="m must be a positive odd integer"):
        compute_k0(2, 10)


@pytest.mark.parametrize("m", range(1, 16, 2))
def test_compute_k0_is_the_order_of_theta(m):
    from ramlab.forms import theta_series

    for precision in (0, 1, 2, 10, 200):
        order = theta_series(precision).order()
        if order.is_finite:
            assert compute_k0(m, precision) == order
        else:
            with pytest.raises(PrecisionError):
                compute_k0(m, precision)


def test_grid_refuses_an_oversized_basis_before_any_cell_runs(monkeypatch):
    from ramlab.multlab import MAX_BASIS_SIZE

    ran = []
    monkeypatch.setattr(multlab, "max_vanishing_search", lambda *args: ran.append(args))
    # the small cells come first in the grid; none of them may run
    with pytest.raises(ValueError) as exc:
        experiment_grid(_grid(7, 1, 3))
    assert str(exc.value) == (
        f"the cell m=7, d0=0, d=3 has T=1540 basis monomials, over the limit {MAX_BASIS_SIZE}"
    )
    assert ran == []
    # the largest cell the witness path has finished stays within the cap
    assert Cell(3, 1, 3).T == 240 <= MAX_BASIS_SIZE
    monkeypatch.undo()
    rows = experiment_grid([Cell(3, 1, 3)], precision=0)
    assert rows[0].T == 240


def test_grid_shares_one_function_tuple_until_a_cell_escalates_past_it(monkeypatch):
    # T = 5 and 30 start at 1 and 26, so the grid's tuple is at 26: the
    # T = 5 cell escalates inside it, the T = 30 cell past it
    cells = [Cell(1, 0, 1), Cell(1, 1, 2)]
    monkeypatch.setattr(multlab, "PRECISION_SLACK", -4)
    alone = [max_vanishing_search(cell) for cell in cells]
    built = []
    real = multlab.function_tuple

    def recording(m, precision):
        built.append(precision)
        return real(m, precision)

    monkeypatch.setattr(multlab, "function_tuple", recording)
    rows = experiment_grid(cells)
    assert built == [26, 52]
    assert [r.precision for r in rows] == [4, 52]
    assert [(_answer(r), r.precision) for r in rows] == [(_answer(r), r.precision) for r in alone]


def _record_evaluations(monkeypatch) -> list[Polynomial]:
    """Record every forms.evaluate call; the search holds no evaluate of its own."""
    from ramlab import forms

    assert "evaluate" not in vars(multlab) and "evaluate_side" not in vars(multlab)
    evaluated = []
    original = forms.evaluate

    def recording(poly, tup):
        evaluated.append(poly)
        return original(poly, tup)

    monkeypatch.setattr(forms, "evaluate", recording)
    return evaluated


def _record_certificates(monkeypatch) -> tuple[list, list[int]]:
    """Record kernel_mod_p's (cutoff, kernel, order) and the size of each
    system it lifts."""
    from ramlab import _linalg

    certificates, systems = [], []
    kernel, solve = multlab.kernel_mod_p, _linalg.solve_lifted_scaled

    def recording_kernel(profile, T, p):
        certificates.append(kernel(profile, T, p))
        return certificates[-1]

    def recording_solve(matrix, rhs, p):
        systems.append(len(matrix))
        return solve(matrix, rhs, p)

    monkeypatch.setattr(multlab, "kernel_mod_p", recording_kernel)
    monkeypatch.setattr(_linalg, "solve_lifted_scaled", recording_solve)
    return certificates, systems


@pytest.mark.parametrize(
    "m, budgets, precision",
    [(1, _grid(1, 1, 2), None), (3, _grid(3, 1, 1), None), (1, _grid(1, 2, 3), None), RANK_CELL],
)
def test_certified_order_is_the_witness_order(monkeypatch, m, budgets, precision):
    # every cell here has n* = T-1 and a witness using the last basis
    # monomial: the solved system is all of rows 0..T-2, so only the cutoff
    # row is multiplied out, and nothing is evaluated; the lift runs on it
    # less the columns z^k before the last, each nonzero in row k alone
    # (d0+1 of them when d >= 1)
    evaluated = _record_evaluations(monkeypatch)
    certificates, systems = _record_certificates(monkeypatch)
    for cell in budgets:
        certificates.clear()
        systems.clear()
        row = max_vanishing_search(cell, precision)
        basis = cell.basis()
        assert row.n_star == row.T - 1
        assert basis[-1] in row.witness.terms
        powers_of_z = sum(1 for mono in basis[:-1] if not any(mono[1:]))
        assert systems == [row.T - 1 - powers_of_z]
        [(cutoff, kernel, order)] = certificates
        assert cutoff == order == row.n_star and kernel[-1]
        assert evaluated == []
        assert evaluate(row.witness, function_tuple(m, row.precision)).order() == row.measured_ord


def test_uncertified_cells_evaluate_the_witness(monkeypatch):
    certificates, _ = _record_certificates(monkeypatch)
    m, budgets, precision = LIMITED_CELL
    row = max_vanishing_search(budgets[0], precision)
    assert row.precision_limited
    # the witness is the kernel vector, which vanishes on every row read
    [(cutoff, kernel, order)] = certificates
    assert cutoff is None and order is None
    basis = budgets[0].basis()
    assert [row.witness.terms.get(mono, 0) for mono in basis] == kernel
    assert evaluate(row.witness, function_tuple(m, precision)).order() == row.measured_ord
    # a kernel vector whose last coordinate is 0 has its order checked, and found wrong, for every prime
    primes = _constant_witness(monkeypatch)
    with pytest.raises(InternalConsistencyError, match="disagrees"):
        max_vanishing_search(Cell(1, 1, 1))
    assert primes == list(multlab.PRIMES)


PRECISION_LIMITED = (1, [Cell(1, 1, 2)], 12)  # T = 30, the CI's --strict cell


@pytest.mark.parametrize(
    "m, budgets, precision",
    [(*CRITERION_8_GRID, None), (*M3_GRID, None), (1, _grid(1, 2, 3), None), RANK_CELL,
     PRECISION_LIMITED, LIMITED_CELL],
    ids=["search-m1-1:2", "search-m3-1:1", "grid-2:3", "rank", "precision-limited", "limited-T15"],
)
def test_rank_only_rows_print_the_csv_of_the_witness_path(monkeypatch, m, budgets, precision):
    full = experiment_grid(budgets, precision)
    _, systems = _record_certificates(monkeypatch)
    rows = experiment_grid(budgets, precision, witness=False)
    assert multlab._rows_to_csv(rows) == multlab._rows_to_csv(full)
    for row, witnessed in zip(rows, full):
        # a cell certified at T-1 has no witness; any other is the witness path's row
        if row.n_star == row.T - 1:
            assert row.witness is None
        else:
            assert row == witnessed
    lifted = any(row.witness is not None for row in rows)
    assert bool(systems) == lifted == any(row.precision_limited for row in full)


def test_a_cutoff_past_t_minus_1_takes_the_witness_path(monkeypatch):
    # E4 replaced by E2 + q^8, so E4 - E2 vanishes to order 8, past T-1 = 4
    from ramlab import _linalg

    precision = 20
    series = eager_generators(1, precision)
    series[2] = series[1] + TruncatedSeries([0] * 8 + [1] + [0] * (precision - 8))
    cell = Cell(1, 0, 1)
    full = max_vanishing_search(cell, precision, seeded_tuple(1, series))
    certificates, systems = _record_certificates(monkeypatch)
    profiles, real = [], _linalg.rank_profile_mod_p

    def counting(rows, T, p):
        profiles.append(p)
        return real(rows, T, p)

    monkeypatch.setattr(multlab, "rank_profile_mod_p", counting)
    monkeypatch.setattr(_linalg, "rank_profile_mod_p", counting)
    row = max_vanishing_search(cell, precision, seeded_tuple(1, series), witness=False)
    assert row == full
    assert row.T - 1 < row.n_star <= precision
    assert [c[0] for c in certificates] == [row.n_star] and len(systems) == 1
    # one reduction per prime tried: the witness path reads the rank test's profile
    assert len(profiles) == len(certificates)


def test_a_prime_that_drops_the_rank_takes_the_witness_path(monkeypatch):
    # mod 7 the rank of some cells drops, so their cutoff mod 7 is past T-1:
    # the witness path runs at 7 and fails its order check, and the next
    # prime certifies the cell at T-1 from the rank alone
    _, cells = CRITERION_8_GRID
    full = experiment_grid(cells)
    big = multlab.PRIMES[0]
    primes = _record_primes(monkeypatch)
    monkeypatch.setattr(multlab, "PRIMES", (7, big))
    rows = experiment_grid(cells, witness=False)
    assert multlab._rows_to_csv(rows) == multlab._rows_to_csv(full)
    assert all(row.witness is None for row in rows)
    assert primes and set(primes) == {7}


@pytest.mark.parametrize(
    "argv",
    [("--m", "5", "--d0", "3", "--d", "1", "--prec", "57"), ("--m", "1", "--grid", "1:2"),
     ("--m", "3", "--grid", "1:1")],
)
def test_a_csv_cell_certified_at_t_minus_1_lifts_nothing(monkeypatch, capsys, argv):
    from ramlab import _linalg
    from ramlab.cli import run

    monkeypatch.setattr(_linalg, "solve_lifted_scaled", lambda *args: pytest.fail("lifted"))
    assert run(["--format", "csv", "auxsearch", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        cell = dict(zip(header, line.split(",")))
        assert int(cell["n_star"]) == int(cell["T"]) - 1
