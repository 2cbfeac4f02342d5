"""Empirical multiplicity laboratory.

Searches for auxiliary polynomials of constrained degrees with the highest
possible order of vanishing at z = 0, and profiles the measured orders
against the degree-product bound shape.

The search takes the rank profile of the coefficient matrix modulo a prime
and one exact kernel vector of the rows before its cutoff, with that
vector's exact order of vanishing (`_linalg.kernel_mod_p`).  The rank mod p
is at most the rank over Q, so the cutoff n*_p it finds is at least the
true n*; a witness polynomial whose exact order of vanishing is n*_p proves
n* >= n*_p, hence equality.  If the order and n*_p disagree, the next prime
is tried.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from ._linalg import kernel_mod_p
from .arith import Record
from .forms import InternalConsistencyError, function_tuple
from .ring import Monomial, Polynomial, SystemConfig, monomial_key, monomial_series
from .series import Order

__all__ = [
    "DegreeBudget",
    "ExperimentRow",
    "GridSummary",
    "operational_exponent",
    "paper_exponent",
    "monomial_basis",
    "max_vanishing_search",
    "experiment_grid",
]


class DegreeBudget(Record):
    """Max degree in z (d0) and max total degree in all other variables (d)."""

    d0: int
    d: int

    def __post_init__(self):
        if self.d0 < 0 or self.d < 0:
            raise ValueError("degree budgets must be nonnegative")


def operational_exponent(m: int) -> int:
    """Number of non-z variables: 3 + ((m+1)/2)^2."""
    return 3 + ((m + 1) // 2) ** 2


def paper_exponent(m: int) -> int:
    """The published exponent formula 3 + ((m-1)/2)^2, reported alongside."""
    return 3 + ((m - 1) // 2) ** 2


class ExperimentRow(Record):
    m: int
    d0: int
    d: int
    T: int  # monomial count
    n_star: int  # maximal vanishing cutoff achieved (lower bound when flagged)
    measured_ord: Order
    ratio: Fraction  # n_star / ((d0+1)(d+1)^nu), operational nu
    ratio_paper: Fraction  # same with the published exponent
    witness: Polynomial
    precision: int
    precision_limited: bool


class GridSummary(Record):
    m: int
    exponent_operational: int
    exponent_paper: int
    max_ratio: Fraction
    max_ratio_paper: Fraction
    flagged: tuple[DegreeBudget, ...]


def monomial_basis(budget: DegreeBudget, cfg: SystemConfig) -> list[Monomial]:
    """All monomials with deg_z <= d0 and total non-z degree <= d, graded-lex."""
    nrest = cfg.nvars - 1
    rest: list[tuple[int, ...]] = []
    # a monomial of total degree k in the other variables is a multiset of k of them
    for k in range(budget.d + 1):
        for chosen in combinations_with_replacement(range(nrest), k):
            exps = [0] * nrest
            for i in chosen:
                exps[i] += 1
            rest.append(tuple(exps))
    monos = [(e0,) + r for e0 in range(budget.d0 + 1) for r in rest]
    monos.sort(key=monomial_key)
    return monos


def expected_basis_size(budget: DegreeBudget, cfg: SystemConfig) -> int:
    nu = cfg.nvars - 1
    return (budget.d0 + 1) * comb(budget.d + nu, nu)


# 61-bit primes for the rank profile, tried in order until the witness
# certifies the cutoff; 2**61 - 1 is a Mersenne prime
PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45)

# The largest basis size T a cell may have.  Lifting the witness costs about
# T**3 times the squared entry bits, which grow with T; the T=240 cell
# (m=3, d0=1, d=3) takes 70-80 s on 2 vCPUs.
MAX_BASIS_SIZE = 240

# Adaptive precision starts this many coefficients past the basis size T.
# Every cell measured so far has n* = T - 1, which needs rows 0..T-1.
PRECISION_SLACK = 5


def max_vanishing_search(
    budget: DegreeBudget,
    cfg: SystemConfig,
    precision: int | None = None,
    tup: FunctionTuple | None = None,
) -> ExperimentRow:
    """Find the highest-vanishing combination of the budgeted monomials.

    Adds one coefficient condition (matrix row) at a time until the rank
    reaches the basis size; the last kernel before that is, by maximality,
    the best achievable vanishing order within the budget.

    An explicit precision is used as given.  Without one, the search starts
    at T + PRECISION_SLACK (`_first_precision`) and doubles while the result
    is precision-limited, up to 3T.  Row r of the matrix is the same at every
    precision >= r, so everything but the reported precision equals the
    search at 3T.

    For the same reason a search at some precision may read its columns from
    a function tuple at any precision above it.  So a tuple `tup` given by
    the caller is shared: an attempt at a precision up to tup's reads its
    columns from tup's monomial cache, and fills it for the next caller;
    only an attempt past it builds a tuple of its own.
    """
    basis = monomial_basis(budget, cfg)
    T = len(basis)
    if T != expected_basis_size(budget, cfg):
        raise InternalConsistencyError(f"basis size {T} disagrees with the count formula")

    def search(precision: int) -> ExperimentRow:
        if tup is None or tup.precision < precision:
            return _search(budget, cfg, basis, precision, function_tuple(cfg.m, precision))
        return _search(budget, cfg, basis, precision, tup)

    if precision is not None:
        return search(precision)
    cap = 3 * T
    precision = _first_precision(T)
    while True:
        row = search(precision)
        if not row.precision_limited or precision >= cap:
            return row
        precision = min(2 * precision, cap)


def _first_precision(T: int) -> int:
    """The adaptive search's first precision for a basis of size T."""
    return min(T + PRECISION_SLACK, 3 * T)


def _search(
    budget: DegreeBudget, cfg: SystemConfig, basis: list[Monomial], precision: int, tup: FunctionTuple
) -> ExperimentRow:
    """The search at one fixed precision, on a function tuple at that
    precision or above; it reads rows 0..precision only.

    The certificate is the order of the kernel vector that `kernel_mod_p`
    computes exactly: order == cutoff proves n* = cutoff, and in a
    precision-limited cell (no cutoff) a vector that vanishes through every
    row proves n* > precision.
    """
    T = len(basis)
    # basis order is graded, so each column is one product off a cached parent
    columns = [monomial_series(mono, tup) for mono in basis]

    for p in PRIMES:
        rows = ([col.coeffs[r] for col in columns] for r in range(precision + 1))
        cutoff, kernel, order = kernel_mod_p(rows, T, p)
        if order == cutoff:
            break
        if cutoff is None:
            failure = (
                "rank never reached the basis size yet the witness does not "
                "vanish through the precision"
            )
        else:
            failure = f"witness order {order} disagrees with search cutoff {cutoff}"
    else:
        raise InternalConsistencyError(f"{failure} for every prime")
    witness = Polynomial(cfg, {mono: c for mono, c in zip(basis, kernel) if c != 0})
    flagged = cutoff is None
    n_star = precision + 1 if flagged else cutoff
    measured = Order.at_least(n_star) if flagged else Order.finite(n_star)

    nu = operational_exponent(cfg.m)
    nu_paper = paper_exponent(cfg.m)
    denom = (budget.d0 + 1) * (budget.d + 1) ** nu
    denom_paper = (budget.d0 + 1) * (budget.d + 1) ** nu_paper
    return ExperimentRow(
        m=cfg.m,
        d0=budget.d0,
        d=budget.d,
        T=T,
        n_star=n_star,
        measured_ord=measured,
        ratio=Fraction(n_star, denom),
        ratio_paper=Fraction(n_star, denom_paper),
        witness=witness,
        precision=precision,
        precision_limited=flagged,
    )


def experiment_grid(
    m: int, budgets: list[DegreeBudget], precision: int | None = None
) -> tuple[list[ExperimentRow], GridSummary]:
    """Run the search over a grid of budgets; deterministic row order.

    Every cell's basis size is checked against MAX_BASIS_SIZE before the
    first search runs.  The cells share one function tuple, at the largest
    precision any cell starts at (see `max_vanishing_search`): a grid's
    bases nest, so each column series is built once per grid, not once per
    cell, and a cell builds a tuple of its own only when it escalates past
    the shared one.
    """
    cfg = SystemConfig(m)
    starts = []
    for b in budgets:
        T = expected_basis_size(b, cfg)
        if T > MAX_BASIS_SIZE:
            raise ValueError(
                f"the cell m={m}, d0={b.d0}, d={b.d} has T={T} basis monomials, "
                f"over the limit {MAX_BASIS_SIZE}"
            )
        starts.append(_first_precision(T) if precision is None else precision)
    tup = function_tuple(m, max(starts)) if starts else None
    rows = [max_vanishing_search(b, cfg, precision, tup) for b in budgets]
    max_ratio = max((row.ratio for row in rows), default=Fraction(0))
    max_ratio_paper = max((row.ratio_paper for row in rows), default=Fraction(0))
    summary = GridSummary(
        m=m,
        exponent_operational=operational_exponent(m),
        exponent_paper=paper_exponent(m),
        max_ratio=max_ratio,
        max_ratio_paper=max_ratio_paper,
        flagged=tuple(
            DegreeBudget(row.d0, row.d) for row in rows if row.precision_limited
        ),
    )
    return rows, summary
