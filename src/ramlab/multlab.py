"""Empirical multiplicity laboratory.

Searches one `Cell` at a time (the ring's m and a degree budget, which give
a monomial basis, its count T and the ratios' denominator) for the auxiliary
polynomial with the highest possible order of vanishing at z = 0, and
profiles the measured orders against the degree-product bound shape.

The search takes the rank profile of the coefficient matrix modulo a prime
and one exact kernel vector of the rows before its cutoff, with that
vector's exact order of vanishing (`_linalg.kernel_mod_p`).  The rank mod p
is at most the rank over Q, so the cutoff n*_p it finds is at least the
true n*; a witness polynomial whose exact order of vanishing is n*_p proves
n* >= n*_p, hence equality.  If the order and n*_p disagree, the next prime
is tried.  A row that prints no witness (CSV) is certified by n*_p = T-1
alone when it holds (see `_search`).  An `ExperimentRow` stores its cell
and that certificate alone; its basis size, its order, its ratios, whether
it is precision-limited, and a grid's maxima and flagged cells are derived
where printed.

The handler of `ramlab auxsearch`, with its grid syntax and its JSON and CSV
rows, is here too: only that command loads this module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from . import CliError
from ._linalg import kernel_mod_p, rank_profile_mod_p
from .arith import InternalConsistencyError, Record, check_m, fraction_str, variable_names
from .forms import function_tuple, monomial_series
from .ring import Monomial, Polynomial, SystemConfig, monomial_key
from .series import Order

__all__ = [
    "Cell",
    "ExperimentRow",
    "operational_exponent",
    "paper_exponent",
    "max_vanishing_search",
    "experiment_grid",
]


class Cell(Record):
    """The polynomials of the ring at m with degree at most d0 in z and total
    degree at most d in all other variables."""

    m: int
    d0: int
    d: int

    def __post_init__(self):
        if self.d0 < 0 or self.d < 0:
            raise ValueError("degree budgets must be nonnegative")
        check_m(self.m)

    @property
    def T(self) -> int:  # the basis size, by the count formula
        nu = operational_exponent(self.m)
        return (self.d0 + 1) * comb(self.d + nu, nu)

    def basis(self) -> list[Monomial]:
        """All monomials with deg_z <= d0 and total non-z degree <= d, graded-lex."""
        nrest = operational_exponent(self.m)
        rest: list[tuple[int, ...]] = []
        # a monomial of total degree k in the other variables is a multiset of k of them
        for k in range(self.d + 1):
            for chosen in combinations_with_replacement(range(nrest), k):
                exps = [0] * nrest
                for i in chosen:
                    exps[i] += 1
                rest.append(tuple(exps))
        monos = [(e0,) + r for e0 in range(self.d0 + 1) for r in rest]
        monos.sort(key=monomial_key)
        return monos

    def scale(self, nu: int) -> int:
        """(d0+1)(d+1)^nu, the denominator of the ratio at the exponent nu."""
        return (self.d0 + 1) * (self.d + 1) ** nu


def operational_exponent(m: int) -> int:
    """Number of non-z variables, the nu of the basis size and the ratios."""
    return len(variable_names(m)) - 1


def paper_exponent(m: int) -> int:
    """The published exponent formula 3 + ((m-1)/2)^2, reported alongside."""
    return 3 + ((m - 1) // 2) ** 2


class ExperimentRow(Record):
    cell: Cell
    n_star: int  # maximal vanishing cutoff achieved; precision + 1 when limited
    witness: Polynomial | None  # None when certified from the rank alone
    precision: int

    @property
    def T(self) -> int:  # the basis size
        return self.cell.T

    @property
    def precision_limited(self) -> bool:  # the witness vanishes through every row
        return self.n_star > self.precision

    @property
    def measured_ord(self) -> Order:
        return Order(not self.precision_limited, self.n_star)

    @property
    def ratio(self) -> Fraction:  # n_star / cell.scale(nu), operational nu
        return Fraction(self.n_star, self.cell.scale(operational_exponent(self.cell.m)))

    @property
    def ratio_paper(self) -> Fraction:  # the same with the published exponent
        return Fraction(self.n_star, self.cell.scale(paper_exponent(self.cell.m)))


# The primes for the rank profile, tried in order until the witness
# certifies the cutoff: the three largest below 2**60.  Every scalar that
# `_linalg` multiplies a packed vector by is a residue mod p, and below
# 2**60 it fits two of CPython's 30-bit digits, where a 61-bit one takes three
PRIMES = (2**60 - 93, 2**60 - 107, 2**60 - 173)

# The largest basis size T a cell may have.  It prices the witness path:
# lifting the witness costs about T**3 times the squared entry bits, which
# grow with T, and the T=240 cell (m=3, d0=1, d=3) takes 42-77 s on a shared
# 2-vCPU host in text or JSON, 33-35 s of it in the lift.  Under CSV a cell
# certified at T-1 skips the lift (1.6-2.7 s at T=240), but the cap is the same.
MAX_BASIS_SIZE = 240

# Adaptive precision starts this many coefficients past the basis size T.
# Every cell measured so far has n* = T - 1, which needs rows 0..T-1.
PRECISION_SLACK = 5


def max_vanishing_search(
    cell: Cell, precision: int | None = None, tup: FunctionTuple | None = None, witness: bool = True
) -> ExperimentRow:
    """Find the highest-vanishing combination of the cell's monomials.

    Adds one coefficient condition (matrix row) at a time until the rank
    reaches the basis size; the last kernel before that is, by maximality,
    the best achievable vanishing order within the cell.

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

    With witness false, a cell whose cutoff mod p is T-1 is certified by
    the rank alone and its row has no witness (see `_search`).
    """
    basis = cell.basis()
    T = len(basis)
    if T != cell.T:
        raise InternalConsistencyError(f"basis size {T} disagrees with the count formula")

    def search(precision: int) -> ExperimentRow:
        if tup is None or tup.precision < precision:
            return _search(cell, basis, precision, function_tuple(cell.m, precision), witness)
        return _search(cell, basis, precision, tup, witness)

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
    cell: Cell, basis: list[Monomial], precision: int, tup: FunctionTuple, witness: bool = True
) -> ExperimentRow:
    """The search at one fixed precision, on a function tuple at that
    precision or above; it reads rows 0..precision only.

    The certificate is the order of the kernel vector that `kernel_mod_p`
    computes exactly: order == cutoff proves n* = cutoff, and in a
    precision-limited cell (no cutoff) a vector that vanishes through every
    row proves n* > precision.

    With witness false, a cutoff of T-1 mod p is the certificate.  T-1
    conditions on T unknowns always leave a nonzero solution, so n* >= T-1;
    rows 0..T-1 of rank T mod p have a T x T minor that is nonzero mod p,
    hence over Z, so no nonzero vector over Q vanishes through row T-1.  This
    holds at every prime, and the row has no witness.  Any other cutoff takes
    the witness path at the same prime, from the same profile.
    """
    T = len(basis)
    # basis order is graded, so each column is one product off a cached parent
    columns = [monomial_series(mono, tup) for mono in basis]

    def rows():
        return ([col.coeffs[r] for col in columns] for r in range(precision + 1))

    for p in PRIMES:
        profile = rank_profile_mod_p(rows(), T, p)
        if not witness and profile[0] == T - 1:
            return ExperimentRow(cell, T - 1, None, precision)
        cutoff, kernel, order = kernel_mod_p(profile, T, p)
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
    terms = {mono: c for mono, c in zip(basis, kernel) if c != 0}
    n_star = precision + 1 if cutoff is None else cutoff
    return ExperimentRow(cell, n_star, Polynomial(SystemConfig(cell.m), terms), precision)


def experiment_grid(
    cells: Iterable[Cell], precision: int | None = None, witness: bool = True
) -> list[ExperimentRow]:
    """Run the search over a grid of cells of one m; deterministic row order.

    Every cell's basis size is checked against MAX_BASIS_SIZE, in the
    cells' order, before the first search runs, and no cell past the first
    one over it is read.  The cells share one function tuple, at the first
    cell's m and the largest precision any cell starts at (see
    `max_vanishing_search`): a grid's bases nest, so each column series is
    built once per grid, not once per cell, and a cell builds a tuple of its
    own only when it escalates past the shared one.  `witness` is passed on
    to each cell's `max_vanishing_search`.
    """
    checked, starts = [], []
    for cell in cells:
        T = cell.T
        if T > MAX_BASIS_SIZE:
            raise ValueError(
                f"the cell m={cell.m}, d0={cell.d0}, d={cell.d} has T={T} basis monomials, "
                f"over the limit {MAX_BASIS_SIZE}"
            )
        checked.append(cell)
        starts.append(_first_precision(T) if precision is None else precision)
    tup = function_tuple(checked[0].m, max(starts)) if checked else None
    return [max_vanishing_search(cell, precision, tup, witness) for cell in checked]


# -- the handler of auxsearch (see cli._COMMANDS) --------------------------


def auxsearch_command(args, record) -> int:
    """`ramlab auxsearch` on one budget (--d0 and --d) or a --grid, which
    `cli` has checked are not both given; with --strict, exit 1 when a cell
    is precision-limited.  The params list the budgets searched.  CSV
    prints no witness, so its cells are searched without one where the rank
    alone certifies them."""
    if args.grid is None:
        cells = [Cell(args.m, args.d0, args.d)]
    else:
        cells = _parse_grid(args.m, args.grid)
    rows = experiment_grid(cells, args.prec, witness=args.format != "csv")
    budgets = [{"d0": r.cell.d0, "d": r.cell.d} for r in rows]
    record["params"] = {"m": args.m, "budgets": budgets, "prec": args.prec}
    record["payload"] = _rows_to_csv(rows) if args.format == "csv" else _experiment_rows(args.m, rows)
    return 1 if args.strict and any(r.precision_limited for r in rows) else 0


def _parse_grid(m: int, spec: str) -> Iterator[Cell]:
    """Grid spec "D0MAX:DMAX": every cell at m with d0 <= D0MAX and d <= DMAX,
    built one at a time as it is read, so `experiment_grid` refuses a cell
    over its size limit before the rest of the grid is built."""
    match = re.fullmatch(r"(\d+):(\d+)", spec)
    if not match:
        raise CliError("grid spec must look like D0MAX:DMAX, e.g. 1:2")
    d0max, dmax = int(match.group(1)), int(match.group(2))
    return (Cell(m, d0, d) for d0 in range(d0max + 1) for d in range(dmax + 1))


def _experiment_rows(m: int, rows: list[ExperimentRow]) -> dict:
    """The JSON and text payload of a search; the largest ratios are 0 for no rows."""
    # from ring at each call, where the trace shim and the tests replace it
    from .ring import format_polynomial

    return {
        "exponent_operational": operational_exponent(m),
        "exponent_paper": paper_exponent(m),
        "rows": [
            {
                "m": r.cell.m,
                "d0": r.cell.d0,
                "d": r.cell.d,
                "T": r.T,
                "n_star": r.n_star,
                "ord": str(r.measured_ord),
                "ratio": fraction_str(r.ratio),
                "ratio_paper": fraction_str(r.ratio_paper),
                "witness": format_polynomial(r.witness),
                "precision": r.precision,
                "precision_limited": r.precision_limited,
            }
            for r in rows
        ],
        "max_ratio": fraction_str(max((r.ratio for r in rows), default=Fraction(0))),
        "max_ratio_paper": fraction_str(max((r.ratio_paper for r in rows), default=Fraction(0))),
        "flagged": [{"d0": r.cell.d0, "d": r.cell.d} for r in rows if r.precision_limited],
    }


def _rows_to_csv(rows: list[ExperimentRow]) -> str:
    """The CSV text of a search, one line per cell."""
    # every field is an integer or an order such as ">=5", so none needs quoting
    lines = ["m,d0,d,T,n_star,ord,ratio_num,ratio_den,flag"]
    for r in rows:
        fields = (r.cell.m, r.cell.d0, r.cell.d, r.T, r.n_star, r.measured_ord,
                  r.ratio.numerator, r.ratio.denominator, int(r.precision_limited))
        lines.append(",".join(map(str, fields)))
    return "\n".join(lines) + "\n"
