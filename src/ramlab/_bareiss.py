"""Fraction-free elimination over Z, one row at a time: `RowReducer` and
the exact square solve built on it.  No command runs them; the tests use
them as an oracle of the search, and the benchmark's trace shim wraps them.
`_linalg` resolves both names here on first use (`arith.forward_names`), so
the search never compiles this module.

`RowReducer` keeps an integer echelon basis, one row at a time, with
Bareiss' integer-preserving step (Bareiss, Math. Comp. 1968): every stored
entry is a minor of the inserted rows, so each division is exact and no gcd
is ever taken.  The pivot of a new row is its first nonzero column, so the
pivot columns are those where the column rank rises, whatever the order of
insertion, and the kernel vector (first free column 1, the others 0, first
nonzero coordinate 1) is the one a reduced row echelon form gives.
`solve_square` is a kernel vector of `[A | b]`, which gives an exact
verdict on singular systems.  Deterministic by construction; desk-scale
matrices only.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import integer_numerators

__all__ = ["solve_square", "RowReducer"]


def solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a nonsingular square system exactly; raises on singularity."""
    n = len(matrix)
    reducer = RowReducer(n + 1)
    for row, b in zip(matrix, rhs):
        reducer.add(reducer.reduce(list(row) + [b]))
    # A x = b iff (x, -1) is in the kernel of [A | b].  If A is nonsingular,
    # its n columns are the pivots and v[n] is the free coordinate; otherwise
    # a column of A is the first free one, and v[n] = 0
    v = reducer.kernel_vector()
    if v[n] == 0:
        raise ValueError("singular matrix")
    return [-x / v[n] for x in v[:n]]


class RowReducer:
    """A fraction-free echelon basis over Z of the rows added so far."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        # (pivot column, row) in insertion order; row k is zero on the
        # pivot columns of rows 0..k-1 and its pivot entry is p_k
        self.rows: list[tuple[int, list[int]]] = []
        self._last: list[int] | None = None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: list[Fraction]) -> list[int]:
        """Reduce a rational row against the stored basis; does not store it.

        The row is scaled to integers by the lcm of its denominators, then
        taken through one Bareiss step per stored row, in insertion order.
        The result is zero on every pivot column, and it is zero exactly
        when the row lies in the span of the rows added so far.
        """
        _, x = integer_numerators(row)
        prev = 1
        for col, basis in self.rows:
            piv = basis[col]
            f = x[col]
            if f:
                x = [(piv * a - f * b) // prev for a, b in zip(x, basis)]
            else:
                x = [piv * a // prev for a in x]
            prev = piv
        self._last = x
        return x

    def add(self, reduced: list[int]) -> bool:
        """Store the row that `reduce` has just returned, as it is.

        It is not reduced again, so it must be the last result of `reduce`,
        with no row added since: the exact divisions of later steps rely on
        its scale.  Returns True iff it increased the rank.
        """
        if reduced is not self._last:
            raise ValueError("add() takes the row that reduce() has just returned")
        self._last = None
        pivot = next((c for c, x in enumerate(reduced) if x), None)
        if pivot is None:
            return False
        self.rows.append((pivot, reduced))
        return True

    def kernel_vector(self) -> list[Fraction]:
        """One kernel vector, deterministic: first free column set to 1.

        The other free columns are 0.  The result is normalized so its first
        nonzero coordinate equals 1.  Requires rank < ncols.
        """
        if self.rank >= self.ncols:
            raise ValueError("kernel is trivial")
        pivots = {col for col, _ in self.rows}
        free = next(c for c in range(self.ncols) if c not in pivots)
        # scaled by the last pivot, which is the leading minor, the solution
        # is integral, so back-substitution from the newest row divides exactly
        vec = [0] * self.ncols
        vec[free] = 1
        if self.rows:
            col, basis = self.rows[-1]
            vec[free] = basis[col]
        for col, basis in reversed(self.rows):
            dot = sum(a * b for a, b in zip(basis, vec) if b)
            vec[col] = -dot // basis[col]
        lead = next(x for x in vec if x != 0)
        return [Fraction(x, lead) for x in vec]
