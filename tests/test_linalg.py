import random
from fractions import Fraction

import pytest

from helpers import FractionRowReducer, gauss_jordan_solve, random_coefficient
from ramlab._linalg import RowReducer, solve_square


def random_rows(rng: random.Random, ncols: int, nrows: int):
    """Sparse rational rows with zero rows, repeats and dependent rows.

    Each fresh row starts at a random column, so pivots do not rise with
    insertion order.
    """
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            row = [Fraction(0)] * ncols
        elif rows and kind < 0.25:
            row = list(rng.choice(rows))
        elif len(rows) >= 2 and kind < 0.45:
            a, b = rng.sample(rows, 2)
            ca, cb = random_coefficient(rng), random_coefficient(rng)
            row = [ca * x + cb * y for x, y in zip(a, b)]
        else:
            lead = rng.randrange(ncols)
            row = [Fraction(0)] * lead + [random_coefficient(rng)]
            row += [random_coefficient(rng) if rng.random() < 0.7 else Fraction(0)
                    for _ in range(ncols - lead - 1)]
        rows.append(row)
    return rows


def test_row_reducer_matches_fraction_oracle():
    rng = random.Random(41)
    unsorted_pivots = 0
    for _ in range(300):
        ncols = rng.randint(1, 9)
        rows = random_rows(rng, ncols, rng.randint(0, ncols + 3))
        fast, slow = RowReducer(ncols), FractionRowReducer(ncols)
        for row in rows:
            reduced = fast.reduce(row)
            assert any(reduced) == any(slow.reduce(row))
            assert fast.add(reduced) == slow.add(row)
            assert fast.rank == slow.rank
        pivots = [col for col, _ in fast.rows]
        unsorted_pivots += pivots != sorted(pivots)
        if fast.rank == ncols:
            with pytest.raises(ValueError, match="trivial"):
                fast.kernel_vector()
            continue
        vec = fast.kernel_vector()
        assert vec == slow.kernel_vector()
        for row in rows:
            assert sum(x * v for x, v in zip(row, vec)) == 0
    assert unsorted_pivots > 50


def test_add_takes_only_the_row_reduce_just_returned():
    reducer = RowReducer(2)
    first = reducer.reduce([Fraction(1), Fraction(2)])
    with pytest.raises(ValueError):
        reducer.add(list(first))
    reducer.reduce([Fraction(3), Fraction(1)])
    with pytest.raises(ValueError):
        reducer.add(first)
    assert reducer.rank == 0


def test_solve_square_matches_gauss_jordan():
    rng = random.Random(43)
    singular = 0
    for _ in range(200):
        n = rng.randint(0, 6)
        matrix = random_rows(rng, n, n) if n else []
        rhs = [random_coefficient(rng) for _ in range(n)]
        try:
            expected = gauss_jordan_solve(matrix, rhs)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                solve_square(matrix, rhs)
            continue
        assert solve_square(matrix, rhs) == expected
    assert 20 < singular < 180


def test_solve_square_integer_input():
    assert solve_square([[2, 1], [1, 3]], [3, 5]) == [Fraction(4, 5), Fraction(7, 5)]
    with pytest.raises(ValueError, match="singular matrix"):
        solve_square([[1, 2], [2, 4]], [1, 2])
