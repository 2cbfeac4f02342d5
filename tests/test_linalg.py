import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from helpers import (
    FractionRowReducer,
    euclid_reconstruct,
    gauss_jordan_solve,
    inverse_mod_p,
    random_coefficient,
    solve_lifted,
)
from ramlab import _linalg
from ramlab._bareiss import RowReducer, solve_square
from ramlab._linalg import kernel_mod_p, rank_profile_mod_p
from ramlab.arith import InternalConsistencyError

P61 = 2**61 - 1


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


def random_integer_system(rng: random.Random, n: int):
    """An n x n integer system, mostly small entries, some up to 300 bits."""
    bits = rng.choice([3, 8, 40, 300])
    top = 2**bits
    matrix = [[rng.randint(-top, top) if rng.random() < 0.8 else 0 for _ in range(n)]
              for _ in range(n)]
    rhs = [rng.randint(-top, top) for _ in range(n)]
    if rng.random() < 0.1:
        rhs = [0] * n
    return matrix, rhs


def test_solve_lifted_matches_gauss_jordan():
    rng = random.Random(47)
    solved = 0
    big_denominators = 0
    while solved < 200:
        n = rng.randint(1, 9)
        matrix, rhs = random_integer_system(rng, n)
        try:
            expected = gauss_jordan_solve(matrix, rhs)
        except ValueError:
            continue  # singular over Q
        p = rng.choice([P61, 2**61 - 31, 101])
        try:
            got = solve_lifted(matrix, rhs, p)
        except ValueError:
            # singular mod a small prime only; the 61-bit ones never are here
            assert p == 101
            continue
        assert got == expected
        solved += 1
        big_denominators += max(x.denominator for x in got).bit_length() > 200
    assert big_denominators > 20


@pytest.mark.parametrize("band_rows", [1, 2, 3])
def test_solve_lifted_in_bands_matches_gauss_jordan(monkeypatch, band_rows):
    # row i has entries of up to 20*i bits, as the search's rows widen with
    # the power of z, and consecutive rows are packed in bands of their own width
    monkeypatch.setattr(_linalg, "BAND_ROWS", band_rows)
    rng = random.Random(79 + band_rows)
    solved = 0
    while solved < 60:
        n = rng.randint(1, 9)
        matrix = [[rng.randint(-(2 ** (20 * i + 1)), 2 ** (20 * i + 1)) for _ in range(n)]
                  for i in range(n)]
        rhs = [rng.randint(-(2 ** (20 * i)), 2 ** (20 * i)) if rng.random() < 0.8 else 0
               for i in range(n)]
        try:
            expected = gauss_jordan_solve(matrix, rhs)
        except ValueError:
            continue
        p = rng.choice([P61, 101])
        try:
            got = solve_lifted(matrix, rhs, p)
        except ValueError:
            assert p == 101
            continue
        assert got == expected
        solved += 1


@pytest.mark.parametrize("p", [P61, 101, 7])
def test_inverse_columns_matches_an_independent_inverse(p):
    # the leading entries of M's first row (the first column of M^T, which
    # is reduced) and of its first column vanish mod p, so rows are swapped
    rng = random.Random(p % 1000)
    inverted = singular = 0
    for _ in range(150):
        n = rng.randint(1, 9)
        matrix = [[rng.randint(-(2**70), 2**70) for _ in range(n)] for _ in range(n)]
        for j in range(rng.randint(1, n)):
            matrix[0][j] = p * rng.randint(-5, 5)
            matrix[j][0] = p * rng.randint(-5, 5)
        expected = inverse_mod_p(matrix, p)
        if expected is None:
            with pytest.raises(ValueError, match="singular"):
                _linalg._inverse_columns(matrix, p)
            singular += 1
            continue
        assert _linalg._inverse_columns(matrix, p) == [list(col) for col in zip(*expected)]
        inverted += 1
    assert inverted > 50 and singular > 10


def test_fold_equals_the_step_by_step_sum():
    rng = random.Random(61)
    for p in (P61, 101, 2):
        for length in range(1, 40):
            n = rng.randint(1, 5)
            digits = [[rng.randrange(p) for _ in range(n)] for _ in range(length)]
            total, scale = [0] * n, 1
            for digit in digits:
                total = [t + d * scale for t, d in zip(total, digit)]
                scale *= p
            assert _linalg._fold(digits, p) == (total, scale)


def test_solve_lifted_holds_the_p_adic_solution_at_every_check(monkeypatch):
    # at each check the solution is x mod p**steps with every coordinate in
    # [0, p**steps), which is what adding one digit per step gave
    checks = []
    original = _linalg._rational_vector

    def recording(residues, modulus, bound):
        checks.append((list(residues), modulus))
        return original(residues, modulus, bound)

    monkeypatch.setattr(_linalg, "_rational_vector", recording)
    steps = [2, 3, 4, 6, 9, 13, 19, 28, 42, 63, 94, 141]
    rng = random.Random(67)
    for p in (P61, 101):
        for _ in range(40):
            n = rng.randint(1, 8)
            matrix, rhs = random_integer_system(rng, n)
            try:
                x = solve_lifted(matrix, rhs, p)
            except ValueError:
                continue
            for (residues, modulus), step in zip(checks, steps):
                if modulus != p**step:  # only the last check may come early
                    assert (residues, modulus) == checks[-1]
                assert residues == [v.numerator * pow(v.denominator, -1, modulus) % modulus
                                    for v in x]
            checks.clear()


def test_solve_lifted_edge_cases():
    assert solve_lifted([], [], P61) == []
    assert solve_lifted([[3]], [2], P61) == [Fraction(2, 3)]
    assert solve_lifted([[2, 1], [1, 3]], [3, 5], 7) == [Fraction(4, 5), Fraction(7, 5)]
    # an integer solution, so the residue vanishes after a few steps
    big = 10**40
    assert solve_lifted([[1, 2], [3, 4]], [5 * big, 11 * big], P61) == [big, 2 * big]
    # nonsingular over Q but singular mod 7
    with pytest.raises(ValueError, match="singular"):
        solve_lifted([[7, 0], [0, 1]], [1, 1], 7)


def test_solve_lifted_raises_at_the_hadamard_bound(monkeypatch):
    monkeypatch.setattr(_linalg, "_reconstruct", lambda residue, modulus, bound: None)
    with pytest.raises(InternalConsistencyError, match="Hadamard"):
        solve_lifted([[2, 1], [1, 3]], [3, 5], P61)


def test_solve_lifted_rejects_a_wrong_reconstruction(monkeypatch):
    # a reconstruction that is not a solution must not be returned
    monkeypatch.setattr(_linalg, "_reconstruct", lambda residue, modulus, bound: (1, 1))
    with pytest.raises(InternalConsistencyError):
        solve_lifted([[2, 1], [1, 3]], [3, 5], P61)


def test_rank_profile_matches_fraction_oracle():
    rng = random.Random(53)
    for _ in range(300):
        ncols = rng.randint(1, 9)
        rows = random_rows(rng, ncols, rng.randint(0, ncols + 4))
        target = rng.randint(1, ncols)
        cutoff, pivots, scaled = rank_profile_mod_p(iter(rows), target, P61)
        oracle = FractionRowReducer(ncols)
        expected_cutoff, expected_kept = None, []
        for index, row in enumerate(rows):
            if not any(oracle.reduce(row)):
                continue
            if oracle.rank + 1 == target:
                expected_cutoff = index
                break
            oracle.add(row)
            expected_kept.append(index)
        assert cutoff == expected_cutoff
        assert list(pivots) == expected_kept
        assert sorted(pivots.values()) == sorted(oracle.rows)
        read = rows if cutoff is None else rows[: cutoff + 1]
        assert len(scaled) == len(read)
        for ints, row in zip(scaled, read):
            # each row read is the rational row times the lcm of its denominators
            scale = lcm(*(x.denominator for x in row))
            assert all(type(x) is int for x in ints)
            assert ints == [scale * x for x in row]


def test_rank_profile_mod_a_small_prime_can_only_drop():
    rng = random.Random(59)
    dropped = 0
    for _ in range(200):
        ncols = rng.randint(2, 7)
        rows = random_rows(rng, ncols, ncols + 3)
        # denominators divisible by 7 make the scaled rows vanish mod 7 off the top
        rows = [[x / 7 ** rng.randint(0, 2) for x in row] for row in rows]
        over_q, _, _ = rank_profile_mod_p(iter(rows), ncols, P61)
        mod_7, _, kept = rank_profile_mod_p(iter(rows), ncols, 7)
        if over_q is None:
            assert mod_7 is None
        elif mod_7 is None or mod_7 > over_q:
            dropped += 1
        else:
            assert mod_7 == over_q
    assert dropped > 10


def test_kernel_mod_p_matches_fraction_oracle():
    rng = random.Random(61)
    mismatched = 0
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = random_rows(rng, ncols, rng.randint(0, ncols + 4))
        # denominators divisible by 7 make the rank mod 7 drop off the top
        rows = [[x / 7 ** rng.randint(0, 2) for x in row] for row in rows]
        for p in (P61, 7):
            cutoff, kernel, order = kernel_mod_p(iter(rows), ncols, p)
            profile_cutoff, pivots, _ = rank_profile_mod_p(iter(rows), ncols, p)
            assert cutoff == profile_cutoff
            # the rows with pivot mod p before the first free column f, on
            # columns 0..f: their kernel over Q has f free, the first nonzero 1
            f = next(c for c in range(ncols) if c not in pivots.values())
            oracle = FractionRowReducer(f + 1)
            for index, col in pivots.items():
                if col < f:
                    oracle.add(rows[index][: f + 1])
            assert oracle.rank == f
            assert kernel == oracle.kernel_vector() + [Fraction(0)] * (ncols - f - 1)
            read = rows if cutoff is None else rows[: cutoff + 1]
            products = [sum(a * b for a, b in zip(row, kernel)) for row in read]
            assert order == next((r for r, x in enumerate(products) if x), None)
            if p == P61:
                # no prime-sized denominators: the profile is the one over Q,
                # and the kernel vector is orthogonal to every row before the cutoff
                reducer = FractionRowReducer(ncols)
                for row in rows[:cutoff]:
                    reducer.add(row)
                assert kernel == reducer.kernel_vector()
                assert order == cutoff
            mismatched += order != cutoff
    assert mismatched > 10


def test_reconstruct_matches_brute_force():
    # every residue of small moduli against the definition: the fraction
    # n/d in lowest terms with |n|, d <= bound and n = d*x mod modulus
    for modulus in (7, 101, 211, 1009):
        bound = isqrt(modulus // 2)
        table = {}
        for d in range(1, bound + 1):
            for n in range(-bound, bound + 1):
                if gcd(n, d) == 1:
                    table.setdefault(n * pow(d, -1, modulus) % modulus, (n, d))
        found = 0
        for x in range(modulus):
            got = _linalg._reconstruct(x, modulus, bound)
            assert got == table.get(x)
            found += got is not None
        assert 0 < found < modulus


def _residues_to_reconstruct(rng: random.Random, p: int, modulus: int, bound: int):
    """A residue of a fraction within the bound, one of a fraction past it,
    and a uniform residue; the last two usually have no reconstruction."""
    d = rng.randint(1, bound)
    while d % p == 0:
        d = rng.randint(1, bound)
    near = rng.randint(-bound, bound) * pow(d, -1, modulus) % modulus
    d = rng.randint(bound + 1, 2 * bound + 1)
    while d % p == 0:
        d += 1
    past = rng.randint(bound, 2 * bound) * pow(d, -1, modulus) % modulus
    return near, past, rng.randrange(modulus)


@pytest.mark.parametrize(
    "min_bits, margin, largest",
    [
        (None, None, {P61: 200, 101: 200, 7: 200}),  # Lehmer from (2^61-1)^34 on
        (0, None, {P61: 50, 101: 200, 7: 200}),  # Lehmer on short moduli too
        (None, 0, {P61: 60}),  # Lehmer down to the bound: overshooting batches are dropped
    ],
)
def test_reconstruct_agrees_with_plain_euclid(monkeypatch, min_bits, margin, largest):
    if min_bits is not None:
        monkeypatch.setattr(_linalg, "LEHMER_MIN_BITS", min_bits)
    if margin is not None:
        monkeypatch.setattr(_linalg, "LEHMER_MARGIN", margin)
    rng = random.Random(71)
    found = missed = 0
    for p, top in largest.items():
        for k in range(1, top + 1):
            modulus = p**k
            bound = isqrt(modulus // 2)
            residues = _residues_to_reconstruct(rng, p, modulus, bound)
            if p == P61:  # the oracle is slow on long moduli: one kind per power
                residues = residues[k % 3 : k % 3 + 1]
            for residue in residues:
                expected = euclid_reconstruct(residue, modulus, bound)
                assert _linalg._reconstruct(residue, modulus, bound) == expected
                found += expected is not None
                missed += expected is None
    assert found > 10 and missed > 10


def _record_lifted_sizes(monkeypatch) -> list[int]:
    sizes = []
    solve = _linalg.solve_lifted_scaled

    def recording(matrix, rhs, p):
        sizes.append(len(matrix))
        return solve(matrix, rhs, p)

    monkeypatch.setattr(_linalg, "solve_lifted_scaled", recording)
    return sizes


def _plant_single_entry_columns(rng: random.Random, matrix, count: int) -> list[int]:
    """Make `count` columns nonzero in one row each, the rows distinct; returns the columns."""
    n = len(matrix)
    columns = rng.sample(range(n), count)
    for c, i in zip(columns, rng.sample(range(n), count)):
        for r in range(n):
            matrix[r][c] = 0
        matrix[i][c] = rng.choice([-1, 1]) * rng.randint(1, 2**rng.choice([2, 40, 200]))
    return columns


def _solve_peeled(matrix, rhs, p) -> list[Fraction]:
    nums, den = _linalg._solve_peeled(matrix, rhs, p)
    assert den > 0
    return [Fraction(v, den) for v in nums]


def test_peeled_solve_matches_gauss_jordan(monkeypatch):
    sizes = _record_lifted_sizes(monkeypatch)
    rng = random.Random(83)
    solved = every_column = 0
    while solved < 200:
        n = rng.randint(1, 9)
        matrix, rhs = random_integer_system(rng, n)
        planted = rng.randint(1, n)
        _plant_single_entry_columns(rng, matrix, planted)
        try:
            expected = gauss_jordan_solve(matrix, rhs)
        except ValueError:
            continue
        p = rng.choice([P61, 2**61 - 31, 101])
        sizes.clear()
        try:
            got = _solve_peeled(matrix, rhs, p)
        except ValueError:
            assert p == 101  # singular mod a small prime only
            continue
        assert got == expected
        # the planted columns are peeled, so the lifted system is smaller;
        # with every column planted nothing is left to lift
        assert sizes == [sizes[0]] and sizes[0] <= n - planted
        every_column += sizes[0] == 0
        solved += 1
    assert every_column > 20


def test_peeled_solve_refuses_a_singular_system(monkeypatch):
    sizes = _record_lifted_sizes(monkeypatch)
    # two columns nonzero in row 0 alone: singular over Q
    matrix = [[2, 3, 1], [0, 0, 5], [0, 0, 7]]
    with pytest.raises(ValueError):
        gauss_jordan_solve(matrix, [1, 1, 1])
    with pytest.raises(ValueError, match="singular"):
        _linalg._solve_peeled(matrix, [1, 1, 1], P61)
    # a single-entry column whose entry is 0 mod p: singular mod p, not over Q
    matrix = [[14, 1, 2], [0, 3, 5], [0, 1, 1]]
    assert _solve_peeled(matrix, [1, 2, 3], P61) == gauss_jordan_solve(matrix, [1, 2, 3])
    sizes.clear()
    with pytest.raises(ValueError, match="singular"):
        _linalg._solve_peeled(matrix, [1, 2, 3], 7)
    assert sizes == []  # refused before any lift


def test_peeled_solve_checks_the_whole_system(monkeypatch):
    # column 0 is peeled, and the lift of [[2]] x = [b_1] always answers 1:
    # right for b_1 = 2, and caught by the check on the whole system otherwise
    matrix = [[3, 1], [0, 2]]
    monkeypatch.setattr(_linalg, "solve_lifted_scaled", lambda m, b, p: ([1], 1))
    assert _solve_peeled(matrix, [3, 2], P61) == [Fraction(2, 3), Fraction(1)]
    with pytest.raises(InternalConsistencyError, match="whole system"):
        _linalg._solve_peeled(matrix, [3, 4], P61)
