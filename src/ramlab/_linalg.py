"""Exact linear algebra over Q for the multiplicity search: a rank profile
modulo a prime with one exact kernel vector and the first row it is not
orthogonal to, and an exact square solve by p-adic lifting.

`rank_profile_mod_p` scales each rational row to integers once and reduces
the rows one at a time over GF(p).  Its rank can only be lower than the rank
over Q, since a minor that is nonzero mod p is nonzero.  `kernel_mod_p`
turns that profile into one certificate: a vector that is 1 at the first
free column mod p and 0 past it, solved exactly from the rows whose pivots
come before that column, and the index of the first row read that the
vector is not orthogonal to over Q.  That square system is lifted without
its columns that have one nonzero entry (`_solve_peeled`); in the search
these are the monomials z^k.

`solve_lifted_scaled` solves a square integer system that is nonsingular
mod p by Dixon's p-adic lifting (Numer. Math. 1982): one inverse mod p, then
one digit of the p-adic solution per step, and rational reconstruction
(Wang's half extended Euclid, run by Lehmer's algorithm on long moduli) over
a common denominator.  It tries to stop at each check, where the digits
lifted since the last one join the solution by binary splitting, and a
reconstructed vector is accepted only if it passes the exact test
M x = d b.  At the Hadamard bound the reconstruction is unique, so failing
there is an internal inconsistency.

The matrix-vector products are integer combinations of packed vectors:
each vector is one integer with whole-byte slots (Kronecker substitution,
as in `TruncatedSeries.__mul__`).  Vectors mod p have nonnegative slots, so
they pack with one join and read back slot by slot, with no signs to carry;
the lifting's residue is read mod p after adding a multiple of p that makes
its slots nonnegative.  The rows of M are packed in bands, each at the
width of its own entries.

Only `multlab` imports this module.  The search calls `kernel_mod_p`
for a witness, and `rank_profile_mod_p` alone for a row that prints none
and whose cutoff is T-1 (see `multlab._search`).  The fraction-free
elimination `RowReducer` and `solve_square`, which no command calls, live
in `_bareiss`.  They are the names forwarded here, because the
benchmark's trace shim wraps them as `_linalg.RowReducer` and
`_linalg.solve_square`; they load `_bareiss` when first looked up.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .arith import InternalConsistencyError, forward_names, integer_numerators
from .series import pack, slot_bytes

__all__ = ["solve_lifted_scaled", "rank_profile_mod_p", "kernel_mod_p"]

# the trace shim's elimination spans, resolved from `_bareiss` on first use
__getattr__ = forward_names(globals(), {"RowReducer": "_bareiss", "solve_square": "_bareiss"})


def rank_profile_mod_p(
    rows: Iterable[Sequence[Fraction]], target: int, p: int
) -> tuple[int | None, dict[int, int], list[list[int]]]:
    """Reduce rational rows over GF(p), in order, until the rank would hit target.

    Returns (index of the first row that would bring the rank to target, or
    None if no row does; the pivot column of each row that raised the rank
    mod p, by row index; every row read, scaled to integers).  A row's pivot
    is its first nonzero column after reduction.

    Rows mod p are packed with nonnegative slots, and an elimination adds
    (p - f) times a monic row whose entries are below p, so slots only grow,
    by less than p*p per step, and are reduced mod p only when they are read.
    """
    if target < 1:
        raise ValueError("target rank must be positive")
    pivots: dict[int, int] = {}
    basis: list[tuple[int, int]] = []  # (bit offset of the pivot slot, packed monic row)
    scaled: list[list[int]] = []
    # a row takes fewer than `target` eliminations, each adding < p*p to a slot
    nbytes = slot_bytes(target * p * p)
    mask = (1 << 8 * nbytes) - 1
    for index, row in enumerate(rows):
        _, ints = integer_numerators(row)
        scaled.append(ints)
        x = _pack_residues([a % p for a in ints], nbytes)
        for shift, b in basis:
            f = (x >> shift & mask) % p
            if f:
                x += (p - f) * b
        x = _residues(x, len(ints), nbytes, p)
        pivot = next((c for c, u in enumerate(x) if u), None)
        if pivot is None:
            continue
        if len(basis) + 1 == target:
            return index, pivots, scaled
        inv = pow(x[pivot], -1, p)
        pivots[index] = pivot
        basis.append((8 * nbytes * pivot, _pack_residues([u * inv % p for u in x], nbytes)))
    return None, pivots, scaled


def kernel_mod_p(
    rows: Iterable[Sequence[Fraction]], T: int, p: int
) -> tuple[int | None, list[Fraction], int | None]:
    """(cutoff, kernel vector, its order) of rational rows with T columns.

    The cutoff is `rank_profile_mod_p`'s at target rank T.  With f the first
    column that is not a pivot mod p, the vector is 0 past f and 1 at f, and
    its first f coordinates solve the rows with pivot before f on columns
    0..f-1, a square system nonsingular mod p; then its first nonzero
    coordinate is normalised to 1.  The order is the index of the first row
    read that the vector is not orthogonal to over Q, or None.  The system's
    rows are orthogonal by `_solve_peeled`'s exact check, and every other
    row read is multiplied out.
    """
    cutoff, pivots, scaled = rank_profile_mod_p(rows, T, p)
    pivot_set = set(pivots.values())
    f = next(c for c in range(T) if c not in pivot_set)
    system = [i for i, col in pivots.items() if col < f]
    nums, den = _solve_peeled([scaled[i][:f] for i in system], [-scaled[i][f] for i in system], p)
    # the vector times den, in integers, so each coordinate is one Fraction
    vector = nums + [den]
    solved = set(system)
    order = next((i for i, row in enumerate(scaled) if i not in solved and sum(map(mul, row, vector))), None)
    lead = next(v for v in vector if v)
    return cutoff, [Fraction(v, lead) for v in vector + [0] * (T - f - 1)], order


def _solve_peeled(matrix: list[list[int]], rhs: list[int], p: int) -> tuple[list[int], int]:
    """`solve_lifted_scaled`'s (numerators, d) for M x = b, with the columns
    that have a single nonzero entry taken out before the lift.

    With column c nonzero in row i alone, det M = +-M_ic * det M', where M'
    is M less row i and column c.  So M' is nonsingular mod p whenever M is,
    the rest of x solves M' (lifted), and x_c = (b_i - sum_j M_ij x_j) / M_ic
    is read off row i exactly.  A row gives up one column at most: with two,
    M is singular, and the one it keeps is a zero column that the lift
    refuses.  In the search these are the columns of the monomials z^k,
    whose series is z^k.  The solution is unique, so it is the one the whole
    system would give; it is checked exactly against the whole system.
    Raises ValueError if M is singular mod p.
    """
    n = len(matrix)
    peeled: dict[int, int] = {}  # row -> the column nonzero in it alone
    for c, column in enumerate(zip(*matrix)):
        nonzero = [i for i, a in enumerate(column) if a]
        if len(nonzero) == 1:
            if column[nonzero[0]] % p == 0:
                raise ValueError("singular matrix modulo p")
            peeled[nonzero[0]] = c
    rest = [i for i in range(n) if i not in peeled]
    taken = set(peeled.values())
    kept = [c for c in range(n) if c not in taken]
    sub, den = solve_lifted_scaled([[matrix[i][c] for c in kept] for i in rest], [rhs[i] for i in rest], p)
    x = [0] * n  # x times den, the peeled coordinates still 0
    for c, v in zip(kept, sub):
        x[c] = v
    # x_c * den = num / q; the sum reads only kept columns, as row i is 0 in
    # every other peeled column.  scale, a positive multiple of each reduced
    # q, makes every num * scale / q an integer
    parts = {c: (rhs[i] * den - sum(map(mul, matrix[i], x)), matrix[i][c]) for i, c in peeled.items()}
    scale = lcm(*(q // gcd(num, q) for num, q in parts.values()))
    x = [v * scale for v in x]
    for c, (num, q) in parts.items():
        x[c] = num * scale // q
    den *= scale
    if not all(sum(map(mul, row, x)) == den * b for row, b in zip(matrix, rhs)):
        raise InternalConsistencyError("the peeled solution does not solve the whole system")
    return x, den


def _pack_residues(values: list[int], nbytes: int) -> int:
    """pack() for values in [0, 256**nbytes): one join, no sign to split off."""
    return int.from_bytes(b"".join([x.to_bytes(nbytes, "little") for x in values]), "little")


def _residues(packed: int, n: int, nbytes: int, p: int) -> list[int]:
    """The n slots of a packed integer with nonnegative slots, each mod p."""
    raw = packed.to_bytes(nbytes * n, "little")
    return [int.from_bytes(raw[i : i + nbytes], "little") % p for i in range(0, len(raw), nbytes)]


def _combine(columns: list[int], weights: list[int]) -> int:
    """sum(w * column) of packed columns: a matrix-vector product, packed."""
    return sum(map(mul, columns, weights))


def _inverse_columns(matrix: list[list[int]], p: int) -> list[list[int]]:
    """The columns of the inverse of a square integer matrix mod p.

    Gauss-Jordan in place on the packed rows of M^T (row i of the inverse of
    M^T is column i of the inverse of M), n nonnegative slots a row.  Each
    pivot column turns into the column of the inverse that the identity
    would have held: the pivot row's slot is set to 1 before the row is
    scaled by 1/a, and every other row's slot is taken out before (p - f)
    times the pivot row is added, so that it becomes -f/a.  The row swaps
    permute the columns of the result, which are put back at the end.
    """
    n = len(matrix)
    # a row takes at most n eliminations before its slots are read for the last time
    nbytes = slot_bytes(n * p * p)
    mask = (1 << 8 * nbytes) - 1
    rows = [_pack_residues([a % p for a in col], nbytes) for col in zip(*matrix)]
    swaps = []
    for col in range(n):
        shift = 8 * nbytes * col
        piv = next((r for r in range(col, n) if (rows[r] >> shift & mask) % p), None)
        if piv is None:
            raise ValueError("singular matrix modulo p")
        swaps.append(piv)
        rows[col], rows[piv] = rows[piv], rows[col]
        values = _residues(rows[col], n, nbytes, p)
        inv = pow(values[col], -1, p)
        values[col] = 1
        rows[col] = pivot_row = _pack_residues([u * inv % p for u in values], nbytes)
        for r in range(n):
            raw = rows[r] >> shift & mask
            f = raw % p
            if f and r != col:
                rows[r] += (p - f) * pivot_row - (raw << shift)
    # the swaps made this the inverse of P M^T; undo P on the columns
    order = list(range(n))
    for col, piv in reversed(list(enumerate(swaps))):
        order[col], order[piv] = order[piv], order[col]
    return [[values[j] for j in order] for values in (_residues(row, n, nbytes, p) for row in rows)]


# Lehmer's steps in _reconstruct: the leading bits they work on, how far
# above the bound they stop, and the modulus length below which plain
# Euclid is faster (about 2,000 bits for 61-bit primes)
LEHMER_WORD = 62
LEHMER_MARGIN = 128
LEHMER_MIN_BITS = 2048


def _reconstruct(residue: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with n = d * residue mod modulus, |n| <= bound, 0 < d <= bound.

    Wang's half extended Euclid, which finds such a pair whenever one exists;
    None if it finds none.  With 2*bound**2 < modulus, every such pair has
    the same value n/d.

    On a long modulus the remainders are first brought down by Lehmer's
    algorithm (Knuth, TAOCP vol. 2, 4.5.2, Algorithm L): Euclid runs on the
    leading LEHMER_WORD bits of (r0, r1), a quotient is taken only when both
    ends of the interval that the leading bits leave give it, and the 2x2
    matrix of the quotients taken is applied to (r0, r1) and (t0, t1) at
    once.  So the pairs it reaches are some of the pairs Euclid reaches, and
    the stop must not be passed: Lehmer's steps end once r1 is within
    LEHMER_MARGIN bits of bound, and a batch that would bring r1 to bound or
    below is dropped, so that the plain steps find the first r1 <= bound.
    """
    r0, r1 = modulus, residue % modulus
    t0, t1 = 0, 1
    if modulus.bit_length() > LEHMER_MIN_BITS:
        stop = bound.bit_length() + LEHMER_MARGIN
        while r1.bit_length() > stop:
            shift = r0.bit_length() - LEHMER_WORD
            x, y = r0 >> shift, r1 >> shift
            a, b, c, d = 1, 0, 0, 1
            while y + c and y + d:
                q = (x + a) // (y + c)
                if q != (x + b) // (y + d):
                    break
                a, c = c, a - q * c
                b, d = d, b - q * d
                x, y = y, x - q * y
            if not b:  # not one quotient is certain: one full step
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                t0, t1 = t1, t0 - q * t1
                continue
            r2 = c * r0 + d * r1
            if r2 <= bound:
                break
            r0, r1 = a * r0 + b * r1, r2
            t0, t1 = a * t0 + b * t1, c * t0 + d * t1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not t1 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _rational_vector(
    residues: list[int], modulus: int, bound: int
) -> tuple[list[int], int] | None:
    """(numerators, d) with numerators / d = residues mod modulus, or None.

    One denominator is shared: each coordinate is first multiplied by the
    denominator found so far, and is reconstructed only if that product is
    not already a small integer.  The products are reduced by Barrett's
    method: once a denominator is found, one reciprocal of the modulus
    turns each long division into two products.
    """
    den = 1
    nums: list[int] = []
    half = modulus // 2
    k = modulus.bit_length()
    reciprocal = 0  # 4**k // modulus, once it is needed
    for x in residues:
        # y = den * x mod modulus; x is reduced and den <= bound, so den * x < 4**k
        y = x
        if den > 1:
            reciprocal = reciprocal or (1 << 2 * k) // modulus
            y = den * x
            y -= ((y >> k - 1) * reciprocal >> k + 1) * modulus  # leaves y < 3*modulus
            while y >= modulus:
                y -= modulus
        if y > half:
            y -= modulus
        if abs(y) <= bound:
            nums.append(y)
            continue
        found = _reconstruct(y, modulus, bound)
        if found is None:
            return None
        num, d = found
        den *= d
        if den > bound:
            return None
        nums = [v * d for v in nums]
        nums.append(num)
    return nums, den


def _fold(digits: list[list[int]], p: int) -> tuple[list[int], int]:
    """(sum of digits[i] * p**i, p**len(digits)) for a nonempty list of vectors.

    By binary splitting: the halves are folded first and joined by one
    product per coordinate, so the long multiplications are few and balanced.
    """
    if len(digits) == 1:
        return digits[0], p
    half = len(digits) // 2
    low, low_scale = _fold(digits[:half], p)
    high, high_scale = _fold(digits[half:], p)
    return [a + low_scale * b for a, b in zip(low, high)], low_scale * high_scale


# solve_lifted_scaled packs the rows of M in bands of about BAND_ROWS
# consecutive rows, each at the slot width of its own widest entry.  The
# search's rows widen with the power of z (at T=240, from 1 to 1,700 bits),
# so banded products read about half the bytes; on a few dozen rows one
# band is as fast.
BAND_ROWS = 40


def _band(rows: list[list[int]], rhs: list[int], p: int) -> tuple[list[int], int, int, int]:
    """(packed columns, row count, slot width, bias) of some rows of [M | b].

    |residue| stays <= reach = n*top + |b|, with top the rows' largest entry,
    and M times a digit vector adds < n*top*p; the residue's slots plus
    bias, a multiple of p in [reach, reach + p), are nonnegative and fit the
    same width.
    """
    n = len(rows[0])
    top = max(max(map(abs, row)) for row in rows)
    reach = n * top + max(map(abs, rhs))
    width = slot_bytes(max(map(abs, rhs)) + 2 * n * top * p)
    bias = _pack_residues([-(-reach // p) * p] * len(rows), width)
    return [pack(col, width) for col in zip(*rows)], len(rows), width, bias


def solve_lifted_scaled(matrix: list[list[int]], rhs: list[int], p: int) -> tuple[list[int], int]:
    """Solve M x = b exactly for a square integer M that is nonsingular mod p.

    Returns (numerators, d), with x = numerators / d and d > 0 a common
    denominator, so that a caller that rescales x makes each Fraction once.
    Raises ValueError if M is singular mod p.
    """
    n = len(matrix)
    if n == 0:
        return [], 1
    inverse = _inverse_columns(matrix, p)
    # Hadamard over the rows of [M | b] bounds |det M| and every Cramer
    # numerator by h with h**2 = h2; a modulus above 2*h2 fixes x uniquely
    h2 = 1
    for row, b in zip(matrix, rhs):
        h2 *= sum(a * a for a in row) + b * b
    nbands = max(1, n // BAND_ROWS)
    cuts = [n * k // nbands for k in range(nbands + 1)]
    bands = [_band(matrix[lo:hi], rhs[lo:hi], p) for lo, hi in zip(cuts, cuts[1:])]
    residues = [pack(rhs[lo:hi], width) for lo, hi, (_, _, width, _) in zip(cuts, cuts[1:], bands)]
    inv_width = slot_bytes(n * p * p)
    inv_cols = [_pack_residues(col, inv_width) for col in inverse]
    solution = [0] * n  # x mod modulus
    modulus = 1
    digits: list[list[int]] = []  # the digits of x past modulus, lowest first
    # reconstruct at steps 2, 3, 4, 6, 9, 13, ...: one try costs a few steps
    check_at = 2
    steps = 0
    lifted = 1  # p**steps
    while True:
        r = []
        for (_, size, width, bias), residue in zip(bands, residues):
            r += _residues(residue + bias, size, width, p)
        digit = _residues(_combine(inv_cols, r), n, inv_width, p)
        residues = [
            (residue - _combine(cols, digit)) // p
            for (cols, *_), residue in zip(bands, residues)
        ]
        digits.append(digit)
        lifted *= p
        steps += 1
        final = lifted > 2 * h2
        if steps < check_at and not final:
            continue
        check_at += check_at // 2
        high, _ = _fold(digits, p)
        solution = [s + modulus * d for s, d in zip(solution, high)]
        modulus = lifted
        digits = []
        found = _rational_vector(solution, modulus, isqrt(modulus // 2))
        if found is not None:
            nums, den = found
            if all(
                sum(a * v for a, v in zip(row, nums)) == den * b
                for row, b in zip(matrix, rhs)
            ):
                return nums, den
        if final:
            raise InternalConsistencyError(
                "p-adic solution has no rational reconstruction at the Hadamard bound"
            )
