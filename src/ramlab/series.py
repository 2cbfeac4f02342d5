"""Truncated formal power series in z over exact rationals.

A series carries coefficients for z^0 .. z^P and nothing beyond; P is the
precision.  Arithmetic results carry the minimum precision of the operands,
so a coefficient is stored only if it is actually known.

A product of two series is one exact big-integer multiply (Kronecker
substitution; Harvey, J. Symbolic Comput. 2009).  Each operand is scaled to
integer numerators by the lcm of its denominators and packed into one
integer (`pack`), coefficient n in slot n, each slot a whole number of
bytes.  The width is chosen so that every signed coefficient of the product
fits in its slot, so the low P+1 slots of the integer product are read back
exactly (`unpack`); the result is those integers over the product of the
two denominators.  `_linalg` packs its vectors with the same functions, so a
sum of multiples of them is one big-integer operation too.  No floating
point.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Record, integer_numerators, positive_power

__all__ = ["Order", "TruncatedSeries", "slot_bytes", "pack", "unpack"]


def slot_bytes(bound: int) -> int:
    """Whole bytes per slot so that every value with |x| <= bound fits signed."""
    return bound.bit_length() // 8 + 1


def pack(values: Sequence[int], nbytes: int) -> int:
    """sum(x * 256**(nbytes*i) for i, x in enumerate(values)), each x fitting signed."""
    pos = b"".join((x if x > 0 else 0).to_bytes(nbytes, "little") for x in values)
    neg = b"".join((-x if x < 0 else 0).to_bytes(nbytes, "little") for x in values)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def unpack(packed: int, n: int, nbytes: int) -> list[int]:
    """The low n signed slot values of a packed integer (the inverse of pack)."""
    # the low slots are kept with a mask: % would be a long division
    raw = (packed & (1 << 8 * nbytes * n) - 1).to_bytes(nbytes * n, "little")
    out = []
    borrow = 0
    for start in range(0, len(raw), nbytes):
        s = int.from_bytes(raw[start : start + nbytes], "little", signed=True)
        out.append(s + borrow)
        # a negative slot borrowed one unit from the slot above it
        borrow = s < 0
    return out


class Order(Record):
    """Order of vanishing at z = 0, possibly censored by the truncation.

    ``Finite(t)``: the coefficient of z^t is nonzero and all lower ones
    vanish.  ``AtLeast(b)``: every stored coefficient is zero, so the order
    is at least b (= precision + 1).
    """

    is_finite: bool
    value: int

    @classmethod
    def finite(cls, t: int) -> "Order":
        return cls(True, t)

    @classmethod
    def at_least(cls, bound: int) -> "Order":
        return cls(False, bound)

    def __str__(self) -> str:
        return str(self.value) if self.is_finite else f">={self.value}"


class TruncatedSeries:
    """Exact power series truncation; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction]):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a series stores at least the constant term")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def _of(cls, coeffs: tuple[Fraction, ...]) -> "TruncatedSeries":
        """A series over a nonempty tuple of Fractions, stored as it is.

        For results that are Fractions already: the public constructor would
        pass every coefficient through Fraction() again.
        """
        series = object.__new__(cls)
        object.__setattr__(series, "coeffs", coeffs)
        return series

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        return TruncatedSeries, (self.coeffs,)

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, precision: int) -> "TruncatedSeries":
        return cls([Fraction(0)] * (precision + 1))

    @classmethod
    def constant(cls, c: int | Fraction, precision: int) -> "TruncatedSeries":
        coeffs = [Fraction(0)] * (precision + 1)
        coeffs[0] = Fraction(c)
        return cls(coeffs)

    @classmethod
    def z(cls, precision: int) -> "TruncatedSeries":
        coeffs = [Fraction(0)] * (precision + 1)
        if precision >= 1:
            coeffs[1] = Fraction(1)
        return cls(coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._of(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._of(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of(tuple(-c for c in self.coeffs))

    def scale(self, c: int | Fraction) -> "TruncatedSeries":
        c = Fraction(c)
        return TruncatedSeries._of(tuple(c * x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        p = min(self.precision, other.precision)
        da, a = integer_numerators(self.coeffs[: p + 1])
        db, b = integer_numerators(other.coeffs[: p + 1])
        # every product coefficient is a sum of at most p+1 terms a_i*b_j
        bound = (p + 1) * max(map(abs, a)) * max(map(abs, b))
        if not bound:  # a zero operand; the slots below would not fit the other
            return TruncatedSeries.zero(p)
        nbytes = slot_bytes(bound)
        low = unpack(pack(a, nbytes) * pack(b, nbytes), p + 1, nbytes)
        den = da * db
        return TruncatedSeries._of(tuple(Fraction(n, den) for n in low))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "TruncatedSeries":
        """Square-and-multiply: at most 2*floor(log2 e) products."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return TruncatedSeries.constant(1, self.precision)
        return positive_power(self, e)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by z^k at the same precision: no series product, and no slot past it."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        k = min(k, len(self.coeffs))
        return TruncatedSeries._of((Fraction(0),) * k + self.coeffs[: len(self.coeffs) - k])

    def order(self) -> Order:
        for n, c in enumerate(self.coeffs):
            if c != 0:
                return Order.finite(n)
        return Order.at_least(self.precision + 1)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.precision > 5 else ""
        return f"TruncatedSeries([{head}{tail}]; precision={self.precision})"
