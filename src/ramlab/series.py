"""Truncated formal power series in z over exact rationals.

A series carries coefficients for z^0 .. z^P and nothing beyond; P is the
precision.  Arithmetic results carry the minimum precision of the operands,
so a coefficient is stored only if it is actually known.

A product of two series is one exact big-integer multiply (Kronecker
substitution; Harvey, J. Symbolic Comput. 2009).  Each operand is scaled to
integer numerators by the lcm of its denominators and packed into one
integer, coefficient n in slot n of a fixed bit width.  The width is chosen
so that every signed coefficient of the product fits in its slot, so the low
P+1 slots of the integer product are read back exactly; the result is those
integers over the product of the two denominators.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Record, integer_numerators, pack, positive_power, slot_bytes, unpack

__all__ = ["Order", "TruncatedSeries"]


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
        """Multiply by z^k at the same precision, with no series product."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TruncatedSeries._of(((Fraction(0),) * k + self.coeffs)[: self.precision + 1])

    def order(self) -> Order:
        for n, c in enumerate(self.coeffs):
            if c != 0:
                return Order.finite(n)
        return Order.at_least(self.precision + 1)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.precision > 5 else ""
        return f"TruncatedSeries([{head}{tail}]; precision={self.precision})"
