"""Truncated q-expansions over exact rationals.

A :class:`QSeries` knows its first ``prec`` coefficients (indices
0..prec-1) and nothing beyond; binary operations truncate to the shorter
operand so that no coefficient is ever fabricated.

The coefficients are kept as integer numerators ``num`` over one positive
denominator ``den`` with ``gcd(den, *num) == 1``, so each series has exactly
one representation and equality and hashing compare plain tuples.  Every
ring operation works on the integers; ``Rat`` values appear only at the
edge, in the constructor, ``coeffs`` and ``series[n]``.
"""

from __future__ import annotations

from math import gcd, lcm

from ._kernels import _MAX_PREC
from .arith import ONE, ZERO, Rat, as_rat, integer_vector, rat_str


def check_prec(prec: int) -> None:
    """Refuse a precision that would leave no known coefficient or exceed the table limit."""
    if prec < 1:
        raise ValueError(f"precision must be at least 1, got {prec}")
    if prec > _MAX_PREC:
        raise ValueError(f"precision is limited to {_MAX_PREC}, got {prec}")


class QSeries:
    """Truncated power series in q with exact rational coefficients num[n] / den."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs):
        num, den = integer_vector([as_rat(c) for c in coeffs])
        if not num:
            raise ValueError("a q-series needs at least one known coefficient")
        self.num, self.den = tuple(num), den

    @classmethod
    def _from_ints(cls, num, den: int = 1) -> "QSeries":
        """The series num[n] / den, for integers num and a positive integer den, in lowest terms."""
        if not num:
            raise ValueError("a q-series needs at least one known coefficient")
        g = gcd(den, *num)
        self = object.__new__(cls)
        self.num = tuple(num) if g == 1 else tuple(x // g for x in num)
        self.den = den // g
        return self

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, value, prec: int) -> "QSeries":
        check_prec(prec)
        c = as_rat(value)
        return cls._from_ints((c.numerator,) + (0,) * (prec - 1), c.denominator)

    @classmethod
    def zero(cls, prec: int) -> "QSeries":
        return cls.constant(ZERO, prec)

    @classmethod
    def one(cls, prec: int) -> "QSeries":
        return cls.constant(ONE, prec)

    # -- basic protocol ------------------------------------------------------

    @property
    def prec(self) -> int:
        return len(self.num)

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        d = self.den
        return tuple(Rat(x, d) for x in self.num)

    def __getitem__(self, n: int) -> Rat:
        if n < 0:
            raise IndexError(f"series index must be >= 0, got {n}")
        return Rat(self.num[n], self.den)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QSeries) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        head = ", ".join(rat_str(Rat(x, self.den)) for x in self.num[:6])
        tail = ", ..." if self.prec > 6 else ""
        return f"QSeries(prec={self.prec}; {head}{tail})"

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- ring operations (result precision = min of operands) ----------------

    def _combine(self, other: "QSeries", sign: int) -> "QSeries":
        """self + sign * other over the lcm of the two denominators."""
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, sign * (d // other.den)
        return QSeries._from_ints([x * fa + y * fb for x, y in zip(self.num, other.num)], d)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "QSeries":
        return QSeries._from_ints([-x for x in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return QSeries._from_ints(_kronecker_product(self.num, other.num), self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "QSeries":
        c = as_rat(c)
        p = c.numerator
        return QSeries._from_ints([p * x for x in self.num], self.den * c.denominator)

    def __pow__(self, e: int) -> "QSeries":
        if not isinstance(e, int) or e < 0:
            raise ValueError("series powers take integer exponents >= 0")
        if e == 0:
            return QSeries.one(self.prec)
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    # -- the operator D = q d/dq ---------------------------------------------

    def derive(self, j: int = 1) -> "QSeries":
        """Apply D^j: coefficient n is multiplied by n^j."""
        if j < 0:
            raise ValueError("derivative order must be >= 0")
        if j == 0:
            return self
        return QSeries._from_ints([x * n**j for n, x in enumerate(self.num)], self.den)

    def shift(self, n_up: int) -> "QSeries":
        """Multiply by q^N.  All input coefficients remain known, so the
        result carries prec + N coefficients."""
        if n_up < 0:
            raise ValueError("shift must be >= 0")
        if n_up == 0:
            return self
        return QSeries._from_ints((0,) * n_up + self.num, self.den)

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise ValueError(f"cannot extend precision {self.prec} to {prec}")
        return QSeries._from_ints(self.num[:prec], self.den)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        import json

        return json.dumps({"prec": self.prec, "coeffs": [rat_str(c) for c in self.coeffs]})

    @classmethod
    def from_json(cls, text: str) -> "QSeries":
        import json

        data = json.loads(text)
        coeffs = [as_rat(c) for c in data["coeffs"]]
        if data.get("prec") != len(coeffs):
            raise ValueError("declared prec disagrees with coefficient count")
        return cls(coeffs)


def linear_combination(terms, value, prec: int) -> QSeries:
    """sum_t c_t value(x_t) over the pairs (c_t, x_t) of ``terms``, to the shortest value's length.

    A term with c_t = 0 is skipped before ``value`` is called; when no term is
    left the sum is the zero series to ``prec``.  Each kept term's numerators
    are scaled onto the lcm of the terms' denominators and summed, so the sum
    is brought to lowest terms once.
    """
    kept = [(as_rat(c), value(x)) for c, x in terms if c]
    if not kept:
        return QSeries.zero(prec)
    den = lcm(*(c.denominator * s.den for c, s in kept))
    total = None
    for c, s in kept:
        f = c.numerator * (den // (c.denominator * s.den))
        total = [f * x for x in s.num] if total is None else [t + f * x for t, x in zip(total, s.num)]
    return QSeries._from_ints(total, den)


def _kronecker_product(va, vb) -> list[int]:
    """The first n = min(len(va), len(vb)) coefficients of the product of two integer vectors.

    Each operand is packed into one integer (Kronecker substitution), so the
    product is one big-integer multiply.  A slot of K bits (whole bytes)
    holds a signed coefficient of the result: |c_k| <= n max|a_i| max|b_j| <
    2^(K-1), so also every operand entry.  An operand is packed in one pass
    as the slots x + 2^(K-1) less that offset packed once, and a square packs
    its operand once; the offset added to the product makes its low n slots
    nonnegative, so they unpack without borrows.
    """
    n = min(len(va), len(vb))
    va, vb = va[:n], vb[:n]
    bits = max(map(abs, va)).bit_length() + max(map(abs, vb)).bit_length()
    slot = (bits + n.bit_length() + 2 + 7) // 8
    half = 1 << (8 * slot - 1)
    offset = int.from_bytes(half.to_bytes(slot, "little") * n, "little")

    def pack(vec) -> int:
        return int.from_bytes(b"".join([(x + half).to_bytes(slot, "little") for x in vec]), "little") - offset

    a = pack(va)
    low = ((a * a if va == vb else a * pack(vb)) + offset) & ((1 << (8 * slot * n)) - 1)
    raw = low.to_bytes(slot * n, "little")
    return [int.from_bytes(raw[i : i + slot], "little") - half for i in range(0, slot * n, slot)]
