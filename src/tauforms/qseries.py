"""Truncated q-expansions over exact rationals.

A :class:`QSeries` knows its first ``prec`` coefficients (indices
0..prec-1) and nothing beyond; binary operations truncate to the shorter
operand so that no coefficient is ever fabricated.
"""

from __future__ import annotations

import json
from math import lcm

from ._kernels import _MAX_PREC
from .arith import ONE, ZERO, Rat, as_rat, rat_str


def check_prec(prec: int) -> None:
    """Refuse a precision that would leave no known coefficient or exceed the table limit."""
    if prec < 1:
        raise ValueError(f"precision must be at least 1, got {prec}")
    if prec > _MAX_PREC:
        raise ValueError(f"precision is limited to {_MAX_PREC}, got {prec}")


class QSeries:
    """Truncated power series in q with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(as_rat(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a q-series needs at least one known coefficient")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, value, prec: int) -> "QSeries":
        check_prec(prec)
        return cls((as_rat(value),) + (ZERO,) * (prec - 1))

    @classmethod
    def zero(cls, prec: int) -> "QSeries":
        return cls.constant(ZERO, prec)

    @classmethod
    def one(cls, prec: int) -> "QSeries":
        return cls.constant(ONE, prec)

    # -- basic protocol ------------------------------------------------------

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> Rat:
        return self.coeffs[n]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(rat_str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.prec > 6 else ""
        return f"QSeries(prec={self.prec}; {head}{tail})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- ring operations (result precision = min of operands) ----------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.prec, other.prec)
        return QSeries([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.prec, other.prec)
        return QSeries([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return QSeries(_kronecker_product(self.coeffs, other.coeffs))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "QSeries":
        c = as_rat(c)
        return QSeries([c * x for x in self.coeffs])

    def __pow__(self, e: int) -> "QSeries":
        if not isinstance(e, int) or e < 0:
            raise ValueError("series powers take integer exponents >= 0")
        result = QSeries.one(self.prec)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- the operator D = q d/dq ---------------------------------------------

    def derive(self, j: int = 1) -> "QSeries":
        """Apply D^j: coefficient n is multiplied by n^j."""
        if j < 0:
            raise ValueError("derivative order must be >= 0")
        if j == 0:
            return self
        return QSeries([c * Rat(n) ** j for n, c in enumerate(self.coeffs)])

    def shift(self, n_up: int) -> "QSeries":
        """Multiply by q^N.  All input coefficients remain known, so the
        result carries prec + N coefficients."""
        if n_up < 0:
            raise ValueError("shift must be >= 0")
        if n_up == 0:
            return self
        return QSeries((ZERO,) * n_up + self.coeffs)

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise ValueError(f"cannot extend precision {self.prec} to {prec}")
        return QSeries(self.coeffs[:prec])

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"prec": self.prec, "coeffs": [rat_str(c) for c in self.coeffs]})

    @classmethod
    def from_json(cls, text: str) -> "QSeries":
        data = json.loads(text)
        coeffs = [as_rat(c) for c in data["coeffs"]]
        if data.get("prec") != len(coeffs):
            raise ValueError("declared prec disagrees with coefficient count")
        return cls(coeffs)


def _integer_vector(coeffs) -> tuple[list[int], int]:
    """Integers v and a denominator d with coeffs[i] == v[i] / d, d the lcm of the denominators."""
    dens = [c.denominator for c in coeffs]
    d = lcm(*dens)
    return [c.numerator * (d // e) for c, e in zip(coeffs, dens)], d


def _pack(vec: list[int], slot_bytes: int) -> int:
    """sum vec[i] 2^(8 slot_bytes i) for signed vec[i], each of magnitude below the slot."""
    pos = b"".join((x if x > 0 else 0).to_bytes(slot_bytes, "little") for x in vec)
    neg = b"".join((-x if x < 0 else 0).to_bytes(slot_bytes, "little") for x in vec)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_product(a, b) -> list[Rat]:
    """The first min(len(a), len(b)) coefficients of the product of two series.

    Both operands go over a common denominator and are packed into one
    integer each (Kronecker substitution), so the product is one big-integer
    multiply.  A slot of K bits (whole bytes) holds a signed coefficient of
    the result: |c_k| <= n max|a_i| max|b_j| < 2^(K-1).  Adding 2^(K-1) to every one of
    the low n slots makes them nonnegative, so they unpack without borrows.
    """
    n = min(len(a), len(b))
    va, da = _integer_vector(a[:n])
    vb, db = _integer_vector(b[:n])
    bits = max(abs(x) for x in va).bit_length() + max(abs(x) for x in vb).bit_length()
    slot = (bits + n.bit_length() + 2 + 7) // 8
    half = 1 << (8 * slot - 1)
    offset = int.from_bytes(half.to_bytes(slot, "little") * n, "little")
    low = (_pack(va, slot) * _pack(vb, slot) + offset) & ((1 << (8 * slot * n)) - 1)
    raw = low.to_bytes(slot * n, "little")
    den = da * db
    return [
        Rat(int.from_bytes(raw[i : i + slot], "little") - half, den) for i in range(0, slot * n, slot)
    ]
