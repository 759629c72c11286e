"""Exact number substrate: rationals, Bernoulli numbers, combinatorics, big floats.

``Rat`` is ``fractions.Fraction``: values in lowest terms with a positive
denominator.

Big floats are mpmath values at an explicit binary precision; they appear
only in the L-series layer.

:class:`Record` is the base of the package's immutable value records.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)

DEFAULT_PREC_BITS = 256


class Record:
    """An immutable record whose fields are the annotated names of its class body.

    ``Point(1, y=2)`` binds arguments to the fields in order, a field left out
    takes its class-level default, and ``__post_init__`` runs last (it may set
    a field with ``object.__setattr__``).  Two records are equal, and hash
    alike, when they are of the same class and their fields are equal, leaving
    out the fields named in ``_nocompare``.  Assigning or deleting an
    attribute raises ``AttributeError``.  The methods are shared by every
    record class, so defining one generates no code.
    """

    _fields: tuple[str, ...] = ()
    _nocompare: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(n for n in cls.__annotations__ if n not in cls._fields)
        cls._compared = tuple(n for n in cls._fields if n not in cls._nocompare)
        cls._defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The value of every field, from the arguments and the class-level defaults."""
        names = cls._fields
        rest = names[len(args) :]
        try:
            values = [*args, *[kwargs[n] if n in kwargs else cls._defaults[n] for n in rest]]
        except KeyError as exc:
            raise TypeError(f"{cls.__name__}() missing argument {exc}") from None
        if len(values) != len(names) or len(kwargs) != sum(n in kwargs for n in rest):
            given = ", ".join([*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())])
            raise TypeError(f"{cls.__name__}({', '.join(names)}) cannot take ({given})")
        return values

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def as_rat(x) -> Rat:
    """Coerce ints, strings ("p/q") and foreign rationals to Rat; floats are refused."""
    if isinstance(x, Rat):
        return x
    if isinstance(x, (int, str)):
        return Rat(x)
    if hasattr(x, "numerator") and hasattr(x, "denominator"):
        return Rat(int(x.numerator), int(x.denominator))
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


def rat_str(x) -> str:
    """Exact "p/q" (or "p") decimal string."""
    r = as_rat(x)
    return str(r)


def integer_vector(coeffs) -> tuple[list[int], int]:
    """Integers v and a denominator d with coeffs[i] == v[i] / d, d the lcm of the denominators.

    For coefficients in lowest terms gcd(d, *v) == 1: a prime dividing d
    divides some denominator to its full power in d, and that numerator not at all.
    """
    dens = [c.denominator for c in coeffs]
    d = lcm(*dens)
    return [c.numerator * (d // e) for c, e in zip(coeffs, dens)], d


def bernoulli(k: int) -> Rat:
    """k-th Bernoulli number (B1 = -1/2 convention), for even k.

    This is the convention under which the weight-k Eisenstein series is
    1 - (2k/B_k) * sum sigma_{k-1}(n) q^n; in particular B2 = 1/6 gives
    the coefficient -24 in weight 2.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if k % 2 == 1:
        raise ValueError("odd-index Bernoulli")
    b = [ONE]
    for n in range(1, k + 1):
        # sum_{j=0}^{n} C(n+1, j) B_j = 0
        b.append(Rat(-1, n + 1) * sum(comb(n + 1, j) * b[j] for j in range(n)))
    return b[k]


def binomial(n: int, k: int) -> int:
    """C(n, k); zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def pochhammer(a: int, m: int) -> int:
    """Rising factorial a (a+1) ... (a+m-1); empty product is 1."""
    if m < 0:
        raise ValueError("pochhammer length must be nonnegative")
    out = 1
    for i in range(m):
        out *= a + i
    return out


# ---------------------------------------------------------------------------
# Exact dense linear algebra (small systems only).


def _bareiss(a: list[list[int]]) -> list[int]:
    """Fraction-free row echelon form of an integer matrix, in place; returns the pivot columns.

    Bareiss (Math. Comp. 22, 1968): after s pivots every entry below them is
    an (s+1)-minor of the input, so each division by the previous pivot is
    exact and no rational appears.
    """
    pivots: list[int] = []
    prev = 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][col]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        top, p = a[r], a[r][col]
        for row in a[r + 1 :]:
            f = row[col]
            row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], top[col:])]
        prev = p
        pivots.append(col)
    return pivots


class InconsistentSystem(ValueError):
    pass


def _integer_column(col) -> tuple:
    """Integers and one denominator for a column: a q-series' own, or a rational sequence's."""
    if hasattr(col, "den"):
        return col.num, col.den
    return integer_vector([as_rat(x) for x in col])


def solve_exact(columns: list, target) -> list:
    """Exact coefficients x with sum_j x[j] * columns[j] == target.

    A column (and the target) is a sequence of rationals, or an object that
    carries integer numerators ``num`` over one positive denominator ``den``,
    such as a ``QSeries``; the latter is used as it is, with no rational per
    entry.  All rows of the (possibly overdetermined) system must be
    satisfied exactly, otherwise :class:`InconsistentSystem` is raised.
    Columns must be linearly independent.

    Elimination runs on a window of leading rows, 2k+2 at first and doubled
    until the columns reach rank k or the window covers every row; the
    solution is then checked on every row.
    """
    k = len(columns)
    ints, dens = zip(*map(_integer_column, (*columns, target)))
    nrows = len(ints[k])
    big = lcm(*dens)
    scales = [big // d for d in dens]
    window = 2 * k + 2
    while True:
        rows = min(window, nrows)
        # Every column over the one denominator big: row i reads sum_j x_j a[i][j] == a[i][k].
        a = [[ints[j][i] * scales[j] for j in range(k + 1)] for i in range(rows)]
        pivots = _bareiss(a)
        if k in pivots:
            raise InconsistentSystem("target not in span")
        if len(pivots) == k or rows == nrows:
            break
        window *= 2
    if len(pivots) < k:
        raise ValueError("columns are linearly dependent")
    # Back substitution on the k pivot rows in integers: by Cramer's rule
    # y_j = det x_j is an integer, det being the last pivot (the minor of those rows).
    det = a[k - 1][k - 1] if k else 1
    y = [0] * k
    for j in reversed(range(k)):
        y[j] = (det * a[j][k] - sum(a[j][l] * y[l] for l in range(j + 1, k))) // a[j][j]
    sol = [Rat(v, det) for v in y]
    # Check every row in integers.  Column j is C_j / d_j, the target T / d_t
    # and the solution w / s; over L = lcm(d_j, d_t) each row reads
    # sum_j (w_j L/d_j) C_j[i] == (s L/d_t) T[i].
    s = lcm(*(x.denominator for x in sol))
    weights = [x.numerator * (s // x.denominator) * f for x, f in zip(sol, scales)]
    residual = [s * scales[k] * t for t in ints[k]]
    for w, col in zip(weights, ints):
        residual = [r - w * c for r, c in zip(residual, col)]
    for i, r in enumerate(residual):
        if r:
            raise InconsistentSystem(f"residual at row {i}")
    return sol


# ---------------------------------------------------------------------------
# Big floats.


def mpf_str(x, digits: int = 25) -> str:
    """Decimal string with an explicit digit count."""
    import mpmath

    return mpmath.nstr(x, digits)
