"""Exact number substrate: rationals, Bernoulli numbers, combinatorics, big floats.

``Rat`` is ``fractions.Fraction``: values in lowest terms with a positive
denominator.

Big floats are mpmath values at an explicit binary precision; they appear
only in the L-series layer.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

from mpmath import mp
from mpmath.libmp import from_rational

Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)

DEFAULT_PREC_BITS = 256


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


def parse_rat(s: str) -> Rat:
    return Rat(s.strip())


def is_integral(x) -> bool:
    return as_rat(x).denominator == 1


_bernoulli_cache: list = [ONE]
_bernoulli_lock = threading.Lock()


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
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= k:
            n = len(_bernoulli_cache)
            # sum_{j=0}^{n} C(n+1, j) B_j = 0
            s = sum(comb(n + 1, j) * _bernoulli_cache[j] for j in range(n))
            _bernoulli_cache.append(Rat(-1, n + 1) * s)
        return _bernoulli_cache[k]


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


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form over Rat; returns (matrix, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    piv = 0
    pivots = []
    for col in range(ncols):
        if piv >= len(rows):
            break
        r = next((i for i in range(piv, len(rows)) if rows[i][col] != 0), None)
        if r is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        inv = ONE / rows[piv][col]
        rows[piv] = [x * inv for x in rows[piv]]
        for i in range(len(rows)):
            if i != piv and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[piv])]
        pivots.append(col)
        piv += 1
    return rows, pivots


class InconsistentSystem(ValueError):
    pass


def solve_exact(columns: list[list], target: list) -> list:
    """Exact coefficients x with sum_j x[j] * columns[j] == target.

    All rows of the (possibly overdetermined) system must be satisfied
    exactly, otherwise :class:`InconsistentSystem` is raised.  Columns must
    be linearly independent.

    Elimination runs on a window of leading rows, 2k+2 at first and doubled
    until the columns reach rank k or the window covers every row; the
    solution is then checked on every row.
    """
    k = len(columns)
    nrows = len(target)
    window = 2 * k + 2
    while True:
        rows = min(window, nrows)
        aug = [[as_rat(columns[j][i]) for j in range(k)] + [as_rat(target[i])] for i in range(rows)]
        aug, pivots = rref(aug)
        if k in pivots:
            raise InconsistentSystem("target not in span")
        if len(pivots) == k or rows == nrows:
            break
        window *= 2
    if len(pivots) < k:
        raise ValueError("columns are linearly dependent")
    sol = [ZERO] * k
    for i, col in enumerate(pivots):
        sol[col] = aug[i][k]
    for i in range(nrows):
        if sum(columns[j][i] * sol[j] for j in range(k)) != target[i]:
            raise InconsistentSystem(f"residual at row {i}")
    return sol


# ---------------------------------------------------------------------------
# Big floats.


def rat_to_mpf(x, prec_bits: int = DEFAULT_PREC_BITS):
    """Rat -> mpf with a single round-to-nearest at prec_bits."""
    r = as_rat(x)
    with mp.workprec(prec_bits):
        return mp.make_mpf(from_rational(int(r.numerator), int(r.denominator), prec_bits, "n"))


def mpf_str(x, digits: int = 25) -> str:
    """Decimal string with an explicit digit count."""
    import mpmath

    return mpmath.nstr(x, digits)
