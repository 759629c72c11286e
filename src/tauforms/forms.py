"""Classical level-1 modular forms and exact decomposition in the monomial basis.

The basis of weight k is the set of monomials E4^a E6^b with 4a+6b = k;
``in_basis`` solves for the coordinates of a form on its first dim(M_k)
coefficients and then checks every remaining known coefficient, so a
successful decomposition doubles as a modularity certificate at the
truncation level.
"""

from __future__ import annotations

import threading
from functools import cache

import numpy as np

from . import _kernels
from .arith import ZERO, InconsistentSystem, Rat, Record, as_rat, bernoulli, rat_str, solve_exact
from .qseries import QSeries, check_prec, linear_combination

def sigma(a: int, n: int) -> int:
    """Divisor power sum over d | n."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    if a < 1:
        raise ValueError("sigma exponent must be positive")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**a
            e = n // d
            if e != d:
                total += e**a
        d += 1
    return total


def sigma_sieve(a: int, nmax: int) -> list[int]:
    """[0, sigma_a(1), ..., sigma_a(nmax)] from one divisor sieve, in Python ints.

    Exact for every a, where the int64 kernel ``_kernels.sigma_range``
    overflows (sigma_11 already does).
    """
    out = [0] * (nmax + 1)
    for d in range(1, nmax + 1):
        p = d**a
        for n in range(d, nmax + 1, d):
            out[n] += p
    return out


class NotModularError(ValueError):
    """Raised when a series fails to decompose in the modular basis."""


class Form(Record):
    """A q-series tagged with its weight.

    ``quasimodular`` marks the ring generated by E2: such objects may be
    multiplied and differentiated but are rejected by every operation that
    requires honest modularity.
    """

    weight: int
    series: QSeries
    is_cusp: bool = False
    quasimodular: bool = False

    def __post_init__(self):
        if self.weight < 0 or self.weight % 2:
            raise ValueError(f"weight must be a nonnegative even integer, got {self.weight}")
        if self.weight == 2 and not self.quasimodular:
            raise ValueError("weight 2 carries no modular forms; only quasimodular E2 lives there")
        if self.is_cusp and self.series[0] != 0:
            raise ValueError("cusp forms have vanishing constant term")

    @property
    def prec(self) -> int:
        return self.series.prec

    def __getitem__(self, n: int) -> Rat:
        return self.series[n]

    def __add__(self, other: "Form") -> "Form":
        if self.weight != other.weight:
            raise ValueError(f"weight mismatch {self.weight} vs {other.weight}")
        return Form(
            self.weight,
            self.series + other.series,
            is_cusp=self.is_cusp and other.is_cusp,
            quasimodular=self.quasimodular or other.quasimodular,
        )

    def __sub__(self, other: "Form") -> "Form":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, Form):
            return Form(
                self.weight + other.weight,
                self.series * other.series,
                is_cusp=self.is_cusp or other.is_cusp,
                quasimodular=self.quasimodular or other.quasimodular,
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Form":
        c = as_rat(c)
        return Form(
            self.weight,
            self.series.scale(c),
            is_cusp=self.is_cusp or c == 0,
            quasimodular=self.quasimodular,
        )

    def __pow__(self, e: int) -> "Form":
        if e < 0:
            raise ValueError("negative powers are not supported")
        return Form(
            self.weight * e,
            self.series**e,
            is_cusp=self.is_cusp and e > 0,
            quasimodular=self.quasimodular and e > 0,
        )

    def derive(self, j: int = 1) -> "Form":
        """D^j of the series; the result is quasimodular of weight + 2j."""
        if j == 0:
            return self
        return Form(self.weight + 2 * j, self.series.derive(j), is_cusp=False, quasimodular=True)


def eisenstein(k: int, prec: int) -> Form:
    """Normalized weight-k Eisenstein series 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if k % 2 or k < 4:
        raise ValueError(f"Eisenstein weight must be even and >= 4 (for weight 2 use e2), got {k}")
    return Form(k, _eisenstein_series(k, prec))


def e2(prec: int) -> Form:
    """The quasimodular series of weight 2: 1 - 24 sum sigma_1(n) q^n."""
    return Form(2, _eisenstein_series(2, prec), quasimodular=True)


def _eisenstein_series(k: int, prec: int) -> QSeries:
    """The stored E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n for even k >= 2 (B_2 = 1/6 gives E2's -24)."""

    def build(p: int) -> QSeries:
        c = Rat(-2 * k) / bernoulli(k)
        sig = sigma_sieve(k - 1, p - 1)
        return QSeries._from_ints([c.denominator] + [c.numerator * x for x in sig[1:]], c.denominator)

    return _series(("E", k, 1), prec, build)


def sigma_from_eisenstein(a: int, nmax: int) -> list[int]:
    """[0, sigma_a(1), ..., sigma_a(nmax)] for odd a >= 1, read from the stored
    E_{a+1} (E2 for a = 1), whose q^n coefficient is sigma_a(n) times its q^1
    coefficient; no sieve runs when that series is already long enough."""
    series = _eisenstein_series(a + 1, max(nmax, 1) + 1)
    c = series.num[1]
    return [0] + [x // c for x in series.num[1 : nmax + 1]]


def one(prec: int) -> Form:
    """The constant 1 as the weight-0 form."""
    return Form(0, QSeries.one(prec))


def delta_series(prec: int) -> QSeries:
    """q-expansion of the discriminant q prod(1-q^n)^24, read from the shared tau table."""
    if prec < 2:
        raise ValueError("delta needs precision >= 2 to see its leading term")
    check_prec(prec)
    return QSeries._from_ints(tau_table(prec - 1))


def delta(prec: int) -> Form:
    """The discriminant cusp form of weight 12."""
    return Form(12, delta_series(prec), is_cusp=True)


# ---------------------------------------------------------------------------
# The one store, each entry indexed by n on its last axis: the two int64 words
# of tau as a 2 x (n + 1) array under "tau words", sigma_a as an int64 array
# under ("sigma", a), the limbs of the L-series weights under ("weights", s, G),
# one guard G per s, and the exact q-series E_k^r under ("E", k, r): E_k for
# every even k >= 2, and the powers of E2, E4 and E6 (``_power``).  ``_table``
# holds the one growth rule.  The lock is reentrant because some entries are
# built under it from others: a weight table from the tau words, a power from
# a lower one.

_tables_lock = threading.RLock()
_tables: dict[object, np.ndarray | QSeries] = {}


def _grow(key, nmax: int) -> int | None:
    """None when the stored table ``key`` reaches index nmax, else the index its build reaches.

    The first build is exact; a rebuild takes at least 1.5x the old length
    (within the kernel's limit), so a loop over growing nmax builds O(log)
    tables rather than one per step.  Called under the lock.
    """
    table = _tables.get(key)
    size = 0 if table is None else table.prec if isinstance(table, QSeries) else table.shape[-1]
    return None if size > nmax else max(nmax, min(size * 3 // 2, _kernels._MAX_PREC))


def _table(key, nmax: int, build, family: tuple = ()):
    """The table ``key`` up to at least index nmax, from ``build(n)`` when too short (see ``_grow``);
    a build first drops the other entries whose keys start with ``family``, a prefix of ``key``."""
    if nmax < 0:
        raise ValueError(f"table size must be >= 0, got {nmax}")
    with _tables_lock:
        n = _grow(key, nmax)
        if n is not None:
            for old in [k for k in _tables if family and k[: len(family)] == family and k != key]:
                del _tables[old]
            _tables[key] = build(n)
        return _tables[key]


def _series(key, prec: int, build) -> QSeries:
    """The stored series ``key`` to prec coefficients; ``build(p)`` makes it to
    p >= prec coefficients (at most ``_MAX_PREC``) when the stored one is shorter."""
    check_prec(prec)
    stored = _table(key, prec - 1, lambda n: build(min(n + 1, _kernels._MAX_PREC)))
    return stored if stored.prec == prec else stored.truncate(prec)


def _power(k: int, r: int, prec: int) -> QSeries:
    """E_k^r to prec coefficients, for r >= 0 and k in (2, 4, 6).

    Each power r >= 2 is the store entry ("E", k, r), made as E_k^(r-1) E_k
    at the length p that ``_grow`` gives it.  The walk down stops at the
    first power that is long enough, and the powers above it are built
    bottom-up, so the call depth does not grow with r.
    """
    if r == 0:
        return QSeries.one(prec)
    check_prec(prec)
    with _tables_lock:
        lengths, need = [], prec
        for j in range(r, 1, -1):
            n = _grow(("E", k, j), need - 1)
            if n is None:
                break
            need = min(n + 1, _kernels._MAX_PREC)
            lengths.append(need)
        top = r - len(lengths)
        series = _tables[("E", k, top)] if top > 1 else _eisenstein_series(k, need)
        for j, p in zip(range(top + 1, r + 1), reversed(lengths)):
            series = _tables[("E", k, j)] = series * _eisenstein_series(k, p)
    return series if series.prec == prec else series.truncate(prec)


def tau_words(nmax: int) -> np.ndarray:
    """Prepare (and return) the shared word table of tau up to u = nmax: column u
    holds (lo, hi) with tau(u) = lo + hi 2^56 (see ``_kernels.tau_words``).
    This is the only table built by the eta^24 kernel."""
    return _table("tau words", nmax, _kernels.tau_words)


def tau_table(nmax: int) -> list[int]:
    """tau(0..nmax) as Python ints (entry 0 is 0), assembled from the shared word
    table on each call; the eta^24 kernel runs only when that table is too short."""
    return _kernels.tau_numbers(nmax, tau_words(nmax))


def tau(n: int) -> int:
    """tau(n) from the shared word table, built (or grown) only when too short."""
    if n < 1:
        raise ValueError("tau(n) needs n >= 1")
    lo, hi = tau_words(n)[:, n].tolist()
    return lo + (hi << _kernels._WORD)


# ---------------------------------------------------------------------------
# Dimensions and the monomial basis.


def dim_mk(k: int) -> int:
    """dim M_k at level 1."""
    if k < 0 or k % 2:
        return 0
    if k == 0:
        return 1
    if k == 2:
        return 0
    return k // 12 if k % 12 == 2 else k // 12 + 1


def dim_sk(k: int) -> int:
    """dim S_k at level 1 (cusp forms)."""
    if k < 4:
        return 0
    return dim_mk(k) - 1


def mk_basis(k: int, prec: int) -> tuple[Form, ...]:
    """All monomials E4^a E6^b of weight k, a descending."""
    if k % 2 or k < 4:
        raise ValueError(f"monomial basis needs even weight >= 4, got {k}")
    return tuple(Form(k, _monomial(a, b, prec)) for a, b in _monomial_exponents(k))


def _monomial(a: int, b: int, prec: int) -> QSeries:
    """E4^a E6^b for a + b >= 1: a stored power, or one product of two stored powers, itself not stored."""
    return _power(4, a, prec) * _power(6, b, prec) if a and b else _power(4 if a else 6, a or b, prec)


class BasisCoords(Record):
    """Exact coordinates of a weight-k form on the E4^a E6^b monomials."""

    weight: int
    coords: tuple[tuple[tuple[int, int], Rat], ...]  # ((a, b), coefficient), a descending

    def coeff(self, a: int, b: int) -> Rat:
        for (aa, bb), c in self.coords:
            if (aa, bb) == (a, b):
                return c
        return ZERO

    def reconstruct(self, prec: int) -> Form:
        if not self.coords:
            raise ValueError("empty coordinate list")
        terms = [(c, m.series) for (_, c), m in zip(self.coords, mk_basis(self.weight, prec))]
        return Form(self.weight, linear_combination(terms, lambda s: s, prec))

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "weight": self.weight,
                "terms": [{"a": a, "b": b, "coeff": rat_str(c)} for (a, b), c in self.coords],
            }
        )


def _monomial_exponents(k: int) -> list[tuple[int, int]]:
    out = []
    for b in range(k // 6 + 1):
        rem = k - 6 * b
        if rem >= 0 and rem % 4 == 0:
            out.append((rem // 4, b))
    return out


def in_basis(f: Form) -> BasisCoords:
    """Exact decomposition of f over the weight-f monomials.

    The linear system is solved on the leading coefficients and verified on
    every remaining known coefficient; any mismatch (for example a
    quasimodular input) raises :class:`NotModularError`.
    """
    if f.quasimodular:
        raise NotModularError("not modular of this weight: input carries the quasimodular marker")
    if f.weight < 4 or f.weight % 2:
        raise NotModularError(f"not modular of this weight: weight {f.weight} has no modular forms")
    exponents = _monomial_exponents(f.weight)
    dim = len(exponents)
    if f.prec < dim + 5:
        raise ValueError(f"precision {f.prec} too low to certify a weight-{f.weight} decomposition (need {dim + 5})")
    basis = mk_basis(f.weight, f.prec)
    try:
        sol = solve_exact([b.series for b in basis], f.series)
    except InconsistentSystem as exc:
        raise NotModularError(f"not modular of this weight: {exc}") from exc
    return BasisCoords(f.weight, tuple(zip(exponents, sol)))


@cache
def _e12_delta_matrix() -> BasisCoords:
    # E12's coordinates; the weight-12 Sturm bound is 2, so 12 coefficients certify them.
    return in_basis(eisenstein(12, 12))


def e12_delta_coords(f: Form) -> tuple[Rat, Rat]:
    """Coordinates (x, y) of a weight-12 form on {E12, Delta}, read off its two monomial coordinates.

    E12, E4^3 and E6^2 have constant term 1 and Delta = (E4^3 - E6^2)/1728
    has none, so x is the sum of f's coordinates c on E4^3 and E6^2, and
    the E4^3 coordinates give y = 1728 (c(3,0) - x e(3,0)), e being E12's.
    """
    if f.weight != 12:
        raise ValueError("E12/Delta coordinates only exist in weight 12")
    c, e = in_basis(f), _e12_delta_matrix()
    x = c.coeff(3, 0) + c.coeff(0, 2)
    return x, 1728 * (c.coeff(3, 0) - x * e.coeff(3, 0))
