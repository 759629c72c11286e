"""Rankin-Cohen brackets, higher Serre derivatives, and seed constructors.

The bracket of weights (k, l) at order n is

    [f, g]_n = sum_j (-1)^j C(k+n-1, n-j) C(l+n-1, j) D^j f  D^{n-j} g,

and the order-m Serre derivative of a weight-k form has the closed form

    theta^[m] f = sum_r C(m, r) (k+r)_(m-r) (-E2/12)^{m-r} D^r f,

where (x)_(j) is the rising factorial.  Both preserve modularity; the
recursive definition of theta^[m] is kept alongside as an independent
cross-check.

Seed constructors package the same combinatorics applied to q^N in place
of a form: averaging such a seed over the modular group reproduces the
bracket (or Serre derivative) of the exponential Poincare series of index
N, which is how the downstream tau relations are generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .arith import Rat, as_rat, binomial, pochhammer
from .forms import Form, e2, eisenstein
from .qseries import QSeries


class QuasimodularInput(ValueError):
    pass


class SeedConditionError(ValueError):
    """A seed constructor was called outside its convergence hypotheses."""


def _require_modular(f: Form, op: str) -> None:
    if f.quasimodular:
        raise QuasimodularInput(f"{op} requires modular input, got a quasimodular form of weight {f.weight}")


@lru_cache(maxsize=None)
def _e2_power(r: int, prec: int) -> QSeries:
    return e2(prec).series ** r


def rankin_cohen(f: Form, g: Form, n: int) -> Form:
    """Order-n Rankin-Cohen bracket; weight k+l+2n, cuspidal for n >= 1."""
    _require_modular(f, "rankin_cohen")
    _require_modular(g, "rankin_cohen")
    if n < 0:
        raise ValueError("bracket order must be >= 0")
    k, l = f.weight, g.weight
    total = None
    for j in range(n + 1):
        c = binomial(k + n - 1, n - j) * binomial(l + n - 1, j)
        if j % 2:
            c = -c
        term = (f.series.derive(j) * g.series.derive(n - j)).scale(c)
        total = term if total is None else total + term
    return Form(k + l + 2 * n, total, is_cusp=n >= 1 or f.is_cusp or g.is_cusp)


def serre(f: Form, m: int) -> Form:
    """Order-m Serre derivative by the closed form; weight k+2m."""
    _require_modular(f, "serre")
    if m < 0:
        raise ValueError("Serre derivative order must be >= 0")
    if m == 0:
        return f
    k = f.weight
    prec = f.prec
    total = None
    for r in range(m + 1):
        c = Rat(binomial(m, r) * pochhammer(k + r, m - r)) * Rat(-1, 12) ** (m - r)
        term = (_e2_power(m - r, prec) * f.series.derive(r)).scale(c)
        total = term if total is None else total + term
    return Form(k + 2 * m, total, is_cusp=f.is_cusp)


def _theta(f: Form) -> Form:
    """First Serre derivative D f - (k/12) E2 f."""
    k = f.weight
    out = f.series.derive(1) - (e2(f.prec).series * f.series).scale(Rat(k, 12))
    return Form(k + 2, out, is_cusp=f.is_cusp)


def serre_recursive(f: Form, m: int) -> Form:
    """Order-m Serre derivative by the recursion; independent of :func:`serre`.

    theta^[n+1] f = theta(theta^[n] f) - n(k+n-1)/144 E4 theta^[n-1] f.
    """
    _require_modular(f, "serre_recursive")
    if m < 0:
        raise ValueError("Serre derivative order must be >= 0")
    if m == 0:
        return f
    k = f.weight
    e4 = eisenstein(4, f.prec)
    prev2, prev1 = f, _theta(f)
    for n in range(1, m):
        corr = (e4 * prev2).scale(Rat(-n * (k + n - 1), 144))
        nxt = Form(k + 2 * n + 2, (_theta(prev1) + corr).series, is_cusp=f.is_cusp)
        prev2, prev1 = prev1, nxt
    return prev1


# ---------------------------------------------------------------------------
# Polynomials in E2 (seed carrier for the Serre-derivative constructions).


@dataclass(frozen=True)
class E2Poly:
    """sum_r slot_r(q) E2(q)^r.

    ``weight`` is the pretend weight of the exponential seed the polynomial
    decorates; a genuine form stored in slot r must have that same weight
    minus 2r, while rational constants may occupy any slot.
    """

    weight: int
    slots: tuple[tuple[int, QSeries], ...]  # (exponent r, slot series), r ascending
    display: str = field(default="", compare=False)

    @classmethod
    def from_terms(cls, weight: int, terms: dict[int, list], prec: int, display: str = "") -> "E2Poly":
        """terms maps r to a list of (scalar, Form-or-None); None means the constant 1."""
        slots = []
        for r in sorted(terms):
            acc = QSeries.zero(prec)
            for scalar, form in terms[r]:
                scalar = as_rat(scalar)
                if form is None:
                    acc = acc + QSeries.constant(scalar, prec)
                else:
                    if form.weight != weight - 2 * r:
                        raise ValueError(
                            f"slot {r} of a weight-{weight} polynomial needs weight {weight - 2 * r}, "
                            f"got {form.weight}"
                        )
                    acc = acc + form.series.truncate(prec).scale(scalar)
            slots.append((r, acc))
        return cls(weight, tuple(slots), display)

    def slot(self, r: int) -> QSeries | None:
        for rr, s in self.slots:
            if rr == r:
                return s
        return None

    def evaluate(self, prec: int | None = None) -> QSeries:
        """Substitute the q-expansion of E2."""
        if prec is None:
            prec = min(s.prec for _, s in self.slots)
        total = QSeries.zero(prec)
        for r, s in self.slots:
            total = total + (s.truncate(prec) * _e2_power(r, prec) if r else s.truncate(prec))
        return total

    def __add__(self, other: "E2Poly") -> "E2Poly":
        if self.weight != other.weight:
            raise ValueError(f"weight mismatch {self.weight} vs {other.weight}")
        merged: dict[int, QSeries] = dict(self.slots)
        for r, s in other.slots:
            merged[r] = merged[r] + s if r in merged else s
        disp = f"({self.display}) + ({other.display})" if self.display and other.display else ""
        return E2Poly(self.weight, tuple(sorted(merged.items())), disp)

    def scale(self, c) -> "E2Poly":
        c = as_rat(c)
        return E2Poly(self.weight, tuple((r, s.scale(c)) for r, s in self.slots), self.display)

    def __repr__(self) -> str:
        if self.display:
            return f"E2Poly({self.display})"
        return f"E2Poly(weight={self.weight}, E2-degrees {[r for r, _ in self.slots]})"


# ---------------------------------------------------------------------------
# Seed constructors.


def _rc_seed_series(f: Form, l: int, n_index: int, m: int) -> QSeries:
    """sum_r (-1)^r C(k+m-1, m-r) C(l+m-1, r) N^{m-r} D^r f, before the q^N shift."""
    k = f.weight
    total = QSeries.zero(f.prec)
    for r in range(m + 1):
        c = Rat((-1) ** r * binomial(k + m - 1, m - r) * binomial(l + m - 1, r)) * Rat(n_index) ** (m - r)
        if c != 0:
            total = total + f.series.derive(r).scale(c)
    return total


def rc_seed(f: Form, l: int, n_index: int, m: int) -> QSeries:
    """Seed series q^N sum_r (-1)^r C(k+m-1, m-r) C(l+m-1, r) N^{m-r} D^r f.

    Averaging it in weight k+l+2m reproduces the order-m bracket of f with
    the exponential Poincare series of weight l and index N; the growth
    hypotheses (l >= 4 even; l >= k+2 when f is not cuspidal) are enforced.
    """
    _require_modular(f, "rc_seed")
    if n_index < 0 or m < 0:
        raise ValueError("index and order must be >= 0")
    if l % 2 or l < 4:
        raise SeedConditionError(f"bracket seed needs even l >= 4, got l={l}")
    if not f.is_cusp and l < f.weight + 2:
        raise SeedConditionError(
            f"bracket seed with non-cuspidal f needs l >= k+2 (k={f.weight}), got l={l}"
        )
    return _rc_seed_series(f, l, n_index, m).shift(n_index)


def _serre_seed_poly(l: int, n_index: int, m: int, prec: int) -> E2Poly:
    terms: dict[int, list] = {}
    for r in range(m + 1):
        c = Rat(binomial(m, r) * pochhammer(l + m - r, r)) * Rat(-1, 12) ** r * Rat(n_index) ** (m - r)
        if c != 0:
            terms[r] = [(c, None)]
    if not terms:  # N = 0 with every slot annihilated cannot happen, but stay total
        terms[0] = [(Rat(0), None)]
    return E2Poly.from_terms(l, terms, prec, display=f"serre seed theta^[{m}] q^{n_index} wt {l}")


def serre_seed_poly(l: int, n_index: int, m: int, prec: int = 64) -> E2Poly:
    """The E2-polynomial behind :func:`serre_seed` (before the q^N shift).

    Requires l >= 2m+2, the growth hypothesis of the underlying averaging.
    """
    if l % 2 or l < 2:
        raise SeedConditionError(f"Serre seed needs positive even l, got l={l}")
    if l < 2 * m + 2:
        raise SeedConditionError(f"Serre seed needs l >= 2m+2, got l={l}, m={m}")
    if n_index < 0 or m < 0:
        raise ValueError("index and order must be >= 0")
    return _serre_seed_poly(l, n_index, m, prec)


def serre_seed(l: int, n_index: int, m: int, prec: int = 64) -> QSeries:
    """Seed series q^N sum_r C(m,r) (l+m-r)_(r) (-E2/12)^r N^{m-r}.

    Averaging it in weight l+2m reproduces the order-m Serre derivative of
    the exponential Poincare series; requires l >= 2m+2.
    """
    return serre_seed_poly(l, n_index, m, prec).evaluate().shift(n_index)


# ---------------------------------------------------------------------------
# Ramanujan's derivative system.


def ramanujan_derivatives(prec: int = 200) -> tuple[QSeries, QSeries, QSeries]:
    """Residuals of D E2 = (E2^2 - E4)/12, D E4 = (E2 E4 - E6)/3,
    D E6 = (E2 E6 - E4^2)/2; all three must be the zero series."""
    E2s = e2(prec).series
    E4s = eisenstein(4, prec).series
    E6s = eisenstein(6, prec).series
    r1 = E2s.derive(1) - (E2s * E2s - E4s).scale(Rat(1, 12))
    r2 = E4s.derive(1) - (E2s * E4s - E6s).scale(Rat(1, 3))
    r3 = E6s.derive(1) - (E2s * E6s - E4s * E4s).scale(Rat(1, 2))
    return r1, r2, r3
