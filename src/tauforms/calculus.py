"""Rankin-Cohen brackets, higher Serre derivatives, and seed constructors.

The bracket of weights (k, l) at order n is

    [f, g]_n = sum_j (-1)^j C(k+n-1, n-j) C(l+n-1, j) D^j f  D^{n-j} g,

and the order-m Serre derivative of a weight-k form has the closed form

    theta^[m] f = sum_r C(m, r) (k+r)_(m-r) (-E2/12)^{m-r} D^r f,

where (x)_(j) is the rising factorial.  Both preserve modularity; the
recursive definition of theta^[m] is kept alongside as an independent
cross-check.

Each operator's coefficient list is written once (``_rc_coeffs``,
``_serre_coeffs``).  The seed constructors are the same operators applied
to q^N in place of a form, with D^j q^N = N^j q^N, so each seed is a plain
q-series: averaging it over the modular group reproduces the bracket (or
Serre derivative) of the exponential Poincare series of index N, which is
how the downstream tau relations are generated.
"""

from __future__ import annotations

from .arith import Rat, binomial, pochhammer
from .forms import Form, _e2_power, _monomial, e2, eisenstein
from .qseries import QSeries, linear_combination


class QuasimodularInput(ValueError):
    pass


class SeedConditionError(ValueError):
    """A seed constructor was called outside its convergence hypotheses."""


def _require_modular(f: Form, op: str) -> None:
    if f.quasimodular:
        raise QuasimodularInput(f"{op} requires modular input, got a quasimodular form of weight {f.weight}")


def _rc_coeffs(k: int, l: int, n: int) -> list[int]:
    """c_j of [f, g]_n = sum_j c_j D^j f D^{n-j} g on weights (k, l):
    c_j = (-1)^j C(k+n-1, n-j) C(l+n-1, j).  At n = 0 the one coefficient is
    C(k-1, 0) C(l-1, 0) = 1 for every weight, so [f, g]_0 = f g also when k or l is 0."""
    if n == 0:
        return [1]
    return [(-1) ** j * binomial(k + n - 1, n - j) * binomial(l + n - 1, j) for j in range(n + 1)]


def _serre_coeffs(k: int, m: int) -> list[Rat]:
    """c_r of theta^[m] f = sum_r c_r E2^{m-r} D^r f on weight k:
    c_r = C(m, r) (k+r)_(m-r) (-1/12)^{m-r}."""
    return [Rat(binomial(m, r) * pochhammer(k + r, m - r)) * Rat(-1, 12) ** (m - r) for r in range(m + 1)]


def rankin_cohen(f: Form, g: Form, n: int) -> Form:
    """Order-n Rankin-Cohen bracket; weight k+l+2n, cuspidal for n >= 1."""
    _require_modular(f, "rankin_cohen")
    _require_modular(g, "rankin_cohen")
    if n < 0:
        raise ValueError("bracket order must be >= 0")
    k, l = f.weight, g.weight
    terms = [(c, j) for j, c in enumerate(_rc_coeffs(k, l, n))]
    if f.series == g.series:
        # Terms j and n - j make the same product D^j f D^(n-j) f: make it once,
        # with both coefficients (they cancel for odd n when k = l).
        terms = [(c + terms[n - j][0] if 2 * j < n else c, j) for c, j in terms[: n // 2 + 1]]
    total = linear_combination(terms, lambda j: f.series.derive(j) * g.series.derive(n - j), min(f.prec, g.prec))
    return Form(k + l + 2 * n, total, is_cusp=n >= 1 or f.is_cusp or g.is_cusp)


def serre(f: Form, m: int) -> Form:
    """Order-m Serre derivative by the closed form; weight k+2m."""
    _require_modular(f, "serre")
    if m < 0:
        raise ValueError("Serre derivative order must be >= 0")
    if m == 0:
        return f
    k, prec = f.weight, f.prec

    def term(r: int) -> QSeries:
        return _e2_power(m - r, prec) * f.series.derive(r) if r < m else f.series.derive(r)

    total = linear_combination([(c, r) for r, c in enumerate(_serre_coeffs(k, m))], term, prec)
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
# Seed constructors: the operators above applied to q^N, where D^j q^N = N^j q^N.


def _rc_seed_series(f: Form, l: int, n_index: int, m: int) -> QSeries:
    """[f, q^N]_m / q^N = sum_r c_r N^{m-r} D^r f, with c_r from :func:`_rc_coeffs`."""
    terms = [(c * n_index ** (m - r), r) for r, c in enumerate(_rc_coeffs(f.weight, l, m))]
    return linear_combination(terms, f.series.derive, f.prec)


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


def _serre_seed_series(l: int, n_index: int, m: int, prec: int) -> QSeries:
    """theta^[m] q^N / q^N in weight l = sum_r c_r N^r E2^{m-r}, with c_r from :func:`_serre_coeffs`.

    Builds the raw seed without the growth check of :func:`serre_seed`.
    """
    terms = [(c * n_index**r, m - r) for r, c in enumerate(_serre_coeffs(l, m))]
    return linear_combination(terms, lambda j: _e2_power(j, prec), prec)


def serre_seed(l: int, n_index: int, m: int, prec: int = 64) -> QSeries:
    """Seed series q^N sum_r C(m,r) (l+r)_(m-r) (-E2/12)^{m-r} N^r.

    Averaging it in weight l+2m reproduces the order-m Serre derivative of
    the exponential Poincare series; requires l >= 2m+2, the growth
    hypothesis of the underlying averaging.
    """
    if l % 2 or l < 2:
        raise SeedConditionError(f"Serre seed needs positive even l, got l={l}")
    if l < 2 * m + 2:
        raise SeedConditionError(f"Serre seed needs l >= 2m+2, got l={l}, m={m}")
    if n_index < 0 or m < 0:
        raise ValueError("index and order must be >= 0")
    return _serre_seed_series(l, n_index, m, prec).shift(n_index)


# ---------------------------------------------------------------------------
# Ramanujan's derivative system.


def ramanujan_derivatives(prec: int = 200) -> tuple[QSeries, QSeries, QSeries]:
    """Residuals of D E2 = (E2^2 - E4)/12, D E4 = (E2 E4 - E6)/3,
    D E6 = (E2 E6 - E4^2)/2; all three must be the zero series."""
    E2s = e2(prec).series
    E4s = eisenstein(4, prec).series
    E6s = eisenstein(6, prec).series
    r1 = E2s.derive(1) - (_e2_power(2, prec) - E4s).scale(Rat(1, 12))
    r2 = E4s.derive(1) - (E2s * E4s - E6s).scale(Rat(1, 3))
    r3 = E6s.derive(1) - (E2s * E6s - _monomial(2, 0, prec)).scale(Rat(1, 2))
    return r1, r2, r3
