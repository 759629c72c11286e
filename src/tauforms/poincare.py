"""Formal Poincare averages a0 E_k + sum a_n P_{k,n} and their tau relations.

A seed q-series phi = sum a_n q^n with slowly growing coefficients can be
averaged over the modular group in any even weight k >= 4.  This module
never evaluates the average as a coset sum; it only manipulates the
representation a0 E_k + sum_{n>=1} a_n P_{k,n}, where P_{k,n} is the
average of q^n:

* in weights with no cusp forms every P_{k,n}, n >= 1, vanishes, so the
  average collapses to a0 E_k exactly;
* in weight 12 each P_{12,n} is the multiple 10! tau(n) / ((4 pi n)^11
  <Delta, Delta>) of Delta, so a vanishing average encodes one linear
  relation on the numbers tau(m+n)/(m+n)^11.

Each of the six weight-12 constructions is one row of ``CONSTRUCTIONS``: a
combination of Serre derivatives theta^[r] P_{l,m} and brackets
[E_k, P_{l,m}]_n.  Since E_l = P_{l,0}, the row at m = 0 is an exact
Eisenstein identity (``lseries.exact_lhs_catalog`` evaluates it and
``selftest`` prints it), and at m >= 1 it is a vanishing tau relation
(:func:`relation`).  The six closed-form tau identities of the catalog all
arise by exact elimination between these relations.
"""

from __future__ import annotations

from math import gcd

from .arith import ZERO, Rat, Record, as_rat, rat_str, solve_exact
from .calculus import _rc_seed_series, _serre_seed_series
from .forms import Form, dim_sk, eisenstein, sigma_from_eisenstein
from .qseries import QSeries, linear_combination


# ---------------------------------------------------------------------------
# Admissibility: declared growth exponents.


class Growth(Record):
    """A declared coefficient bound a_n = O(n^rho), with rho = exponent + eps_sign * eps
    for every small eps > 0 (eps_sign in {-1, 0, +1})."""

    exponent: Rat
    eps_sign: int = 0

    def __post_init__(self):
        if self.eps_sign not in (-1, 0, 1):
            raise ValueError("eps_sign must be -1, 0 or +1")
        object.__setattr__(self, "exponent", as_rat(self.exponent))

    @classmethod
    def modular(cls, weight: int, cusp: bool = False) -> "Growth":
        """Coefficient growth of a weight-k form: n^{k-1+eps}, halved for cusp forms."""
        if cusp:
            return cls(Rat(weight - 1, 2), +1)
        return cls(Rat(weight - 1), +1)

    @classmethod
    def e2_power(cls, m: int) -> "Growth":
        """E2^m grows like a weight-2m form: n^{2m-1+eps} (constant for m = 0)."""
        if m == 0:
            return cls(ZERO, 0)
        return cls(Rat(2 * m - 1), +1)

    def join(self, other: "Growth") -> "Growth":
        """Growth of a sum: the larger exponent wins."""
        if (self.exponent, self.eps_sign) >= (other.exponent, other.eps_sign):
            return self
        return other

    def __str__(self) -> str:
        eps = {-1: " - eps", 0: "", 1: " + eps"}[self.eps_sign]
        return f"O(n^{rat_str(self.exponent)}{eps})"


def admissible(growth: Growth, k: int) -> tuple[bool, Growth]:
    """Whether a seed with the declared growth may be averaged in weight k.

    The requirement is rho < k/2 - 3/2 (so that pairing against cusp-form
    coefficients under the Deligne bound converges); returns the verdict
    and the margin k/2 - 3/2 - rho.
    """
    threshold = Rat(k, 2) - Rat(3, 2)
    margin = Growth(threshold - growth.exponent, -growth.eps_sign)
    ok = growth.exponent < threshold or (growth.exponent == threshold and growth.eps_sign < 0)
    return ok, margin


# ---------------------------------------------------------------------------
# The formal object.


class FormalPoincare(Record):
    """Average of ``seed`` in even weight >= 4, kept as a0 E_k + sum a_n P_{k,n}."""

    weight: int
    seed: QSeries
    origin: str = ""

    def __post_init__(self):
        if self.weight < 4 or self.weight % 2:
            raise ValueError(f"averaging weight must be even and >= 4, got {self.weight}")
        if self.seed.prec < 1:
            raise ValueError("seed must carry at least one coefficient")


def eval_modular_seed(phi: Form, k: int) -> Form:
    """Exact evaluation of the weight-k average of a modular seed: phi * E_{k-w}."""
    if phi.quasimodular:
        raise ValueError("modular seed required")
    rest = k - phi.weight
    if rest < 4:
        raise ValueError(f"Eisenstein factor weight too small: k - w = {rest} < 4")
    if rest % 2:
        raise ValueError("weights must have even difference")
    return Form(k, (phi * eisenstein(rest, phi.prec)).series, is_cusp=phi.is_cusp)


def eval_low_weight(p: FormalPoincare) -> Form:
    """In weights without cusp forms the average is a0 E_k exactly."""
    if dim_sk(p.weight) != 0:
        raise ValueError(
            f"weight {p.weight} has cusp forms; use reduce_weight12 for the cuspidal reduction"
        )
    a0 = p.seed[0]
    return eisenstein(p.weight, p.seed.prec).scale(a0)


# ---------------------------------------------------------------------------
# Weight-12 reduction.


class TauRelation(Record):
    """The relation 0 = sum_{n>=0} c_n P_{weight, m+n} read off a vanishing average.

    For m >= 1 this says sum_n c_n tau(m+n)/(m+n)^{weight-1} = 0.  The c_n
    are kept as integer numerators ``num`` over one denominator ``den`` in
    lowest terms, so the relation is a column :func:`solve_exact` takes as it is.
    """

    m: int
    num: tuple[int, ...]
    den: int
    weight: int = 12
    origin: str = ""

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        return tuple(Rat(x, self.den) for x in self.num)

    @property
    def cutoff(self) -> int:
        return len(self.num) - 1

    def coeff(self, n: int) -> Rat:
        if n < 0:
            raise ValueError(f"relation coefficients start at n=0, asked for n={n}")
        if n > self.cutoff:
            raise ValueError(f"relation stream prepared to n={self.cutoff}, asked for n={n}")
        return Rat(self.num[n], self.den)


def reduce_weight12(p: FormalPoincare, m_shift: int) -> TauRelation:
    """Reduce a vanishing weight-12 average to its tau relation.

    The average is of a seed supported on q^m, m = ``m_shift``, and beyond
    that is known to vanish (a bracket or Serre derivative of a vanishing
    exponential average); the result is the :class:`TauRelation`
    0 = sum c_n P_{12,m+n} with c_n read off the seed.
    """
    if p.weight != 12:
        raise ValueError(f"reduction weight 12 does not match the average's weight {p.weight}")
    if m_shift < 1:
        raise ValueError("relation base index must be >= 1")
    if p.seed.prec <= m_shift:
        raise ValueError(f"seed precision {p.seed.prec} too short for base index {m_shift}")
    for j in range(m_shift):
        if p.seed[j] != 0:
            raise ValueError(f"seed has a nonzero coefficient below the base index (q^{j})")
    # The seed is in lowest terms and its prefix is zero, so num and den share no factor.
    return TauRelation(m_shift, p.seed.num[m_shift:], p.seed.den, origin=p.origin)


# ---------------------------------------------------------------------------
# The six weight-12 constructions.


class Construction(Record):
    """A weight-12 combination sum_t c_t op_t(P_{l,m}) of operators on the
    Poincare series of weight l = ``weight`` and index m.

    Each term is (c_t, ("serre", r)) for theta^[r] P_{l,m} or (c_t, ("rc", k, n))
    for [E_k, P_{l,m}]_n.  At m = 0, where P_{l,0} = E_l, the combination is
    the exact form ``label`` = ``e12`` E12 + ``delta`` Delta; at m >= 1 its
    average vanishes and its seed is a tau relation.
    """

    name: str
    label: str
    weight: int
    terms: tuple
    e12: Rat
    delta: Rat


# serre3_p6 and fourth_order have terms that alone break the growth bound; their
# sums do not.  The serre3_p6 seed is m^3 - 2m^2 E2 + 7/6 m E2^2 - 7/36 (E2^3 - E6)
# with E2^3 - E6 = 9 D E4 + 72 D^2 E2, and the fourth_order seed is
# m^4 - 7/3 m^3 E2 + 21 m^2 D E2 - 35 m D^2 E2 + 35/3 D^3 E2: both are
# admissible in weight 12.
CONSTRUCTIONS = (
    Construction("serre_p10", "serre_derivative(E10)", 10, ((1, ("serre", 1)),), Rat(-5, 6), Rat(38016, 691)),
    Construction("e4_shift", "E8 * E4", 8, ((1, ("rc", 4, 0)),), Rat(1), Rat(432000, 691)),
    Construction("bracket_e4_p6", "rankin_cohen(E4, E6, 1)", 6, ((1, ("rc", 4, 1)),), Rat(0), Rat(-3456)),
    Construction("serre2_p8", "serre_derivative(E8, order 2)", 8, ((1, ("serre", 2)),), Rat(1, 2), Rat(-49344, 691)),
    Construction(
        "serre3_p6", "serre_derivative(E6, order 3) + 7/36 E6^2", 6,
        ((1, ("serre", 3)), (Rat(7, 36), ("rc", 6, 0))), Rat(0), Rat(-168),
    ),
    Construction(
        "fourth_order", "serre_derivative(E4, order 4) - 35/864 E4 E8 - 7/40 [E4,E4]_2 + 35/432 [E6,E4]_1", 4,
        ((1, ("serre", 4)), (Rat(-35, 864), ("rc", 8, 0)), (Rat(-7, 40), ("rc", 4, 2)), (Rat(35, 432), ("rc", 6, 1))),
        Rat(0), Rat(-600),
    ),
)


def construction(name: str) -> Construction:
    for c in CONSTRUCTIONS:
        if c.name == name:
            return c
    raise ValueError(f"unknown construction {name!r}; known: {[c.name for c in CONSTRUCTIONS]}")


def construction_seed(c: Construction, m: int, prec: int) -> QSeries:
    """The seed of ``c`` at index m before the q^m shift, to prec coefficients.

    Each term is its operator applied to q^m (:func:`calculus._serre_seed_series`,
    :func:`calculus._rc_seed_series`), without the single-seed growth checks.
    """

    def term_seed(op):
        if op[0] == "serre":
            return _serre_seed_series(c.weight, m, op[1], prec)
        return _rc_seed_series(eisenstein(op[1], prec), c.weight, m, op[2])

    return linear_combination(c.terms, term_seed, prec)


def relation(c: Construction, m: int, cutoff: int) -> TauRelation:
    """The vanishing average of ``c`` at index m >= 1 as 0 = sum_{n<=cutoff} c_n P_{12,m+n}."""
    seed = construction_seed(c, m, cutoff + 1).shift(m)
    return reduce_weight12(FormalPoincare(12, seed, origin=f"{c.name}, m={m}"), m_shift=m)


# ---------------------------------------------------------------------------
# The identity catalog.


class TauIdentity(Record):
    """tau(m) = prefactor(m) * sum_{n>=1} sigma_a(n) tau(m+n) / (m+n)^s, with
    prefactor(m) = c m^s / (m - pole), or c m^s when ``pole`` is None.

    ``derivation`` names the rows of ``CONSTRUCTIONS`` whose tau relations
    :func:`derive_identity` eliminates the identity from, in that order.
    """

    ident: str
    a: int
    s: int
    c: int
    pole: Rat | None
    derivation: tuple[str, ...]

    def prefactor(self, m: int) -> Rat:
        if m < 1:
            raise ValueError("identity index m must be >= 1")
        pref = self.c * Rat(m) ** self.s
        return pref if self.pole is None else pref / (m - self.pole)

    @property
    def description(self) -> str:
        pole = "" if self.pole is None else f"/(m - {rat_str(self.pole)})"
        return f"tau(m) = {self.c} m^{self.s}{pole} sum sigma_{self.a}(n) tau(m+n)/(m+n)^{self.s}"


_CATALOG = (
    TauIdentity("kumar", 1, 11, -20, Rat(5, 6), ("serre_p10",)),
    TauIdentity("herrero", 3, 11, -240, None, ("e4_shift",)),
    TauIdentity("s10sig1", 1, 10, -18, Rat(3, 4), ("serre_p10", "e4_shift", "serre2_p8")),
    TauIdentity("s10sig3", 3, 10, -240, None, ("e4_shift", "bracket_e4_p6")),
    TauIdentity(
        "s9sig1", 1, 9, -16, Rat(2, 3), ("serre_p10", "e4_shift", "bracket_e4_p6", "serre2_p8", "serre3_p6")
    ),
    TauIdentity(
        "s8sig1", 1, 8, -14, Rat(7, 12),
        ("serre_p10", "e4_shift", "bracket_e4_p6", "serre2_p8", "serre3_p6", "fourth_order"),
    ),
)


def identity_catalog() -> tuple[TauIdentity, ...]:
    """The six closed-form tau identities, in fixed order."""
    return _CATALOG


def catalog_identity(ident: str) -> TauIdentity:
    for entry in _CATALOG:
        if entry.ident == ident:
            return entry
    raise ValueError(f"unknown identity id {ident!r}; known: {[e.ident for e in _CATALOG]}")


def identity_relation(entry: TauIdentity, m: int, cutoff: int) -> TauRelation:
    """The identity rewritten as 0 = sum_n c_n P_{12,m+n}: c_0 = m^11 and
    c_n = -prefactor(m) sigma_a(n) (m+n)^{11-s}, as integers over one denominator.
    sigma_a is read from the stored E_{a+1}, which the construction seeds of the
    same (m, cutoff) build to cutoff + 1 coefficients."""
    pref = entry.prefactor(m)
    p, q = -pref.numerator, pref.denominator
    sig = sigma_from_eisenstein(entry.a, cutoff)
    e = 11 - entry.s
    num = (m**11 * q, *(p * sig[n] * (m + n) ** e for n in range(1, cutoff + 1)))
    g = gcd(q, *num)
    return TauRelation(m, tuple(x // g for x in num), q // g, origin=entry.description)


def derive_identity(ident: str, m: int, cutoff: int = 200) -> list[Rat]:
    """Derive a catalog identity exactly from the vanishing relations.

    Expresses the identity's relation stream as an exact linear combination
    of the construction streams, verifying every coefficient up to the
    cutoff; returns the combination coefficients.  Raises if the identity
    does not lie in the span (which would falsify the catalog).
    """
    entry = catalog_identity(ident)
    relations = [relation(construction(name), m, cutoff) for name in entry.derivation]
    return solve_exact(relations, identity_relation(entry, m, cutoff))
