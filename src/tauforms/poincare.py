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

The six closed-form tau identities of the catalog all arise this way, by
exact elimination between a handful of such relations.
"""

from __future__ import annotations

from math import gcd

from .arith import ZERO, Rat, Record, as_rat, rat_str, solve_exact
from .calculus import _rc_seed_series, _serre_seed_series, rc_seed, serre_seed
from .forms import Form, dim_sk, eisenstein, sigma_sieve
from .qseries import QSeries


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

    def deriv(self, j: int) -> "Growth":
        return Growth(self.exponent + j, self.eps_sign)

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
        if n > self.cutoff:
            raise ValueError(f"relation stream prepared to n={self.cutoff}, asked for n={n}")
        return Rat(self.num[n], self.den)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "m": self.m,
                "terms": [{"n": n, "coeff": rat_str(c)} for n, c in enumerate(self.coeffs)],
                "cutoff": self.cutoff,
            }
        )


def reduce_weight12(p: FormalPoincare, m_shift: int | None = None, weight: int = 12):
    """Reduce a weight-12 average to its cuspidal content.

    With ``m_shift`` given, the average is of a seed supported on q^m and
    beyond that is known to vanish (a bracket or Serre derivative of a
    vanishing exponential average); the result is the
    :class:`TauRelation` 0 = sum c_n P_{12,m+n} with c_n read off the seed.

    Without ``m_shift`` the seed's average is a known nonzero form and the
    return value is the pair (a0, stream of c_n for n >= 1), describing
    a0 E_12 plus the cusp part sum c_n P_{12,n}.
    """
    if p.weight != weight:
        raise ValueError(f"reduction weight {weight} does not match the average's weight {p.weight}")
    if dim_sk(weight) != 1:
        raise ValueError(f"reduction needs a one-dimensional cusp space, dim S_{weight} != 1")
    if m_shift is None:
        return p.seed[0], tuple(p.seed.coeffs[1:])
    if m_shift < 1:
        raise ValueError("relation base index must be >= 1")
    if p.seed.prec <= m_shift:
        raise ValueError(f"seed precision {p.seed.prec} too short for base index {m_shift}")
    for j in range(m_shift):
        if p.seed[j] != 0:
            raise ValueError(f"seed has a nonzero coefficient below the base index (q^{j})")
    num = p.seed.num[m_shift:]
    g = gcd(p.seed.den, *num)
    return TauRelation(m_shift, tuple(x // g for x in num), p.seed.den // g, weight=weight, origin=p.origin)


# ---------------------------------------------------------------------------
# The six vanishing constructions in weight 12.


def _seed_prec(m: int, cutoff: int) -> int:
    return m + cutoff + 1


def relation_serre_p10(m: int, cutoff: int) -> TauRelation:
    """theta P_{10,m} = 0, averaged seed q^m (m - 5/6 E2)."""
    seed = serre_seed(10, m, 1, prec=_seed_prec(m, cutoff) - m)
    p = FormalPoincare(12, seed, origin=f"serre_derivative(P_(10,{m}))")
    return reduce_weight12(p, m_shift=m)


def relation_e4_shift(m: int, cutoff: int) -> TauRelation:
    """P_{8,m} E4 = 0, averaged seed q^m E4."""
    seed = rc_seed(eisenstein(4, _seed_prec(m, cutoff) - m), 8, m, 0)
    p = FormalPoincare(12, seed, origin=f"E4 * P_(8,{m})")
    return reduce_weight12(p, m_shift=m)


def relation_bracket_e4_p6(m: int, cutoff: int) -> TauRelation:
    """[E4, P_{6,m}]_1 = 0, averaged seed q^m (4m E4 - 6 D E4)."""
    seed = rc_seed(eisenstein(4, _seed_prec(m, cutoff) - m), 6, m, 1)
    p = FormalPoincare(12, seed, origin=f"rankin_cohen(E4, P_(6,{m}), 1)")
    return reduce_weight12(p, m_shift=m)


def relation_serre2_p8(m: int, cutoff: int) -> TauRelation:
    """theta^[2] P_{8,m} = 0, averaged seed q^m (m^2 - 3/2 m E2 + 1/2 E2^2)."""
    seed = serre_seed(8, m, 2, prec=_seed_prec(m, cutoff) - m)
    p = FormalPoincare(12, seed, origin=f"serre_derivative(P_(8,{m}), order 2)")
    return reduce_weight12(p, m_shift=m)


def ex12_seed(m: int, prec: int) -> QSeries:
    """Seed (before the q^m shift) of theta^[3] P_{6,m} + 7/36 P_{6,m} E6.

    Neither summand alone satisfies the growth bound (their seeds contain
    E2^3 and E6), but in the sum those pieces combine to E2^3 - E6 =
    9 D E4 + 72 D^2 E2, which does.  The raw order-3 seed on weight 6 is
    therefore built without its single-seed growth check.
    """
    return _serre_seed_series(6, m, 3, prec) + eisenstein(6, prec).series.scale(Rat(7, 36))


def relation_serre3_p6(m: int, cutoff: int) -> TauRelation:
    """theta^[3] P_{6,m} + 7/36 P_{6,m} E6 = 0."""
    seed = ex12_seed(m, _seed_prec(m, cutoff) - m).shift(m)
    p = FormalPoincare(12, seed, origin=f"serre_derivative(P_(6,{m}), order 3) + 7/36 E6 * P_(6,{m})")
    return reduce_weight12(p, m_shift=m)


def fourth_order_seed(m: int, prec: int) -> QSeries:
    """Seed (before the q^m shift) of the vanishing combination

        theta^[4] P_{4,m} - 35/864 P_{4,m} E8 - 7/40 [E4, P_{4,m}]_2
                                              + 35/432 [E6, P_{4,m}]_1.

    The individual seeds violate the growth bound; the combination equals
    m^4 - 7/3 m^3 E2 + 21 m^2 D E2 - 35 m D^2 E2 + 35/3 D^3 E2, whose
    coefficients are O(n^4) and hence admissible in weight 12.
    """
    s4 = _serre_seed_series(4, m, 4, prec)
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    e8 = eisenstein(8, prec)

    combo = (
        s4
        + e8.series.scale(Rat(-35, 864))
        + _rc_seed_series(e4, 4, m, 2).scale(Rat(-7, 40))
        + _rc_seed_series(e6, 4, m, 1).scale(Rat(35, 432))
    )
    return combo


def relation_fourth_order(m: int, cutoff: int) -> TauRelation:
    seed = fourth_order_seed(m, _seed_prec(m, cutoff) - m).shift(m)
    p = FormalPoincare(
        12,
        seed,
        origin=(
            f"serre_derivative(P_(4,{m}), order 4) - 35/864 E8 * P_(4,{m}) "
            f"- 7/40 rankin_cohen(E4, P_(4,{m}), 2) + 35/432 rankin_cohen(E6, P_(4,{m}), 1)"
        ),
    )
    return reduce_weight12(p, m_shift=m)


# ---------------------------------------------------------------------------
# The identity catalog.


class TauIdentity(Record):
    """tau(m) = prefactor(m) * sum_{n>=1} sigma_a(n) tau(m+n) / (m+n)^s."""

    ident: str
    a: int
    s: int
    description: str

    def prefactor(self, m: int) -> Rat:
        if m < 1:
            raise ValueError("identity index m must be >= 1")
        mm = Rat(m)
        if self.ident == "kumar":
            return Rat(-20) * mm**11 / (mm - Rat(5, 6))
        if self.ident == "herrero":
            return Rat(-240) * mm**11
        if self.ident == "s10sig1":
            return Rat(-18) * mm**10 / (mm - Rat(3, 4))
        if self.ident == "s10sig3":
            return Rat(-240) * mm**10
        if self.ident == "s9sig1":
            return Rat(-16) * mm**9 / (mm - Rat(2, 3))
        if self.ident == "s8sig1":
            return Rat(-14) * mm**8 / (mm - Rat(7, 12))
        raise ValueError(f"unknown identity {self.ident}")


_CATALOG = (
    TauIdentity("kumar", 1, 11, "tau(m) = -20 m^11/(m - 5/6) sum sigma_1(n) tau(m+n)/(m+n)^11"),
    TauIdentity("herrero", 3, 11, "tau(m) = -240 m^11 sum sigma_3(n) tau(m+n)/(m+n)^11"),
    TauIdentity("s10sig1", 1, 10, "tau(m) = -18 m^10/(m - 3/4) sum sigma_1(n) tau(m+n)/(m+n)^10"),
    TauIdentity("s10sig3", 3, 10, "tau(m) = -240 m^10 sum sigma_3(n) tau(m+n)/(m+n)^10"),
    TauIdentity("s9sig1", 1, 9, "tau(m) = -16 m^9/(m - 2/3) sum sigma_1(n) tau(m+n)/(m+n)^9"),
    TauIdentity("s8sig1", 1, 8, "tau(m) = -14 m^8/(m - 7/12) sum sigma_1(n) tau(m+n)/(m+n)^8"),
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
    c_n = -prefactor(m) sigma_a(n) (m+n)^{11-s}, as integers over one denominator."""
    pref = entry.prefactor(m)
    p, q = -pref.numerator, pref.denominator
    sig = sigma_sieve(entry.a, cutoff)
    e = 11 - entry.s
    num = (m**11 * q, *(p * sig[n] * (m + n) ** e for n in range(1, cutoff + 1)))
    g = gcd(q, *num)
    return TauRelation(m, tuple(x // g for x in num), q // g, origin=entry.description)


# Which vanishing relations each identity is eliminated from.
_DERIVATIONS = {
    "kumar": (relation_serre_p10,),
    "herrero": (relation_e4_shift,),
    "s10sig3": (relation_e4_shift, relation_bracket_e4_p6),
    "s10sig1": (relation_serre_p10, relation_e4_shift, relation_serre2_p8),
    "s9sig1": (
        relation_serre_p10,
        relation_e4_shift,
        relation_bracket_e4_p6,
        relation_serre2_p8,
        relation_serre3_p6,
    ),
    "s8sig1": (
        relation_serre_p10,
        relation_e4_shift,
        relation_bracket_e4_p6,
        relation_serre2_p8,
        relation_serre3_p6,
        relation_fourth_order,
    ),
}


def derive_identity(ident: str, m: int, cutoff: int = 200) -> list[Rat]:
    """Derive a catalog identity exactly from the vanishing relations.

    Expresses the identity's relation stream as an exact linear combination
    of the construction streams, verifying every coefficient up to the
    cutoff; returns the combination coefficients.  Raises if the identity
    does not lie in the span (which would falsify the catalog).
    """
    entry = catalog_identity(ident)
    return solve_exact([b(m, cutoff) for b in _DERIVATIONS[ident]], identity_relation(entry, m, cutoff))
