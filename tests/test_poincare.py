import pytest

from tauforms import poincare
from tauforms.arith import InconsistentSystem, Rat
from tauforms.calculus import rc_seed, serre_seed
from tauforms.forms import delta, e2, eisenstein, one, sigma
from tauforms.forms import _power
from tauforms.lseries import M0_CONSTANTS
from tauforms.poincare import (
    CONSTRUCTIONS,
    FormalPoincare,
    Growth,
    TauIdentity,
    TauRelation,
    admissible,
    catalog_identity,
    construction,
    construction_seed,
    derive_identity,
    eval_low_weight,
    eval_modular_seed,
    identity_catalog,
    identity_relation,
    reduce_weight12,
    relation,
)
from tauforms.qseries import QSeries


# -- admissibility ------------------------------------------------------------


def test_admissible_weight12_verdicts():
    ok, margin = admissible(Growth.modular(4), 12)  # E4: O(n^{3+eps})
    assert ok and margin.exponent == Rat(3, 2) and margin.eps_sign == -1

    ok, _ = admissible(Growth.e2_power(3), 12)  # E2^3: O(n^{5+eps})
    assert not ok

    ok, _ = admissible(Growth(Rat(9, 2), -1), 12)  # E2^3 - E6 via 9 DE4 + 72 D^2 E2
    assert ok


def test_admissible_boundary_cases():
    assert not admissible(Growth(Rat(9, 2), 0), 12)[0]
    assert not admissible(Growth(Rat(9, 2), +1), 12)[0]
    assert admissible(Growth(Rat(9, 2), -1), 12)[0]


def test_growth_helpers():
    assert Growth.modular(12, cusp=True).exponent == Rat(11, 2)
    a, b = Growth(Rat(3), 1), Growth(Rat(4), -1)
    assert a.join(b) is b
    assert str(b) == "O(n^4 - eps)"


# -- exact evaluation ---------------------------------------------------------


def test_average_of_constant_is_eisenstein():
    for k in (4, 8, 12):
        out = eval_modular_seed(one(20), k)
        assert out.series == eisenstein(k, 20).series


def test_average_of_e4_in_weight_12():
    out = eval_modular_seed(eisenstein(4, 20), 12)
    assert out.series == (eisenstein(4, 20) * eisenstein(8, 20)).series
    assert out[1] == 720


def test_average_rejects_small_weight_gap():
    with pytest.raises(ValueError, match="too small"):
        eval_modular_seed(delta(20), 12)


def test_low_weight_collapse():
    p = FormalPoincare(10, QSeries.one(16).shift(3), origin="exp index 3")
    assert eval_low_weight(p).series.is_zero()

    p = FormalPoincare(8, QSeries.one(16), origin="constant")
    assert eval_low_weight(p).series == eisenstein(8, 16).series

    with pytest.raises(ValueError, match="reduce_weight12"):
        eval_low_weight(FormalPoincare(12, QSeries.one(16)))


# -- weight-12 reduction -------------------------------------------------------


def test_reduce_relation_mode_checks():
    seed = QSeries([Rat(0), Rat(1), Rat(2), Rat(3)])
    rel = reduce_weight12(FormalPoincare(12, seed), m_shift=1)
    assert isinstance(rel, TauRelation)
    assert rel.coeffs == (Rat(1), Rat(2), Rat(3))
    with pytest.raises(ValueError, match="nonzero coefficient below"):
        reduce_weight12(FormalPoincare(12, QSeries.one(4)), m_shift=1)
    with pytest.raises(ValueError, match="reduction weight 12 does not match"):
        reduce_weight12(FormalPoincare(14, QSeries.one(4)), m_shift=1)


def test_reduce_exact_mode():
    # The m = 0 seed of serre_p10 averages to a0 E12 plus the cusp part sum c_n P_{12,n}:
    # a0 = -5/6 and c_n = 20 sigma_1(n), read off the seed.
    seed = serre_seed(10, 0, 1, prec=8)
    assert seed[0] == Rat(-5, 6)
    assert seed[1] == 20 * sigma(1, 1)
    assert seed[3] == 20 * sigma(1, 3)


def test_relation_stream_cutoff_error():
    rel = relation(construction("serre_p10"), 2, 10)
    assert rel.cutoff == 10
    assert rel.coeff(10) == 20 * sigma(1, 10)
    with pytest.raises(ValueError, match="prepared to"):
        rel.coeff(11)
    with pytest.raises(ValueError, match="start at n=0"):
        rel.coeff(-1)


def test_relation_serre_p10_stream():
    # (m - 5/6) P_{12,m} + 20 sum sigma_1(n) P_{12,m+n} = 0
    for m in (1, 2, 5):
        rel = relation(construction("serre_p10"), m, 30)
        assert rel.m == m
        assert rel.coeff(0) == m - Rat(5, 6)
        for n in range(1, 31):
            assert rel.coeff(n) == 20 * sigma(1, n)


def test_relation_e4_shift_stream():
    # P_{12,m} + 240 sum sigma_3(n) P_{12,m+n} = 0
    rel = relation(construction("e4_shift"), 4, 25)
    assert rel.coeff(0) == 1
    for n in range(1, 26):
        assert rel.coeff(n) == 240 * sigma(3, n)


def test_relation_bracket_e4_p6_stream():
    # c0 = 4m, c_n = (960m - 1440n) sigma_3(n)
    for m in (1, 4):
        rel = relation(construction("bracket_e4_p6"), m, 25)
        assert rel.coeff(0) == 4 * m
        for n in range(1, 26):
            assert rel.coeff(n) == (960 * m - 1440 * n) * sigma(3, n)


def test_relation_serre2_p8_stream():
    # c0 = m^2 - 3/2 m + 1/2, c_n = 36 m sigma_1 + 120 sigma_3 - 144 n sigma_1
    for m in (1, 3):
        rel = relation(construction("serre2_p8"), m, 25)
        assert rel.coeff(0) == Rat(2 * m * m - 3 * m + 1, 2)
        for n in range(1, 26):
            assert rel.coeff(n) == 36 * m * sigma(1, n) + 120 * sigma(3, n) - 144 * n * sigma(1, n)


def test_relation_serre3_p6_stream():
    # c0 = m^3 - 2m^2 + 7/6 m,
    # c_n = (48m^2 - 336mn + 336n^2) sigma_1(n) + (280m - 420n) sigma_3(n)
    for m in (1, 2):
        rel = relation(construction("serre3_p6"), m, 25)
        assert rel.coeff(0) == Rat(m) ** 3 - 2 * Rat(m) ** 2 + Rat(7, 6) * m
        for n in range(1, 26):
            expected = (48 * m * m - 336 * m * n + 336 * n * n) * sigma(1, n) + (
                280 * m - 420 * n
            ) * sigma(3, n)
            assert rel.coeff(n) == expected


def test_ex12_seed_structure():
    # m^3 + 7/36 E6 - 2 m^2 E2 + 7/6 m E2^2 - 7/36 E2^3
    m = 2
    prec = 20
    e6 = eisenstein(6, prec).series
    E2s = e2(prec).series
    want = (
        QSeries.constant(m**3, prec)
        + e6.scale(Rat(7, 36))
        + E2s.scale(-2 * m**2)
        + (E2s * E2s).scale(Rat(7, 6) * m)
        + (E2s * E2s * E2s).scale(Rat(-7, 36))
    )
    assert construction_seed(construction("serre3_p6"), m, prec) == want


def fourth_order_seed_closed_form(m: int, prec: int) -> QSeries:
    """m^4 - 7/3 m^3 E2 + 21 m^2 D E2 - 35 m D^2 E2 + 35/3 D^3 E2."""
    E2s = e2(prec).series
    out = QSeries.constant(Rat(m) ** 4, prec)
    out = out + E2s.scale(Rat(-7 * m**3, 3))
    out = out + E2s.derive(1).scale(Rat(21 * m**2))
    out = out + E2s.derive(2).scale(Rat(-35 * m))
    out = out + E2s.derive(3).scale(Rat(35, 3))
    return out


def test_fourth_order_seed_matches_closed_form():
    for m in (0, 1, 3):
        assert construction_seed(construction("fourth_order"), m, 40) == fourth_order_seed_closed_form(m, 40)


def test_fourth_order_seed_at_zero_is_d3e2_multiple():
    assert construction_seed(construction("fourth_order"), 0, 40) == e2(40).series.derive(3).scale(Rat(35, 3))


def test_relation_fourth_order_has_cubic_sigma1_content():
    rel = relation(construction("fourth_order"), 1, 20)
    # c_n at m=1: expand q (1 - 7/3 E2 + 21 DE2 - 35 D^2E2 + 35/3 D^3E2)
    for n in range(1, 21):
        expected = (
            Rat(-7, 3) * (-24 * sigma(1, n))
            + Rat(21) * (-24 * n * sigma(1, n))
            + Rat(-35) * (-24 * n * n * sigma(1, n))
            + Rat(35, 3) * (-24 * n**3 * sigma(1, n))
        )
        assert rel.coeff(n) == expected


def m0_reference_seeds(prec: int) -> dict[str, QSeries]:
    """Each construction's m = 0 seed written out by hand: its weight-12 average
    is the construction's exact Eisenstein identity."""
    e4 = eisenstein(4, prec)
    return {
        "serre_p10": serre_seed(10, 0, 1, prec),
        "e4_shift": e4.series,
        "bracket_e4_p6": e4.series.derive(1).scale(-6),
        "serre2_p8": _power(2, 2, prec).scale(Rat(1, 2)),
        "serre3_p6": (eisenstein(6, prec).series - _power(2, 3, prec)).scale(Rat(7, 36)),
        "fourth_order": e2(prec).series.derive(3).scale(Rat(35, 3)),
    }


def test_m0_seeds_match_the_hand_written_ones():
    want = m0_reference_seeds(60)
    assert [c.name for c in CONSTRUCTIONS] == list(want)
    for c in CONSTRUCTIONS:
        assert construction_seed(c, 0, 60) == want[c.name], c.name


@pytest.mark.parametrize("m", [1, 2, 5])
def test_single_term_relations_match_the_growth_checked_seeds(m):
    cutoff = 30
    single = [c for c in CONSTRUCTIONS if len(c.terms) == 1]
    assert len(single) == 4
    for c in single:
        ((_, op),) = c.terms
        if op[0] == "serre":
            seed = serre_seed(c.weight, m, op[1], prec=cutoff + 1)
        else:
            seed = rc_seed(eisenstein(op[1], cutoff + 1), c.weight, m, op[2])
        rel = relation(c, m, cutoff)
        assert rel == reduce_weight12(FormalPoincare(12, seed, origin=rel.origin), m_shift=m), c.name


def test_every_construction_term_has_weight_12():
    for c in CONSTRUCTIONS:
        for _, op in c.terms:
            assert (c.weight + 2 * op[1] if op[0] == "serre" else op[1] + c.weight + 2 * op[2]) == 12, c.name
    assert len({c.name for c in CONSTRUCTIONS}) == len({c.label for c in CONSTRUCTIONS}) == 6
    with pytest.raises(ValueError, match="unknown construction"):
        construction("nope")


# -- the catalog ---------------------------------------------------------------


# The six identities as written out by hand: the reference for the catalog rows.
WRITTEN_IDENTITIES = {
    "kumar": (
        lambda m: Rat(-20) * Rat(m) ** 11 / (m - Rat(5, 6)),
        "tau(m) = -20 m^11/(m - 5/6) sum sigma_1(n) tau(m+n)/(m+n)^11",
    ),
    "herrero": (lambda m: Rat(-240) * Rat(m) ** 11, "tau(m) = -240 m^11 sum sigma_3(n) tau(m+n)/(m+n)^11"),
    "s10sig1": (
        lambda m: Rat(-18) * Rat(m) ** 10 / (m - Rat(3, 4)),
        "tau(m) = -18 m^10/(m - 3/4) sum sigma_1(n) tau(m+n)/(m+n)^10",
    ),
    "s10sig3": (lambda m: Rat(-240) * Rat(m) ** 10, "tau(m) = -240 m^10 sum sigma_3(n) tau(m+n)/(m+n)^10"),
    "s9sig1": (
        lambda m: Rat(-16) * Rat(m) ** 9 / (m - Rat(2, 3)),
        "tau(m) = -16 m^9/(m - 2/3) sum sigma_1(n) tau(m+n)/(m+n)^9",
    ),
    "s8sig1": (
        lambda m: Rat(-14) * Rat(m) ** 8 / (m - Rat(7, 12)),
        "tau(m) = -14 m^8/(m - 7/12) sum sigma_1(n) tau(m+n)/(m+n)^8",
    ),
}


def test_catalog_contents():
    cat = identity_catalog()
    assert [e.ident for e in cat] == ["kumar", "herrero", "s10sig1", "s10sig3", "s9sig1", "s8sig1"]
    assert {(e.a, e.s) for e in cat} == {(1, 11), (3, 11), (1, 10), (3, 10), (1, 9), (1, 8)}
    assert {(e.a, e.s) for e in cat} == set(M0_CONSTANTS)
    names = {c.name for c in CONSTRUCTIONS}
    for e in cat:
        assert e.derivation and set(e.derivation) <= names, e.ident


def test_catalog_rows_match_the_written_identities():
    assert [e.ident for e in identity_catalog()] == list(WRITTEN_IDENTITIES)
    for entry in identity_catalog():
        prefactor, description = WRITTEN_IDENTITIES[entry.ident]
        assert entry.description == description
        assert all(entry.prefactor(m) == prefactor(m) for m in range(1, 41)), entry.ident


@pytest.mark.parametrize("ident", list(WRITTEN_IDENTITIES))
@pytest.mark.parametrize("field", ["c", "pole"])
def test_a_changed_catalog_row_does_not_derive(monkeypatch, ident, field):
    entry = catalog_identity(ident)
    values = {name: getattr(entry, name) for name in TauIdentity._fields}
    values[field] = entry.c + 1 if field == "c" else (Rat(1, 2) if entry.pole is None else entry.pole + Rat(1, 7))
    changed = TauIdentity(**values)
    monkeypatch.setattr(poincare, "_CATALOG", tuple(changed if e is entry else e for e in identity_catalog()))
    assert catalog_identity(ident) == changed
    with pytest.raises(InconsistentSystem):
        derive_identity(ident, 3, cutoff=60)


def test_catalog_prefactors():
    assert catalog_identity("kumar").prefactor(1) == -120
    assert catalog_identity("herrero").prefactor(2) == -240 * 2**11
    assert catalog_identity("s8sig1").prefactor(1) == Rat(-168, 5)  # -33.6
    with pytest.raises(ValueError):
        catalog_identity("nope")


def test_identity_stream_shape():
    entry = catalog_identity("herrero")
    stream = identity_relation(entry, 2, 10).coeffs
    assert stream[0] == Rat(2) ** 11
    assert stream[3] == Rat(240 * 2**11) * sigma(3, 3)


# -- derivations ----------------------------------------------------------------


@pytest.mark.parametrize("ident", ["kumar", "herrero", "s10sig3", "s10sig1", "s9sig1", "s8sig1"])
def test_derive_identities_small_m(ident):
    for m in (1, 2, 3):
        derive_identity(ident, m, cutoff=60)


def test_derive_identities_deep():
    for ident in ("kumar", "herrero", "s10sig3", "s10sig1", "s9sig1", "s8sig1"):
        for m in range(1, 11):
            derive_identity(ident, m, cutoff=200)


def test_derivations_sieve_no_sigma_twice(fresh_tables, monkeypatch):
    # The identity streams read sigma_a from the E_{a+1} that the construction
    # seeds of the same (m, cutoff) already built.  The sieve is wrapped under
    # every module that binds it, so a caller that imports it by name counts too.
    from tauforms import forms

    sieves = []
    real_sieve = forms.sigma_sieve

    def sigma_sieve(a, nmax):
        sieves.append((a, nmax))
        return real_sieve(a, nmax)

    for module in (forms, poincare):
        monkeypatch.setattr(module, "sigma_sieve", sigma_sieve, raising=False)
    for ident in ("kumar", "herrero", "s10sig1", "s10sig3", "s9sig1", "s8sig1"):
        derive_identity(ident, 7, cutoff=300)
    assert sieves and len(sieves) == len(set(sieves)), sieves


def test_kumar_is_plain_rescaling():
    # the Kumar identity is the order-one relation times m^11/(m - 5/6)
    for m in range(1, 11):
        sol = derive_identity("kumar", m, cutoff=50)
        assert sol == [Rat(m) ** 11 / (m - Rat(5, 6))]


# -- commuting of brackets with averaging (evaluable instances) -----------------


def test_bracket_average_identity_weight_14():
    # [E4, average(q^0, wt 8)]_1 against the average of the bracket seed:
    # both sides vanish identically in weight 14 (no cusp forms there).
    from tauforms.calculus import rankin_cohen

    e4 = eisenstein(4, 60)
    e8 = eval_modular_seed(one(60), 8)
    lhs = rankin_cohen(e4, e8, 1)
    assert lhs.series.is_zero()
    seed = rc_seed(e4, 8, 0, 1)
    rhs = eval_low_weight(FormalPoincare(14, seed, origin="bracket seed"))
    assert rhs.series.is_zero()


def test_product_average_identity_weight_10():
    # order-zero bracket: E4 * average(1, wt 6) = average(E4 as weight-10 seed)
    e4 = eisenstein(4, 40)
    lhs = (e4 * eval_modular_seed(one(40), 6)).series
    rhs = eval_modular_seed(e4, 10).series
    assert lhs == rhs
