import pytest

from tauforms.arith import Rat, bernoulli
from tauforms.calculus import (
    QuasimodularInput,
    SeedConditionError,
    _rc_coeffs,
    ramanujan_derivatives,
    rankin_cohen,
    rc_seed,
    serre,
    serre_recursive,
    serre_seed,
)
from tauforms.forms import Form, delta, e2, eisenstein, in_basis, one, sigma
from tauforms.qseries import QSeries

PREC = 100


def E(k, prec=PREC):
    return eisenstein(k, prec)


def test_bracket_order_zero_is_product():
    # Weight-0 operands included: C(k+n-1, n-j) at k = n = 0 is C(-1, 0) = 1.
    c = one(PREC)
    for f, g in ((E(4), E(6)), (c, E(4)), (E(6), c.scale(3)), (c.scale(2), c.scale(3))):
        assert rankin_cohen(f, g, 0).series == (f * g).series


def test_bracket_e4_e6_is_discriminant_multiple():
    rc = rankin_cohen(E(4), E(6), 1)
    assert rc.weight == 12 and rc.is_cusp
    assert rc.series == delta(PREC).series.scale(-3456)


def test_bracket_order_one_closed_form():
    for f, g in ((E(4), E(6)), (E(6), E(8)), (E(4), delta(PREC))):
        k, l = f.weight, g.weight
        direct = f.series * g.series.derive(1) * QSeries.constant(k, PREC) - g.series * f.series.derive(
            1
        ) * QSeries.constant(l, PREC)
        assert rankin_cohen(f, g, 1).series == direct


@pytest.mark.parametrize("n", range(5))
def test_bracket_antisymmetry(n):
    pairs = ((E(4), E(6)), (E(4), E(4) * E(4)), (E(6), delta(PREC)))
    for f, g in pairs:
        lhs = rankin_cohen(f, g, n).series
        rhs = rankin_cohen(g, f, n).series.scale((-1) ** n)
        assert lhs == rhs


@pytest.mark.parametrize(("k", "n"), [(4, 2), (6, 4), (4, 3)])
def test_bracket_of_equal_series_makes_each_product_once(products, k, n):
    f, g = E(k), Form(k, QSeries(E(k).series.coeffs))  # distinct objects, one series
    assert f is not g and f.series is not g.series
    unpaired = QSeries.zero(PREC)
    for j, c in enumerate(_rc_coeffs(k, k, n)):
        unpaired = unpaired + (f.series.derive(j) * g.series.derive(n - j)).scale(c)
    products.clear()
    for a, b in ((f, f), (f, g)):
        rc = rankin_cohen(a, b, n)
        assert rc.weight == 2 * k + 2 * n and rc.is_cusp
        assert rc.series == unpaired
    # one product per pair {j, n - j}; for odd n the pairs cancel and none is made
    assert len(products) == (0 if n % 2 else 2 * (n // 2 + 1))
    if n % 2:
        assert unpaired == QSeries.zero(PREC)


def test_bracket_rejects_quasimodular():
    with pytest.raises(QuasimodularInput):
        rankin_cohen(e2(PREC), E(4), 1)
    with pytest.raises(QuasimodularInput):
        rankin_cohen(E(4), E(4).derive(1), 0)


def test_bracket_integrality():
    # integer-coefficient inputs give integer-coefficient brackets
    for n in range(4):
        rc = rankin_cohen(E(4, 40), E(6, 40), n)
        assert all(c.denominator == 1 for c in rc.series.coeffs)


def test_serre_order_zero_identity():
    f = E(8)
    assert serre(f, 0) is f


def test_serre_e10_decomposition():
    t = serre(E(10), 1)
    assert t.weight == 12
    expected = E(12).scale(Rat(-5, 6)) + delta(PREC).scale(Rat(38016, 691))
    assert t.series == expected.series
    assert t[0] == Rat(-5, 6) and t[1] == -24


def test_serre_of_delta_vanishes():
    assert serre(delta(200), 1).series.is_zero()


def test_serre_second_order_on_e8():
    t = serre(E(8), 2)
    expected = E(12).scale(Rat(1, 2)) + delta(PREC).scale(Rat(-49344, 691))
    assert t.series == expected.series


@pytest.mark.parametrize("m", range(6))
@pytest.mark.parametrize("weight", (4, 6, 8, 10))
def test_serre_closed_equals_recursive(weight, m):
    f = E(weight)
    assert serre(f, m).series == serre_recursive(f, m).series


@pytest.mark.parametrize("m", range(6))
def test_serre_closed_equals_recursive_on_delta(m):
    f = delta(PREC)
    assert serre(f, m).series == serre_recursive(f, m).series


def test_bracket_and_serre_outputs_are_modular():
    outputs = [
        rankin_cohen(E(4), E(6), 1),
        rankin_cohen(E(4), E(4), 2),
        rankin_cohen(E(6), E(4), 1),
        serre(E(10), 1),
        serre(E(8), 2),
        serre(E(6), 3),
        serre(E(4), 4),
    ]
    for f in outputs:
        coords = in_basis(f)  # raises on any residual
        assert coords.reconstruct(f.prec).series == f.series


# -- seed constructors --------------------------------------------------------


def test_rc_seed_order_zero_is_shift():
    f = E(4, 30)
    assert rc_seed(f, 8, 5, 0) == f.series.shift(5)
    assert rc_seed(one(8), 4, 3, 0) == one(8).series.shift(3)


def test_rc_seed_index_zero_collapses():
    # N = 0 leaves the single term (-1)^m C(l+m-1, m) D^m f
    f = E(4, 30)
    for m, l in ((1, 6), (2, 8), (3, 10)):
        from math import comb

        expected = f.series.derive(m).scale((-1) ** m * comb(l + m - 1, m))
        assert rc_seed(f, l, 0, m) == expected


def test_rc_seed_herrero_case():
    f = E(4, 30)
    assert rc_seed(f, 8, 7, 0) == f.series.shift(7)


def test_rc_seed_bracket_case():
    # [E4, q^m wt 6]_1 seed: q^m (4m E4 - 6 D E4)
    f = E(4, 30)
    m = 3
    expected = (f.series.scale(4 * m) - f.series.derive(1).scale(6)).shift(m)
    assert rc_seed(f, 6, m, 1) == expected


def test_rc_seed_growth_clauses():
    with pytest.raises(SeedConditionError, match="l >= k\\+2"):
        rc_seed(E(6, 20), 6, 1, 0)  # E6 not cuspidal, needs l >= 8
    with pytest.raises(SeedConditionError):
        rc_seed(E(4, 20), 3, 1, 0)  # odd l
    with pytest.raises(SeedConditionError):
        rc_seed(E(4, 20), 2, 1, 0)  # l < 4
    # cusp forms are exempt from l >= k+2
    assert rc_seed(delta(20), 4, 1, 0) == delta(20).series.shift(1)


def test_serre_seed_first_order_closed_form():
    # q^N (N - l/12 E2) for every admissible l
    for l in (4, 6, 8, 10, 12):
        n_index = 2
        seed = serre_seed(l, n_index, 1, prec=20)
        expected = (QSeries.constant(n_index, 20) - e2(20).series.scale(Rat(l, 12))).shift(n_index)
        assert seed == expected


def test_serre_seed_structures():
    E2s = e2(16).series
    want = QSeries.constant(4, 16) + E2s.scale(Rat(-5, 6))
    assert serre_seed(10, 4, 1, prec=16) == want.shift(4)

    want = QSeries.constant(9, 16) + E2s.scale(Rat(-3, 2) * 3) + (E2s * E2s).scale(Rat(1, 2))
    assert serre_seed(8, 3, 2, prec=16) == want.shift(3)


def _agree(a, b):
    """Equality on the common known window."""
    n = min(a.prec, b.prec)
    return a.truncate(n) == b.truncate(n)


def _q_power(n_index, prec):
    return QSeries.one(prec).shift(n_index).truncate(prec)


def test_seeds_match_the_operators_on_q_power():
    # A seed is its operator applied to q^N, so it must agree with the
    # operator run on the pseudo-form q^N of the seed's weight.
    prec = 30
    for l in range(4, 13, 2):
        for n_index in (0, 1, 3):
            g = Form(l, _q_power(n_index, prec))
            for m in range((l - 2) // 2 + 1):
                assert _agree(serre_seed(l, n_index, m, prec), serre_recursive(g, m).series), (l, n_index, m)
    for f in (E(4, prec), E(6, prec), delta(prec)):
        for l in (8, 10, 12):
            for n_index in (0, 1, 3):
                g = Form(l, _q_power(n_index, prec))
                for m in range(3):
                    assert _agree(rc_seed(f, l, n_index, m), rankin_cohen(f, g, m).series), (f.weight, l, n_index, m)


def test_serre_seed_trivial_cases():
    assert serre_seed(6, 0, 0, prec=8) == QSeries.one(8)
    assert serre_seed(10, 3, 0, prec=8) == QSeries.one(8).shift(3)


def test_serre_seed_growth_clause():
    with pytest.raises(SeedConditionError, match="2m\\+2"):
        serre_seed(6, 1, 3)
    with pytest.raises(SeedConditionError):
        serre_seed(4, 1, 4)


def test_ramanujan_derivative_system():
    r1, r2, r3 = ramanujan_derivatives(200)
    assert r1.is_zero() and r2.is_zero() and r3.is_zero()


def test_e2_cubed_relation():
    # E2^3 - E6 = 9 D E4 + 72 D^2 E2
    prec = 120
    lhs = e2(prec).series ** 3 - eisenstein(6, prec).series
    rhs = eisenstein(4, prec).series.derive(1).scale(9) + e2(prec).series.derive(2).scale(72)
    assert lhs == rhs


def test_exact_series_live_in_the_table_store(fresh_tables, monkeypatch):
    from tauforms import calculus, forms

    sieves = []
    real_sieve = forms.sigma_sieve

    def sigma_sieve(a, nmax):
        sieves.append((a, nmax))
        return real_sieve(a, nmax)

    monkeypatch.setattr(forms, "sigma_sieve", sigma_sieve)
    top = 110

    def eis(k):  # an independent build: trial-division sigma, rational coefficients
        c = Rat(-2 * k) / bernoulli(k)
        return QSeries([1] + [c * sigma(k - 1, n) for n in range(1, top)])

    e2s = QSeries([1] + [-24 * sigma(1, n) for n in range(1, top)])
    e4, e6 = eis(4), eis(6)
    requests = {  # store key: (request at prec p, reference to prec top)
        ("E", 4, 1): (lambda p: eisenstein(4, p).series, e4),
        ("E", 6, 1): (lambda p: eisenstein(6, p).series, e6),
        ("E", 10, 1): (lambda p: eisenstein(10, p).series, eis(10)),
        ("E", 2, 1): (lambda p: e2(p).series, e2s),
        ("E", 2, 3): (lambda p: calculus._power(2, 3, p), e2s * e2s * e2s),
        ("E", 4, 3): (lambda p: forms.mk_basis(12, p)[0].series, e4 * e4 * e4),
        ("E", 6, 2): (lambda p: forms.mk_basis(12, p)[1].series, e6 * e6),
    }

    def request_all(precs):
        for p in precs:
            for key, (get, ref) in requests.items():
                assert get(p) == QSeries(ref.coeffs[:p]), (key, p)

    request_all(range(10, top + 1))
    # E4: the first build is exact, each rebuild at least 1.5x the old length
    assert [n + 1 for a, n in sieves if a == 3] == [10, 16, 25, 38, 58, 88, 133]
    stored = dict(forms._tables)
    # one entry per series key, and the lower entries that E2^3 and E4^3 are made from
    assert set(stored) == set(requests) | {("E", 2, 2), ("E", 4, 2)}
    assert all(s.prec <= 1.5 * top for s in stored.values())
    built = list(sieves)
    request_all(range(top, 9, -1))
    assert sieves == built  # every request was covered: nothing built
    assert forms._tables == stored and all(forms._tables[k] is s for k, s in stored.items())


def test_each_exact_product_is_made_once(fresh_tables, products, capsys):
    # The benchmark's exact op list at seed 3, in one process: selftest,
    # derive_identity for the six ids at m = 28, and one bracket's basis.
    from tauforms import cli, forms, poincare

    assert cli.main(["selftest", "--prec", "200"]) == 0
    for ident in ("kumar", "herrero", "s10sig1", "s10sig3", "s9sig1", "s8sig1"):
        poincare.derive_identity(ident, 28, cutoff=300)
    assert cli.main(["basis", "RC(E6,E8,2)", "--prec", "150"]) == 0
    capsys.readouterr()
    # keyed on the series multiplied, in either order: E4 E8 and E4^2 E4 are one product
    calls, distinct = len(products), len({tuple(sorted(pair)) for pair in products})
    assert distinct and calls == distinct, f"{calls} products, {distinct} distinct"
    # the store's exact series are E_k and the powers of E2, E4 and E6 alone
    series_keys = [key for key, table in forms._tables.items() if isinstance(table, QSeries)]
    assert series_keys and all(key[0] == "E" and len(key) == 3 for key in series_keys), series_keys


def test_weights_of_one_monomial_read_the_stored_powers(fresh_tables):
    # dim M_k = 1: E8 = E4^2, E10 = E4 E6 and E14 = E4^2 E6, as the catalog's order-0 brackets take them
    from tauforms import forms

    for k, (a, b) in ((8, (2, 0)), (10, (1, 1)), (14, (2, 1))):
        assert forms._monomial(a, b, 200) == eisenstein(k, 200).series, k


def test_public_names_resolve_once():
    import tauforms

    assert len(tauforms.__all__) == len(set(tauforms.__all__))
    for name in tauforms.__all__:
        assert getattr(tauforms, name) is not None, name
