from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauforms import _kernels
from tauforms.arith import Rat
from tauforms.forms import delta_series, e2, eisenstein, sigma
from tauforms.qseries import QSeries, linear_combination

small_series = st.lists(
    st.builds(lambda n, d: Rat(n, d), st.integers(-50, 50), st.integers(1, 12)),
    min_size=1,
    max_size=20,
).map(QSeries)


def q(*coeffs):
    return QSeries([Rat(c) if not isinstance(c, str) else Rat(c) for c in coeffs])


def test_add_examples():
    assert q(1, 1) + q(1, -1) == q(2, 0)
    e4 = eisenstein(4, 10).series
    assert (e4 + e4.scale(-1)).is_zero()


def test_precision_is_min_of_operands():
    a, b = QSeries.one(10), QSeries.one(5)
    assert (a + b).prec == 5
    assert (a * b).prec == 5
    assert (a - b).prec == 5


def test_mul_examples():
    assert q(1, 1, 0) * q(1, -1, 0) == q(1, 0, -1)
    e4 = eisenstein(4, 10).series
    e8 = eisenstein(8, 10).series
    assert (e4 * e8)[1] == 720
    assert e4 * QSeries.one(10) == e4


def test_pow_examples():
    f = q(1, 1)
    assert f**0 == QSeries.one(2)
    assert q(1, 1, 0, 0) ** 3 == q(1, 3, 3, 1)


def test_pow_starts_from_the_base(products):
    e4 = eisenstein(4, 30).series
    assert e4**0 == QSeries.one(30) and e4**1 == e4 and not products
    assert e4**3 == e4 * e4 * e4
    products.clear()
    e4**3
    assert len(products) == 2  # E4^2, then E4 E4^2; never a product with 1


def test_e2_square_coefficients():
    # coefficient of q^n in E2^2 is 240 sigma_3(n) - 288 n sigma_1(n)
    sq = e2(51).series ** 2
    assert sq[0] == 1
    for n in (-1, 51):  # neither end wraps round
        with pytest.raises(IndexError):
            sq[n]
    for n in range(1, 51):
        assert sq[n] == 240 * sigma(3, n) - 288 * n * sigma(1, n)


@settings(max_examples=30)
@given(small_series, small_series)
def test_leibniz_rule(f, g):
    lhs = (f * g).derive(1)
    rhs = f.derive(1) * g + f * g.derive(1)
    assert lhs == rhs


@settings(max_examples=20)
@given(small_series, st.integers(0, 8))
def test_pow_matches_iterated_mul(f, e):
    expected = QSeries.one(f.prec)
    for _ in range(e):
        expected = expected * f
    assert f**e == expected


def test_derive_examples():
    f = q(3, 5, 7)
    assert f.derive(0) is f
    assert e2(10).series.derive(1)[1] == -24
    assert q(0, 0, 1).derive(3) == q(0, 0, 8)


def test_shift_examples():
    assert QSeries.one(1).shift(3) == q(0, 0, 0, 1)
    e4 = eisenstein(4, 10).series
    assert e4.shift(0) == e4
    assert q(1, -24).shift(2) == q(0, 0, 1, -24)
    assert q(1, -24).shift(2).prec == 4


def test_delta_leading_coefficients():
    d = delta_series(8)
    assert d[0] == 0 and d[1] == 1 and d[2] == -24
    assert all(c.denominator == 1 for c in d.coeffs)


def naive_eta24(prec):
    """Dense expansion of q prod_{n<prec}(1-q^n)^24, the independent route."""
    poly = [Rat(1)] + [Rat(0)] * (prec - 1)

    def mul_by(factor_exp):
        # multiply by (1 - q^factor_exp)
        out = poly[:]
        for i in range(prec - factor_exp):
            out[i + factor_exp] -= poly[i]
        return out

    for n in range(1, prec):
        for _ in range(24):
            poly = mul_by(n)
    return QSeries([Rat(0)] + poly[: prec - 1])


def test_delta_matches_naive_product():
    prec = 40
    assert delta_series(prec) == naive_eta24(prec)


def test_delta_tau_multiplicativity():
    prec = 200
    d = delta_series(prec)
    from math import gcd

    for a in range(2, prec):
        for b in range(a + 1, prec):
            if a * b >= prec:
                break
            if gcd(a, b) == 1:
                assert d[a * b] == d[a] * d[b]


def test_delta_requires_prec_two():
    with pytest.raises(ValueError):
        delta_series(1)


def test_json_roundtrip():
    f = q("5/6", -24, "163224/7")
    assert QSeries.from_json(f.to_json()) == f
    assert '"prec": 3' in f.to_json()


def test_mul_scalar_and_neg():
    f = q(1, 2, 3)
    assert f.scale(Rat(1, 2)) == q("1/2", 1, "3/2")
    assert -f == q(-1, -2, -3)
    assert 2 * f == q(2, 4, 6)


def schoolbook(a: QSeries, b: QSeries) -> QSeries:
    """Reference product: one exact multiply-add per coefficient pair."""
    n = min(a.prec, b.prec)
    out = [Rat(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return QSeries(out)


_COPRIME_DENS = (1, 2, 3, 5, 7, 11, 13, 691, 3617, 2**61 - 1)
_big = st.builds(lambda m, neg: -m if neg else m, st.integers(2**200, 2**230), st.booleans())
_coeff = st.one_of(
    st.just(Rat(0)),
    st.builds(Rat, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Rat, _big, st.sampled_from(_COPRIME_DENS)),
    st.builds(Rat, st.integers(-(10**6), 10**6), st.sampled_from(_COPRIME_DENS)),
)
# Runs of one repeated coefficient, so zeros come in runs as well as alone.
_runs_series = st.lists(st.tuples(_coeff, st.integers(1, 8)), min_size=1, max_size=8).map(
    lambda runs: QSeries([c for c, k in runs for _ in range(k)])
)


# Squares pack their operand once.  Numerators of 10 bits at n = 3 make the
# result's slot exactly 10 + 10 + 2 + 2 = 24 bits, no padding above the sign.
_TIGHT = QSeries([Rat(-1023, 3)] * 3)
_ONE_COEFF = QSeries([Rat(-5, 7)])


@settings(max_examples=200)
@given(_runs_series, _runs_series)
@example(_TIGHT, _TIGHT)
@example(QSeries([Rat(-1023, 3)] * 3), QSeries([Rat(-1023, 3)] * 3))
@example(_TIGHT, QSeries([Rat(-1023, 5)] * 3))
@example(_ONE_COEFF, _ONE_COEFF)
@example(QSeries.zero(6), QSeries.zero(6))
@example(QSeries([Rat(-(2**220), 13)] * 5), QSeries([Rat(-(2**220), 13)] * 5 + [Rat(1)]))
@example(QSeries([Rat(-3, 7)]), QSeries([Rat(5, 11)]))
@example(QSeries.zero(9), QSeries([Rat(2**201 + 1, 691), Rat(-1, 3617), Rat(0), Rat(7, 2)]))
@example(QSeries([Rat(-(2**220), 13)] * 5), QSeries.zero(1))
def test_mul_matches_schoolbook(f, g):
    prod = f * g
    assert prod == schoolbook(f, g)
    assert prod.prec == min(f.prec, g.prec)
    assert g * f == prod


def _assert_canonical(f: QSeries) -> None:
    assert all(type(x) is int for x in f.num) and type(f.den) is int
    assert f.den > 0 and gcd(f.den, *f.num) == 1


@settings(max_examples=75)
@given(
    _runs_series,
    _runs_series,
    _coeff,
    st.integers(0, 3),
    st.integers(0, 5),
    st.integers(1, 70),
    st.integers(0, 3),
)
@example(QSeries([Rat(1, 6), Rat(1, 3)]), QSeries([Rat(-1, 6), Rat(2, 3)]), Rat(6), 1, 0, 1, 2)
def test_operations_match_coefficientwise_fractions(f, g, c, j, up, cut, e):
    a, b = f.coeffs, g.coeffs
    n = min(len(a), len(b))
    power = QSeries.one(f.prec)
    for _ in range(e):
        power = schoolbook(power, f)
    cases = [
        (f + g, [a[i] + b[i] for i in range(n)]),
        (f - g, [a[i] - b[i] for i in range(n)]),
        (-f, [-x for x in a]),
        (f.scale(c), [c * x for x in a]),
        (c * f, [c * x for x in a]),
        (f.derive(j), [x * i**j for i, x in enumerate(a)]),
        (f.shift(up), [Rat(0)] * up + list(a)),
        (f * g, list(schoolbook(f, g).coeffs)),
        (f**e, list(power.coeffs)),
    ]
    if cut <= f.prec:
        cases.append((f.truncate(cut), list(a[:cut])))
    for got, want in cases:
        _assert_canonical(got)
        assert list(got.coeffs) == want
        assert [got[i] for i in range(got.prec)] == want
        ref = QSeries(want)  # the same series, built from its coefficients
        assert got == ref and hash(got) == hash(ref)


def _fold(terms, value, prec):
    """The reference for ``linear_combination``: scale each term and add it to the sum so far."""
    total = None
    for c, x in terms:
        if c:
            term = value(x) if c == 1 else value(x).scale(c)
            total = term if total is None else total + term
    return QSeries.zero(prec) if total is None else total


_lc_coeff = st.one_of(st.sampled_from([0, 1, -1, 2]), _coeff)


@settings(max_examples=200)
@given(st.lists(st.tuples(_lc_coeff, _runs_series), max_size=6), st.integers(1, 12))
@example([(1, QSeries([Rat(2, 3), Rat(0), Rat(-5, 7)]))], 9)  # one term, c = 1
@example([(0, QSeries([Rat(1, 2)] * 4)), (Rat(0), QSeries([Rat(3)] * 2))], 5)  # every coefficient zero
@example([], 7)  # no term
def test_linear_combination_equals_the_fold(pairs, prec):
    called = []

    def value(i):
        called.append(i)
        return pairs[i][1]

    terms = [(c, i) for i, (c, _) in enumerate(pairs)]
    got = linear_combination(terms, value, prec)
    assert called == [i for c, i in terms if c]  # a zero coefficient's value is never made
    want = _fold(terms, lambda i: pairs[i][1], prec)
    _assert_canonical(got)
    assert (got.num, got.den, got.prec) == (want.num, want.den, want.prec)
    if not called:
        assert got == QSeries.zero(prec)


def test_equal_series_built_by_different_routes_hash_equal():
    f = q(1, 2, 0, -3)
    routes = [
        q("1/6", "1/3", 0, "-1/2").scale(6),
        q("1/2", 1, 0, "-3/2") + q("1/2", 1, 0, "-3/2"),
        q(3, 2, 7, -3) - q(2, 0, 7, 0),
        q(1, 4, 0, -24).derive(0) - q(0, 2, 0, -21),
        q("7/10", "7/5", 0, "-21/10") * q("10/7", 0, 0, 0),
        q("5/2", 2, 0, -3, "1/9").truncate(4) - q("3/2", 0, 0, 0),
    ]
    for g in routes:
        _assert_canonical(g)
        assert g == f and hash(g) == hash(f)
    assert q("2/4", 0).den == 2 and q(0, 0).den == 1


def test_deep_products_match_closed_forms():
    prec = 2000
    E2 = e2(prec).series
    E4 = eisenstein(4, prec).series
    E6 = eisenstein(6, prec).series
    sq = E2 * E2
    assert sq[0] == 1
    assert all(sq[n] == 240 * sigma(3, n) - 288 * n * sigma(1, n) for n in range(1, prec))
    assert E4 * E6 == eisenstein(10, prec).series
    disc = (E4**3 - E6 * E6).scale(Rat(1, 1728))
    assert disc[0] == 0
    assert list(disc.coeffs[1:]) == _kernels.tau_numbers(prec - 1, _kernels.tau_words(prec - 1))[1:prec]
