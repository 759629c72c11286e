import pytest

import tauforms.forms as forms_mod
from tauforms import _kernels
from tauforms.arith import Rat, bernoulli
from tauforms.forms import (
    Form,
    NotModularError,
    delta,
    dim_mk,
    dim_sk,
    e2,
    e12_delta_coords,
    eisenstein,
    in_basis,
    mk_basis,
    one,
    sigma,
    sigma_sieve,
    tau,
    tau_table,
)
from tauforms.lseries import verify_sweep
from tauforms.qseries import QSeries


def test_sigma_values():
    assert sigma(1, 1) == 1
    assert sigma(1, 6) == 12
    assert sigma(3, 2) == 9
    assert sigma(11, 2) == 2049


def test_sigma_rejects_zero():
    with pytest.raises(ValueError):
        sigma(1, 0)


@pytest.mark.parametrize("a", [1, 3, 5, 7, 9, 11, 13])
def test_sigma_sieve_matches_trial_division(a):
    table = sigma_sieve(a, 2000)
    assert table[0] == 0
    assert table[1:] == [sigma(a, n) for n in range(1, 2001)]


def test_eisenstein_coefficients():
    assert eisenstein(4, 5)[1] == 240
    assert eisenstein(6, 5)[1] == -504
    assert eisenstein(10, 5)[1] == -264
    assert eisenstein(12, 5)[1] == Rat(65520, 691)
    assert eisenstein(14, 5)[1] == -24


def test_eisenstein_rejects_low_or_odd_weight():
    with pytest.raises(ValueError, match="use e2"):
        eisenstein(2, 5)
    with pytest.raises(ValueError):
        eisenstein(5, 5)


@pytest.mark.parametrize("prec", [0, -3])
def test_constructors_refuse_precision_below_one(prec):
    makers = (
        QSeries.zero,
        lambda p: QSeries.constant(5, p),
        lambda p: eisenstein(4, p),
        e2,
        one,
        lambda p: mk_basis(8, p),
    )
    for make in makers:
        with pytest.raises(ValueError, match="precision must be at least 1"):
            make(prec)


def test_e2_coefficients():
    f = e2(6)
    assert f.weight == 2 and f.quasimodular
    assert f[0] == 1 and f[1] == -24 and f[4] == -168


def test_weight_two_requires_quasimodular_marker():
    with pytest.raises(ValueError):
        Form(2, QSeries.one(4))


def test_cusp_flag_checks_constant_term():
    with pytest.raises(ValueError):
        Form(12, QSeries.one(8), is_cusp=True)


def test_delta_form():
    d = delta(10)
    assert d.weight == 12 and d.is_cusp and not d.quasimodular
    assert d[1] == 1 and d[2] == -24


def test_tau_table_and_multiplicativity():
    tab = tau_table(30)
    assert tab[1:11] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    assert tau(6) == tau(2) * tau(3)
    assert tau(4) == tau(2) ** 2 - 2**11


def test_tau_on_an_empty_store_builds_the_words_once(fresh_tables):
    assert forms_mod.tau(5) == 4830
    assert [forms_mod.tau(n) for n in range(1, 6)] == [1, -24, 252, -1472, 4830]
    assert fresh_tables == [("tau", 5)]


def test_a_negative_table_size_is_refused(fresh_tables):
    for make in (forms_mod.tau_table, forms_mod.tau_words):
        for nmax in (-1, -3):
            with pytest.raises(ValueError, match="table size must be >= 0"):
                make(nmax)
    assert fresh_tables == [] and forms_mod._tables == {}


def test_tau_reads_the_words_a_sweep_prepared(fresh_tables):
    verify_sweep("kumar", [1], cutoff=50)
    built = list(fresh_tables)
    values = [forms_mod.tau(n) for n in range(1, 52)]
    assert fresh_tables == built == [("tau", 51), (1, 50)]  # tau() built nothing
    assert values == _kernels.tau_numbers(51, _kernels.tau_words(51))[1:]


def test_delta_reads_the_shared_tau_table(fresh_tables):
    table = tau_table(500)
    d = delta(150)
    assert fresh_tables == [("tau", 500)]
    assert list(d.series.coeffs) == table[:150]


def test_dimensions():
    assert dim_sk(10) == 0
    assert dim_sk(12) == 1
    assert dim_mk(12) == 2
    assert [dim_mk(k) for k in (0, 2, 4, 6, 8, 10, 14)] == [1, 0, 1, 1, 1, 1, 1]
    assert dim_mk(26) == 2 and dim_sk(26) == 1
    for k in range(4, 40, 2):
        assert dim_mk(k) == len(mk_basis(k, dim_mk(k) + 8))


def test_mk_basis_contents():
    b12 = mk_basis(12, 10)
    assert len(b12) == 2
    assert b12[0].series == eisenstein(4, 10).series ** 3  # a descending
    assert b12[1].series == eisenstein(6, 10).series ** 2
    assert len(mk_basis(4, 10)) == 1
    b14 = mk_basis(14, 10)
    assert len(b14) == 1
    assert b14[0].series == eisenstein(4, 10).series ** 2 * eisenstein(6, 10).series


def test_in_basis_delta():
    # in_basis checks every row, so Delta = (E4^3 - E6^2)/1728, which the
    # E12/Delta coordinates take as given, holds on every coefficient of the
    # FFT-built tau table here.
    coords = in_basis(delta(400))
    assert coords.coeff(3, 0) == Rat(1, 1728)
    assert coords.coeff(0, 2) == Rat(-1, 1728)
    # reconstruction is exact
    assert coords.reconstruct(400).series == delta(400).series


def test_in_basis_e4_squared():
    f = eisenstein(4, 12) * eisenstein(4, 12)
    coords = in_basis(f)
    assert coords.coeff(2, 0) == 1


def test_in_basis_rejects_e2():
    with pytest.raises(NotModularError, match="not modular"):
        in_basis(e2(12))


def test_in_basis_rejects_fake_modular_series():
    fake = Form(12, QSeries([Rat(1)] + [Rat(n) for n in range(1, 12)]))
    with pytest.raises(NotModularError, match="not modular"):
        in_basis(fake)


def test_in_basis_needs_enough_precision():
    with pytest.raises(ValueError, match="too low"):
        in_basis(Form(12, QSeries.one(4)))


def test_low_weights_have_no_cusp_forms():
    # dim M_k = 1 there, so E_k spans and in_basis must succeed on it
    for k in (4, 6, 8, 10, 14):
        assert dim_mk(k) == 1
        coords = in_basis(eisenstein(k, 12))
        nonzero = [(ab, c) for ab, c in coords.coords if c != 0]
        assert len(nonzero) == 1 and nonzero[0][1] == 1


def test_e4_cubed_minus_e6_squared():
    f = eisenstein(4, 10) ** 3 - eisenstein(6, 10) ** 2
    assert f[0] == 0
    assert f[1] == 1728


def test_eisenstein_growth_bound():
    # |a_n| <= 2 (2k/|B_k|) zeta(k-1) n^{k-1}, crude but checkable
    import mpmath

    for k in (4, 6, 12):
        f = eisenstein(k, 201)
        bound_const = 2 * abs(float(Rat(2 * k) / bernoulli(k))) * float(mpmath.zeta(k - 1))
        for n in range(1, 201):
            assert abs(float(f[n])) <= bound_const * n ** (k - 1)


def test_e12_delta_coordinates():
    c_e12, c_delta = e12_delta_coords(eisenstein(12, 12))
    assert (c_e12, c_delta) == (1, 0)
    c_e12, c_delta = e12_delta_coords(delta(12))
    assert (c_e12, c_delta) == (0, 1)


def test_basis_coords_json():
    coords = in_basis(delta(12))
    text = coords.to_json()
    assert '"weight": 12' in text
    assert '"coeff": "1/1728"' in text


def test_form_weight_mismatch_add():
    with pytest.raises(ValueError, match="weight mismatch"):
        eisenstein(4, 8) + eisenstein(6, 8)


def test_one_is_weight_zero():
    u = one(6)
    assert u.weight == 0 and u[0] == 1 and not u.quasimodular
