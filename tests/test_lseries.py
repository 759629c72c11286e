import sys
import threading

import pytest
from mpmath import mp

from tauforms import lseries
from tauforms.arith import Rat, rat_str
from tauforms.forms import sigma, tau_table
from tauforms.lseries import (
    LQuery,
    M0_CONSTANTS,
    M0_PRINTED,
    TIERS,
    _certified_tail,
    derive_m0_constants,
    exact_lhs_catalog,
    hidden_moment,
    lvalue_m0,
    petersson_recover,
    shifted_L,
    verify_identity,
    verify_sweep,
)

EXPECTED_DECOMPOSITIONS = {
    "serre_derivative(E10)": (Rat(-5, 6), Rat(38016, 691)),
    "E8 * E4": (Rat(1), Rat(432000, 691)),
    "rankin_cohen(E4, E6, 1)": (Rat(0), Rat(-3456)),
    "serre_derivative(E8, order 2)": (Rat(1, 2), Rat(-49344, 691)),
    "serre_derivative(E6, order 3) + 7/36 E6^2": (Rat(0), Rat(-168)),
    "serre_derivative(E4, order 4) - 35/864 E4 E8 - 7/40 [E4,E4]_2 + 35/432 [E6,E4]_1": (
        Rat(0),
        Rat(-600),
    ),
}


def test_exact_catalog_decompositions():
    entries = exact_lhs_catalog(60)
    assert len(entries) == 6
    for entry in entries:
        e12, delta_coeff = EXPECTED_DECOMPOSITIONS[entry.label]
        assert entry.e12 == e12, entry.label
        assert entry.delta_coeff == delta_coeff, entry.label


def test_m0_constants_derive_from_decompositions():
    assert derive_m0_constants(60) == M0_CONSTANTS


def test_m0_constant_table_values():
    assert M0_CONSTANTS[(1, 11)] == Rat(2**19 * 11, 3 * 5**3 * 7 * 691)
    assert M0_CONSTANTS[(1, 8)] == Rat(2**14, 3**3 * 5 * 7**2)
    assert rat_str(M0_CONSTANTS[(3, 11)]) == "131072/43533"


def test_tier_table():
    assert TIERS[11] == (10_000, 1e-10)
    assert TIERS[10] == (100_000, 1e-8)
    assert TIERS[9] == (100_000, 1e-6)
    assert TIERS[8] == (300_000, 1e-4)


def test_query_validation():
    with pytest.raises(ValueError, match="outside the catalog"):
        LQuery(1, 3, 9, 100)
    with pytest.raises(ValueError, match="n-weighted"):
        LQuery(1, 1, 11, 100, n_weight=True)
    with pytest.raises(ValueError):
        LQuery(-1, 1, 11, 100)
    with pytest.raises(ValueError, match="lvalue_m0"):
        shifted_L(LQuery(0, 1, 11, 100))


def test_shifted_l_kumar_small_cutoff():
    res = shifted_L(LQuery(1, 1, 11, 500))
    assert res.terms_used == 500
    assert res.rigorous
    # Kumar at m=1: sum = tau(1)/(-120) = -1/120
    assert abs(res.partial_sum + mp.mpf(1) / 120) < 1e-9
    assert res.tail_estimate > 0


def test_shifted_l_determinism():
    q = LQuery(2, 3, 11, 400)
    a, b = shifted_L(q), shifted_L(q)
    assert a.partial_sum == b.partial_sum
    assert mp.nstr(a.partial_sum, 30) == mp.nstr(b.partial_sum, 30)


def test_certified_tail_properties():
    mp.prec = 64
    t1 = _certified_tail(1, 1, 11, 1000, False)
    t2 = _certified_tail(1, 1, 11, 4000, False)
    assert t1 > t2 > 0  # larger cutoff, smaller bound
    assert _certified_tail(1, 3, 10, 100000, False) is not None
    # the n-weighted aux series still clears the alpha < -1 requirement
    assert _certified_tail(1, 3, 11, 10000, True) is not None


def test_envelope_tail_for_slow_exponents():
    res = shifted_L(LQuery(1, 1, 8, 300))
    assert not res.rigorous
    assert res.tail_estimate > 0


def _spy_dot(monkeypatch):
    """Record the ``envelope`` flag of every ``lseries._dot`` call."""
    asked, real = [], lseries._dot

    def dot(*args):
        asked.append(args[-1])
        return real(*args)

    monkeypatch.setattr(lseries, "_dot", dot)
    return asked


@pytest.mark.parametrize(
    "query", [LQuery(1, 1, 11, 300), LQuery(2, 1, 10, 300), LQuery(3, 3, 11, 10_000, n_weight=True)]
)
def test_certified_tail_never_asks_for_the_envelope(monkeypatch, query):
    asked = _spy_dot(monkeypatch)
    res = shifted_L(query)
    assert res.rigorous and asked == [False]


def test_uncertified_tail_and_m0_values_ask_as_needed(monkeypatch):
    asked = _spy_dot(monkeypatch)
    res = shifted_L(LQuery(1, 1, 8, 300))
    lvalue_m0(1, 8, 300)
    assert not res.rigorous and asked == [True, False]


def test_verify_identity_report_fields():
    rep = verify_identity("kumar", 1, tol=1e-6, cutoff=800)
    assert rep.identity_id == "kumar"
    assert rep.lhs == 1
    assert rep.a == 1 and rep.s == 11
    assert rep.verdict == "PASS"
    row = rep.row()
    assert list(row) == [
        "identity_id",
        "m",
        "a",
        "s",
        "cutoff",
        "partial_sum",
        "tail_estimate",
        "rigorous",
        "lhs",
        "rel_err",
        "verdict",
    ]


def test_verify_identity_rigor_gate():
    # within tolerance but the certified tail cannot support the claim
    rep = verify_identity("herrero", 1, tol=1e-3, cutoff=500)
    assert float(rep.rel_err) < 1e-3
    assert rep.rigorous and rep.verdict == "FAIL"


def test_verify_identity_kumar_tier_passes():
    rep = verify_identity("kumar", 1)
    assert rep.verdict == "PASS"
    assert float(rep.rel_err) < 1e-10


def test_hidden_moment_small_cutoff():
    res = hidden_moment(1, cutoff=2000)
    assert abs(res.partial_sum) < 1e-3


def test_lvalue_m0_kumar_entry_small_cutoff():
    val = lvalue_m0(1, 11, cutoff=2000)
    assert abs(val.numeric - val.predicted) < 1e-3
    assert val.printed == "0.968"
    with pytest.raises(ValueError, match="closed form"):
        lvalue_m0(3, 9)


def test_mpf_tables_grow_consistently():
    # growing the cutoff must not change earlier partial sums
    a = shifted_L(LQuery(1, 1, 11, 300)).partial_sum
    shifted_L(LQuery(1, 1, 11, 900))
    b = shifted_L(LQuery(1, 1, 11, 300)).partial_sum
    assert a == b


@pytest.mark.parametrize(
    ("a", "s", "n_weight"),
    [(1, 11, False), (3, 11, False), (1, 10, False), (3, 10, False), (1, 9, False), (1, 8, False), (3, 11, True)],
)
def test_err_round_bounds_the_fixed_point_sum(a, s, n_weight):
    m, cutoff, prec = 3, 2000, 256
    res = shifted_L(LQuery(m, a, s, cutoff, prec, n_weight=n_weight))
    tau = tau_table(m + cutoff)
    with mp.workprec(1024):
        # independent reference: trial-division sigma, plain big-float sum
        ref = mp.fsum(
            mp.mpf(sigma(a, n) * (n if n_weight else 1) * tau[m + n]) / mp.mpf(m + n) ** s
            for n in range(1, cutoff + 1)
        )
        gap = abs(res.partial_sum - ref)
        assert gap <= res.err_round + mp.ldexp(abs(ref), -prec)
    assert 0 < res.err_round < mp.ldexp(1, -prec)


def test_tau_table_regrows_geometrically(fresh_tables):
    for m in range(1, 21):
        verify_identity("kumar", m, cutoff=2000)
    built = [n for kind, n in fresh_tables if kind == "tau"]
    assert built[0] == 2001  # the first build is exact
    assert len(built) <= 2


def test_sigma_table_regrows_geometrically(fresh_tables):
    for t in range(100, 201):
        shifted_L(LQuery(3, 1, 11, t))
    built = [(a, n) for a, n in fresh_tables if a == 1]
    assert built[0] == (1, 100)  # the first build is exact
    assert len(built) <= 3


def test_tables_are_built_once_under_concurrent_requests(fresh_tables):
    results = []

    def work():
        results.append((tau_table(3000), lseries._sigma(1, 3000), lseries._weights(11, 3000, 128)))

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(fresh_tables) == 2 and set(fresh_tables) == {("tau", 3000), (1, 3000)}
    assert len(results) == 8 and all(x is y for r in results for x, y in zip(r, results[0]))


def test_verify_sweep_matches_verify_identity(fresh_tables):
    ms = [3, 1, 2]
    reports = verify_sweep("kumar", ms, cutoff=2000)
    assert [n for kind, n in fresh_tables if kind == "tau"] == [2003]
    assert [r.m for r in reports] == ms
    assert reports == [verify_identity("kumar", m, cutoff=2000) for m in ms]


def test_petersson_recover_builds_each_table_once(fresh_tables, monkeypatch):
    monkeypatch.setattr(lseries, "TIERS", {11: (100, 0.0), 10: (1000, 0.0), 9: (1000, 0.0), 8: (3000, 0.0)})
    petersson_recover()
    assert len(fresh_tables) == 3 and set(fresh_tables) == {("tau", 3000), (1, 3000), (3, 1000)}


def test_tau_table_long_enough_after_query():
    shifted_L(LQuery(3, 1, 11, 250))
    assert len(tau_table(253)) >= 254


def test_printed_values_table():
    assert M0_PRINTED[(1, 11)] == "0.968"
    assert M0_PRINTED[(1, 9)] == "0.880"
    assert len(M0_PRINTED) == 6
