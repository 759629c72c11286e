import random
import sys
import threading
from math import isqrt
from operator import mul

import numpy as np
import pytest
from mpmath import mp

from tauforms import _kernels, forms, lseries
from tauforms.arith import Rat, rat_str
from tauforms.forms import sigma, tau_table, tau_words
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
    lvalues_m0,
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
    assert rep.result.rigorous and rep.verdict == "FAIL"


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


ERR_ROUND_CASES = [
    (3, 1, 11, False),
    (3, 3, 11, False),
    (3, 1, 10, False),
    (3, 3, 10, False),
    (3, 1, 9, False),
    (3, 1, 8, False),
    (3, 3, 11, True),
    (0, 1, 8, False),  # the m = 0 sum, through lvalue_m0
]


@pytest.mark.parametrize(
    ("m", "a", "s", "n_weight"),
    ERR_ROUND_CASES,
    ids=[f"{a}-{s}-{n_weight}" if m else f"m=0-{a}-{s}" for m, a, s, n_weight in ERR_ROUND_CASES],
)
def test_err_round_bounds_the_fixed_point_sum(m, a, s, n_weight):
    cutoff, prec = 2000, 256
    res = shifted_L(LQuery(m, a, s, cutoff, prec, n_weight=n_weight)) if m else lvalue_m0(a, s, cutoff, prec)
    tau = tau_table(m + cutoff)
    with mp.workprec(1024):
        # independent reference: trial-division sigma, plain big-float sum
        ref = mp.fsum(
            mp.mpf(sigma(a, n) * (n if n_weight else 1) * tau[m + n]) / mp.mpf(m + n) ** s
            for n in range(1, cutoff + 1)
        )
        gap = abs((res.partial_sum if m else res.numeric) - ref)
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
        results.append(
            (
                tau_words(3000),
                tau_table(3000),
                lseries._sigma(1, 3000),
                lseries._weights(11, 3000, 128),
                forms.eisenstein(4, 300).series,
                forms._e2_power(2, 300),
                forms.mk_basis(12, 300)[1].series,
            )
        )

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
    assert len(results) == 8
    # every thread got the one stored array or series of each entry, and equal tau lists
    stored = [(words, sig, weights[1], *series) for words, _, sig, weights, *series in results]
    assert set(forms._tables) >= {("E", 4), ("E", 6), ("E2", 1), ("E2", 2), ("E4^a E6^b", 0, 2)}
    assert all(x is y for r in stored for x, y in zip(r, stored[0]))
    assert all(r[1] == results[0][1] for r in results)


def _spy_weight_builds(monkeypatch):
    """Record the length umax of every weight table build."""
    built, real = [], lseries._weight_limbs

    def weight_limbs(words, s, guard, umax):
        built.append(umax)
        return real(words, s, guard, umax)

    monkeypatch.setattr(lseries, "_weight_limbs", weight_limbs)
    return built


def test_verify_sweep_matches_verify_identity(fresh_tables, monkeypatch):
    weight_builds = _spy_weight_builds(monkeypatch)
    ms = [3, 1, 2]
    reports = verify_sweep("kumar", ms, cutoff=2000)
    assert [n for kind, n in fresh_tables if kind == "tau"] == [2003]
    assert weight_builds == [2003]
    assert [r.m for r in reports] == ms
    assert reports == [verify_identity("kumar", m, cutoff=2000) for m in ms]
    assert weight_builds == [2003] and len(fresh_tables) == 2  # tau and sigma_1, nothing rebuilt


def test_verify_sweep_of_no_m_builds_nothing(fresh_tables, monkeypatch):
    weight_builds = _spy_weight_builds(monkeypatch)
    assert verify_sweep("kumar", []) == []
    assert fresh_tables == [] and weight_builds == []


@pytest.mark.parametrize(
    ("verify", "ms", "args", "match"),
    [
        pytest.param(verify_sweep, [1], {"prec_bits": 15}, "at least 16 bits", id="15"),
        pytest.param(verify_sweep, [1], {"prec_bits": 0}, "at least 16 bits", id="0"),
        pytest.param(verify_sweep, [1], {"prec_bits": -100}, "at least 16 bits", id="-100"),
        pytest.param(verify_sweep, [0], {}, "m must be >= 1", id="m=0"),
        pytest.param(verify_sweep, [3, -2000], {}, "m must be >= 1", id="m=3,-2000"),
        pytest.param(verify_identity, 1, {"prec_bits": 15}, "at least 16 bits", id="verify_identity-15"),
        pytest.param(verify_identity, 0, {}, "m must be >= 1", id="verify_identity-m=0"),
        pytest.param(verify_identity, 1, {"cutoff": 0}, "cutoff must be >= 1", id="verify_identity-cutoff=0"),
        pytest.param(verify_identity, 1, {"tol": 0}, "tol must be positive and finite", id="verify_identity-tol=0"),
    ],
)
def test_verify_sweep_refuses_a_low_precision_before_building(fresh_tables, verify, ms, args, match):
    with pytest.raises(ValueError, match=match):
        verify("kumar", ms, **{"cutoff": 3000, **args})
    assert fresh_tables == []


@pytest.mark.parametrize("prec_bits", [15, 0, -100])
def test_m0_sums_refuse_a_low_precision_before_building(fresh_tables, prec_bits):
    with pytest.raises(ValueError, match="at least 16 bits"):
        lvalue_m0(1, 11, 100, prec_bits=prec_bits)
    with pytest.raises(ValueError, match="at least 16 bits"):
        lvalues_m0(100, prec_bits=prec_bits)
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        lvalue_m0(1, 11, 0)
    with pytest.raises(ValueError, match="closed form"):
        lvalue_m0(3, 9, prec_bits=prec_bits)
    assert fresh_tables == []


def test_weight_table_regrows_geometrically(fresh_tables, monkeypatch):
    weight_builds = _spy_weight_builds(monkeypatch)
    for t in range(100, 401):
        shifted_L(LQuery(2, 1, 11, t))
    assert weight_builds[0] == 102  # the first build is exact
    assert all(b >= a * 3 // 2 for a, b in zip(weight_builds, weight_builds[1:]))
    assert len(weight_builds) <= 5  # 402 / 102 < 1.5^4
    # a weight table never makes the tau words longer than a sum needs
    assert [n for kind, n in fresh_tables if kind == "tau"][0] == 102


def test_weight_tables_keep_one_guard_per_exponent(fresh_tables, monkeypatch):
    weight_builds = _spy_weight_builds(monkeypatch)
    for guard in (128, 200, 128):
        lseries._weights(11, 300, guard)
    assert [k for k in forms._tables if k[0] == "weights"] == [("weights", 11, 128)]
    assert weight_builds == [300, 300, 300]


def test_petersson_recover_builds_each_table_once(fresh_tables, monkeypatch):
    monkeypatch.setattr(lseries, "TIERS", {11: (100, 0.0), 10: (1000, 0.0), 9: (1000, 0.0), 8: (3000, 0.0)})
    petersson_recover()
    assert len(fresh_tables) == 3 and set(fresh_tables) == {("tau", 3000), (1, 3000), (3, 1000)}


def test_tau_table_long_enough_after_query(fresh_tables):
    shifted_L(LQuery(3, 1, 11, 250))
    built = list(fresh_tables)
    assert forms.tau(253) == tau_table(253)[253]
    assert len(tau_table(253)) >= 254
    assert fresh_tables == built  # tau(253) and tau_table(253) read the words the query built


def test_printed_values_table():
    assert M0_PRINTED[(1, 11)] == "0.968"
    assert M0_PRINTED[(1, 9)] == "0.880"
    assert len(M0_PRINTED) == 6


# ---------------------------------------------------------------------------
# The int64 limb path against the Python-int reference: weights
# (tau[u] << G) // u**s and the dot sum(map(mul, sig, w)).

_GUARD = 256 + lseries._GUARD_BITS


def _weight(table, u):
    """W[u] as a Python int from a weight table (bits, limbs)."""
    bits, limbs = table
    return sum(int(x) << (bits * j) for j, x in enumerate(limbs[:, u].tolist()))


@pytest.mark.parametrize("guard", [16 + lseries._GUARD_BITS, _GUARD, 1000])
@pytest.mark.parametrize("s", [8, 9, 10, 11])
def test_limb_weights_are_exact_up_to_3000(s, guard):
    table = lseries._weight_limbs(tau_words(3000), s, guard, 3000)
    assert table[0] == 30  # the widest limbs int32 holds
    tau = tau_table(3000)
    assert [_weight(table, u) for u in range(3001)] == [0] + [(tau[u] << guard) // u**s for u in range(1, 3001)]


@pytest.fixture(scope="module")
def tau_1e5():
    return tau_table(100_000)


@pytest.mark.parametrize("s", [8, 9, 10, 11])
def test_limb_weights_are_exact_at_1e5(s, tau_1e5):
    table = lseries._weight_limbs(tau_words(100_000), s, _GUARD, 100_000)
    assert table[0] == 28  # the limb width for u up to 10^5
    powers = [2**k for k in range(17)]
    # tau(2^k) 2^G is divisible by (2^k)^s here, and tau(2^k) < 0 for some k:
    # the floor of an exact negative quotient takes no correction.
    assert all((tau_1e5[u] << _GUARD) % u**s == 0 for u in powers)
    assert any(tau_1e5[u] < 0 for u in powers)
    rng = random.Random(s)
    us = powers + rng.sample(range(1, 100_001), 3000) + list(range(99_990, 100_001))
    assert [_weight(table, u) for u in us] == [(tau_1e5[u] << _GUARD) // u**s for u in us]


def _reference_dot(a, s, m, cutoff, n_weight):
    """(sum, rounding weight, envelope) of the shifted sum, in Python ints."""
    tau = tau_table(m + cutoff)
    w = [(tau[u] << _GUARD) // u**s for u in range(m + 1, m + cutoff + 1)]
    sig = _kernels.sigma_range(a, cutoff).tolist()[1:]
    if n_weight:
        sig = [x * n for n, x in enumerate(sig, 1)]
    terms = list(map(mul, sig, w))
    return sum(terms), sum(sig), max(map(abs, terms[max(1, cutoff // 10) - 1 :]))


@pytest.mark.parametrize(
    ("a", "s", "m", "cutoff", "n_weight"),
    [
        *[(a, s, 0, 3000, False) for a, s in M0_CONSTANTS],
        (1, 11, 5, 1, False),
        (1, 8, 7, 10, False),
        (1, 10, 5, 100_000, False),
        (3, 10, 6, 100_000, False),
        (1, 10, 0, 100_000, False),
        (3, 10, 0, 100_000, False),
        (1, 8, 2, 100_000, False),
        (1, 9, 2, 100_000, False),
        (3, 11, 1, 100_000, True),
        (3, 11, 0, 100_000, True),
    ],
)
def test_limb_dot_matches_the_python_sum(a, s, m, cutoff, n_weight):
    got = lseries._dot(
        lseries._sigma(a, cutoff)[1 : cutoff + 1], lseries._weights(s, m + cutoff, _GUARD), m, n_weight, True
    )
    assert got == _reference_dot(a, s, m, cutoff, n_weight)
    if n_weight and cutoff == 100_000:
        assert max(sigma(3, n) * n for n in range(99_000, 100_001)) > 2**63
    # err_round comes from the rounding weight and the sum alone
    value, err_round, envelope = lseries._fixed_sum(a, s, m, cutoff, 256, n_weight, True)
    acc, weight, top = got
    excess = abs(acc).bit_length() - 256
    units = weight + (1 << (excess - 1) if excess > 0 else 0)
    with mp.workprec(1024):
        assert err_round == mp.ldexp(units, -_GUARD)
        assert envelope == mp.ldexp(mp.mpf(top, prec=256), -_GUARD)
        assert value == mp.ldexp(mp.mpf(acc, prec=256), -_GUARD)


def test_int64_bounds_of_the_limb_sums_hold_up_to_max_prec():
    umax = _kernels._MAX_PREC
    assert lseries._limb_bits(100_000) == 28 and lseries._limb_bits(umax) == 22
    # Division step: rem < u^2 and a numerator limb < 2^b give
    # rem 2^b + limb < u^2 2^b < 2^63, at the largest u of each limb width.
    widths = set()
    for k in range(1, (umax * umax).bit_length() + 1):
        u = min(isqrt(2**k - 1), umax)
        b = lseries._limb_bits(u)
        widths.add(b)
        assert (u * u - 1) * 2**b + 2**b - 1 < 2**63
        assert 2**b < 2**31  # |limb| <= 2^b, the corrected lowest one included, fits int32
        # |tau| is taken from its words in pieces of at most b bits, each
        # shifted below 2^56: (x_hi mod 2^w) 2^(56 - w) < 2^56 for w <= b.
        assert b <= _kernels._WORD
    assert widths == set(range(22, 31))
    # The dot: a weight limb (|.| <= 2^b) times a sigma limb (a c-bit slice,
    # below 2^c, c = 63 - 13 - b) summed over a chunk of 2^13 lanes stays below 2^63.
    for b in widths:
        c = 63 - lseries._LANES_LOG - b
        assert lseries._LANES * 2**b * (2**c - 1) < 2**63
        # The n-weighted limbs: limb n + carry < 2^(c + 21) for n < 2^20.
        assert umax < 2**20 and (2**c - 1) * (2**20 - 1) + 2**21 <= 2 ** (c + 21) < 2**63
        # The rounding weight sums each sigma limb over at most umax lanes.
        assert umax * (2**c - 1) < 2**63
    # sigma_3(n) n overflows int64 below the limit, so it is formed limb by
    # limb; its limbs at the limit's width are c-bit slices of the exact product.
    sig3 = _kernels.sigma_range(3, umax)[1:]
    assert int(sig3.max()) < 2**63 < int(sig3[-1]) * umax
    c = 63 - lseries._LANES_LOG - lseries._limb_bits(umax)
    for n_weight in (False, True):
        parts = lseries._sigma_limbs(sig3, n_weight, c)
        assert parts.min() >= 0 and parts.max() < 2**c
        for n in list(range(1, 50)) + list(range(umax - 50, umax + 1)):
            value = sum(int(x) << (c * i) for i, x in enumerate(parts[:, n - 1].tolist()))
            assert value == sigma(3, n) * (n if n_weight else 1)
