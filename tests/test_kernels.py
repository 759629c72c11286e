"""The integer kernels: pinned tau table, Hecke relations, sparse and sieve references, int64 and FFT bounds."""

import hashlib
from itertools import accumulate
from math import gcd, isqrt, sqrt
from unittest import mock

import numpy as np
import pytest

from tauforms import _kernels
from tauforms.forms import sigma

# sha256 of ",".join(map(str, tau_numbers(100000))), recorded with a CRT over
# four 31-bit primes, so the pin does not rest on the recombination it checks.
TAU_1E5_SHA256 = "1b40302cfe622b682eee3f69ffeb05b8aa39a0532147998c7f45d15d7c0a3c9b"


@pytest.fixture(scope="module")
def tau():
    return _kernels.tau_numbers(100_000, _kernels.tau_words(100_000))


def test_tau_numbers_digest_is_pinned(tau):
    assert len(tau) == 100_001 and tau[0] == 0
    assert hashlib.sha256(",".join(map(str, tau)).encode()).hexdigest() == TAU_1E5_SHA256


def test_tau_numbers_refuses_words_shorter_than_asked():
    words = _kernels.tau_words(5)
    assert _kernels.tau_numbers(5, words) == [0, 1, -24, 252, -1472, 4830]
    for nmax in (6, 10):
        with pytest.raises(ValueError, match=r"tau words hold tau\(0\.\.5\)"):
            _kernels.tau_numbers(nmax, words)


def test_hecke_prime_squares_near_1e5(tau):
    for p in (293, 307, 311, 313):  # p^2 from 85849 to 97969
        assert tau[p * p] == tau[p] ** 2 - p**11


def test_hecke_prime_power_chains(tau):
    for p in (2, 3, 5):
        pk = p
        while pk * p * p <= 100_000:
            assert tau[pk * p * p] == tau[p] * tau[pk * p] - p**11 * tau[pk]
            pk *= p


def test_hecke_multiplicative_near_1e5(tau):
    signs = set()
    for m in range(2, 317):
        n = 100_000 // m
        while gcd(m, n) != 1:
            n -= 1
        assert tau[m * n] == tau[m] * tau[n], (m, n)
        signs.add(tau[m * n] > 0)
    assert signs == {True, False}


def _slice_sieve(a, nmax):
    """The reference sieve: one slice add of d^a per divisor d."""
    out = np.zeros(nmax + 1, dtype=np.int64)
    for d in range(1, nmax + 1):
        out[d::d] += d**a
    return out


@pytest.mark.parametrize("a", [1, 3])
def test_sigma_range_matches_trial_division(a):
    table = _kernels.sigma_range(a, 2000)
    assert table[0] == 0
    assert table[1:].tolist() == [sigma(a, n) for n in range(1, 2001)]


@pytest.mark.parametrize("a", [1, 3])
@pytest.mark.parametrize("nmax", [0, 1, 2, 3, 4, 99, 100, 101, 10_000])
def test_sigma_range_matches_slice_sieve(a, nmax):
    table = _kernels.sigma_range(a, nmax)
    assert table.dtype == np.int64
    assert np.array_equal(table, _slice_sieve(a, nmax))


def _eta24_sparse(prec, p):
    """The reference: prod(1-q^n)^24 mod p as seven sparse products by the Jacobi cube."""
    exps, coeffs = _kernels.jacobi_terms(prec)
    res = np.zeros(prec, dtype=np.int64)
    res[exps] = coeffs % p
    acc = np.empty(prec, dtype=np.int64)
    buf = np.empty(prec, dtype=np.int64)
    terms = list(zip(exps.tolist(), coeffs.tolist()))[1:]  # the q^0 term is 1
    for _ in range(7):
        acc[:] = res
        for e, c in terms:
            n = prec - e
            np.multiply(res[:n], c, out=buf[:n])
            np.add(acc[e:], buf[:n], out=acc[e:])
        np.remainder(acc, p, out=res)
    return res


# The sparse loop runs mod each of these three primes below 2^40; their
# product exceeds twice every |tau(n)| with n <= _MAX_PREC, so agreeing mod
# all three is agreeing exactly.
_REFERENCE_PRIMES = (1099511627689, 1099511627609, 1099511627581)


@pytest.mark.parametrize("prec", [1, 2, 3, 10, 5000, 6075])
def test_eta24_modp_matches_the_sparse_loop(prec):
    words = _kernels.eta24_modp(prec)
    assert words.dtype == np.int64 and words.shape == (2, prec)
    lo, hi = words.tolist()
    assert all(0 <= w < 2**56 for w in lo)
    exact = [w + (h << 56) for w, h in zip(lo, hi)]
    for p in _REFERENCE_PRIMES:
        assert [c % p for c in exact] == _eta24_sparse(prec, p).tolist(), p


def _jacobi_product(prec):
    """f^2 below q^prec as a Python-int product of the Jacobi series f = eta^3."""
    exps, coeffs = _kernels.jacobi_terms(prec)
    terms = list(zip(exps.tolist(), coeffs.tolist()))
    out = [0] * prec
    for e, c in terms:
        for f, d in terms:
            if e + f < prec:
                out[e + f] += c * d
    return out


@pytest.mark.parametrize("prec", [1, 2, 3, 10, 5000, 6075])
def test_eta6_is_the_square_of_the_jacobi_series(prec):
    eta6 = _kernels._eta6(prec)
    assert eta6.dtype == np.int64
    assert eta6.tolist() == _jacobi_product(prec)


def _horner(v, p):
    out = 0
    for c in reversed(v):
        out = (out * _kernels._EVAL_POINT + c) % p
    return out


# A block is ceil(sqrt(n)) long: 100^2 - 1 and 100^2 end on a partial and a
# full block of 100, 100^2 + 1 starts blocks of 101; 202,500 is the length
# of the transforms of tau_words(100000).
@pytest.mark.parametrize("n", [1, 2, 100**2 - 1, 100**2, 100**2 + 1, 202_500])
def test_at_point_matches_a_python_horner(n):
    p = _kernels._PRIMES[0]
    v = np.random.default_rng(n).integers(-(2**62), 2**62, size=n, dtype=np.int64)
    v[:3] = [2**63 - 1, -(2**63), 0][:n]
    assert _kernels._at_point(v, p) == _horner(v.tolist(), p)


def test_transform_lengths_are_least_5_smooth():
    def smooth(m):
        for q in (2, 3, 5):
            while m % q == 0:
                m //= q
        return m == 1

    for n in range(1, 3000):
        size = _kernels._smooth_len(n)
        assert size >= n and smooth(size) and not any(smooth(m) for m in range(n, size))
    assert _kernels._smooth_len(2 * 6075 - 1) == 12150  # 2 3^5 5^2, not a power of two


# Splits with limbs wider than the 22-bit step of the check's Horner: two
# limbs of 23 bits, two of 24 bits (the top degree's residue exceeds 2^39,
# so one unstepped shift by 24 bits would overflow int64), one of 23 bits.
@pytest.mark.parametrize("a", [[2**45 - 1, -(2**45), 12345, 7], [12345678 * 2**24 + 12345], [3, -(2**22), 5]])
def test_square_of_a_wide_operand_is_exact(a):
    v = np.array(a, dtype=np.int64)
    assert _kernels._limb_split(v)[1] > 22
    size = _kernels._smooth_len(2 * len(a) - 1)
    square = [0] * size
    for shift, ck in _kernels._square(v, size):
        for t, c in enumerate(ck.tolist()):
            square[t] += c << shift
    want = [sum(a[i] * a[t - i] for i in range(len(a)) if 0 <= t - i < len(a)) for t in range(size)]
    assert square == want


def _perturb_irfft(monkeypatch, which, delta):
    """Add ``delta`` to one entry of the ``which``-th inverse transform's output."""
    real = np.fft.irfft
    seen = []

    def irfft(*args, **kwargs):
        c = real(*args, **kwargs)
        seen.append(len(seen))
        if seen[-1] == which:
            c[len(c) // 3] += delta
        return c

    monkeypatch.setattr(np.fft, "irfft", irfft)
    return seen


def _limb_counts(n):
    """The limb counts that the rule picks for the two FFT squares of tau_words(n)."""
    real, counts = _kernels._limb_split, []

    def spy(a):
        count, bits = real(a)
        counts.append(count)
        return count, bits

    with mock.patch.object(_kernels, "_limb_split", spy):
        _kernels.tau_words(n)
    return counts


# tau_words(300) squares in 1 and 2 limbs, tau_words(100000) in 2 and 3:
# together every limb count the rule picks up to 10^5.  A square of c limbs
# runs 2c - 1 inverse transforms; each case perturbs one of them.
_SPLITS = {n: _limb_counts(n) for n in (300, 100_000)}
_TRANSFORMS = [
    (n, which, list(accumulate(2 * c - 1 for c in counts)))
    for n, counts in _SPLITS.items()
    for which in range(sum(2 * c - 1 for c in counts))
]


def test_guard_cases_cover_limb_counts_one_to_three():
    assert _SPLITS == {300: [1, 2], 100_000: [2, 3]}


def _limb_split_every_limb(a):
    """The limb rule computed from every limb of every count it tries."""
    width = int(np.abs(a).max()).bit_length()
    for count in range(1, width + 1):
        bits = width // count
        sq = [_kernels._square_norm(limb) for limb in _kernels._balanced(a, count, bits)]
        sums = (
            sum(isqrt(sq[i] * sq[k - i]) + 1 for i in range(max(0, k - count + 1), min(k, count - 1) + 1))
            for k in range(2 * count - 1)
        )
        if max(sums) < _kernels._LIMB_SUM:
            return count, bits
    raise AssertionError("no split")


@pytest.mark.parametrize("n", [1, 2, 300, 5000, 100_000, 300_020])
def test_limb_split_tests_the_top_limb_first_without_changing_the_rule(n):
    operands = []
    real = _kernels._limb_split

    def spy(a):
        operands.append(a.copy())
        return real(a)

    with mock.patch.object(_kernels, "_limb_split", spy):
        _kernels.eta24_modp(n)
    rng = np.random.default_rng(n)
    operands += [rng.integers(-(2**w), 2**w, 4000) for w in (10, 30, 45, 58)]
    for a in operands:
        assert real(a) == _limb_split_every_limb(a)


@pytest.mark.parametrize("case", range(len(_TRANSFORMS)))
def test_fft_guard_raises_off_an_integer(monkeypatch, case):
    n, which, _ = _TRANSFORMS[case]
    seen = _perturb_irfft(monkeypatch, which, 0.3)
    with pytest.raises(ArithmeticError, match="off an integer"):
        _kernels.tau_words(n)
    assert len(seen) == which + 1  # raised at the perturbed transform; nothing was retried


@pytest.mark.parametrize("case", range(len(_TRANSFORMS)))
def test_fft_evaluation_check_raises_on_an_integer_error(monkeypatch, case):
    n, which, ends = _TRANSFORMS[case]
    seen = _perturb_irfft(monkeypatch, which, 1.0)
    with pytest.raises(ArithmeticError, match="fails its check"):
        _kernels.tau_words(n)
    # raised when the square holding the perturbed transform ends
    assert len(seen) == next(end for end in ends if end > which)


@pytest.fixture(scope="module")
def divisor_counts():
    """d(n) for n <= 4 _MAX_PREC, by the divisor-pair sieve."""
    nmax = 4 * _kernels._MAX_PREC
    count = np.zeros(nmax + 1, dtype=np.int32)
    for d in range(1, isqrt(nmax) + 1):
        count[d * (d + 1) :: d] += 2
        count[d * d] += 1
    return count


def _worst_limb_sum(bound, count, bits):
    """A bound on every limb-degree sum of the square of a series with |a[t]| <= bound[t].

    Balanced limbs are below 2^(bits-1) except the top one, below
    bound / 2^(bits (count-1)) + 1; each sum_t a_i[t] a_j[n-t] is at most
    ||a_i|| ||a_j|| by Cauchy-Schwarz.
    """
    n = len(bound)
    norms = [2 ** (bits - 1) * sqrt(n)] * (count - 1)
    norms.append(float(np.linalg.norm(bound / 2 ** (bits * (count - 1)) + 1)))
    return max(
        sum(norms[i] * norms[k - i] for i in range(max(0, k - count + 1), min(k, count - 1) + 1))
        for k in range(2 * count - 1)
    )


def test_int64_bounds_hold_up_to_max_prec(divisor_counts):
    nmax = _kernels._MAX_PREC
    # Deligne: eta(4z)^6 in S_3(16, chi_-4) and eta(2z)^12 in S_6(4) are
    # newforms, so the q^m coefficient of prod(1-q^n)^6 is at most
    # d(4m+1) (4m+1), and that of prod(1-q^n)^12 at most d(2m+1) (2m+1)^(5/2).
    m = np.arange(nmax, dtype=np.float64)
    eta6 = divisor_counts[1::4][:nmax] * (4 * m + 1)
    eta12 = divisor_counts[1::2][:nmax] * (2 * m + 1) ** 2.5
    assert eta6.max() < 2**30
    assert eta12.max() < 2**59  # eta^12 is combined in int64, wrapping, and fits
    # eta^6 is summed in int64 from pairs of Jacobi terms: every partial sum
    # is at most (number of terms) max|c|^2 < 2^34, far below 2^63.
    exps, coeffs = _kernels.jacobi_terms(nmax)
    assert len(coeffs) * int(np.abs(coeffs).max()) ** 2 < 2**34
    # Every limb-degree sum of the two FFT squares is an integer below
    # 2^48 < 2^53, so float64 holds it exactly and the guard can round it.
    # The rule takes the fewest limbs that keep them there on the actual
    # operand.  For the Deligne worst case of either square at _MAX_PREC, the
    # rule's split into 4 limbs (of width // 4 bits) already does.
    for bound in (eta6, eta12):
        width = int(bound.max()).bit_length()
        assert _worst_limb_sum(bound, 4, width // 4) < _kernels._LIMB_SUM
    # The rule cannot run out of limbs: its last try, width limbs of 1 bit
    # (limbs in {-1, 0}, the top one in [-1, 2]), keeps every sum below
    # width * 2^2 n for any operand below 2^59 of length n <= _MAX_PREC.
    assert 59 * 4 * nmax < _kernels._LIMB_SUM
    # Words: lo gathers at most 2c - 1 pieces below 2^56 before its carry,
    # with c <= 59 limbs, and the highest limb degree, at bit (59 // c) (2c - 2),
    # goes to hi by a shift below 64, which numpy computes modulo 2^64.
    word = _kernels._WORD
    assert (2 * 59 - 1) * 2**word < 2**63
    assert max((59 // c) * (2 * c - 2) for c in range(1, 60)) - word < 64
    # hi = floor(tau / 2^56) fits int64: |tau(n)| <= d(n) n^5.5 <= 240 n^5.5 < 2^118,
    # compared in squares.
    assert 240**2 * nmax**11 < 2 ** (2 * 118) and 118 - word < 63
    # Point check: the square's residue Horner shifts a residue below 2^40 by
    # at most 22 bits and adds a limb-degree sum.
    p = _kernels._PRIMES[0]
    assert p < 2**40 and ((p - 1) << 22) + _kernels._LIMB_SUM < 2**63
    # _mulmod: residues below 2^40 times a 20-bit half, then the reduced sum
    assert ((2**40 - 1) << 20) + (2**40 - 1) * (2**20 - 1) < 2**61
    # A block of ceil(sqrt(size)) reduced products sums below 2^51
    size = _kernels._smooth_len(2 * nmax - 1)
    assert (isqrt(size - 1) + 1) * (2**40 - 1) < 2**51


def test_divisor_count_bound_used_by_the_word_bound(divisor_counts):
    assert divisor_counts[: _kernels._MAX_PREC + 1].max() == 240
