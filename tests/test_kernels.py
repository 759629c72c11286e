"""The integer kernels: pinned tau table, Hecke relations, sparse and sieve references, int64 and FFT bounds."""

import hashlib
from math import gcd, isqrt, prod, sqrt

import numpy as np
import pytest

from tauforms import _kernels
from tauforms.forms import sigma

# sha256 of ",".join(map(str, tau_numbers(100000))), recorded with a CRT over
# four 31-bit primes, so the pin does not rest on the recombination it checks.
TAU_1E5_SHA256 = "1b40302cfe622b682eee3f69ffeb05b8aa39a0532147998c7f45d15d7c0a3c9b"


@pytest.fixture(scope="module")
def tau():
    return _kernels.tau_numbers(100_000)


def test_tau_numbers_digest_is_pinned(tau):
    assert len(tau) == 100_001 and tau[0] == 0
    assert hashlib.sha256(",".join(map(str, tau)).encode()).hexdigest() == TAU_1E5_SHA256


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


@pytest.mark.parametrize("prec", [1, 2, 3, 10, 5000, 6075])
def test_eta24_modp_matches_the_sparse_loop(prec):
    residues = _kernels.eta24_modp(prec)
    assert len(residues) == len(_kernels._PRIMES)
    for p, r in zip(_kernels._PRIMES, residues):
        assert r.dtype == np.int64
        assert np.array_equal(r, _eta24_sparse(prec, p)), p


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
# of the transforms of tau_numbers(100000).
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


# eta^12 and eta^24 take 3 and 7 inverse transforms; eta^6 is exact in int64.
@pytest.mark.parametrize("which", range(10))
def test_fft_guard_raises_off_an_integer(monkeypatch, which):
    seen = _perturb_irfft(monkeypatch, which, 0.3)
    with pytest.raises(ArithmeticError, match="off an integer"):
        _kernels.tau_numbers(300)
    assert len(seen) == which + 1  # raised at the perturbed transform; nothing was retried


@pytest.mark.parametrize("which", range(10))
def test_fft_evaluation_check_raises_on_an_integer_error(monkeypatch, which):
    seen = _perturb_irfft(monkeypatch, which, 1.0)
    with pytest.raises(ArithmeticError, match="fails its check"):
        _kernels.tau_numbers(300)
    # raised when the square holding the perturbed transform ends, at 3 or 10
    assert len(seen) == next(end for end in (3, 10) if end > which)


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
    for bound, count, bits in ((eta6, 2, 12), (eta12, 4, 14)):
        assert _worst_limb_sum(bound, count, bits) < 2**48
    # Horner steps: a residue below 2^40 shifted by 14 bits plus a limb-degree sum
    assert (max(_kernels._PRIMES) << 14) + 2**53 < 2**63
    # _mulmod: residues below 2^40 times a 20-bit half, then the reduced sum
    assert all(p < 2**40 for p in _kernels._PRIMES)
    assert ((2**40 - 1) << 20) + (2**40 - 1) * (2**20 - 1) < 2**61
    # Point check: a block of ceil(sqrt(size)) reduced products sums below 2^51
    size = _kernels._smooth_len(2 * nmax - 1)
    assert (isqrt(size - 1) + 1) * (2**40 - 1) < 2**51
    # CRT width: prod p > 2 * 240 * MAX_PREC^5.5, compared in squares
    assert prod(_kernels._PRIMES) ** 2 > (2 * 240) ** 2 * _kernels._MAX_PREC**11


def test_divisor_count_bound_used_by_the_crt_width(divisor_counts):
    assert divisor_counts[: _kernels._MAX_PREC + 1].max() == 240
