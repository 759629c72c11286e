"""The integer kernels: pinned tau table, Hecke relations, sieve references, int64 bounds."""

import hashlib
from math import gcd, isqrt, prod

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


def test_int64_bounds_hold_up_to_max_prec():
    exps, coeffs = _kernels.jacobi_terms(_kernels._MAX_PREC)
    k = len(exps)
    assert int(np.abs(coeffs).sum()) == k * k
    # eta24_modp: every partial sum of the convolution stays below 2^61 < 2^63
    assert k * k * max(_kernels._PRIMES) < 2**61
    # _mulmod: residues below 2^40 times a 20-bit half, then the reduced sum
    assert all(p < 2**40 for p in _kernels._PRIMES)
    assert ((2**40 - 1) << 20) + (2**40 - 1) * (2**20 - 1) < 2**61
    # CRT width: prod p > 2 * 240 * MAX_PREC^5.5, compared in squares
    assert prod(_kernels._PRIMES) ** 2 > (2 * 240) ** 2 * _kernels._MAX_PREC**11


def test_divisor_count_bound_used_by_the_crt_width():
    nmax = _kernels._MAX_PREC
    count = np.zeros(nmax + 1, dtype=np.int64)
    for d in range(1, isqrt(nmax) + 1):
        count[d * (d + 1) :: d] += 2
        count[d * d] += 1
    assert count.max() == 240
