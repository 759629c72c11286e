"""Hot numeric kernels: divisor-sum sieves and the eta-product convolution.

Everything here works on int64 arrays; exact big-integer tau values are
recovered by Garner's mixed-radix CRT (Knuth, TAOCP vol. 2, 4.3.2) in
:func:`tau_numbers`.  Three static bounds keep the int64 arithmetic exact
for every table up to ``_MAX_PREC``:

* **Accumulator.**  ``eta24_modp`` convolves residues below p < 2^40 with the
  K = 1414 Jacobi coefficients (|c| <= 2K - 1), and ``sum |c| = K^2 < 2^21``,
  so every partial sum stays below ``K^2 * max p < 2^61``.
* **Mulmod.**  :func:`_mulmod` multiplies residues below 2^40 by a constant
  split into 20-bit halves: each product is below 2^60, and the sum it
  reduces, ``(x * hi mod p) * 2^20 + x * lo``, below 2^61.
* **CRT width.**  ``prod p ~ 2^120`` exceeds ``2 * 240 * _MAX_PREC^5.5 ~ 2^118.5``,
  twice the Deligne bound ``d(n) n^5.5`` with d(n) <= 240 for n <= 10^6, so
  the signed reconstruction of tau(n) is exact.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

# Read by the benchmark's environment record; there is no jitted path.
_HAVE_NUMBA = False
# The kernels below are the only ones; this flag stays False.
USE_NUMBA = False

# The three primes just below 2^40.
_PRIMES = (1099511627689, 1099511627609, 1099511627581)
_MAX_PREC = 1_000_000
# Entries per chunk when the CRT assembles Python ints; bounds the transient lists.
_CRT_CHUNK = 4096


def jacobi_terms(prec: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents and coefficients of prod(1-q^n)^3 = sum (-1)^k (2k+1) q^{k(k+1)/2}."""
    exps, coeffs = [], []
    k = 0
    while k * (k + 1) // 2 < prec:
        exps.append(k * (k + 1) // 2)
        coeffs.append((1 - 2 * (k & 1)) * (2 * k + 1))
        k += 1
    return np.array(exps, dtype=np.int64), np.array(coeffs, dtype=np.int64)


def eta24_modp(prec: int, p: int) -> np.ndarray:
    """Coefficients of prod(1-q^n)^24 mod p, as the 8th power of the cube."""
    exps, coeffs = jacobi_terms(prec)
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


def _mulmod(x: np.ndarray, c: int, p: int) -> np.ndarray:
    """x * c mod p for residues x < 2^40 and a constant 0 <= c < 2^40."""
    hi, lo = divmod(c, 1 << 20)
    return ((((x * hi) % p) << 20) + x * lo) % p


def tau_numbers(nmax: int) -> list[int]:
    """Exact tau(1..nmax) as Python ints, via CRT over the mod-p kernels.

    Entry 0 of the returned list is unused (set to 0).
    """
    if nmax < 1:
        return [0]
    if nmax > _MAX_PREC:
        raise ValueError(f"tau table limited to {_MAX_PREC} (CRT width)")
    p0, p1, p2 = _PRIMES
    r0, r1, r2 = (eta24_modp(nmax, p) for p in _PRIMES)
    # Garner: x = r0 + p0 t1 + p0 p1 t2 with digits t1 mod p1, t2 mod p2.
    t1 = _mulmod((r1 - r0) % p1, pow(p0, -1, p1), p1)
    t2 = (r2 - r0) % p2 - _mulmod(t1, p0 % p2, p2)
    t2 = _mulmod(t2 % p2, pow(p0 * p1, -1, p2), p2)
    # Centre the top digit in (-p2/2, p2/2] so that tau(n) < 0 comes out
    # negative; in place, so that no further table-sized temporaries appear.
    t2 += p2 // 2
    np.remainder(t2, p2, out=t2)
    t2 -= p2 // 2
    p01 = p0 * p1
    out = [0]
    for lo in range(0, nmax, _CRT_CHUNK):
        hi = lo + _CRT_CHUNK
        out.extend(
            a + p0 * b + p01 * c for a, b, c in zip(r0[lo:hi].tolist(), t1[lo:hi].tolist(), t2[lo:hi].tolist())
        )
    return out


def sigma_range(a: int, nmax: int) -> np.ndarray:
    """sigma_a(n) for n = 0..nmax (entry 0 is 0); values must fit int64.

    A divisor-pair sieve: every n = d j with d < j has d < sqrt(n), so for
    each d <= sqrt(nmax) one slice adds d^a + j^a at d j for all j > d, and
    d^a alone goes to d^2.
    """
    if a not in (1, 3):
        raise ValueError("sieve only built for sigma_1 and sigma_3")
    if nmax > _MAX_PREC + 100:
        raise ValueError("sigma sieve range exceeds int64 safety bound")
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    pw = np.arange(nmax + 1, dtype=np.int64) ** a
    out = np.zeros(nmax + 1, dtype=np.int64)
    root = isqrt(nmax)
    for d in range(1, root + 1):
        out[d * (d + 1) :: d] += pw[d] + pw[d + 1 : nmax // d + 1]
    ds = np.arange(1, root + 1)
    out[ds * ds] += pw[ds]
    return out
