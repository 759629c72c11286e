"""Hot numeric kernels: divisor-sum sieves and the eta-product squarings.

``eta24_modp`` builds prod(1-q^n)^24 = f^8 from f = prod(1-q^n)^3 (Jacobi's
identity).  f^2 = eta^6 is summed exactly in int64 from the pairs of Jacobi
terms, and f^4 and f^8 come from two squarings in float64 FFTs, each exact:
the operand is split into balanced limbs, so that every limb-degree sum of
the square is an integer float64 holds exactly.  The squarings are shared by
the three primes below 2^40, and exact big-integer tau values are recovered
by Garner's mixed-radix CRT (Knuth, TAOCP vol. 2, 4.3.2) in
:func:`tau_numbers`.  Static bounds, checked by ``tests/test_kernels.py``,
hold for every table up to ``_MAX_PREC``:

* **Magnitudes.**  f has at most 1414 terms, each at most 2827 in absolute
  value, so every partial sum of the pairs that make f^2 is below
  1414 * 2827^2 < 2^34.  By Deligne's bound for the newforms eta(4z)^6
  (weight 3) and eta(2z)^12 (weight 6), the coefficients of f^2 are below
  2^30 and those of f^4 below 2^59, so f^4 fits int64.
* **Limb sums.**  f^2 is squared in two balanced 12-bit limbs and f^4 in
  four balanced 14-bit limbs; by Cauchy-Schwarz every limb-degree sum is
  below 2^48 < 2^53.
* **Horner.**  Each limb degree of f^8 is folded into a residue below 2^40
  as ``(r << 14) + c``, below 2^55.
* **Mulmod.**  :func:`_mulmod` multiplies residues below 2^40 by a factor
  split into 20-bit halves: each product is below 2^60, and the sum it
  reduces, ``(x * hi mod p) * 2^20 + x * lo``, below 2^61.  A block of the
  point check sums at most 1415 such residues, below 2^51.
* **CRT width.**  ``prod p ~ 2^120`` exceeds ``2 * 240 * _MAX_PREC^5.5 ~ 2^118.5``,
  twice the Deligne bound ``d(n) n^5.5`` with d(n) <= 240 for n <= 10^6, so
  the signed reconstruction of tau(n) is exact.

The worst-case error bounds for float FFTs (C. Percival, Math. Comp. 72,
2003) cover radix-2 lengths only, and the transforms here have 5-smooth
lengths, so exactness is checked after the fact on every run: each of the
ten inverse transforms must lie within 1/4 of integers (the largest distance
seen at ``_MAX_PREC`` is 1.4e-4), and each full square must match the square
of its operand at one point mod ``_PRIMES[0]``, evaluated by blocks of about
sqrt(n) coefficients.  A failure raises ArithmeticError; there is no other
path.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import isqrt

import numpy as np

# Read by the benchmark's environment record; there is no jitted path.
_HAVE_NUMBA = False
# The kernels below are the only ones; this flag stays False.
USE_NUMBA = False

# The three primes just below 2^40.
_PRIMES = (1099511627689, 1099511627609, 1099511627581)
_MAX_PREC = 1_000_000
# Where each FFT square is checked mod _PRIMES[0]; any large residue serves.
_EVAL_POINT = 0x9E3779B97F
# Entries per CRT chunk; bounds the transient arrays and lists.
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


def _smooth_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a transform length pocketfft runs without Bluestein."""
    best = 1 << (n - 1).bit_length()
    p3 = 1
    while p3 < best:
        p35 = p3
        while p35 < best:
            m = p35
            while m < n:
                m <<= 1
            best = min(best, m)
            p35 *= 5
        p3 *= 3
    return best


def _mulmod(x: np.ndarray, c, p: int) -> np.ndarray:
    """x * c mod p for residues x < 2^40 and 0 <= c < 2^40 (a constant or an array)."""
    hi, lo = divmod(c, 1 << 20)
    return ((((x * hi) % p) << 20) + x * lo) % p


def _at_point(v: np.ndarray, p: int) -> int:
    """v(x) mod p at x = ``_EVAL_POINT``, for an int64 coefficient array v, by blocks.

    v is cut into blocks of ``block`` = ceil(sqrt(len(v))) coefficients: one
    table of x^0..x^(block-1) evaluates every block at once, and a Horner in
    x^block over the block values completes the sum.
    """
    n = len(v)
    block = isqrt(n - 1) + 1
    pw = [1]
    for _ in range(block - 1):
        pw.append(pw[-1] * _EVAL_POINT % p)
    rows = np.zeros(-(-n // block) * block, dtype=np.int64)
    np.remainder(v, p, out=rows[:n])
    sums = _mulmod(rows.reshape(-1, block), np.array(pw, dtype=np.int64), p).sum(axis=1)
    step, out = pow(_EVAL_POINT, block, p), 0
    for s in reversed(sums.tolist()):
        out = (out * step + s) % p
    return out


def _square(a: np.ndarray, count: int, bits: int, size: int) -> Iterator[np.ndarray]:
    """The full square a * a, yielded as limb degrees from the highest down.

    ``a`` is split into ``count`` balanced limbs of ``bits`` bits (the top one
    takes the rest), so a * a = sum_k c_k 2^(bits k), c_k = sum_{i+j=k} a_i a_j.
    Each c_k comes from one float ``irfft`` of length ``size`` >= 2 len(a) - 1 and
    is yielded as int64, in a buffer that the next degree overwrites.  It must
    lie within 1/4 of an integer everywhere, and, once every degree has been
    consumed, the full square must agree with a(x)^2 at one point mod
    ``_PRIMES[0]`` (both sides evaluated by blocks, :func:`_at_point`); either
    failure raises ArithmeticError.
    """
    from numpy.fft import irfft, rfft

    p = _PRIMES[0]
    half, mask = (1 << bits) >> 1, (1 << bits) - 1
    spectra = np.empty((count, size // 2 + 1), dtype=np.complex128)
    rest = a
    for i in range(count - 1):
        limb = ((rest + half) & mask) - half
        rfft(limb, size, out=spectra[i])
        rest = (rest - limb) >> bits
    rfft(rest, size, out=spectra[-1])
    del rest
    spec, c = np.empty_like(spectra[0]), np.empty(size)
    # Once a degree is transformed, spec's memory holds it rounded and c's as int64.
    r, ck = spec.view(np.float64)[:size], c.view(np.int64)
    full = np.zeros(size, dtype=np.int64)  # the whole square mod p, for the check
    for k in range(2 * count - 2, -1, -1):
        # Every ordered pair i + j = k: limbs lo..hi against hi..lo.
        lo, hi = max(0, k - count + 1), min(k, count - 1)
        np.einsum("ij,ij->j", spectra[lo : hi + 1], spectra[lo : hi + 1][::-1], out=spec)
        irfft(spec, size, out=c)
        np.rint(c, out=r)
        np.subtract(c, r, out=c)
        dist = float(np.abs(c, out=c).max())
        if not dist < 0.25:
            raise ArithmeticError(f"FFT square off an integer by {dist:.3g} (length {size})")
        np.copyto(ck, r, casting="unsafe")
        full <<= bits
        full += ck
        np.remainder(full, p, out=full)
        yield ck
    del spectra, spec, r
    if _at_point(full, p) != _at_point(a, p) ** 2 % p:
        raise ArithmeticError(f"FFT square fails its check mod {p} (length {size})")


def _eta6(prec: int) -> np.ndarray:
    """Coefficients of prod(1-q^n)^6 = f^2 below q^prec, summed exactly in int64
    from the pairs of Jacobi terms of f (see :func:`jacobi_terms`)."""
    exps, coeffs = jacobi_terms(prec)
    out = np.zeros(prec, dtype=np.int64)
    for e, c in zip(exps.tolist(), coeffs.tolist()):
        k = int(np.searchsorted(exps, prec - e))  # the terms j with e + e_j < prec
        out[e + exps[:k]] += c * coeffs[:k]
    return out


def eta24_modp(prec: int) -> np.ndarray:
    """Coefficients of prod(1-q^n)^24 mod each of ``_PRIMES`` (one row each).

    eta^6 = f^2 is exact in int64 (:func:`_eta6`); eta^12 and eta^24 are
    squared by float FFT (see the module docstring for the bounds and checks).
    The last square is never held whole: each of its limb degrees is folded
    into one Horner sum per prime.
    """
    size = _smooth_len(2 * prec - 1)
    a = np.zeros(prec, dtype=np.int64)  # eta^12 = (eta^6)^2
    for ck in _square(_eta6(prec), 2, 12, size):
        a <<= 12  # wraps mod 2^64, exact because the truncated square fits int64
        a += ck[:prec]
    res = np.zeros((len(_PRIMES), prec), dtype=np.int64)
    for ck in _square(a, 4, 14, size):
        head = ck[:prec]
        for r, p in zip(res, _PRIMES):
            r <<= 14
            r += head
            np.remainder(r, p, out=r)
    return res


def tau_numbers(nmax: int) -> list[int]:
    """Exact tau(1..nmax) as Python ints, via CRT over the mod-p kernels.

    Entry 0 of the returned list is unused (set to 0).
    """
    if nmax < 1:
        return [0]
    if nmax > _MAX_PREC:
        raise ValueError(f"tau table limited to {_MAX_PREC} (CRT width)")
    p0, p1, p2 = _PRIMES
    inv1, inv2, p01 = pow(p0, -1, p1), pow(p0 * p1, -1, p2), p0 * p1
    residues = eta24_modp(nmax)
    out = [0]
    # Garner: x = r0 + p0 t1 + p0 p1 t2 with digits t1 mod p1, t2 mod p2, a
    # chunk at a time, so that no table-sized temporaries appear.
    for lo in range(0, nmax, _CRT_CHUNK):
        r0, r1, r2 = (r[lo : lo + _CRT_CHUNK] for r in residues)
        t1 = _mulmod((r1 - r0) % p1, inv1, p1)
        t2 = _mulmod(((r2 - r0) % p2 - _mulmod(t1, p0 % p2, p2)) % p2, inv2, p2)
        # Centre the top digit in (-p2/2, p2/2] so that tau(n) < 0 comes out negative.
        t2 = (t2 + p2 // 2) % p2 - p2 // 2
        out.extend(a + p0 * b + p01 * c for a, b, c in zip(r0.tolist(), t1.tolist(), t2.tolist()))
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
