"""Hot numeric kernels: divisor-sum sieves and the eta-product squarings.

``eta24_modp`` builds prod(1-q^n)^24 = f^8 from f = prod(1-q^n)^3 (Jacobi's
identity).  f^2 = eta^6 is summed exactly in int64 from the pairs of Jacobi
terms, and f^4 and f^8 come from two squarings in float64 FFTs, each exact:
the operand is split into balanced limbs, so that every limb-degree sum of
the square is an integer float64 holds exactly.  Each square takes the
fewest limbs that its operand's limb norms allow (:func:`_limb_split`), and
writes each limb into one reused zero-padded float64 buffer, so numpy makes
no cast or padded copy per transform.  The limb degrees of f^8 are combined
exactly into two int64 words per coefficient; :func:`tau_words` lays them
out as the two rows of the tau table, and :func:`tau_numbers` assembles
Python ints from those rows as ``lo + (hi << 56)``.  Static bounds, checked by ``tests/test_kernels.py``,
hold for every table up to ``_MAX_PREC``:

* **Magnitudes.**  f has at most 1414 terms, each at most 2827 in absolute
  value, so every partial sum of the pairs that make f^2 is below
  1414 * 2827^2 < 2^34.  By Deligne's bound for the newforms eta(4z)^6
  (weight 3) and eta(2z)^12 (weight 6), the coefficients of f^2 are below
  2^30 and those of f^4 below 2^59, so f^4 fits int64; by Deligne's bound
  for Delta, |tau(n)| <= d(n) n^5.5 < 2^118 with d(n) <= 240, so
  hi = floor(tau / 2^56) fits int64.
* **Limb sums.**  Every limb-degree sum is at most sum_{i+j=k} ||a_i|| ||a_j||
  (Cauchy-Schwarz), bounded rigorously from the operand's own limbs and
  held below 2^48 < 2^53 on every call.  For the Deligne worst case of f^4
  at ``_MAX_PREC``, four limbs of 14 bits stay below 2^48, and the rule's
  last try, one-bit limbs, keeps every sum below 59 * 4 * 10^6 for any
  operand below 2^59.
* **Words.**  A limb degree c_k (below 2^48) at bit offset s < 56 adds its
  low 56 - s bits, shifted by s, to lo, and c_k >> (56 - s) to hi; one at
  s >= 56 adds c_k << (s - 56) to hi.  lo sums at most 2 * count - 1 < 2^7
  terms below 2^56 before its carry goes to hi; hi and f^4 are summed
  modulo 2^64, which is exact because their final values fit int64.
* **Point check.**  :func:`_mulmod` multiplies residues below 2^40 by a
  factor split into 20-bit halves: each product is below 2^60, and the sum
  it reduces, ``(x * hi mod p) * 2^20 + x * lo``, below 2^61.  A block of the
  check sums at most 1415 such residues, below 2^51, and the square's
  residue Horner shifts by at most 22 bits a step, below 2^62 + 2^48.

The worst-case error bounds for float FFTs (C. Percival, Math. Comp. 72,
2003) cover radix-2 lengths only, and the transforms here have 5-smooth
lengths, so exactness is checked after the fact on every run: each inverse
transform must lie within 1/4 of integers (the largest distances seen are
1.3e-4 at n = 10^5 and 6.1e-5 at ``_MAX_PREC``), and each full square must
match the square of its operand at one point mod ``_PRIMES[0]``, evaluated by
blocks of about sqrt(n) coefficients.  A failure raises ArithmeticError;
there is no other path.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice, repeat
from math import ceil, isqrt
from operator import add, lshift

import numpy as np

# Read by the benchmark's environment record; there is no jitted path.
_HAVE_NUMBA = False
# The kernels below are the only ones; this flag stays False.
USE_NUMBA = False

# The point-check prime, just below 2^40.
_PRIMES = (1099511627689,)
_MAX_PREC = 1_000_000
# Where each FFT square is checked mod _PRIMES[0]; any large residue serves.
_EVAL_POINT = 0x9E3779B97F
# Every limb-degree sum of an FFT square stays below this (float64 holds 2^53).
_LIMB_SUM = 1 << 48
# Bits in the low word of a coefficient of eta^24.
_WORD = 56
# Entries per assembly chunk; bounds the transient lists.
_CHUNK = 4096
# Entries per block of :func:`_mod`; bounds its quotient buffer.
_MOD_BLOCK = 1 << 16


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


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, into [0, p), for a contiguous int64 array x.

    Computed as x - (x // p) p, because numpy divides by a scalar several
    times faster than it takes a remainder, one block of ``_MOD_BLOCK``
    entries at a time into one quotient buffer, so that the quotients need
    no table-sized buffer and no new one per block.
    """
    flat = x.reshape(-1)
    q = np.empty(min(len(flat), _MOD_BLOCK), dtype=np.int64)
    for start in range(0, len(flat), _MOD_BLOCK):
        v = flat[start : start + _MOD_BLOCK]
        w = np.floor_divide(v, p, out=q[: len(v)])
        w *= p
        v -= w
    return x


def _mulmod(x: np.ndarray, c, p: int) -> np.ndarray:
    """x * c mod p for residues x < 2^40 and 0 <= c < 2^40 (a constant or an array)."""
    hi, lo = divmod(c, 1 << 20)
    t = _mod(x * hi, p)
    t <<= 20
    t += x * lo
    return _mod(t, p)


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
    rows[:n] = v
    _mod(rows, p)
    sums = _mulmod(rows.reshape(-1, block), np.array(pw, dtype=np.int64), p).sum(axis=1)
    step, out = pow(_EVAL_POINT, block, p), 0
    for s in reversed(sums.tolist()):
        out = (out * step + s) % p
    return out


def _balanced(a: np.ndarray, count: int, bits: int) -> Iterator[np.ndarray]:
    """The ``count`` balanced limbs of ``a``, lowest first, each computed when asked for.

    a = sum_i a_i 2^(bits i), every limb but the top one in [-2^(bits-1), 2^(bits-1)),
    and the top one takes the rest.
    """
    half, mask = (1 << bits) >> 1, (1 << bits) - 1
    rest = a
    for _ in range(count - 1):
        limb = ((rest + half) & mask) - half
        yield limb
        rest = (rest - limb) >> bits
    yield rest


def _square_norm(x: np.ndarray) -> int:
    """An integer upper bound on sum x^2: the float64 sum raised by 2^-29 relative."""
    x = x.astype(np.float64)
    # einsum, not a BLAS dot, whose worker threads spin on after each call
    return ceil(float(np.einsum("i,i->", x, x)) * (1 + 2**-29))


def _limb_split(a: np.ndarray) -> tuple[int, int]:
    """The fewest balanced limbs (count, bits) of ``a`` whose square's limb-degree
    sums are provably below ``_LIMB_SUM``.

    For count = 1, 2, ... the limbs have bits = width // count bits (width is
    the bit length of max |a|).  Every sum_t a_i[t] a_j[n-t] is at most
    ||a_i|| ||a_j|| by Cauchy-Schwarz.  Each squared norm is a float64 sum of
    squares raised by 2^-29 relative, above the rounding error (n + 2) 2^-53
    of n <= 2^20 squares in any order, so it is an upper bound; the pair
    products are then bounded in Python integers, so nothing overflows.  The
    top limb, (a + H) >> (bits (count - 1)) with H the sum of the lower limbs'
    offsets 2^(bits - 1) 2^(bits i), is tested alone first: the top degree's
    sum is its squared norm + 1, so most failing counts need no other limb,
    and the square of its entry at the largest |a| alone rejects many.
    """
    peak = int(a[np.abs(a).argmax()])
    width = abs(peak).bit_length()
    for count in range(1, width + 1):
        bits = width // count
        offsets = sum(((1 << bits) >> 1) << (bits * i) for i in range(count - 1))
        shift = bits * (count - 1)
        if ((peak + offsets) >> shift) ** 2 + 1 >= _LIMB_SUM:
            continue  # one entry of the top limb already puts its squared norm past the bound
        top_sq = _square_norm(a if count == 1 else (a + offsets) >> shift)
        if top_sq + 1 >= _LIMB_SUM:
            continue
        sq = [_square_norm(limb) for limb in islice(_balanced(a, count, bits), count - 1)] + [top_sq]
        sums = (
            sum(isqrt(sq[i] * sq[k - i]) + 1 for i in range(max(0, k - count + 1), min(k, count - 1) + 1))
            for k in range(2 * count - 1)
        )
        if max(sums) < _LIMB_SUM:
            return count, bits
    raise ArithmeticError(f"no limb split keeps the square of a length-{len(a)} series below 2^48")


def _square(a: np.ndarray, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The full square a * a, yielded as (shift, c_k) from the highest limb degree down.

    ``a`` is split into the ``count`` balanced limbs of ``bits`` bits that
    :func:`_limb_split` picks, so a * a = sum_k c_k 2^(bits k) with
    c_k = sum_{i+j=k} a_i a_j, and shift = bits k.  Each limb is written
    into one zero-padded float64 buffer of length ``size`` (the memory of the
    spectrum buffer, free until the first degree), so that ``rfft`` makes no
    cast or padded copy of its own.  Each c_k comes from one float ``irfft``
    of length ``size`` >= 2 len(a) - 1 and is yielded as int64, in a buffer
    that the caller may overwrite and the next degree does.  It
    must lie within 1/4 of an integer everywhere, and, once every degree has
    been consumed, the full square must agree with a(x)^2 at one point mod
    ``_PRIMES[0]`` (both sides evaluated by blocks, :func:`_at_point`); either
    failure raises ArithmeticError.
    """
    from numpy.fft import irfft, rfft

    p = _PRIMES[0]
    count, bits = _limb_split(a)
    target = _at_point(a, p) ** 2 % p
    spectra = np.empty((count, size // 2 + 1), dtype=np.complex128)
    spec = np.empty_like(spectra[0])
    # spec's memory first holds each limb zero-padded; once a degree is
    # transformed, it holds it rounded and c's memory holds it as int64.
    r = spec.view(np.float64)[:size]
    r[len(a) :] = 0
    for spectrum, limb in zip(spectra, _balanced(a, count, bits)):
        r[: len(a)] = limb
        rfft(r, out=spectrum)
    c = np.empty(size)
    ck = c.view(np.int64)
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
        # Horner in 2^bits mod p, at most 22 bits a step: (p << 22) + |c_k| < 2^63.
        shift = bits
        while shift > 22:
            full <<= 22
            _mod(full, p)
            shift -= 22
        full <<= shift
        full += ck
        _mod(full, p)
        yield bits * k, ck
    del spectra, spec, r
    if _at_point(full, p) != target:
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
    """Coefficients of prod(1-q^n)^24 below q^prec as two int64 rows (lo, hi):
    the q^n coefficient is lo[n] + hi[n] 2^56, with 0 <= lo[n] < 2^56.

    The name is historical: the rows were once residues mod three primes.
    eta^6 = f^2 is exact in int64 (:func:`_eta6`); eta^12 and eta^24 are
    squared by float FFT (see the module docstring for the bounds and checks).
    The last square is never held whole: each of its limb degrees is added
    into the two words as it comes.
    """
    size = _smooth_len(2 * prec - 1)
    a = np.zeros(prec, dtype=np.int64)  # eta^12 = (eta^6)^2
    for shift, ck in _square(_eta6(prec), size):
        head = ck[:prec]
        head <<= shift  # wraps mod 2^64, exact because the truncated square fits int64
        a += head
    words = np.zeros((2, prec), dtype=np.int64)
    lo, hi = words
    for shift, ck in _square(a, size):
        head = ck[:prec]
        if shift >= _WORD:
            head <<= shift - _WORD
            hi += head  # wraps mod 2^64, exact because hi ends in int64
        else:
            hi += head >> (_WORD - shift)
            head &= (1 << (_WORD - shift)) - 1
            head <<= shift
            lo += head
    hi += lo >> _WORD
    lo &= (1 << _WORD) - 1
    return words


def tau_words(nmax: int) -> np.ndarray:
    """tau(0..nmax) as a 2 x (nmax + 1) int64 array: the rows lo and hi of
    :func:`eta24_modp`, shifted one place, so that tau(u) = lo[u] + hi[u] 2^56;
    column 0 is zero.  The only caller of :func:`eta24_modp` in the package."""
    if nmax > _MAX_PREC:
        raise ValueError(f"tau table limited to {_MAX_PREC} (int64 Deligne bound of eta^12 and the two-word tau bound)")
    words = np.zeros((2, nmax + 1), dtype=np.int64)
    if nmax >= 1:
        words[:, 1:] = eta24_modp(nmax)
    return words


def tau_numbers(nmax: int, words: np.ndarray) -> list[int]:
    """Exact tau(0..nmax) as Python ints, assembled a chunk at a time from
    ``words`` (a :func:`tau_words` table of at least nmax + 1 columns); entry 0 is 0.

    It only assembles: the FFT build is :func:`tau_words`' alone.
    """
    if words.shape[1] <= nmax:
        raise ValueError(f"tau words hold tau(0..{words.shape[1] - 1}), asked for tau(0..{nmax})")
    lo, hi = words[:, 1 : nmax + 1]
    out = [0]
    for start in range(0, nmax, _CHUNK):
        stop = start + _CHUNK
        out.extend(map(add, lo[start:stop].tolist(), map(lshift, hi[start:stop].tolist(), repeat(_WORD))))
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
