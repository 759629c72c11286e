"""High-precision evaluation of the shifted L-series sum sigma_a(n) tau(m+n) / (m+n)^s.

The sums are taken in fixed-point integers.  With G = prec_bits + 64 guard
bits, the weights W[u] = floor(tau(u) 2^G / u^s) are built once per exponent
from the exact tau table, and sum_n sigma_a(n) W[m+n] is an exact integer:
it does not depend on the order of summation or on how the tables grew, so
every result is bit-for-bit reproducible.  It is converted to a big float
at ``prec_bits`` only at the end.  Each result (``LResult`` and the m = 0
``M0Value``) carries ``err_round``, a rigorous bound on its rounding error:
2^-G sum_n sigma_a(n) for the floored weights (times n for the n-weighted
series) plus half an ulp of the final conversion.  Certified tail bounds
(Deligne bound, explicit divisor bound, integral comparison, safety factor
2) are available for s >= 10; for s in {8, 9} the certified bound decays too
slowly to be useful and the reported tail is the non-rigorous envelope
`10 x max |term| over T/10 <= n <= T`.

Each report is finished here: an ``IdentityReport`` holds its m's
``LResult`` (``err_round`` included), and ``M0Value``, ``PeterssonEstimate``
and ``PeterssonReport`` carry a ``verdict`` decided at ``prec_bits`` against
``M0_PRINTED_TOL`` and ``PETERSSON_TOL``.

Each request is an :class:`LQuery`, the one place its inputs are checked:
``verify_sweep`` and the m = 0 sums build theirs before they size any
table, and ``verify_identity`` is ``verify_sweep`` of one m.  The pairs
(a, s) of the m = 0 closed forms ``M0_CONSTANTS`` are the catalog's; the
exact derivation of those constants (:func:`derive_m0_constants`) pairs the
value at (a, s) with the monomial n^(11-s) sigma_a(n).

No Python integer is made per term.  Each weight table is an int32 array of
signed b-bit limbs, built from the two int64 words of tau by an exact long
division in int64 (:func:`_weight_block`), with b the widest that keeps each
division step below 2^62 for the table's largest u (28 bits at 10^5, 22 at
the kernel's limit of 10^6).  The dot cuts sigma_a(n) (times n) into limbs of
63 - 13 - b bits and sums limb products over chunks of 2^13 lanes in int64,
each chunk sum below 2^63; only the per-limb chunk sums are combined in
Python ints.  The envelope is screened in float64 and its few candidates
compared exactly (:func:`_largest_term`).

The tau words, sigma_a and the weight limbs live in the one store of
``forms`` (beside the exact series E_k^r) with one growth rule: the first
build is exact and a rebuild takes at least 1.5x the old
length.  A weight table is built from the tau words, and sizes them to its own
length.  The two sweeps size the tables up front:
``verify_sweep`` builds the weights (and so the tau words) once to
``max(ms) + cutoff``, and ``lvalues_m0`` builds the tau words and each
sigma_a once to the longest cutoff it needs.  Ad-hoc loops rely on the 1.5x
regrowth.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import add, lshift

import numpy as np
from mpmath import mp

from .arith import DEFAULT_PREC_BITS, Rat, Record, mpf_str, rat_str, solve_exact
from .calculus import rankin_cohen, serre
from .forms import Form, _monomial, _monomial_exponents, _table, dim_mk, e12_delta_coords, eisenstein, tau, tau_words
from .poincare import CONSTRUCTIONS, TauIdentity, catalog_identity, construction_seed
from .qseries import QSeries, linear_combination
from . import _kernels, forms

# Cutoffs and relative tolerances by exponent s.  These are fixed policy:
# the runtime stays desk-scale and the tolerance states what the cutoff is
# expected to deliver (see the acceptance suite for what it actually does).
TIERS: dict[int, tuple[int, float]] = {
    11: (10_000, 1e-10),
    10: (100_000, 1e-8),
    9: (100_000, 1e-6),
    8: (300_000, 1e-4),
}

# Relative tolerances of the Petersson norm recovered at exponent s against
# PETERSSON_REF; the s >= 10 estimates must also agree pairwise within the
# s = 10 entry.  Strings, so each is read at the precision it is compared at.
PETERSSON_TOL: dict[int, str] = {11: "1e-9", 10: "1e-6", 9: "1e-3", 8: "1e-3"}

#: Petersson norm-square of the weight-12 cusp form, reference value.
PETERSSON_REF = "1.03536205680e-6"

# Closed-form constants of the six m = 0 values: sum tau(n) sigma_a(n) / n^s
# equals constant * pi^11 * <Delta, Delta>.
M0_CONSTANTS: dict[tuple[int, int], Rat] = {
    (1, 11): Rat(2**19 * 11, 3 * 5**3 * 7 * 691),
    (3, 11): Rat(2**17, 3**2 * 7 * 691),
    (3, 10): Rat(2**16, 3**3 * 5**3 * 7),
    (1, 10): Rat(2**17, 3**5 * 5**2 * 7),
    (1, 9): Rat(2**13, 3**4 * 5 * 7),
    (1, 8): Rat(2**14, 3**3 * 5 * 7**2),
}

#: Three-decimal reference approximations of the six m = 0 values.
M0_PRINTED: dict[tuple[int, int], str] = {
    (1, 11): "0.968",
    (3, 11): "0.917",
    (3, 10): "0.845",
    (1, 10): "0.939",
    (1, 9): "0.880",
    (1, 8): "0.754",
}

#: An m = 0 sum passes within half a unit of the third decimal of its ``M0_PRINTED`` value.
M0_PRINTED_TOL = "5e-4"


def _verdict(ok) -> str:
    return "PASS" if ok else "FAIL"


class LQuery(Record):
    """One shifted L-series evaluation request, checked once when it is made.

    Every numeric entry point builds its requests before it sizes any table,
    so an input outside the contract is refused before any work and leaves
    the store as it was: (a, s) outside the catalog, m < 0, a cutoff below 1,
    m + cutoff beyond the tau table's limit ``_kernels._MAX_PREC`` (10^6),
    or ``prec_bits`` outside 16..``MAX_PREC_BITS``.  A ``cutoff`` of None
    takes the tier cutoff of s.
    """

    m: int
    a: int
    s: int
    cutoff: int | None
    prec_bits: int = DEFAULT_PREC_BITS
    n_weight: bool = False  # auxiliary n-weighted sigma_3 series at s = 11

    def __post_init__(self):
        if (self.a, self.s) not in M0_CONSTANTS:
            raise ValueError(f"(a, s) = ({self.a}, {self.s}) is outside the catalog of closed forms")
        if self.n_weight and (self.a, self.s) != (3, 11):
            raise ValueError("the n-weighted auxiliary series exists only for (a, s) = (3, 11)")
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", TIERS[self.s][0])
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if (size := self.m + self.cutoff) > _kernels._MAX_PREC:
            raise ValueError(f"m + cutoff must be at most {_kernels._MAX_PREC} (the tau table's limit), got {size}")
        if self.prec_bits < 16:
            raise ValueError(f"precision must be at least 16 bits, got {self.prec_bits}")
        if self.prec_bits > MAX_PREC_BITS:
            raise ValueError(f"precision must be at most {MAX_PREC_BITS} bits, got {self.prec_bits}")


class LResult(Record):
    partial_sum: object  # mpf
    tail_estimate: object  # mpf
    rigorous: bool
    terms_used: int
    err_round: object  # mpf, rigorous bound on |partial_sum - exact sum over n <= cutoff|


# ---------------------------------------------------------------------------
# Fixed-point weights W[u] = floor(tau(u) 2^G / u^s) per exponent s, held as
# int32 limbs: W[u] = sum_j limbs[j, u] 2^(bits j), stored in ``forms`` under
# ("weights", s, G), one guard G per s.

_GUARD_BITS = 64
#: The ceiling on ``prec_bits``, 16x the default.  A weight table holds (prec_bits + 64) // b + 1
#: int32 rows of b-bit limbs: at the ceiling and u up to 10^6 (b = 22), 190 rows of 10^6 + 1, 760 MB.
MAX_PREC_BITS = 4096
# Lanes per block of the weight division and per chunk of the dot.
_LANES_LOG = 13
_LANES = 1 << _LANES_LOG


def _sigma(a: int, nmax: int) -> np.ndarray:
    """sigma_a(n) for n = 0..nmax (at least) as an int64 array; entry 0 is 0."""
    return _table(("sigma", a), nmax, lambda n: _kernels.sigma_range(a, n))


def _limb_bits(umax: int) -> int:
    """The limb width b of a weight table up to u = umax.

    A division step forms rem 2^b + limb with rem < u^2 and limb < 2^b, below
    2^(bitlen(u^2) + b) <= 2^62; b <= 30 keeps the limbs, at most 2^b in
    absolute value, in int32.
    """
    return min(30, 62 - (umax * umax).bit_length())


def _weight_block(words: np.ndarray, u0: int, u1: int, s: int, guard: int, bits: int) -> np.ndarray:
    """Signed limbs of W[u] for u = u0..u1-1 (u0 >= 1), one row per limb, lowest first.

    |tau(u)| 2^guard is cut into ``bits``-bit limbs straight from the two words
    of tau, divided by u^2 s // 2 times and by u once if s is odd (nested
    floors are exact), and signed: floor(-A/D) = -(floor(A/D) + [D does not
    divide A]), the correction going to the lowest limb, which may reach -2^bits.
    """
    lo, hi = words[:, u0:u1]
    neg = hi < 0
    # |tau| = x_hi 2^56 + x_lo with 0 <= x_lo < 2^56
    x_lo = np.where(neg, -lo & ((1 << _kernels._WORD) - 1), lo)
    x_hi = np.where(neg, -hi - (lo != 0), hi)
    # 2^guard = 2^(bits zeros) 2^shift: the lowest limb takes bits - shift bits of |tau|.
    zeros, shift = divmod(guard, bits)
    limbs, width = [], bits - shift
    while not limbs or x_lo.any() or x_hi.any():
        mask = (1 << width) - 1
        limbs.append((x_lo & mask) << (bits - width))
        x_lo = (x_lo >> width) | ((x_hi & mask) << (_kernels._WORD - width))
        x_hi >>= width
        width = bits
    num = np.zeros((len(limbs) + zeros, u1 - u0), dtype=np.int64)
    num[: len(limbs)] = limbs[::-1]  # highest limb first
    u = np.arange(u0, u1, dtype=np.int64)
    inexact = np.zeros(u1 - u0, dtype=bool)
    rem = np.empty_like(u)
    for d in [u * u] * (s // 2) + [u] * (s % 2):
        rem[:] = 0
        for row in num:
            rem <<= bits
            rem += row
            np.divmod(rem, d, out=(row, rem))
        inexact |= rem != 0
        while len(num) > 1 and not num[0].any():
            num = num[1:]
    num = num[::-1] * np.where(neg, -1, 1)
    num[0] -= neg & inexact
    return num


def _weight_limbs(words: np.ndarray, s: int, guard: int, umax: int) -> tuple[int, np.ndarray]:
    """(bits, limbs) of W[u] for u = 0..umax, limbs[j, u] in int32, W[0] = 0.

    |W[u]| <= 2^guard (Deligne: |tau(u)| / u^s <= d(u) u^-2.5 < 1 for u >= 2),
    so guard // bits + 1 limbs hold every weight.
    """
    bits = _limb_bits(umax)
    limbs = np.zeros((guard // bits + 1, umax + 1), dtype=np.int32)
    for u0 in range(1, umax + 1, _LANES):
        u1 = min(u0 + _LANES, umax + 1)
        block = _weight_block(words, u0, u1, s, guard, bits)
        limbs[: len(block), u0:u1] = block
    return bits, limbs


def _weights(s: int, umax: int, guard: int) -> tuple[int, np.ndarray]:
    """(bits, limbs) with W[u] = floor(tau(u) 2^guard / u^s) = sum_j limbs[j, u] 2^(bits j)
    for u = 1..umax (at least); column 0 is zero.

    The table grows by the store's rule; its build drops a table of another
    guard for the same s, so the store keeps one weight table per s.
    """
    key = ("weights", s, guard)
    limbs = _table(key, umax, lambda n: _weight_limbs(tau_words(n), s, guard, n)[1], family=key[:2])
    return _limb_bits(limbs.shape[1] - 1), limbs


def _sigma_limbs(sig: np.ndarray, n_weight: bool, width: int) -> np.ndarray:
    """sig (times n = 1..len(sig) when ``n_weight``) as rows of ``width``-bit limbs, lowest first.

    sigma_3(n) n can exceed 2^63, so the product is formed limb by limb: each
    limb times n plus the carry stays below 2^(width + 21) for n < 2^20.
    """
    mask = (1 << width) - 1
    rows, rest = [], sig
    while rest.any():
        rows.append(rest & mask)
        rest = rest >> width
    if n_weight:
        n = np.arange(1, len(sig) + 1, dtype=np.int64)
        carry, scaled = 0, []
        for row in rows:
            v = row * n + carry
            scaled.append(v & mask)
            carry = v >> width
        while carry.any():
            scaled.append(carry & mask)
            carry = carry >> width
        rows = scaled
    return np.array(rows)


def _dot(
    sig: np.ndarray, w: tuple[int, np.ndarray], shift: int, n_weight: bool, envelope: bool
) -> tuple[int, int, int | None]:
    """Exact sum over n = 1..T of sig[n-1] W[shift + n], times n when ``n_weight``.

    ``sig`` holds sigma_a(1..T) (int64) and ``w`` is a weight table of
    :func:`_weights`.  sig (times n) is cut into limbs of c = 63 - 13 - bits
    bits, so each chunk of 2^13 lanes sums products of a weight limb (at most
    2^bits) and a sigma limb (below 2^c) below 2^63 in int64; only the chunk
    sums are combined in Python ints.  Returns the sum, the rounding weight
    (the same sum with every W replaced by 1, which bounds the flooring error
    of the W in units of 2^-G), and, only when ``envelope`` is set, the largest
    |term| over n >= max(1, T // 10); otherwise None.
    """
    bits, limbs = w
    width = 63 - _LANES_LOG - bits
    T = len(sig)
    parts = _sigma_limbs(sig, n_weight, width)
    window = limbs[:, shift + 1 : shift + T + 1]
    sums = [0] * (len(window) * len(parts))
    for start in range(0, T, _LANES):
        chunk = window[:, start : start + _LANES] @ parts[:, start : start + _LANES].T
        sums = list(map(add, sums, chunk.ravel().tolist()))
    offsets = [bits * j + width * i for j in range(len(window)) for i in range(len(parts))]
    total = sum(map(lshift, sums, offsets))
    weight = sum(int(row.sum()) << (width * i) for i, row in enumerate(parts))
    if not envelope:
        return total, weight, None
    return total, weight, _largest_term(sig, window, bits, n_weight)


def _largest_term(sig: np.ndarray, window: np.ndarray, bits: int, n_weight: bool) -> int:
    """max |sig[n-1] (times n) W| over n >= max(1, T // 10), W being the limbs ``window[:, n-1]``.

    Screened in float64: each term is approximated within a relative
    (limbs + 3) 2^-53, far inside 2^-31 for fewer than 2^20 limbs (the limbs
    of W share its sign, and any that underflow weigh less than 2^-700 of
    W), so only the terms within 2^-30 of the largest approximation can be
    the largest; those few are compared exactly.
    """
    T = len(sig)
    first = max(1, T // 10) - 1
    tail = window[:, first:]
    approx = np.zeros(T - first)
    for j, row in enumerate(tail):
        approx += row * math.ldexp(1.0, bits * (j + 1 - len(tail)))
    np.abs(approx, out=approx)
    approx *= sig[first:]
    if n_weight:
        approx *= np.arange(first + 1, T + 1)
    near = np.flatnonzero(approx >= approx.max() * (1 - 2**-30)) + first
    shifts = range(0, bits * len(window), bits)

    def term(k: int) -> int:
        w = sum(map(lshift, window[:, k].tolist(), shifts))
        return abs(int(sig[k]) * (k + 1 if n_weight else 1) * w)

    return max(map(term, near.tolist()))


def _fixed_sum(
    a: int, s: int, shift: int, cutoff: int, prec: int, n_weight: bool = False, envelope: bool = False
):
    """The shifted sum at ``prec`` bits: (value, err_round, envelope) as mpf.

    The envelope, the largest |term| over T/10 <= n <= T (see :func:`_dot`),
    is computed only when ``envelope`` is set, for the uncertified tails of
    ``shifted_L``; otherwise it is None.
    """
    guard = prec + _GUARD_BITS
    acc, weight, top = _dot(
        _sigma(a, cutoff)[1 : cutoff + 1], _weights(s, shift + cutoff, guard), shift, n_weight, envelope
    )
    # Rounding acc to prec bits loses at most half an ulp: 2^(excess - 1) units.
    excess = abs(acc).bit_length() - prec
    err_units = weight + (1 << (excess - 1) if excess > 0 else 0)
    with mp.workprec(max(prec, err_units.bit_length())):
        err_round = mp.ldexp(mp.mpf(err_units), -guard)  # exact
    with mp.workprec(prec):
        top = None if top is None else mp.ldexp(mp.mpf(top), -guard)
        return mp.ldexp(mp.mpf(acc), -guard), err_round, top


def _certified_tail(m: int, a: int, s: int, cutoff: int, n_weight: bool):
    """Bound on sum_{n > cutoff} sigma_a(n) |tau(m+n)| / (m+n)^s, or None.

    Uses |tau(u)| <= d(u) u^{11/2} with d(u) <= u^{1.5379 ln 2 / ln ln u},
    sigma_1(n) <= n (1 + ln n), sigma_3(n) <= 1.21 n^3, integral
    comparison, and a safety factor of 2.  Valid only when the bounding
    exponent stays below -1.
    """
    u0 = mp.mpf(m + cutoff + 1)
    delta = mp.mpf("1.5379") * mp.log(2) / mp.log(mp.log(u0))
    base = mp.mpf("8.5") if a == 3 else mp.mpf("6.5")
    if n_weight:
        base += 1
    alpha = base + delta - s
    if alpha >= -1:
        return None
    if a == 3:
        tail = mp.mpf("1.21") * (u0**alpha + u0 ** (alpha + 1) / (-alpha - 1))
    else:
        lu = 1 + mp.log(u0)
        tail = lu * u0**alpha + u0 ** (alpha + 1) * (lu / (-alpha - 1) + 1 / (alpha + 1) ** 2)
    return 2 * tail


def shifted_L(query: LQuery) -> LResult:
    """Partial sum over n <= cutoff, its rounding bound, plus tail data."""
    if query.m == 0:
        raise ValueError("m = 0 has no tau(m) normalization; use lvalue_m0")
    m, a, s, T, prec = query.m, query.a, query.s, query.cutoff, query.prec_bits
    with mp.workprec(prec):
        certified = _certified_tail(m, a, s, T, query.n_weight) if s >= 10 else None
        partial, err_round, envelope = _fixed_sum(a, s, m, T, prec, query.n_weight, certified is None)
        if certified is not None:
            return LResult(partial, certified, True, T, err_round)
        return LResult(partial, 10 * envelope, False, T, err_round)


def hidden_moment(m: int, cutoff: int | None = None, prec_bits: int = DEFAULT_PREC_BITS) -> LResult:
    """Partial sum of sum_n n sigma_3(n) tau(m+n) / (m+n)^11, which is exactly zero."""
    return shifted_L(LQuery(m, 3, 11, cutoff, prec_bits, n_weight=True))


# ---------------------------------------------------------------------------
# Identity verification.


class IdentityReport(Record):
    identity_id: str
    m: int
    a: int
    s: int
    result: LResult  # the sum, its tail and rounding bounds; its cutoff is result.terms_used
    lhs: int  # tau(m), exact
    rhs: object
    rel_err: object
    tol: float
    verdict: str

    def row(self) -> dict:
        res = self.result
        return {
            "identity_id": self.identity_id,
            "m": self.m,
            "a": self.a,
            "s": self.s,
            "cutoff": res.terms_used,
            "partial_sum": mpf_str(res.partial_sum),
            "tail_estimate": mpf_str(res.tail_estimate),
            "rigorous": res.rigorous,
            "lhs": self.lhs,
            "rel_err": mpf_str(self.rel_err, 6),
            "verdict": self.verdict,
        }


def verify_identity(
    ident: str | TauIdentity,
    m: int,
    tol: float | None = None,
    cutoff: int | None = None,
    prec_bits: int = DEFAULT_PREC_BITS,
) -> IdentityReport:
    """Check tau(m) = prefactor(m) * partial sum: :func:`verify_sweep` of the one m."""
    return verify_sweep(ident, [m], tol, cutoff, prec_bits)[0]


def verify_sweep(
    ident: str | TauIdentity,
    ms: Sequence[int],
    tol: float | None = None,
    cutoff: int | None = None,
    prec_bits: int = DEFAULT_PREC_BITS,
) -> list[IdentityReport]:
    """Check tau(m) = prefactor(m) * partial sum for each m of ``ms``, in that order,
    at the tier (or given) tolerance and cutoff, on tables sized once."""
    entry = catalog_identity(ident) if isinstance(ident, str) else ident
    tol = TIERS[entry.s][1] if tol is None else tol
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if min(ms, default=1) < 1:
        raise ValueError("identity index m must be >= 1")
    # The request of the largest m (1 for no m) sizes the tables, so it is checked before any is built.
    top = LQuery(max(ms, default=1), entry.a, entry.s, cutoff, prec_bits)
    if not ms:
        return []
    _weights(entry.s, top.m + top.cutoff, prec_bits + _GUARD_BITS)
    reports = []
    for m in ms:
        res = shifted_L(LQuery(m, entry.a, entry.s, top.cutoff, prec_bits))
        tau_m = tau(m)
        pref = entry.prefactor(m)
        with mp.workprec(prec_bits):
            rhs = mp.mpf(int(pref.numerator)) / mp.mpf(int(pref.denominator)) * res.partial_sum
            rel = abs(mp.mpf(tau_m) - rhs) / abs(mp.mpf(tau_m))
            ok = rel <= tol and (not res.rigorous or res.tail_estimate < tol * abs(mp.mpf(tau_m)))
        reports.append(IdentityReport(entry.ident, m, entry.a, entry.s, res, tau_m, rhs, rel, tol, _verdict(ok)))
    return reports


# ---------------------------------------------------------------------------
# m = 0 values and the Petersson norm.


class M0Value(Record):
    a: int
    s: int
    cutoff: int
    numeric: object  # sum_{n <= cutoff} tau(n) sigma_a(n) / n^s
    constant: Rat  # exact coefficient of pi^11 <Delta, Delta>
    predicted: object  # constant * pi^11 * PETERSSON_REF
    printed: str  # three-decimal reference value
    err_round: object  # mpf, rigorous bound on |numeric - exact sum over n <= cutoff|
    verdict: str  # PASS when numeric is within M0_PRINTED_TOL of printed

    def row(self) -> dict:
        return {
            "a": self.a,
            "s": self.s,
            "cutoff": self.cutoff,
            "numeric": mpf_str(self.numeric, 15),
            "predicted": mpf_str(self.predicted, 15),
            "constant": rat_str(self.constant),
            "printed": self.printed,
            "verdict": self.verdict,
        }


def _pi11(prec: int):
    with mp.workprec(prec):
        out = mp.pi
        for _ in range(10):
            out *= mp.pi
        return out


def lvalue_m0(a: int, s: int, cutoff: int | None = None, prec_bits: int = DEFAULT_PREC_BITS) -> M0Value:
    """Numeric sum tau(n) sigma_a(n) / n^s, with its rounding bound, against its closed-form prediction."""
    cutoff = LQuery(0, a, s, cutoff, prec_bits).cutoff
    acc, err_round, _ = _fixed_sum(a, s, 0, cutoff, prec_bits)
    const, printed = M0_CONSTANTS[(a, s)], M0_PRINTED[(a, s)]
    with mp.workprec(prec_bits):
        predicted = (
            mp.mpf(int(const.numerator))
            / mp.mpf(int(const.denominator))
            * _pi11(prec_bits)
            * mp.mpf(PETERSSON_REF)
        )
        ok = abs(acc - mp.mpf(printed)) < mp.mpf(M0_PRINTED_TOL)
    return M0Value(a, s, cutoff, acc, const, predicted, printed, err_round, _verdict(ok))


def lvalues_m0(cutoff: int | None = None, prec_bits: int = DEFAULT_PREC_BITS) -> list[M0Value]:
    """``lvalue_m0`` for each pair of ``M0_CONSTANTS``, in that order, on tables sized once.

    ``cutoff`` applies to all six sums; by default each takes its tier cutoff.
    """
    queries = [LQuery(0, a, s, cutoff, prec_bits) for a, s in M0_CONSTANTS]
    tau_words(max(q.cutoff for q in queries))
    for a in sorted({q.a for q in queries}):
        _sigma(a, max(q.cutoff for q in queries if q.a == a))
    return [lvalue_m0(q.a, q.s, q.cutoff, prec_bits) for q in queries]


class PeterssonEstimate(Record):
    a: int
    s: int
    estimate: object  # numeric / (constant * pi^11)
    rel_dev_from_ref: object
    verdict: str  # PASS when rel_dev_from_ref is below PETERSSON_TOL[s]

    def row(self) -> dict:
        return {
            "a": self.a,
            "s": self.s,
            "estimate": mpf_str(self.estimate, 13),
            "rel_dev_from_ref": mpf_str(self.rel_dev_from_ref, 6),
        }


class PeterssonReport(Record):
    estimates: tuple[PeterssonEstimate, ...]
    max_pairwise_high: object  # among the s >= 10 entries
    max_pairwise_low: object  # among all entries
    reference: str
    verdict: str  # PASS when every estimate passes and the s >= 10 entries agree within PETERSSON_TOL[10]

    def row(self) -> dict:
        return {"reference": self.reference, "estimates": [e.row() for e in self.estimates]}


def petersson_recover(prec_bits: int = DEFAULT_PREC_BITS) -> PeterssonReport:
    """Invert each m = 0 closed form into an estimate of <Delta, Delta>."""
    ests, values = [], lvalues_m0(prec_bits=prec_bits)
    with mp.workprec(prec_bits):
        ref = mp.mpf(PETERSSON_REF)
        pi11 = _pi11(prec_bits)
        for val in values:
            const = val.constant
            est = val.numeric / (mp.mpf(int(const.numerator)) / mp.mpf(int(const.denominator)) * pi11)
            dev = abs(est - ref) / ref
            ests.append(PeterssonEstimate(val.a, val.s, est, dev, _verdict(dev < mp.mpf(PETERSSON_TOL[val.s]))))
        high = [e.estimate for e in ests if e.s >= 10]
        low = [e.estimate for e in ests]
        max_high = max(abs(x - y) / abs(x) for x in high for y in high)
        max_low = max(abs(x - y) / abs(x) for x in low for y in low)
        ok = max_high < mp.mpf(PETERSSON_TOL[10]) and all(e.verdict == "PASS" for e in ests)
    return PeterssonReport(tuple(ests), max_high, max_low, PETERSSON_REF, _verdict(ok))


# ---------------------------------------------------------------------------
# The exact weight-12 identities and the derivation of the m = 0 constants.


class ExactIdentity(Record):
    label: str
    lhs: Form  # the exactly computed weight-12 form
    e12: Rat  # E12 coordinate
    delta_coeff: Rat  # Delta coordinate


def exact_lhs_catalog(prec: int = 200) -> list[ExactIdentity]:
    """Compute and decompose the six exact weight-12 identities.

    Each row of ``poincare.CONSTRUCTIONS`` is evaluated at m = 0, where
    P_{l,0} = E_l: ("serre", r) is ``serre(E_l, r)`` and ("rc", k, n) is
    ``rankin_cohen(E_k, E_l, n)``.  Each bracket is made once per unordered
    pair, with [g, f]_n = (-1)^n [f, g]_n.  An order-0 bracket of two E_k
    with dim M_k = 1, each its one monomial (E8 = E4^2, E10 = E4 E6,
    E14 = E4^2 E6), is the monomial E4^a E6^b from the stored powers, so
    E4 E8 is the E4^3 that ``in_basis`` makes anyway.  A row's terms are
    summed as series, and the sum is the weight-12 form.  The decomposition is certified
    coefficientwise by ``in_basis``; a nonzero residual raises.
    """
    brackets = {}

    def bracket(k: int, l: int, n: int) -> QSeries:
        if n == 0 and dim_mk(k) == dim_mk(l) == 1:
            [(a, b)], [(c, d)] = _monomial_exponents(k), _monomial_exponents(l)
            return _monomial(a + c, b + d, prec)
        lo, hi = sorted((k, l))
        if (lo, hi, n) not in brackets:
            brackets[lo, hi, n] = rankin_cohen(eisenstein(lo, prec), eisenstein(hi, prec), n).series
        series = brackets[lo, hi, n]
        return -series if k > l and n % 2 else series

    entries = []
    for c in CONSTRUCTIONS:
        e_l = eisenstein(c.weight, prec)
        series = linear_combination(
            c.terms, lambda op: serre(e_l, op[1]).series if op[0] == "serre" else bracket(op[1], c.weight, op[2]), prec
        )
        lhs = Form(12, series)
        entries.append(ExactIdentity(c.label, lhs, *e12_delta_coords(lhs)))
    return entries


def derive_m0_constants(prec: int = 201) -> dict[tuple[int, int], Rat]:
    """Derive the six m = 0 closed-form constants exactly.

    Each construction's m = 0 seed, whose weight-12 average is the catalog's
    left-hand side, decomposes over the monomials n^(11-s) sigma_a(n), one per
    pair (a, s) of ``M0_CONSTANTS``; pairing the cusp part against that
    average turns the decompositions into six exact linear equations for the
    six L-values, measured in units of R = (4 pi)^11 <Delta, Delta> / 10!.
    The solution, rescaled by 4^11/10!, must reproduce ``M0_CONSTANTS``.
    """
    nmax = prec - 1
    monomial_cols = []
    for a, s in M0_CONSTANTS:
        sig = forms.sigma_from_eisenstein(a, nmax)
        monomial_cols.append([Rat(n ** (11 - s) * sig[n]) for n in range(1, nmax + 1)])
    equations = []  # rows of (coefficients over the six unknowns, rhs in units of R)
    for c, entry in zip(CONSTRUCTIONS, exact_lhs_catalog(prec)):
        seed = construction_seed(c, 0, prec)
        stream = [seed[n] for n in range(1, nmax + 1)]
        combo = solve_exact(monomial_cols, stream)
        equations.append((combo, entry.delta_coeff))
    unknown_cols = [[eq[0][j] for eq in equations] for j in range(len(M0_CONSTANTS))]
    rhs = [eq[1] for eq in equations]
    sol = solve_exact(unknown_cols, rhs)
    # S = sol_j * R; the published constants are against pi^11 <Delta,Delta>:
    # S = const * pi^11 <D,D>  =>  const = sol_j * 4^11 / 10!.
    scale = Rat(4**11, math.factorial(10))
    return {pair: x * scale for pair, x in zip(M0_CONSTANTS, sol)}
