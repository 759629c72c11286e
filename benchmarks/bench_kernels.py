"""Compare the jitted and pure-numpy kernel paths.

Run as:  python benchmarks/bench_kernels.py [PREC]

The eta-product convolution and the divisor sieve are the two integer
kernels with a numba path; this script times only them.  The exact
rational layer (q-series products, Serre derivatives, brackets and the
certifying solves, at precision 200-2000) is timed by the
``exact_certify`` workload of ``perfbench/``.  TAUFORMS_JIT=0 forces the numpy path at import time, so this
script instead calls both implementations directly.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from tauforms import _kernels


def _time(fn, *args, repeats=3):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def main() -> int:
    prec = int(sys.argv[1]) if len(sys.argv) > 1 else 310_000
    p = _kernels._PRIMES[0]
    exps, coeffs = _kernels.jacobi_terms(prec)

    rows = []
    res_np, t_np = _time(_kernels._eta24_modp_numpy, prec, p, exps, coeffs)
    rows.append(("eta24 mod p (numpy)", t_np))
    if _kernels._HAVE_NUMBA:
        _kernels._eta24_modp_njit(prec, p, exps, coeffs)  # compile outside the timing
        res_nb, t_nb = _time(_kernels._eta24_modp_njit, prec, p, exps, coeffs)
        assert np.array_equal(res_np, res_nb), "kernel paths disagree"
        rows.append(("eta24 mod p (numba)", t_nb))

    sig_np, t_np = _time(_kernels._sigma_range_numpy, 3, prec)
    rows.append(("sigma_3 sieve (numpy)", t_np))
    if _kernels._HAVE_NUMBA:
        _kernels._sigma_range_njit(3, prec)
        sig_nb, t_nb = _time(_kernels._sigma_range_njit, 3, prec)
        assert np.array_equal(sig_np, sig_nb), "sieve paths disagree"
        rows.append(("sigma_3 sieve (numba)", t_nb))

    t0 = time.perf_counter()
    _kernels.tau_numbers(prec)
    rows.append(("full tau table (CRT, active path)", time.perf_counter() - t0))

    print(f"precision {prec}; numba available: {_kernels._HAVE_NUMBA}; jit active: {_kernels.USE_NUMBA}")
    for label, t in rows:
        print(f"{label:38s} {t * 1000:10.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
