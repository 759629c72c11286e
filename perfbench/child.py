"""One benchmark child: a fresh process that imports tauforms and runs operations.

Reads a JSON request on stdin, ``{"ops": [...], "trace": bool}``, or
``{"ops": null}`` to stop right after the import, and writes one JSON
reply on stdout.  The reply carries ``imported_at``, the ``time.monotonic``
reading when ``import tauforms`` finished, which the parent subtracts from
its own reading taken just before starting this process.

The reply also carries ``calibration_s``: durations of a fixed loop of
standard-library exact arithmetic (:func:`calibrate`), run right after the
import and again between operations, outside the timed operations.  The
parent divides times by them to remove the host's drifting CPU speed.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import tauforms  # noqa: E402
import tauforms.cli  # noqa: E402  (every CLI call pays for this import too)

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from tauforms import cli, poincare  # noqa: E402

from spans import Tracer, forms_cache_counts  # noqa: E402


def environment() -> dict:
    """Versions and switches that change what the measured code does."""
    import mpmath
    import numpy

    from tauforms import _kernels

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numba": importlib.util.find_spec("numba") is not None,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "TAUFORMS_JIT": os.environ.get("TAUFORMS_JIT"),
        "jit_active": _kernels.USE_NUMBA,
    }
    if _kernels._HAVE_NUMBA:
        # The two kernel paths must agree wherever both exist.
        prec, p = 5000, _kernels._PRIMES[0]
        exps, coeffs = _kernels.jacobi_terms(prec)
        same = numpy.array_equal(
            _kernels._eta24_modp_numpy(prec, p, exps, coeffs), _kernels._eta24_modp_njit(prec, p, exps, coeffs)
        ) and all(
            numpy.array_equal(_kernels._sigma_range_numpy(a, prec), _kernels._sigma_range_njit(a, prec)) for a in (1, 3)
        )
        env["kernel_check"] = "numpy and numba kernels agree" if same else "numpy and numba kernels DISAGREE"
    else:
        env["kernel_check"] = "skipped: numba absent"
    return env


def calibrate() -> float:
    """Time a fixed piece of work that uses no tauforms code.

    Big-integer rational sums and a list sort, the kind of work the exact
    and mpmath layers do, so that it slows down with the host as they do.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 1200):
        acc += Fraction(k, k * k + 1)
    sorted(k * k % 9973 for k in range(20000))
    return time.perf_counter() - t0


def run_op(op: dict) -> dict:
    """Run one operation; its outputs are checked by the parent."""
    out = io.StringIO()
    reply = {"rc": None, "stdout": "", "error": None}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if op["kind"] == "cli":
                reply["rc"] = cli.main(op["argv"])
            elif op["kind"] == "derive":
                coeffs = poincare.derive_identity(op["ident"], op["m"], cutoff=op["cutoff"])
                reply["result"] = [str(c) for c in coeffs]
                reply["rc"] = 0
            else:
                raise ValueError(f"unknown operation kind {op['kind']!r}")
    except SystemExit as exc:
        reply["rc"] = exc.code
    except Exception as exc:  # reported to the parent as a failed operation
        reply["error"] = f"{type(exc).__name__}: {exc}"
    reply["stdout"] = out.getvalue()
    return reply


def main() -> int:
    request = json.load(sys.stdin)
    reply = {"imported_at": IMPORTED_AT, "tauforms_file": tauforms.__file__}
    calibration = [calibrate() for _ in range(3)]
    if request["ops"] is None:
        reply["env"] = environment()
    else:
        tracer = Tracer() if request["trace"] else None
        if tracer:
            tracer.install()
        replies = []
        op_s = []
        for i, op in enumerate(request["ops"]):
            t0 = time.perf_counter()
            if tracer:
                with tracer.span("bench.op", {"index": i, "kind": op["kind"]}):
                    replies.append(run_op(op))
            else:
                replies.append(run_op(op))
            op_s.append(time.perf_counter() - t0)
            calibration.append(calibrate())
        reply["op_s"] = op_s
        reply["run_s"] = sum(op_s)
        reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reply["ops"] = replies
        if tracer:
            reply["spans"] = tracer.spans
            reply["counters"] = forms_cache_counts()
    reply["calibration_s"] = calibration
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
