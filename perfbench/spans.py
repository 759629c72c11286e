"""Outside-in spans around the public functions of each tauforms layer.

:class:`Tracer` wraps the functions listed in :data:`SPANS` from outside the
package: every module attribute in ``tauforms.*`` that is bound to one of
them is replaced, so calls through ``from .forms import tau_table`` style
imports are seen too.  Each span records its name, start, end and parent
id, plus exact work counts; spans stay in memory until the run ends.

The span names are the ones an in-program recorder should keep.
:func:`layer_metrics` turns the spans of one child into the per-layer
metrics listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from bisect import bisect_left

#: (module, attribute path, span name) of every wrapped function.
SPANS = (
    ("_kernels", "tau_numbers", "_kernels.tau_numbers"),
    ("_kernels", "eta24_modp", "_kernels.eta24_modp"),
    ("_kernels", "sigma_range", "_kernels.sigma_range"),
    ("forms", "tau_table", "forms.tau_table"),
    ("forms", "in_basis", "forms.in_basis"),
    ("qseries", "QSeries.__mul__", "qseries.mul"),
    ("arith", "solve_exact", "arith.solve_exact"),
    ("calculus", "serre", "calculus.serre"),
    ("calculus", "rankin_cohen", "calculus.rankin_cohen"),
    ("poincare", "derive_identity", "poincare.derive_identity"),
    ("lseries", "shifted_L", "lseries.shifted_L"),
    ("lseries", "lvalue_m0", "lseries.lvalue_m0"),
    ("expr", "evaluate", "expr.evaluate"),
    ("cli", "main", "cli.main"),
)

#: The CLI subcommands the workloads call; each gets its own busy time.
CLI_COMMANDS = ("verify-tau", "petersson", "selftest", "basis")

#: (name, unit, better) of every per-layer metric, in report order.  Metric
#: names must start with a letter or digit, so the spans of ``_kernels``
#: report as ``kernels.*``.
PER_LAYER = (
    ("kernels.tau_numbers.calls", "count", "lower"),
    ("kernels.tau_numbers.entries", "count", "lower"),
    ("kernels.tau_numbers.busy_s", "s", "lower"),
    ("kernels.eta24_modp.busy_s", "s", "lower"),
    ("kernels.crt.self_s", "s", "lower"),
    ("kernels.sigma_range.entries", "count", "lower"),
    ("kernels.sigma_range.busy_s", "s", "lower"),
    ("kernels.tau.useful_ratio", "ratio", "higher"),
    ("forms.tau_table.calls", "count", "lower"),
    ("forms.tau_table.rebuilds", "count", "lower"),
    ("forms.in_basis.calls", "count", "lower"),
    ("forms.in_basis.self_s", "s", "lower"),
    ("forms.cache.hits", "count", "higher"),
    ("forms.cache.misses", "count", "lower"),
    ("qseries.mul.calls", "count", "lower"),
    ("qseries.mul.coeff_products", "count", "lower"),
    ("qseries.mul.busy_s", "s", "lower"),
    ("arith.solve_exact.calls", "count", "lower"),
    ("arith.solve_exact.busy_s", "s", "lower"),
    ("calculus.serre.self_s", "s", "lower"),
    ("calculus.rankin_cohen.self_s", "s", "lower"),
    ("poincare.derive_identity.busy_s", "s", "lower"),
    ("lseries.shifted_L.calls", "count", "lower"),
    ("lseries.shifted_L.terms", "count", "lower"),
    ("lseries.shifted_L.self_s", "s", "lower"),
    ("lseries.lvalue_m0.terms", "count", "lower"),
    ("lseries.lvalue_m0.self_s", "s", "lower"),
    ("expr.evaluate.busy_s", "s", "lower"),
    *((f"cli.main.{cmd}.busy_s", "s", "lower") for cmd in CLI_COMMANDS),
    ("layers.qseries_mul.share", "ratio", "lower"),
    ("layers.kernels_lseries.share", "ratio", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Per-layer metrics that are exact work counts; they must repeat run to run.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count") + ("kernels.tau.useful_ratio",)


def coeff_products(a, b) -> int:
    """Coefficient products QSeries.__mul__ performs for a * b.

    Computed from the operands, not measured: the product loop multiplies
    every nonzero a[i] by every nonzero b[j] with i + j < min(prec).
    """
    n = min(len(a), len(b))
    nz_b = [j for j in range(n) if b[j]]
    return sum(bisect_left(nz_b, n - i) for i in range(n) if a[i])


def _before(name, args):
    """Work counts known from a call's arguments."""
    if name == "_kernels.tau_numbers":
        return {"entries": args[0]}
    if name == "_kernels.sigma_range":
        return {"entries": args[1] + 1}
    if name == "qseries.mul":
        return {"coeff_products": coeff_products(args[0].coeffs, args[1].coeffs)}
    if name == "cli.main":
        return {"command": args[0][0]}
    return {}


def _after(name, result):
    """Work counts known from a call's result."""
    if name == "lseries.shifted_L":
        return {"terms": result.terms_used}
    if name == "lseries.lvalue_m0":
        return {"terms": result.cutoff}
    return {}


class Tracer:
    """Records spans ``[id, parent, name, start, end, attrs]`` in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """A span the caller opens itself, such as one per benchmark operation."""
        rec = self._open(name, attrs or {})
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name, fn):
        is_mul = name == "qseries.mul"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_mul and type(args[1]) is not type(args[0]):
                return fn(*args, **kwargs)  # scalar products are QSeries.scale
            rec = self._open(name, _before(name, args))
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[5].update(_after(name, out))
            return out

        return wrapper

    def install(self) -> None:
        """Patch every binding of every function in :data:`SPANS`."""
        modules = [m for key, m in sys.modules.items() if key == "tauforms" or key.startswith("tauforms.")]
        for mod_name, path, name in SPANS:
            owner = sys.modules[f"tauforms.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def forms_cache_counts() -> dict:
    """Hits and misses summed over the ``lru_cache``s of ``tauforms.forms``."""
    forms = sys.modules["tauforms.forms"]
    hits = misses = 0
    for value in vars(forms).values():
        if hasattr(value, "cache_info") and getattr(value, "__module__", None) == forms.__name__:
            info = value.cache_info()
            hits += info.hits
            misses += info.misses
    return {"forms.cache.hits": hits, "forms.cache.misses": misses}


def layer_metrics(spans: list[list], counters: dict, run_s: float) -> dict:
    """Per-layer metrics of one traced child, keyed as in :data:`PER_LAYER`.

    A span's self time is its duration minus its direct children's
    durations; busy time counts only spans with no ancestor of the same
    name, so recursion is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {s[0]: 0.0 for s in spans}
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[4] - s[3]

    def ancestors(s):
        p = s[1]
        while p >= 0:
            yield by_id[p]
            p = by_id[p][1]

    def named(name):
        return [s for s in spans if s[2] == name]

    def calls(name):
        return len(named(name))

    def attr_sum(name, key):
        return sum(s[5].get(key, 0) for s in named(name))

    def self_s(name):
        return sum(s[4] - s[3] - child_time[s[0]] for s in named(name))

    def busy_s(match):
        """Time covered by spans matching ``match``, nested ones counted once."""
        return sum(
            s[4] - s[3]
            for s in spans
            if match(s) and not any(match(a) for a in ancestors(s))
        )

    def busy_of(name):
        return busy_s(lambda s: s[2] == name)

    def rebuilds():
        return sum(
            1
            for s in spans
            if s[2] == "_kernels.tau_numbers" and any(a[2] == "forms.tau_table" for a in ancestors(s))
        )

    entries = [s[5]["entries"] for s in named("_kernels.tau_numbers")]
    mul_busy = busy_of("qseries.mul")
    numeric_busy = busy_s(lambda s: s[2].startswith(("_kernels.", "lseries.")))
    out = {
        "kernels.tau_numbers.calls": calls("_kernels.tau_numbers"),
        "kernels.tau_numbers.entries": sum(entries),
        "kernels.tau_numbers.busy_s": busy_of("_kernels.tau_numbers"),
        "kernels.eta24_modp.busy_s": busy_of("_kernels.eta24_modp"),
        "kernels.crt.self_s": self_s("_kernels.tau_numbers"),
        "kernels.sigma_range.entries": attr_sum("_kernels.sigma_range", "entries"),
        "kernels.sigma_range.busy_s": busy_of("_kernels.sigma_range"),
        # The largest table kept over all entries built; 0 when none was built.
        "kernels.tau.useful_ratio": max(entries) / sum(entries) if sum(entries) else 0.0,
        "forms.tau_table.calls": calls("forms.tau_table"),
        "forms.tau_table.rebuilds": rebuilds(),
        "forms.in_basis.calls": calls("forms.in_basis"),
        "forms.in_basis.self_s": self_s("forms.in_basis"),
        "forms.cache.hits": counters["forms.cache.hits"],
        "forms.cache.misses": counters["forms.cache.misses"],
        "qseries.mul.calls": calls("qseries.mul"),
        "qseries.mul.coeff_products": attr_sum("qseries.mul", "coeff_products"),
        "qseries.mul.busy_s": mul_busy,
        "arith.solve_exact.calls": calls("arith.solve_exact"),
        "arith.solve_exact.busy_s": busy_of("arith.solve_exact"),
        "calculus.serre.self_s": self_s("calculus.serre"),
        "calculus.rankin_cohen.self_s": self_s("calculus.rankin_cohen"),
        "poincare.derive_identity.busy_s": busy_of("poincare.derive_identity"),
        "lseries.shifted_L.calls": calls("lseries.shifted_L"),
        "lseries.shifted_L.terms": attr_sum("lseries.shifted_L", "terms"),
        "lseries.shifted_L.self_s": self_s("lseries.shifted_L"),
        "lseries.lvalue_m0.terms": attr_sum("lseries.lvalue_m0", "terms"),
        "lseries.lvalue_m0.self_s": self_s("lseries.lvalue_m0"),
        "expr.evaluate.busy_s": busy_of("expr.evaluate"),
        "layers.qseries_mul.share": mul_busy / run_s,
        "layers.kernels_lseries.share": numeric_busy / run_s,
        "trace.run_s": run_s,
        "trace.spans": len(spans),
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.main.{cmd}.busy_s"] = busy_s(lambda s: s[2] == "cli.main" and s[5]["command"] == cmd)
    return out
