"""Command-line front end.

Subcommands:

* ``expand EXPR --prec N [--json]``   exact q-expansion of an expression
* ``basis EXPR [--prec N] [--json]``  decomposition over the E4^a E6^b monomials
* ``verify-tau --id ID --m-from A --m-to B [--tol T] [--cutoff C]``
* ``lvalues``                         the six m = 0 L-values against their closed forms
* ``petersson``                       recover the Petersson norm from each closed form
* ``tau N``                           one Ramanujan tau value
* ``selftest``                        the exact identity suite

Exit status: 0 when everything printed PASS, 1 on any FAIL, 2 on usage
errors.  Every usage error prints one ``error:`` line to stderr: an unknown
subcommand, a missing or malformed argument, an expression that does not
parse or type-check, an argument out of range, a table beyond the kernel's
limit, a ``--tol`` that is not positive and finite, a ``--csv`` path that
cannot be written (refused before any work), or a ``TAUFORMS_PREC_BITS``
that is not an integer >= 16.  ``TAUFORMS_PREC_BITS`` overrides the default
256-bit float precision.

``json`` and ``csv`` are imported only in the branches that write them, so
that a command printing text does not pay for loading them.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import expr as expr_mod
from . import lseries
from ._kernels import _MAX_PREC
from .arith import DEFAULT_PREC_BITS, mpf_str, rat_str
from .calculus import ramanujan_derivatives
from .forms import NotModularError, in_basis, tau
from .poincare import CONSTRUCTIONS, identity_catalog

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser (and, by inheritance, its subparsers) whose usage errors print one line."""

    def parse_known_args(self, args=None, namespace=None):
        self._arg_strings = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        # A subcommand's positional that begins with "-" (an expression such
        # as -E4) is read as an unknown option, which leaves the positional
        # missing; say so, and show the "--" form.
        head, _, missing = message.partition(": ")
        if self._subparsers is None and head == "the following arguments are required" and not missing.startswith("-"):
            stray = next(
                (
                    a
                    for a in getattr(self, "_arg_strings", ())  # set by parse_known_args
                    if a.startswith("-")
                    and a.split("=")[0] not in self._option_string_actions
                    and not self._negative_number_matcher.match(a)
                ),
                None,
            )
            if stray is not None:
                message = f"{stray} was read as an option, leaving {missing} missing; put it after --: {self.prog} -- {stray}"
        _usage_error(message)


def _prec_bits(args) -> int:
    """Float precision from --prec-bits, else TAUFORMS_PREC_BITS, else the default."""
    env = os.environ.get("TAUFORMS_PREC_BITS")
    if args.prec_bits is not None:
        bits, source = args.prec_bits, "--prec-bits"
    elif env:
        source = "TAUFORMS_PREC_BITS"
        try:
            bits = int(env)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {env!r}") from None
    else:
        return DEFAULT_PREC_BITS
    if bits < 16:
        raise ValueError(f"{source} must be at least 16, got {bits}")
    return bits


def cmd_expand(args) -> int:
    node = expr_mod.parse(args.expr)
    form = expr_mod.evaluate(node, args.prec)
    if args.json:
        import json

        payload = json.loads(form.series.to_json())
        payload["weight"] = form.weight
        payload["quasimodular"] = form.quasimodular
        print(json.dumps(payload))
    else:
        print(f"# {expr_mod.to_text(node)}  [{expr_mod.WeightInfo(form.weight, form.quasimodular)}]")
        for n, c in enumerate(form.series.coeffs):
            print(f"q^{n}: {rat_str(c)}")
    return EXIT_PASS


def cmd_basis(args) -> int:
    form = expr_mod.evaluate(expr_mod.parse(args.expr), args.prec)
    try:
        coords = in_basis(form)
    except NotModularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.json:
        print(coords.to_json())
    else:
        print(f"# weight {coords.weight}")
        for (a, b), c in coords.coords:
            print(f"E4^{a} * E6^{b}: {rat_str(c)}")
    return EXIT_PASS


@contextlib.contextmanager
def _open_csv(path: str | None):
    """The ``--csv`` file, opened before any work so that a bad path fails at once.

    Append mode keeps an existing file intact until ``_write`` replaces its
    contents, so a usage error found later leaves it as it was; a file that the
    command created is removed again.
    """
    if not path:
        yield None
        return
    created = not os.path.exists(path)
    fh = open(path, "a", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        if created:
            os.remove(path)
        raise


def _write(args, csv_fh, reports: list, payload, lines: list[str]) -> int:
    """Print a numeric command's reports and return its exit code from their verdicts.

    With --json ``payload`` is printed as JSON, else ``lines`` as text; with
    --csv ``payload``, a list of rows, also replaces the contents of ``csv_fh``.
    """
    if csv_fh:
        import csv

        csv_fh.truncate(0)
        writer = csv.DictWriter(csv_fh, fieldnames=list(payload[0]))
        writer.writeheader()
        writer.writerows(payload)
    if args.json:
        import json

        print(json.dumps(payload))
    else:
        print("\n".join(lines))
    return EXIT_PASS if all(r.verdict == "PASS" for r in reports) else EXIT_FAIL


def cmd_verify_tau(args) -> int:
    prec = _prec_bits(args)
    if not 1 <= args.m_from <= args.m_to <= _MAX_PREC:
        raise ValueError(f"need 1 <= m-from <= m-to <= {_MAX_PREC}")
    ms = range(args.m_from, args.m_to + 1)
    with _open_csv(args.csv) as fh:
        reports = lseries.verify_sweep(args.id, ms, tol=args.tol, cutoff=args.cutoff, prec_bits=prec)
        lines = [
            f"{r.identity_id} m={r.m}: tau(m)={r.lhs}  rel_err={mpf_str(r.rel_err, 6)}  "
            f"cutoff={r.result.terms_used} tail={mpf_str(r.result.tail_estimate, 6)} "
            f"rigorous={'yes' if r.result.rigorous else 'no'}  {r.verdict}"
            for r in reports
        ]
        return _write(args, fh, reports, [r.row() for r in reports], lines)


def cmd_lvalues(args) -> int:
    prec = _prec_bits(args)
    with _open_csv(args.csv) as fh:
        values = lseries.lvalues_m0(cutoff=args.cutoff, prec_bits=prec)
        rows = [v.row() for v in values]
        lines = [
            f"(a={r['a']}, s={r['s']}) cutoff={r['cutoff']}: sum={r['numeric']}  "
            f"closed form={r['constant']} * pi^11 * <D,D> = {r['predicted']}  "
            f"printed {r['printed']}  {r['verdict']}"
            for r in rows
        ]
        return _write(args, fh, values, rows, lines)


def cmd_petersson(args) -> int:
    report = lseries.petersson_recover(prec_bits=_prec_bits(args))
    lines = [
        f"(a={e.a}, s={e.s}): <Delta,Delta> = {mpf_str(e.estimate, 13)}  "
        f"rel dev from reference {mpf_str(e.rel_dev_from_ref, 4)}  {e.verdict}"
        for e in report.estimates
    ]
    lines.append(f"max pairwise deviation (s >= 10 entries): {mpf_str(report.max_pairwise_high, 4)}")
    lines.append(f"max pairwise deviation (all entries):     {mpf_str(report.max_pairwise_low, 4)}")
    return _write(args, None, [report], report.row(), lines)


def cmd_tau(args) -> int:
    if args.n < 1:
        raise ValueError("tau(n) needs n >= 1")
    print(tau(args.n))
    return EXIT_PASS


def cmd_selftest(args) -> int:
    prec = args.prec
    ok = True

    def check(label: str, good: bool):
        nonlocal ok
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}  {label}")

    for residual, label in zip(
        ramanujan_derivatives(prec),
        ("D E2 = (E2^2 - E4)/12", "D E4 = (E2 E4 - E6)/3", "D E6 = (E2 E6 - E4^2)/2"),
    ):
        check(label, residual.is_zero())
    try:
        for c, entry in zip(CONSTRUCTIONS, lseries.exact_lhs_catalog(prec)):
            good = (entry.e12, entry.delta_coeff) == (c.e12, c.delta)
            check(f"{c.label} = {rat_str(c.e12)} E12 + {rat_str(c.delta)} Delta", good)
    except NotModularError as exc:
        check(f"exact catalog decomposition ({exc})", False)
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tauforms",
        description="Exact modular-form calculus and Ramanujan tau identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="exact q-expansion of an expression")
    p.add_argument("expr")
    p.add_argument("--prec", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("basis", help="decompose an expression over E4^a E6^b")
    p.add_argument("expr")
    p.add_argument("--prec", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify-tau", help="verify a tau identity numerically")
    p.add_argument("--id", required=True, choices=[e.ident for e in identity_catalog()])
    p.add_argument("--m-from", type=int, required=True)
    p.add_argument("--m-to", type=int, required=True)
    p.add_argument("--tol", type=float, default=None, help="relative tolerance (default: tier)")
    p.add_argument("--cutoff", type=int, default=None, help="summation cutoff (default: tier)")
    p.add_argument("--prec-bits", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=cmd_verify_tau)

    p = sub.add_parser("lvalues", help="the six m = 0 L-values")
    p.add_argument("--cutoff", type=int, default=None, help="summation cutoff (default: tier)")
    p.add_argument("--prec-bits", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=cmd_lvalues)

    p = sub.add_parser("petersson", help="recover the Petersson norm six ways")
    p.add_argument("--prec-bits", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_petersson)

    p = sub.add_parser("tau", help="print tau(N)")
    p.add_argument("n", type=int, metavar="N")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("selftest", help="exact identity suite")
    p.add_argument("--prec", type=int, default=200)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
