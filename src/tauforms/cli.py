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
cannot be written (refused before any work), or a ``--prec-bits`` or
``TAUFORMS_PREC_BITS`` outside 16..4096 (``lseries.MAX_PREC_BITS``).
``TAUFORMS_PREC_BITS`` overrides the default 256-bit float precision.
``lseries.LQuery`` checks the precision and m + cutoff of a numeric request
before any table is built, and ``forms.tau`` the n of ``tau``; only
``verify-tau``'s m range is bounded here, before the sweep walks it.

Every command but ``selftest`` (which prints each check as it ends) formats
its whole output before printing it, so a command that fails leaves stdout
empty.  The subcommands are one table, ``COMMANDS``; ``build_parser`` builds
the full parser from it, and a call that names its subcommand builds that
subparser alone.  ``json`` and ``csv`` are imported only in the branches
that write them, so that a command printing text does not pay for loading them.
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
    """Float precision from --prec-bits, else TAUFORMS_PREC_BITS, else the default;
    ``lseries.LQuery`` checks its range."""
    if args.prec_bits is not None:
        return args.prec_bits
    env = os.environ.get("TAUFORMS_PREC_BITS")
    if not env:
        return DEFAULT_PREC_BITS
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"TAUFORMS_PREC_BITS must be an integer, got {env!r}") from None


def cmd_expand(args) -> int:
    node = expr_mod.parse(args.expr)
    form = expr_mod.evaluate(node, args.prec)
    if args.json:
        import json

        payload = json.loads(form.series.to_json())
        payload["weight"] = form.weight
        payload["quasimodular"] = form.quasimodular
        text = json.dumps(payload)
    else:
        head = f"# {expr_mod.to_text(node)}  [{expr_mod.WeightInfo(form.weight, form.quasimodular)}]"
        text = "\n".join([head, *(f"q^{n}: {rat_str(c)}" for n, c in enumerate(form.series.coeffs))])
    print(text)  # formatted whole first, so a failure leaves stdout empty
    return EXIT_PASS


def cmd_basis(args) -> int:
    form = expr_mod.evaluate(expr_mod.parse(args.expr), args.prec)
    try:
        coords = in_basis(form)
    except NotModularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.json:
        text = coords.to_json()
    else:
        lines = [f"E4^{a} * E6^{b}: {rat_str(c)}" for (a, b), c in coords.coords]
        text = "\n".join([f"# weight {coords.weight}", *lines])
    print(text)
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
    # Bounded here: the sweep walks the whole m range (min, max) before its LQuery checks one m.
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


def _arg(*names: str, **kwargs) -> tuple:
    """The arguments of one ``add_argument`` call."""
    return names, kwargs


_JSON = _arg("--json", action="store_true")
_EXPR = (_arg("expr"), _arg("--prec", type=int, default=64), _JSON)
_PREC_BITS = _arg("--prec-bits", type=int, default=None)
_CUTOFF = _arg("--cutoff", type=int, default=None, help="summation cutoff (default: tier)")
_CSV = _arg("--csv", metavar="PATH")

# The subcommands: name, help, arguments and handler, in the order of the usage line.
COMMANDS = (
    ("expand", "exact q-expansion of an expression", _EXPR, cmd_expand),
    ("basis", "decompose an expression over E4^a E6^b", _EXPR, cmd_basis),
    (
        "verify-tau",
        "verify a tau identity numerically",
        (
            _arg("--id", required=True, choices=[e.ident for e in identity_catalog()]),
            _arg("--m-from", type=int, required=True),
            _arg("--m-to", type=int, required=True),
            _arg("--tol", type=float, default=None, help="relative tolerance (default: tier)"),
            _CUTOFF,
            _PREC_BITS,
            _JSON,
            _CSV,
        ),
        cmd_verify_tau,
    ),
    ("lvalues", "the six m = 0 L-values", (_CUTOFF, _PREC_BITS, _JSON, _CSV), cmd_lvalues),
    ("petersson", "recover the Petersson norm six ways", (_PREC_BITS, _JSON), cmd_petersson),
    ("tau", "print tau(N)", (_arg("n", type=int, metavar="N"),), cmd_tau),
    ("selftest", "exact identity suite", (_arg("--prec", type=int, default=200),), cmd_selftest),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone; each subparser is
    the same either way, with its prog ``tauforms <command>``."""
    parser = _ArgumentParser(
        prog="tauforms",
        description="Exact modular-form calculus and Ramanujan tau identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, arguments, handler in COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_)
            for names, kwargs in arguments:
                p.add_argument(*names, **kwargs)
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A call that names its subcommand builds that subparser alone; -h, no
    # command and an unknown one take the full parser, which lists them all.
    command = argv[0] if argv and argv[0] in {c[0] for c in COMMANDS} else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
