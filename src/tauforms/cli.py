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
errors, which print one line to stderr: an argument out of range, a table
beyond the kernel's limit, or a ``TAUFORMS_PREC_BITS`` that is not an
integer >= 16.  ``TAUFORMS_PREC_BITS`` overrides the default 256-bit float
precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from mpmath import mp

from . import expr as expr_mod
from . import lseries
from .arith import DEFAULT_PREC_BITS, mpf_str, rat_str
from .calculus import ramanujan_derivatives
from .forms import NotModularError, in_basis, tau, tau_table
from .poincare import catalog_identity, identity_catalog

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


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
            _usage_error(f"{source} must be an integer, got {env!r}")
    else:
        return DEFAULT_PREC_BITS
    if bits < 16:
        _usage_error(f"{source} must be at least 16, got {bits}")
    return bits


def _parse_expr(text: str):
    try:
        return expr_mod.parse(text)
    except expr_mod.ExprError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_expand(args) -> int:
    node = _parse_expr(args.expr)
    try:
        info = expr_mod.annotate(node)
        form = expr_mod.evaluate(node, args.prec)
    except (expr_mod.ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        payload = json.loads(form.series.to_json())
        payload["weight"] = form.weight
        payload["quasimodular"] = form.quasimodular
        print(json.dumps(payload))
    else:
        print(f"# {expr_mod.to_text(node)}  [{info}]")
        for n, c in enumerate(form.series.coeffs):
            print(f"q^{n}: {rat_str(c)}")
    return EXIT_PASS


def cmd_basis(args) -> int:
    node = _parse_expr(args.expr)
    try:
        form = expr_mod.evaluate(node, args.prec)
        coords = in_basis(form)
    except NotModularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (expr_mod.ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(coords.to_json())
    else:
        print(f"# weight {coords.weight}")
        for (a, b), c in coords.coords:
            print(f"E4^{a} * E6^{b}: {rat_str(c)}")
    return EXIT_PASS


def _write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def cmd_verify_tau(args) -> int:
    prec = _prec_bits(args)
    if args.m_from < 1 or args.m_to < args.m_from:
        print("error: need 1 <= m-from <= m-to", file=sys.stderr)
        return EXIT_USAGE
    try:
        # one tau table for the whole sweep, sized for its last m
        tier_cutoff = lseries.TIERS[catalog_identity(args.id).s][0]
        tau_table(args.m_to + (tier_cutoff if args.cutoff is None else args.cutoff))
        reports = [
            lseries.verify_identity(args.id, m, tol=args.tol, cutoff=args.cutoff, prec_bits=prec)
            for m in range(args.m_from, args.m_to + 1)
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    reports.sort(key=lambda r: r.m)
    rows = [r.row() for r in reports]
    if args.csv:
        _write_csv(args.csv, rows)
    if args.json:
        print(json.dumps(rows))
    else:
        for r in reports:
            print(
                f"{r.identity_id} m={r.m}: tau(m)={r.lhs}  rel_err={mpf_str(r.rel_err, 6)}  "
                f"cutoff={r.cutoff} tail={mpf_str(r.tail_estimate, 6)} "
                f"rigorous={'yes' if r.rigorous else 'no'}  {r.verdict}"
            )
    return EXIT_PASS if all(r.verdict == "PASS" for r in reports) else EXIT_FAIL


def cmd_lvalues(args) -> int:
    prec = _prec_bits(args)
    rows = []
    ok = True
    for (a, s) in lseries.M0_CONSTANTS:
        try:
            val = lseries.lvalue_m0(a, s, cutoff=args.cutoff, prec_bits=prec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        with mp.workprec(prec):
            diff = abs(val.numeric - mp.mpf(val.printed))
            match = diff < mp.mpf("5e-4")
        ok = ok and match
        rows.append(
            {
                "a": a,
                "s": s,
                "cutoff": val.cutoff,
                "numeric": mpf_str(val.numeric, 15),
                "predicted": mpf_str(val.predicted, 15),
                "constant": rat_str(val.constant),
                "printed": val.printed,
                "verdict": "PASS" if match else "FAIL",
            }
        )
    if args.csv:
        _write_csv(args.csv, rows)
    if args.json:
        print(json.dumps(rows))
    else:
        for r in rows:
            print(
                f"(a={r['a']}, s={r['s']}) cutoff={r['cutoff']}: sum={r['numeric']}  "
                f"closed form={r['constant']} * pi^11 * <D,D> = {r['predicted']}  "
                f"printed {r['printed']}  {r['verdict']}"
            )
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_petersson(args) -> int:
    prec = _prec_bits(args)
    report = lseries.petersson_recover(prec_bits=prec)
    ok = True
    with mp.workprec(prec):
        for est in report.estimates:
            tol = mp.mpf("1e-6") if est.s >= 10 else mp.mpf("1e-3")
            good = est.rel_dev_from_ref < tol
            if est.s == 11:
                good = est.rel_dev_from_ref < mp.mpf("1e-9")
            ok = ok and good
            print(
                f"(a={est.a}, s={est.s}): <Delta,Delta> = {mpf_str(est.estimate, 13)}  "
                f"rel dev from reference {mpf_str(est.rel_dev_from_ref, 4)}  "
                f"{'PASS' if good else 'FAIL'}"
            )
        print(f"max pairwise deviation (s >= 10 entries): {mpf_str(report.max_pairwise_high, 4)}")
        print(f"max pairwise deviation (all entries):     {mpf_str(report.max_pairwise_low, 4)}")
        if not report.max_pairwise_high < mp.mpf("1e-6"):
            ok = False
    if args.json:
        print(
            json.dumps(
                {
                    "reference": report.reference,
                    "estimates": [
                        {
                            "a": e.a,
                            "s": e.s,
                            "estimate": mpf_str(e.estimate, 13),
                            "rel_dev_from_ref": mpf_str(e.rel_dev_from_ref, 6),
                        }
                        for e in report.estimates
                    ],
                }
            )
        )
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_tau(args) -> int:
    if args.n < 1:
        print("error: tau(n) needs n >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        tau_table(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    expected = {
        "serre_derivative(E10)": ("-5/6", "38016/691"),
        "E8 * E4": ("1", "432000/691"),
        "rankin_cohen(E4, E6, 1)": ("0", "-3456"),
        "serre_derivative(E8, order 2)": ("1/2", "-49344/691"),
        "serre_derivative(E6, order 3) + 7/36 E6^2": ("0", "-168"),
        "serre_derivative(E4, order 4) - 35/864 E4 E8 - 7/40 [E4,E4]_2 + 35/432 [E6,E4]_1": (
            "0",
            "-600",
        ),
    }
    try:
        for entry in lseries.exact_lhs_catalog(prec):
            want = expected[entry.label]
            good = (rat_str(entry.e12), rat_str(entry.delta_coeff)) == want
            check(f"{entry.label} = {want[0]} E12 + {want[1]} Delta", good)
    except NotModularError as exc:
        check(f"exact catalog decomposition ({exc})", False)
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
