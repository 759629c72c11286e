"""Correctness of every operation a benchmark child ran.

Two layers of checks, both applied to every operation:

* stored references (``references.json``, written by
  ``make_references.py``) cover every input the generator can pick.  Exact
  outputs (tau(m), derived coefficients, basis coordinates, selftest lines)
  must match exactly; numeric outputs must match their printed digits
  (``rel_err`` to 6 digits, Petersson estimates to 13) and their verdicts;
* seed-independent invariants hold for any input: tau(m) against an
  independent q-product, verdicts consistent with the printed error and
  tolerance, cusp-form coordinates summing to zero, and so on.

A FAIL verdict is a correct output when it is the one the program has
always printed, such as ``s10sig3`` at its tier (see the README's
known-failing targets).  An operation fails when it raised, exited 2, or
mismatched.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from workloads import SWEEP_IDS

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# verify-tau prints one row per m in this shape.
VERIFY_ROW = re.compile(
    r"^(?P<id>\w+) m=(?P<m>\d+): tau\(m\)=(?P<tau>-?\d+)  rel_err=(?P<rel_err>\S+)  "
    r"cutoff=(?P<cutoff>\d+) tail=(?P<tail>\S+) rigorous=(?P<rigorous>yes|no)  (?P<verdict>PASS|FAIL)$"
)
_PETERSSON_ROW = re.compile(
    r"^\(a=(?P<a>\d+), s=(?P<s>\d+)\): <Delta,Delta> = (?P<est>\S+)  "
    r"rel dev from reference (?P<dev>\S+)  (?P<verdict>PASS|FAIL)$"
)
_BASIS_ROW = re.compile(r"^E4\^(\d+) \* E6\^(\d+): (\S+)$")

TIER_T10 = (100_000, 1e-8)  # lseries.TIERS[10], the tier verify_sweep runs at
PETERSSON_REF = 1.03536205680e-6
M0_ORDER = ((1, 11), (3, 11), (3, 10), (1, 10), (1, 9), (1, 8))
# Columns derive_identity eliminates over, one per vanishing relation used.
DERIVE_WIDTH = {"kumar": 1, "herrero": 1, "s10sig3": 2, "s10sig1": 3, "s9sig1": 5, "s8sig1": 6}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def tau_reference(nmax: int) -> list[int]:
    """tau(0..nmax) from Delta = q * (sum (-1)^k (2k+1) q^{k(k+1)/2})^8, in plain ints."""
    cube = [0] * nmax
    k = 0
    while k * (k + 1) // 2 < nmax:
        cube[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    power = [1] + [0] * (nmax - 1)
    for _ in range(8):
        power = [sum(power[i] * cube[n - i] for i in range(n + 1)) for n in range(nmax)]
    return [0] + power


def _lines(reply: dict) -> list[str]:
    return reply["stdout"].splitlines()


def check_verify(argv: list[str], reply: dict, refs: dict) -> list[str]:
    ident = argv[argv.index("--id") + 1]
    m_from, m_to = int(argv[argv.index("--m-from") + 1]), int(argv[argv.index("--m-to") + 1])
    rows = [VERIFY_ROW.match(line) for line in _lines(reply)]
    if not rows or not all(rows):
        return [f"verify-tau {ident}: unparsable output {reply['stdout'][:200]!r}"]
    problems = []
    if [(r["id"], int(r["m"])) for r in rows] != [(ident, m) for m in range(m_from, m_to + 1)]:
        problems.append(f"verify-tau {ident}: rows for the wrong (id, m)")
    taus = tau_reference(m_to)
    cutoff, tol = TIER_T10
    for r in rows:
        m, tau_m = int(r["m"]), int(r["tau"])
        if m <= m_to and tau_m != taus[m]:
            problems.append(f"{ident} m={m}: tau {tau_m} != {taus[m]}")
        if int(r["cutoff"]) != cutoff:
            problems.append(f"{ident} m={m}: cutoff {r['cutoff']} != {cutoff}")
        ok = float(r["rel_err"]) <= tol and (r["rigorous"] == "no" or float(r["tail"]) < tol * abs(tau_m))
        if r["verdict"] != ("PASS" if ok else "FAIL"):
            problems.append(f"{ident} m={m}: verdict {r['verdict']} inconsistent with rel_err and tail")
        want = refs["verify_sweep"].get(ident, {}).get(str(m))
        got = {"tau": tau_m, "rel_err": r["rel_err"], "verdict": r["verdict"]}
        if want is not None and got != want:
            problems.append(f"{ident} m={m}: {got} != reference {want}")
    want_rc = 0 if all(r["verdict"] == "PASS" for r in rows) else 1
    if reply["rc"] != want_rc:
        problems.append(f"verify-tau {ident}: exit {reply['rc']} != {want_rc}")
    return problems


def check_petersson(reply: dict, refs: dict) -> list[str]:
    problems = []
    rows = [m for m in map(_PETERSSON_ROW.match, _lines(reply)) if m]
    if [(int(r["a"]), int(r["s"])) for r in rows] != list(M0_ORDER):
        return [f"petersson: rows {[(r['a'], r['s']) for r in rows]} != {M0_ORDER}"]
    for r in rows:
        tol = 1e-9 if r["s"] == "11" else 1e-6 if int(r["s"]) >= 10 else 1e-3
        if r["verdict"] != "PASS" or abs(float(r["est"]) / PETERSSON_REF - 1) >= tol:
            problems.append(f"petersson (a={r['a']}, s={r['s']}): {r['est']} {r['verdict']}")
    if reply["rc"] != 0:
        problems.append(f"petersson: exit {reply['rc']} != 0")
    if reply["stdout"] != refs["lvalues_m0"]["stdout"]:
        problems.append("petersson: printed digits differ from the reference")
    return problems


def check_selftest(reply: dict, refs: dict) -> list[str]:
    lines = _lines(reply)
    problems = []
    if len(lines) != 9 or not all(line.startswith("PASS  ") for line in lines):
        problems.append(f"selftest: not nine PASS lines: {reply['stdout'][:300]!r}")
    if reply["rc"] != 0:
        problems.append(f"selftest: exit {reply['rc']} != 0")
    if reply["stdout"] != refs["exact_certify"]["selftest"]:
        problems.append("selftest: output differs from the reference")
    return problems


def check_derive(op: dict, reply: dict, refs: dict) -> list[str]:
    ident, m = op["ident"], op["m"]
    result = reply.get("result")
    if result is None or len(result) != DERIVE_WIDTH[ident]:
        return [f"derive_identity({ident}, {m}): result {result!r}"]
    try:
        [Fraction(c) for c in result]
    except ValueError:
        return [f"derive_identity({ident}, {m}): non-rational coefficient in {result!r}"]
    want = refs["exact_certify"]["derive"].get(ident, {}).get(str(m))
    if want is not None and result != want:
        return [f"derive_identity({ident}, {m}): {result} != reference {want}"]
    return []


def check_basis(argv: list[str], reply: dict, refs: dict) -> list[str]:
    a, b = map(int, re.fullmatch(r"RC\(E(\d+),E(\d+),2\)", argv[1]).groups())
    lines = _lines(reply)
    rows = [_BASIS_ROW.match(line) for line in lines[1:]]
    if not lines or lines[0] != f"# weight {a + b + 4}" or not rows or not all(rows):
        return [f"basis {argv[1]}: unexpected output {reply['stdout'][:200]!r}"]
    problems = []
    # A bracket of order >= 1 is a cusp form: every monomial has constant
    # term 1, so the coordinates must sum to zero.
    if sum(Fraction(r[3]) for r in rows) != 0:
        problems.append(f"basis {argv[1]}: coordinates do not sum to zero")
    if reply["rc"] != 0:
        problems.append(f"basis {argv[1]}: exit {reply['rc']} != 0")
    want = refs["exact_certify"]["basis"].get(f"{a},{b}")
    if want is not None and reply["stdout"] != want:
        problems.append(f"basis {argv[1]}: coordinates differ from the reference")
    return problems


def check_op(op: dict, reply: dict, refs: dict) -> list[str]:
    """Problems with one operation's outputs; empty when it is correct."""
    if reply.get("error"):
        return [f"{op}: raised {reply['error']}"]
    if reply["rc"] == 2:
        return [f"{op}: usage error (exit 2): {reply['stdout'][:200]!r}"]
    if op["kind"] == "derive":
        return check_derive(op, reply, refs)
    argv = op["argv"]
    if argv[0] == "verify-tau" and argv[argv.index("--id") + 1] in SWEEP_IDS:
        return check_verify(argv, reply, refs)
    if argv[0] == "petersson":
        return check_petersson(reply, refs)
    if argv[0] == "selftest":
        return check_selftest(reply, refs)
    if argv[0] == "basis":
        return check_basis(argv, reply, refs)
    return [f"{op}: no check for this operation"]

