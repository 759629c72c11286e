"""Write ``references.json``: the outputs of every input the generator can pick.

Run from the repository root:  python3 perfbench/make_references.py

The references record what the program prints today; ``check.py``
compares every benchmark operation against them.  Regenerate only when an
output is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json

import workloads as wl
from check import REFERENCES, VERIFY_ROW
from child import run_op


def verify_rows(ident: str, m_to: int) -> dict:
    reply = run_op(wl.cli_op("verify-tau", "--id", ident, "--m-from", 1, "--m-to", m_to))
    rows = {}
    for line in reply["stdout"].splitlines():
        r = VERIFY_ROW.match(line)
        rows[r["m"]] = {"tau": int(r["tau"]), "rel_err": r["rel_err"], "verdict": r["verdict"]}
    return rows


def main() -> None:
    m_to = wl.WINDOW_STARTS + wl.WINDOW - 1
    refs = {
        "verify_sweep": {ident: verify_rows(ident, m_to) for ident in wl.SWEEP_IDS},
        "lvalues_m0": {"stdout": run_op(wl.cli_op("petersson"))["stdout"]},
        "exact_certify": {
            "selftest": run_op(wl.cli_op("selftest", "--prec", wl.SELFTEST_PREC))["stdout"],
            "derive": {
                ident: {
                    str(m): run_op(wl.derive_op(ident, m, wl.DERIVE_CUTOFF))["result"]
                    for m in range(1, wl.DERIVE_MS + 1)
                }
                for ident in wl.IDENTITY_IDS
            },
            "basis": {
                f"{a},{b}": run_op(wl.cli_op("basis", f"RC(E{a},E{b},2)", "--prec", wl.BASIS_PREC))["stdout"]
                for a, b in wl.BASIS_PAIRS
            },
        },
    }
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
