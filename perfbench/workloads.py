"""The benchmark's workloads and their seeded input generator.

A workload is a fixed list of operations on the public entry points:
``tauforms.cli.main(argv)`` where the CLI exposes the operation, and a
library function otherwise.  The seed picks only *which* inputs are used,
never how much work they cause: the window length, the cutoffs and the
precisions are constants here.
"""

from __future__ import annotations

import random

#: Why each workload exists; printed with every result.
WHY = {
    "verify_sweep": (
        "verify-tau s10sig1 then s10sig3 over 2 consecutive m at T=1e5: each m of the "
        "first pass regrows the tau and weight tables, the second pass only reads them"
    ),
    "lvalues_m0": (
        "tauforms petersson: the six m=0 sums up to T=3e5 give the integer kernels their "
        "largest input and the process its largest tables"
    ),
    "exact_certify": (
        "selftest, derive_identity for all six ids, basis of RC(Ea,Eb,2): exact QSeries "
        "products dominate and the numeric layer does no work"
    ),
}

WORKLOADS = tuple(WHY)

# verify_sweep: a window of WINDOW consecutive m starting in 1..WINDOW_STARTS.
WINDOW = 2
WINDOW_STARTS = 32
SWEEP_IDS = ("s10sig1", "s10sig3")

# exact_certify: derive_identity at one m in 1..DERIVE_MS, and one bracket pair.
DERIVE_MS = 32
DERIVE_CUTOFF = 300
SELFTEST_PREC = 200
BASIS_PREC = 150
# Every pair has total weight 14, so RC(Ea, Eb, 2) always lands in weight 18
# and the decomposition has the same size whichever pair the seed picks.
BASIS_PAIRS = ((4, 10), (6, 8), (8, 6), (10, 4))
IDENTITY_IDS = ("kumar", "herrero", "s10sig1", "s10sig3", "s9sig1", "s8sig1")


def cli_op(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def derive_op(ident: str, m: int, cutoff: int) -> dict:
    return {"kind": "derive", "ident": ident, "m": m, "cutoff": cutoff}


def generate(workload: str, seed: int) -> list[dict]:
    """The operations one child runs for ``workload`` under ``seed``.

    Operations are plain JSON-able dicts; they are all the program sees.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_sweep":
        start = rng.randint(1, WINDOW_STARTS)
        return [
            cli_op("verify-tau", "--id", ident, "--m-from", start, "--m-to", start + WINDOW - 1)
            for ident in SWEEP_IDS
        ]
    if workload == "lvalues_m0":
        # The inputs are the fixed catalog; the seed is accepted and unused.
        return [cli_op("petersson")]
    if workload == "exact_certify":
        m = rng.randint(1, DERIVE_MS)
        a, b = rng.choice(BASIS_PAIRS)
        return (
            [cli_op("selftest", "--prec", SELFTEST_PREC)]
            + [derive_op(ident, m, DERIVE_CUTOFF) for ident in IDENTITY_IDS]
            + [cli_op("basis", f"RC(E{a},E{b},2)", "--prec", BASIS_PREC)]
        )
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
