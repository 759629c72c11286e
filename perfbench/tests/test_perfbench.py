"""Tests of the benchmark itself: generator, output checks, traced counts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
The traced-run tests start real children and take about a minute.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = range(200)


def _shape(op):
    """An operation with the parts the seed may choose blanked out."""
    if op["kind"] == "derive":
        return {**op, "m": None}
    argv = list(op["argv"])
    if argv[0] == "verify-tau":
        start, end = int(argv[4]), int(argv[6])
        argv[4], argv[6] = None, end - start
    if argv[0] == "basis":
        argv[1] = None
    return argv


def test_one_seed_always_yields_the_same_inputs():
    assert wl.generate("verify_sweep", 7) == wl.generate("verify_sweep", 7)
    # The generator hashes nothing process-dependent: a fresh interpreter
    # with another hash seed draws the same inputs.
    code = "import json, workloads as w; print(json.dumps([w.generate(n, s) for n in w.WORKLOADS for s in range(20)]))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=BENCH,
        env=dict(os.environ, PYTHONHASHSEED="12345"),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == [wl.generate(n, s) for n in wl.WORKLOADS for s in range(20)]


def test_seed_varies_only_which_inputs_not_how_much_work():
    for name in wl.WORKLOADS:
        shapes = {json.dumps([_shape(op) for op in wl.generate(name, s)]) for s in SEEDS}
        assert len(shapes) == 1, name
    starts = {int(wl.generate("verify_sweep", s)[0]["argv"][4]) for s in SEEDS}
    assert starts == set(range(1, wl.WINDOW_STARTS + 1))
    assert wl.generate("lvalues_m0", 0) == wl.generate("lvalues_m0", 99)


def test_every_workload_says_why_it_exists():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(w["why"] == wl.WHY[w["name"]] for w in benchmark["workloads"])
    assert all(wl.WHY[name] for name in wl.WORKLOADS)


def test_references_cover_every_input_the_generator_picks():
    refs = check.load_references()
    for s in SEEDS:
        start = int(wl.generate("verify_sweep", s)[0]["argv"][4])
        for ident in wl.SWEEP_IDS:
            assert all(str(m) in refs["verify_sweep"][ident] for m in range(start, start + wl.WINDOW))
        for op in wl.generate("exact_certify", s):
            if op["kind"] == "derive":
                assert str(op["m"]) in refs["exact_certify"]["derive"][op["ident"]]
    assert {f"{a},{b}" for a, b in wl.BASIS_PAIRS} == set(refs["exact_certify"]["basis"])


def test_tau_reference_matches_known_values():
    assert check.tau_reference(10)[1:] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def _verify_reply(ident, m_from, m_to, refs, tamper=None):
    tail = {"s10sig1": "6.04686e-10", "s10sig3": "18.2269"}[ident]
    lines = []
    for m in range(m_from, m_to + 1):
        r = dict(refs["verify_sweep"][ident][str(m)])
        if tamper == m:
            r["rel_err"] = r["rel_err"][:-1] + ("1" if r["rel_err"][-1] != "1" else "2")
        lines.append(
            f"{ident} m={m}: tau(m)={r['tau']}  rel_err={r['rel_err']}  cutoff=100000 tail={tail} "
            f"rigorous=yes  {r['verdict']}"
        )
    verdicts = {refs["verify_sweep"][ident][str(m)]["verdict"] for m in range(m_from, m_to + 1)}
    return {"rc": 0 if verdicts == {"PASS"} else 1, "stdout": "\n".join(lines) + "\n", "error": None}


def test_check_accepts_references_and_rejects_any_changed_digit():
    refs = check.load_references()
    for ident in wl.SWEEP_IDS:
        op = wl.cli_op("verify-tau", "--id", ident, "--m-from", 3, "--m-to", 6)
        assert check.check_op(op, _verify_reply(ident, 3, 6, refs), refs) == []
        assert check.check_op(op, _verify_reply(ident, 3, 6, refs, tamper=5), refs)
    # s10sig3 fails its tier for every m: a known FAIL is the correct output.
    assert {r["verdict"] for r in refs["verify_sweep"]["s10sig3"].values()} == {"FAIL"}

    good = {"rc": 0, "stdout": refs["lvalues_m0"]["stdout"], "error": None}
    assert check.check_op(wl.cli_op("petersson"), good, refs) == []
    bad = dict(good, stdout=good["stdout"].replace("056804e-6", "056805e-6", 1))
    assert check.check_op(wl.cli_op("petersson"), bad, refs)

    op = wl.cli_op("basis", "RC(E6,E8,2)", "--prec", wl.BASIS_PREC)
    good = {"rc": 0, "stdout": refs["exact_certify"]["basis"]["6,8"], "error": None}
    assert check.check_op(op, good, refs) == []
    assert check.check_op(op, dict(good, rc=2), refs)
    assert check.check_op(op, dict(good, stdout=good["stdout"].replace("14/3", "14/5")), refs)

    op = wl.derive_op("s8sig1", 5, wl.DERIVE_CUTOFF)
    want = refs["exact_certify"]["derive"]["s8sig1"]["5"]
    assert check.check_op(op, {"rc": 0, "stdout": "", "error": None, "result": want}, refs) == []
    assert check.check_op(op, {"rc": 0, "stdout": "", "error": None, "result": want[::-1]}, refs)
    assert check.check_op(op, {"rc": None, "stdout": "", "error": "ValueError: x"}, refs)


def test_benchmark_json_names_the_reported_metrics():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in benchmark["per_layer"]] == [name for name, _, _ in spans.PER_LAYER]
    assert [m["name"] for m in benchmark["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    names = [m["name"] for part in ("workloads", "end_to_end", "per_layer") for m in benchmark[part]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)


def test_coeff_products_counts_the_multiply_loop():
    a, b = [1, 0, 2, 3], [0, 5, 0, 7, 1]
    loop = sum(1 for i in range(4) if a[i] for j in range(4 - i) if b[j])
    assert spans.coeff_products(a, b) == loop == 3


@pytest.mark.parametrize("workload", ["exact_certify", "verify_sweep"])
def test_traced_work_counts_repeat_exactly(workload):
    ops = wl.generate(workload, 3)
    first, second = (run.spawn(str(ROOT), ops, trace=True) for _ in range(2))
    m1, m2 = (spans.layer_metrics(r["spans"], r["counters"], r["run_s"]) for r in (first, second))
    # A calibration loop after the import and after each operation, none inside run_s.
    assert len(first["calibration_s"]) == 3 + len(ops)
    assert first["run_s"] == pytest.approx(sum(first["op_s"]))
    assert {k: m1[k] for k in spans.COUNTS} == {k: m2[k] for k in spans.COUNTS}
    by_id = {s[0]: s for s in first["spans"]}
    parents = {(by_id[s[1]][2] if s[1] >= 0 else None, s[2]) for s in first["spans"]}
    if workload == "verify_sweep":
        # The rebuild path: one tau build per m of the first pass, none in the second.
        assert m1["forms.tau_table.rebuilds"] == m1["kernels.tau_numbers.calls"] == wl.WINDOW
        assert m1["kernels.tau.useful_ratio"] == pytest.approx(1 / wl.WINDOW, rel=1e-3)
        assert m1["lseries.shifted_L.terms"] == 2 * wl.WINDOW * 100_000
        # lseries imported tau_table by name; that binding is traced too.
        assert ("lseries.shifted_L", "forms.tau_table") in parents
        assert m1["qseries.mul.calls"] == 0
    else:
        assert m1["qseries.mul.coeff_products"] > 0
        assert m1["forms.cache.hits"] > 0 and m1["forms.cache.misses"] > 0
        # cli imported in_basis by name; that binding is traced too.
        assert ("cli.main", "forms.in_basis") in parents
        assert m1["lseries.shifted_L.calls"] == 0


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "references.json").write_text((BENCH / "references.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lvalues_m0", "--seed", "1", "--seconds", "5"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
