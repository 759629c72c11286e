"""The tauforms benchmark: cold single-threaded child processes, one at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 60 --trace 0

Each child is a fresh interpreter that imports tauforms from ``src/`` and
runs the workload's operations, as every ``tauforms`` CLI invocation does,
so every cache and table starts cold.  The parent starts children until
the next one would overrun ``--seconds``, checks every output (see
``check.py``), and prints medians.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``):

* ``setup_s``: child start until ``import tauforms`` (and its CLI module)
  finishes, median over import-only children and workload children;
* ``run_s``: after the import until every output of the workload exists;
* both times are given at a reference host speed: the run's wall-clock
  median is multiplied by ``CAL_REF_S`` over the median of every
  calibration loop the run's children timed (see ``child.calibrate``).
  The shared host drifts between speeds about 1.5x apart over minutes,
  and the loop drifts with it.  The wall-clock medians are printed too;
* ``peak_rss_mb``: the child's peak resident set size;
* ``failed_frac`` (printed, and as ``failed``/``attempted`` in the JSON):
  operations that raised, exited 2 or mismatched, over those attempted.

With ``--trace 1`` the children wrap the public functions of each layer
(see ``spans.py``) and the JSON carries the per-layer metrics instead; one
plain child runs first, so ``trace.overhead_s`` is the traced wall-clock
``run_s`` minus the plain one.  The spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import check
import spans
import workloads

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SETUP_CHILDREN = 7  # import-only children per run, for a steady setup_s median
HARD_LIMIT_S = 170  # a run must end within 180 s even if a child hangs
CAL_REF_S = 0.0225  # child.calibrate() at the reference speed (2-CPU Xeon VM, Python 3.11)
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    pass


def spawn(root: str, ops: list | None, trace: bool = False, timeout: float = HARD_LIMIT_S) -> dict:
    """Run one child to completion and return its reply plus ``setup_s`` and ``wall_s``."""
    env = dict(os.environ, **SINGLE_THREAD)
    request = json.dumps({"ops": ops, "trace": trace})
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD],
            input=request,
            capture_output=True,
            text=True,
            cwd=root,
            env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child still running after {timeout:.0f} s; stopped it") from exc
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    reply = json.loads(proc.stdout)
    src = os.path.join(root, "src", "tauforms")
    if os.path.dirname(os.path.abspath(reply["tauforms_file"])) != src:
        raise ChildFailed(f"child imported tauforms from {reply['tauforms_file']}, not {src}")
    reply["setup_s"] = reply["imported_at"] - started
    reply["wall_s"] = wall
    return reply


def host() -> dict:
    """Facts about the machine the parent can read without the program."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def run(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = workloads.generate(workload, seed)
    refs = check.load_references()
    started = time.monotonic()
    deadline = started + seconds

    def child(child_ops, tracing=False):
        return spawn(root, child_ops, tracing, timeout=max(1.0, started + HARD_LIMIT_S - time.monotonic()))

    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"why: {workloads.WHY[workload]}")
    print(f"inputs: {json.dumps(ops)}")
    # An untimed first child compiles the bytecode cache and reports the environment.
    env = dict(child(None)["env"], **host())
    print(f"env: {json.dumps(env, sort_keys=True)}")

    timed = [child(None) for _ in range(SETUP_CHILDREN)]  # workload children join below
    plain, traced, problems = [], [], []
    attempted = failed = 0

    def workload_child(tracing: bool) -> None:
        nonlocal attempted, failed
        reply = child(ops, tracing)
        timed.append(reply)
        for op, op_reply in zip(ops, reply["ops"], strict=True):
            found = check.check_op(op, op_reply, refs)
            attempted += 1
            failed += bool(found)
            problems.extend(found)
        (traced if tracing else plain).append(reply)

    if trace:
        workload_child(False)
    while True:
        workload_child(trace)
        longest = max(r["wall_s"] for r in plain + traced)
        if problems or time.monotonic() + longest > deadline:
            break

    for problem in problems:
        print(f"MISMATCH {problem}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g} (operations)")
    samples = {
        "setup_s": [r["setup_s"] for r in timed],
        "run_s": [r["run_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    for name, values in samples.items():
        listed = " ".join(f"{v:.4f}" for v in values)
        print(f"measured {name} = {statistics.median(values):.4f} (median of {len(values)}: {listed})")
    calibration = [c for r in timed for c in r["calibration_s"]]
    slowdown = statistics.median(calibration) / CAL_REF_S
    print(
        f"calibration = {statistics.median(calibration) * 1000:.3f} ms (median of {len(calibration)}), "
        f"{slowdown:.4f} times the reference {CAL_REF_S * 1000:g} ms"
    )

    if trace:
        layers = [spans.layer_metrics(r["spans"], r["counters"], r["run_s"]) for r in traced]
        repeat = all(all(m[k] == layers[0][k] for k in spans.COUNTS) for m in layers)
        print(f"trace: {len(traced)} traced children; work counts repeat exactly: {repeat}")
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(samples["run_s"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"ops": ops, "env": env, "metrics": metrics, "spans": [r["spans"] for r in traced]}, fh)
        print(f"spans written to {os.path.relpath(path, root)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(samples["setup_s"]) / slowdown, "unit": "s"},
            "run_s": {"value": statistics.median(samples["run_s"]) / slowdown, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]), "unit": "MB"},
        }
        for name in ("setup_s", "run_s"):
            print(f"{name} = {metrics[name]['value']:.4f} s at the reference speed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tauforms", "__init__.py")):
        print("error: run from the root of a tauforms checkout (no src/tauforms here)", file=sys.stderr)
        return 2
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
