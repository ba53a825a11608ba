"""Benchmark of the contactloci pipeline; see bench/README.md.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ladder|wide|oracle --seed N --seconds S --trace 0|1

Runs the workload in one fresh child process (bench/worker.py) and then
SETUP_SAMPLES more children that only import the program and make its
first calls, one process at a time.  Prints a provenance line, then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace
0``, its per-layer metrics with ``--trace 1``.  Exits 2 without a result
when the checkout has no program to run, 1 when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4
# Whatever the user's shell sets, children run with the node cap unset, so
# the jet oracle uses its built-in cap on every run.
NODE_CAP_ENV = "CONTACTLOCI_NODE_CAP"
CHILD_GRACE_S = 120


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return the JSON object it prints last."""
    env = dict(os.environ)
    env.pop(NODE_CAP_ENV, None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise ChildFailed(f"{' '.join(args)}: no result within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="contactloci benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "contactloci" / "cli.py").is_file():
        print(f"error: no contactloci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        result = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=args.seconds + CHILD_GRACE_S,
        )
        setups = [result["setup_s"]]
        for _ in range(SETUP_SAMPLES):
            setups.append(run_child(["--setup-only"], timeout=60)["setup_s"])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    measured = dict(result["end_to_end"], setup_s=statistics.median(setups))
    if args.trace:
        measured = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    record = {
        "provenance": result["provenance"],
        "failed_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "failures": result["failures"],
        "setup_s_samples": setups,
    }
    if args.trace:
        record["tracing_overhead_s"] = measured["trace.overhead_s"]
        record["spans_file"] = result["spans_file"]
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
