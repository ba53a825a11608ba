"""One workload in one process: set up, run the job list in passes, check.

``run.py`` starts this script as a fresh child process per workload and
reads the JSON object it prints last.  Every job calls
``contactloci.cli.main(argv)`` in this process with stdout captured, so a
job is exactly what ``contactloci <argv>`` does.  The process starts no
thread, pool or further process.

Usage: worker.py --setup-only
       worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
NODE_CAP_ENV = "CONTACTLOCI_NODE_CAP"

# First calls after import: one report with the oracle and one stratified
# count, which between them touch every layer once.
WARMUP_CALLS = (
    ["report", "--poly", "x^2+y^3", "--m", "2", "--primes", "3,5,7", "--format", "json"],
    ["oracle-count", "--poly", "x*y", "--m", "2", "--q", "3", "--strata", "--format", "json"],
)
MIN_PASSES = 3

# A shared host runs this process at a speed that flips between states up
# to twice apart, within seconds and for minutes, so raw seconds of the same
# job differ by tens of percent from run to run.  Job times are therefore
# reported in seconds at a fixed reference speed: the speed at which
# reference_loop() takes REFERENCE_S.  The loop is timed (best of 2) before
# a pass and after every call; a call's raw time is scaled by REFERENCE_S
# over the mean of the timings just before and just after it.  Raw times
# stay in the provenance.
REFERENCE_S = 0.002


def reference_loop() -> int:
    """Fixed pure-Python work of the program's kind: Fraction arithmetic and
    small-dict updates."""
    acc: dict[int, int] = {}
    x = Fraction(1, 3)
    for i in range(1, 400):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
        acc[i % 17] = acc.get(i % 17, 0) + x.numerator % 97
    return len(acc)


def reference_time() -> float:
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def percentile(values, p: float):
    """Nearest-rank percentile: the smallest value with at least p percent of
    the values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def load_program():
    """Import contactloci from this checkout's ``src`` and return its cli."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import contactloci.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "contactloci").resolve():
        raise ImportError(f"contactloci imported from {cli.__file__}, not from {src}")
    return cli


def call(main, argv) -> dict:
    """Run one command line; a raised exception is recorded, not propagated."""
    buf = io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a job that crashes is a failed job, never a lost run
            error = traceback.format_exc(limit=3)
    return {"rc": rc, "out": buf.getvalue(), "error": error}


def run_job(main, job, probes: list[float]) -> tuple[float, float, list[dict]]:
    """Run a job's calls: (raw seconds, seconds at reference speed, results).

    ``probes`` ends with a reference timing taken just before the job; one
    more is appended after each call, and each call's time is scaled by
    the mean of the timings just before and just after it.
    """
    raw = scaled = 0.0
    results = []
    for argv in job["calls"]:
        start = time.perf_counter()
        results.append(call(main, argv))
        elapsed = time.perf_counter() - start
        probes.append(reference_time())
        raw += elapsed
        scaled += elapsed * 2 * REFERENCE_S / (probes[-2] + probes[-1])
    return raw, scaled, results


def _normalized(result: dict):
    data = json.loads(result["out"])
    if isinstance(data, dict):
        data.pop("elapsed", None)  # oracle-count reports its own wall time
    return data


def check_job(job, results) -> tuple[str | None, str | None]:
    """(failure reason or None, digest of the normalized outputs or None)."""
    expect = job["expect"]
    for argv, res in zip(job["calls"], results):
        if res["error"] is not None:
            return f"{argv[0]} raised: {res['error'].strip().splitlines()[-1]}", None
        if res["rc"] != expect["exit"]:
            return f"{argv[0]} exited {res['rc']}, expected {expect['exit']}", None
    try:
        data = [_normalized(res) for res in results]
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}", None
    report = data[0]
    if report.get("verdict") != expect["verdict"]:
        return f"verdict {report.get('verdict')}, expected {expect['verdict']}", None
    if "pool" in job:
        oracle = report.get("oracle") or {}
        counts = {q: n for q, n in oracle.get("counts", [])}
        if sorted(counts) != job["pool"]:
            return f"oracle primes {sorted(counts)}, expected pool {job['pool']}", None
        for q, strata in zip(job["pool"], data[1:]):
            if strata.get("q") != q or strata.get("total") != counts[q]:
                return f"strata total {strata.get('total')} at q={q}, report count {counts[q]}", None
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    return None, digest


def run_pass(main, jobs, tracer=None) -> dict:
    """Run every job once; outputs are checked after the timed region."""
    from sympy.core.cache import clear_cache

    # Each pass starts from the same sympy cache and heap state, so a later
    # pass does not reuse factorisations of an earlier one and the passes
    # measure the same work; sharing inside one pass (one germ at many m)
    # still counts.
    clear_cache()
    gc.collect()
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    raw, times, outputs = [], [], []
    probes = [reference_time()]
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        raw_s, scaled_s, results = run_job(main, job, probes)
        raw.append(raw_s)
        times.append(scaled_s)
        outputs.append(results)
    wall = time.perf_counter() - start
    json_bytes = sum(len(r["out"].encode()) for results in outputs for r in results)
    checked = [check_job(job, results) for job, results in zip(jobs, outputs)]
    return {"wall": wall, "raw": raw, "times": times, "probes": probes, "checked": checked, "json_bytes": json_bytes}


def measure(main, jobs, seconds: float, trace: bool, min_passes: int = MIN_PASSES) -> dict:
    """Passes until ``seconds`` is used up (at least ``min_passes``).

    With ``trace`` the passes alternate untraced and traced, starting
    untraced; end-to-end numbers come from the untraced passes only.
    """
    from tracing import Tracer, summarize

    passes = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            with Tracer() as tracer:
                p = run_pass(main, jobs, tracer)
            p["layers"] = summarize(tracer.spans)
            p["layers"]["cli.json_bytes"] = p["json_bytes"]
            p["spans"] = tracer.spans
        else:
            p = run_pass(main, jobs)
        p["traced"] = traced
        passes.append(p)
        used = time.perf_counter() - begin
        typical = statistics.median(q["wall"] for q in passes)
        if len(passes) >= min_passes and used + typical > seconds:
            break

    failures = []
    reference: dict[str, str] = {}
    for n, p in enumerate(passes):
        for job, (reason, digest) in zip(jobs, p["checked"]):
            if reason is None and reference.setdefault(job["id"], digest) != digest:
                reason = "output differs from the job's output in an earlier pass"
            if reason is not None:
                failures.append({"job": job["id"], "pass": n, "traced": p["traced"], "reason": reason})
    return {"passes": passes, "failures": failures}


def best_times(passes, njobs: int, key: str = "times") -> list[float]:
    """Each job's fastest time over the given passes.

    A shared host's speed drifts by tens of percent over seconds; a job's
    fastest repetition is the estimate of its cost least moved by that.
    """
    return [min(p[key][n] for p in passes) for n in range(njobs)]


def end_to_end(result: dict, jobs) -> dict:
    best = best_times([p for p in result["passes"] if not p["traced"]], len(jobs))
    return {
        "wall_s": sum(best),
        "job_s_p50": percentile(best, 50),
        "job_s_p90": percentile(best, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(result: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    keys = sorted({k for p in traced for k in p["layers"]})
    out = {k: statistics.median_low(p["layers"].get(k, 0) for p in traced) for k in keys}
    count_s = out.get("jets.count_s", 0.0)
    out["jets.count_nodes_per_s"] = out.get("jets.count_nodes", 0) / count_s if count_s else 0.0
    fits = out.get("jets.fits", 0)
    out["jets.fits_conclusive_ratio"] = out.get("jets.fits_conclusive", 0) / fits if fits else 0.0
    # Raw time in jobs per pass, the same statistic as the layer sums above,
    # so that a layer's share of the traced pass is layer / trace.wall_s.
    out["trace.wall_s"] = statistics.median_low(sum(p["raw"]) for p in traced)
    # The overhead compares passes run at different moments, so it uses the
    # reference-speed times, which the host's drift moves least.
    out["trace.overhead_s"] = statistics.median_low(sum(p["times"]) for p in traced) - statistics.median_low(
        sum(p["times"]) for p in plain
    )
    return out


def write_spans(path: Path, provenance: dict, spans: list[list]) -> None:
    from tracing import self_times

    records = [
        {"name": name, "start": start, "end": end, "parent": parent, "job": job, "counts": counts}
        for name, start, end, parent, job, counts in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"provenance": provenance, "self_s": self_times(spans), "spans": records}, handle)


def setup() -> tuple[object, float]:
    """Import the program and make its first calls; returns (main, seconds)."""
    start = time.perf_counter()
    cli = load_program()
    for argv in WARMUP_CALLS:
        res = call(cli.main, argv)
        if res["rc"] != 0:
            raise RuntimeError(f"warm-up call {argv} failed: rc={res['rc']} {res['error'] or ''}")
    return cli.main, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program_main, setup_s = setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import sympy

    from jobs import generate

    jobs = generate(args.workload, args.seed)
    result = measure(program_main, jobs, args.seconds, bool(args.trace))
    plain_passes = [p for p in result["passes"] if not p["traced"]]
    plain = len(plain_passes)
    probes = [t for p in result["passes"] for t in p["probes"]]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(jobs),
        "passes_untraced": plain,
        "passes_traced": len(result["passes"]) - plain,
        "python": sys.version.split()[0],
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "pass_walls_s": [round(p["wall"], 4) for p in result["passes"]],
        "raw_wall_s": sum(best_times(plain_passes, len(jobs), "raw")),
        "reference_s": {"median": statistics.median(probes), "min": min(probes), "max": max(probes), "probes": len(probes)},
        "node_cap_env": "unset" if os.environ.get(NODE_CAP_ENV) is None else f"pinned:{os.environ[NODE_CAP_ENV]}",
    }
    out = {
        "provenance": provenance,
        "setup_s": setup_s,
        "attempted": len(jobs) * len(result["passes"]),
        "failed": len(result["failures"]),
        "failures": result["failures"][:20],
        "end_to_end": end_to_end(result, jobs),
    }
    if args.trace:
        out["per_layer"] = per_layer(result)
        last = [p for p in result["passes"] if p["traced"]][-1]
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_spans(path, provenance, last["spans"])
        out["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
