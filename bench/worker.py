"""Runs one workload in this process and prints its raw results as one JSON line.

run.py starts it in a fresh interpreter under the memory cap, with
PYTHONPATH pointing at the checkout's src/.

    worker.py --workload W --seed N --seconds S [--spans PATH [--memory]]
    worker.py --record PATH

The first form repeats whole passes over the workload's seeded inputs while
another pass, at the average pass time so far, would end within S seconds
(always at least one); with --spans it makes one traced pass instead and
writes its spans there as JSON lines, with tracemalloc peaks if --memory is
given. The second form runs every op any seed can produce, untraced and
traced, and writes their output digests as the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import time
from pathlib import Path

import numpy
from spans import Tracer
from workloads import WORKLOADS, run_cli

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
GOLDEN_QS = (25, 49, 81, 256)

# span attribute -> per-layer counter, summed as "<layer>.<attribute>"
COUNTERS = ("elements", "traversal_arcs", "eigenvalue_rows", "period_terms",
            "witness_terms", "checks_passed", "checks_failed")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_mismatches() -> list[str]:
    """The in-process report path, byte for byte against tests/golden."""
    bad = []
    for q in GOLDEN_QS:
        for fmt, ext in (("table", "txt"), ("records", "jsonl")):
            path = ROOT / "tests" / "golden" / f"report_q{q}.{ext}"
            if run_cli(["report", "--q", str(q), "--format", fmt]).encode() != path.read_bytes():
                bad.append(path.name)
    return bad


def run_op(workload, op, expected: dict, tracer=None, op_id=None) -> dict:
    """One op, timed; any exception or wrong output makes it a failed op."""
    error = message = None
    start = time.perf_counter()
    try:
        if tracer is None:
            text = workload.run(op)
        else:
            with tracer.op(op_id, key=op.key, **op.label()):
                text = workload.run_traced(op, tracer)
    except Exception as exc:  # an op that raises is a failed op, never a crashed run
        error = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        message = str(exc)
    latency = time.perf_counter() - start
    record = {"key": op.key, **op.label(), "latency_s": latency, "error": error}
    if error is None:
        if op.key not in expected:
            error, message = "NoReference", "op is not in the reference"
        elif expected[op.key] is None:
            record["unverified"] = True  # the op failed when the reference was recorded
        elif expected[op.key] != digest(text):
            error = "OutputMismatch"
            message = f"digest {digest(text)}, reference {expected[op.key]}"
        record["error"] = error
    if error is not None:
        record["message"] = message[:300]
    return record


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self time, call counts, work counters and tracemalloc peaks.

    Peaks leave out failed ops: numpy reports the size of an allocation to
    tracemalloc even when the allocation fails.
    """
    own = tracer.self_times()
    failed = {s["op"] for s in tracer.spans if s["name"] == "op" and "error" in s}
    out: dict[str, float] = {"trace.unattributed_s": 0.0}
    for span in tracer.spans:
        name = span["name"]
        if name == "op":
            out["trace.unattributed_s"] += own[span["id"]]
            continue
        layer = name.split(".")[0]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own[span["id"]]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for counter in COUNTERS:
            if counter in span:
                key = f"{layer}.{counter}"
                out[key] = out.get(key, 0) + span[counter]
        if "peak_mb" in span and span["op"] not in failed:
            out[f"{layer}.peak_mb"] = max(out.get(f"{layer}.peak_mb", 0.0), span["peak_mb"])
    return out


def slowest_op(tracer: Tracer) -> dict:
    """Self time by span name within the op that took longest."""
    own = tracer.self_times()
    top = max((s for s in tracer.spans if s["name"] == "op"), key=lambda s: s["end"] - s["start"])
    by_name: dict[str, float] = {}
    for span in tracer.spans:
        if span["op"] == top["op"] and span["name"] != "op":
            by_name[span["name"]] = by_name.get(span["name"], 0.0) + own[span["id"]]
    return {"key": top["key"], "wall_s": top["end"] - top["start"], "self_s": by_name}


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]()
    expected = json.loads(REFERENCE.read_text())[args.workload]
    rng = random.Random(args.seed)
    result = {"workload": args.workload, "seed": args.seed, "numpy": numpy.__version__,
              "golden_mismatches": golden_mismatches(), "passes": [], "ops": []}
    tracer = Tracer(memory=args.memory) if args.spans else None
    if tracer is not None:
        expected = expected["traced"]
        tracer.start()
    else:
        expected = expected["untraced"]
    started = time.perf_counter()
    while True:
        ops = workload.ops(rng)
        pass_start = time.perf_counter()
        for op in ops:
            result["ops"].append(run_op(workload, op, expected, tracer, len(result["ops"])))
        result["passes"].append(time.perf_counter() - pass_start)
        passes, elapsed = len(result["passes"]), time.perf_counter() - started
        if tracer is not None or workload.one_pass or elapsed * (passes + 1) / passes > args.seconds:
            break
    if tracer is not None:
        tracer.stop()
        tracer.write_jsonl(args.spans)
        result["layers"] = layer_metrics(tracer)
        result["layers"]["trace.overhead_s"] = tracer.overhead_s()
        result["slowest_op"] = slowest_op(tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def record(path: Path):
    """Digest every op's output, untraced and traced, for every workload.

    An op that runs out of memory under the cap gets None: until a later
    recording, its output is reported as unverified whenever it succeeds.
    """
    reference = {}
    for name, cls in WORKLOADS.items():
        entry = reference[name] = {"untraced": {}, "traced": {}}
        workload = cls()
        for op in workload.universe():
            for form, run in (("untraced", workload.run),
                              ("traced", lambda op: workload.run_traced(op, Tracer()))):
                try:
                    entry[form][op.key] = digest(run(op))
                except MemoryError:
                    entry[form][op.key] = None
            print(f"{name}: {op.key} {entry['untraced'][op.key]}", flush=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("--record", default=None)
    args = parser.parse_args()
    if args.record:
        record(Path(args.record))
    else:
        print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()
