"""gpgraphs benchmark: one workload, one client, closed loop, outputs checked.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Run it from anywhere inside a checkout; it imports gpgraphs from the
checkout's src/. Every process it starts is a fresh interpreter with one
BLAS thread. The workload runs in a child process whose address space is
capped at MEMORY_CAP_MB, so an op that asks for more raises MemoryError and
counts as failed instead of exhausting the machine.

--trace 0 measures set-up time on fresh interpreters, then repeats whole
passes over the workload's seeded inputs for about S seconds, and reports
the end-to-end metrics. --trace 1 makes one traced pass for time and
counters and one under tracemalloc for memory, each in its own fresh
process, and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is the JSON result.
Full results, and the spans of a traced pass, go to .bench_out/.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.json"

MEMORY_CAP_MB = 2048
SETUP_PROBES = 7
DEADLINE_S = 170.0  # a run must end within 180 s
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
       "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def cap_memory():
    limit = MEMORY_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def spawn(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """A capped child; killed and waited for if it outlives the deadline."""
    try:
        return subprocess.run([sys.executable, *argv], env=ENV, preexec_fn=cap_memory,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: {argv} did not finish before the {DEADLINE_S:.0f} s deadline")


def run_worker(args, deadline: float, extra: list[str]) -> dict:
    proc = spawn([str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), *extra], deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"bench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(deadline: float) -> list[float]:
    """Fresh interpreter to `import gpgraphs` done, several times."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        if spawn(["-c", "import gpgraphs"], deadline).returncode != 0:
            sys.exit("bench: import gpgraphs failed")
        times.append(time.perf_counter() - start)
    return times


def tail(ranked: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten ops beyond it (the maximum below 11 ops)."""
    index = len(ranked) - 11 if len(ranked) >= 11 else len(ranked) - 1
    return ranked[index], 100.0 * (index + 1) / len(ranked), len(ranked) - 1 - index


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    ops = result["ops"]
    # a failed op ranks slowest; should a percentile land on one, the run's
    # total op time (an upper bound on any op) stands in for it
    ranked = sorted(op["latency_s"] if op["error"] is None else math.inf for op in ops)
    total = sum(op["latency_s"] for op in ops)
    p50 = statistics.median(ranked)
    p50 = total if math.isinf(p50) else p50
    tail_value, tail_pct, beyond = tail(ranked)
    tail_value = total if math.isinf(tail_value) else tail_value
    failed = sum(op["error"] is not None for op in ops)
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "wall_s": (statistics.median(result["passes"]),
                   f"median of {len(result['passes'])} passes of {len(ops) // len(result['passes'])} ops"),
        "query_p50_s": (p50, f"median of {len(ops)} ops"),
        "query_tail_s": (tail_value, f"p{tail_pct:.1f} of {len(ops)} ops, {beyond} beyond it"),
        "peak_rss_mb": (result["peak_rss_mb"], "ru_maxrss of the workload process"),
        "ok_ratio": (1 - failed / len(ops),
                     f"{len(ops)} ops, {failed} failed, fail_ratio {failed / len(ops):.4f}"),
    }
    return {name: v for name, (v, _) in values.items()}, [
        f"{name:<14} {v:>12.4f}  {note}" for name, (v, note) in values.items()]


def per_layer(traced: dict, memory: dict) -> tuple[dict, list[str]]:
    layers = dict(traced["layers"])
    layers.update((k, v) for k, v in memory["layers"].items() if k.endswith(".peak_mb"))
    wall = traced["passes"][0]
    lines = [f"traced wall_s {wall:.4f} s   spans add {layers['trace.overhead_s']:.4f} s, "
             f"so wall_s without them {wall - layers['trace.overhead_s']:.4f} s   "
             f"unattributed {layers['trace.unattributed_s']:.4f} s   "
             f"tracemalloc pass {memory['passes'][0]:.4f} s"]
    attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    for name, value in sorted(layers.items(), key=lambda kv: -kv[1] if kv[0].endswith(".self_s") else 0):
        share = f"{100 * value / attributed:5.1f} % of attributed" if name.endswith(".self_s") else ""
        lines.append(f"{name:<34} {value:>14.4f}  {share}")
    top = traced["slowest_op"]
    lines.append(f"slowest op: {top['key']} ({top['wall_s']:.4f} s traced), self time by span:")
    for name, value in sorted(top["self_s"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<32} {value:>14.4f}  {100 * value / top['wall_s']:5.1f} %")
    return layers, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write bench/reference.json from the current source")
    args = parser.parse_args()
    if not (SRC / "gpgraphs" / "__init__.py").is_file():
        sys.exit(f"bench: no gpgraphs sources under {SRC}")
    if args.record_reference:
        proc = subprocess.run([sys.executable, str(WORKER), "--record", str(REFERENCE)],
                              env=ENV, preexec_fn=cap_memory)
        sys.exit(proc.returncode)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"bench: unknown workload {args.workload!r}")

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        traced = run_worker(args, deadline, ["--spans", str(stem) + ".spans.jsonl"])
        memory = run_worker(args, deadline, ["--spans", str(stem) + ".memory.jsonl", "--memory"])
        values, lines = per_layer(traced, memory)
        results, wanted = [traced, memory], spec["per_layer"]
    else:
        setup = setup_times(deadline)
        results = [run_worker(args, deadline, [])]
        values, lines = end_to_end(results[0], setup)
        wanted = spec["end_to_end"]

    ops = [op for result in results for op in result["ops"]]
    golden = sorted({name for result in results for name in result["golden_mismatches"]})
    failures = [{"workload": args.workload, "q": op["q"], "k": op["k"], "op": op["key"],
                 "error": op["error"], "message": op.get("message")}
                for op in ops if op["error"] is not None]
    unverified = sum(op.get("unverified", False) for op in ops)
    correct = not golden and not any(
        f["error"] in ("OutputMismatch", "NoReference") for f in failures)
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": results[0]["numpy"], "memory_cap_mb": MEMORY_CAP_MB}
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in machine.items()))
    print(f"golden reports: {'mismatch ' + ', '.join(golden) if golden else 'match'}"
          f"   outputs unverified (no reference): {unverified}")
    for line in lines:
        print(line)
    for f in failures:
        print(f"failed op: {f['workload']} q={f['q']} k={f['k']} {f['error']}: {f['op']}")
    (Path(str(stem) + ".json")).write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine,
         "metrics": metrics, "failures": failures, "golden_mismatches": golden,
         "passes": [r["passes"] for r in results], "ops": ops}, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failures),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
