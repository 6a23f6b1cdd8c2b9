"""The benchmark's ops still give the outputs its reference recorded.

bench/reference.json holds a digest of each op's output, untraced and
traced. The traced outputs read the library through names that no CLI
command prints: the (entry, multiplicity) pairs of
`SpectrumReport.eigenvalues`, whose entries answer `embed`, `classify` and
`str`, and `str` of witness terms. The untraced ones pinned here are the CLI's
`waring --witness` output and the JSON of `run_verification`'s outcomes.
"""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import worker
    import workloads
    return spans, worker, workloads


def test_traced_ops_match_the_bench_reference(bench):
    spans, worker, workloads = bench
    reference = json.loads((BENCH / "reference.json").read_text())
    sweep, queries = workloads.SpectrumSweep(), workloads.CliQueries()
    # every traced spectrum: its render prints the imaginary part of real
    # values, whose sign is set by the summation order of the float image
    ops = [(sweep, op) for op in sweep.universe()]
    ops += [(queries, op) for op in queries.universe() if op.target is None]
    # and a directed graph's signed witness
    ops += [(queries, op) for op in queries.universe() if op.key == "waring --q 3721 --k 120 --witness 219"]
    assert len(ops) == 72 + 19 + 1
    for workload, op in ops:
        text = workload.run_traced(op, spans.Tracer())  # as worker.record digests it
        assert worker.digest(text) == reference[workload.name]["traced"][op.key], op.key


def test_untraced_witness_and_verify_ops_match_the_bench_reference(bench):
    _, worker, workloads = bench
    reference = json.loads((BENCH / "reference.json").read_text())
    queries, sweep = workloads.CliQueries(), workloads.VerifySweep()
    expected = reference[queries.name]["untraced"]
    ops = [(queries, op) for op in queries.universe()
           if op.target is not None and expected[op.key] is not None]
    assert len(ops) == 76
    ops += [(sweep, op) for op in sweep.universe()]
    for workload, op in ops:
        assert worker.digest(workload.run(op)) == reference[workload.name]["untraced"][op.key], op.key
