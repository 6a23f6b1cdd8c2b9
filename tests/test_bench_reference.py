"""The benchmark's traced ops still give the outputs its reference recorded.

bench/reference.json holds a digest of each op's traced output. Those
outputs read the library through names that no CLI command prints: the
CyclotomicInteger values of `SpectrumReport.eigenvalues` and `str` of
witness terms.
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
    # integral, real-nonintegral and complex spectra, and a directed graph's signed witness
    ops = [(sweep, op) for op in sweep.universe() if op.q == 2401 and op.k in (1, 3, 16, 32, 2400)]
    ops += [(queries, op) for op in queries.universe() if op.key == "waring --q 3721 --k 120 --witness 219"]
    assert len(ops) == 6
    for workload, op in ops:
        text = workload.run_traced(op, spans.Tracer())  # as worker.record digests it
        assert worker.digest(text) == reference[workload.name]["traced"][op.key], op.key
