import dataclasses
import subprocess
import sys
import textwrap

import pytest

from gpgraphs import spectra, verify
from gpgraphs.verify import CHECK_NAMES, run_verification, verify_field


def test_verify_field_single():
    outcomes = verify_field(3)  # k in {1, 2}: a complete graph and a directed triangle
    assert [o.name for o in outcomes] == list(CHECK_NAMES)
    assert all(o.failed == 0 for o in outcomes)
    by_name = {o.name: o for o in outcomes}
    assert by_name["census"].passed == 1
    assert by_name["nature"].passed == 2
    assert by_name["two-re"].passed == 1  # only GP(2, 3) is directed


def test_full_sweep_with_worker_pool():
    # every structural law holds for all 86 prime powers q <= 343, with the
    # per-field work fanned out to two workers
    outcomes = run_verification(343, jobs=2)
    assert len(outcomes) == 8
    assert all(o.failed == 0 and o.first_failure is None for o in outcomes)
    by_name = {o.name: o for o in outcomes}
    assert by_name["census"].passed == 86
    assert by_name["nature"].passed == 729
    assert by_name["two-re"].passed == by_name["mu-directed"].passed == 253


def _corrupt_rows(report):
    # the all-zero principal row sorts first; one nonzero trace changes its value
    rows = report._rows.copy()
    rows[0, -1] = 1
    return dataclasses.replace(report, _rows=rows)


def _corrupt_multiplicity(report):
    multiplicities = report._multiplicities.copy()
    multiplicities[0] += 1
    return dataclasses.replace(report, _multiplicities=multiplicities)


@pytest.mark.parametrize("check, corrupted_k, corrupt, failure", [
    ("trace-identities", 6, _corrupt_multiplicity, "q=25 k=6: sum of eigenvalues is 4, not 0"),
    ("boundary-spectrum", 6, _corrupt_rows, "q=25 k=6: boundary spectrum [] != expected"),
    # the half graph of the directed GP(8, 25) is GP(4, 25)
    ("two-re", 4, _corrupt_rows, "q=25 k=8: symmetrized spectrum is not twice the real parts"),
])
def test_corrupted_rows_fail_their_check(monkeypatch, check, corrupted_k, corrupt, failure):
    honest = spectra.spectrum

    def corrupted(graph):
        report = honest(graph)
        return corrupt(report) if graph.k == corrupted_k else report

    monkeypatch.setattr(spectra, "spectrum", corrupted)
    outcome = next(o for o in verify_field(25) if o.name == check)
    assert outcome.failed == 1
    assert outcome.first_failure == failure


def test_census_check_survives_python_O(package_env):
    # the recount by nature_for is an explicit comparison, so -O keeps it
    script = textwrap.dedent("""
        import sys

        from gpgraphs import Nature, spectra
        from gpgraphs.verify import verify_field

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        spectra.nature_for = lambda p, m, k: Nature.INTEGRAL
        census = next(o for o in verify_field(49) if o.name == "census")
        print(census.passed, census.failed, census.first_failure)
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("0 1 q=49: "), proc.stdout


def test_sequential_and_parallel_agree():
    seq = run_verification(27, jobs=1)
    par = run_verification(27, jobs=2)
    assert [(o.name, o.passed, o.failed) for o in seq] \
        == [(o.name, o.passed, o.failed) for o in par]


def test_jobs_capped_at_cpu_count(monkeypatch):
    # a stub pool records its size and maps serially, so no process is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    capped = run_verification(9, jobs=10_000)
    assert sizes == [3]
    assert capped == run_verification(9, jobs=1)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)  # unknown: run serially
    assert run_verification(9, jobs=8) == capped
    assert sizes == [3]
