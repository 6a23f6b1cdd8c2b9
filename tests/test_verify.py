from gpgraphs import verify
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
