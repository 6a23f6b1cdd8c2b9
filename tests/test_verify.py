import dataclasses

import numpy as np
import pytest

from gpgraphs import build_field, build_graph, spectra, verify
from gpgraphs.graphs import GENERIC, PALEY_UNION
from gpgraphs.numbertheory import divisors, prime_power
from gpgraphs.verify import CHECK_NAMES, run_verification, verify_field
from oracles import Cyclotomic, boundary_values, index_neg, root_power


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


def _duplicate_trace(report):
    # GP(24, 25) has the n = 1 rows [0], ..., [4]: zeta^4 becomes a second zeta^3
    rows = report._rows.copy()
    rows[-1] = rows[-2]
    return dataclasses.replace(report, _rows=rows)


def _corrupt_multiplicity(report):
    multiplicities = report._multiplicities.copy()
    multiplicities[0] += 1
    return dataclasses.replace(report, _multiplicities=multiplicities)


def _corrupt(monkeypatch, owner, name, corrupted_k, change):
    """Replace owner.name(graph, ...) by one that passes its result on GP(corrupted_k, q) through change."""
    honest = getattr(owner, name)

    def corrupted(graph, *args, **kwargs):
        result = honest(graph, *args, **kwargs)
        return change(result) if graph.k == corrupted_k else result

    monkeypatch.setattr(owner, name, corrupted)


@pytest.mark.parametrize("check, corrupted_k, corrupt, failure", [
    ("trace-identities", 6, _corrupt_multiplicity, "q=25 k=6: sum of eigenvalues is 4, not 0"),
    ("boundary-spectrum", 6, _corrupt_rows, "q=25 k=6: boundary spectrum [] != expected"),
    ("boundary-spectrum", 24, _duplicate_trace,
     "q=25 k=24: boundary spectrum ['1', 'z', 'z^2', 'z^3'] != expected"),
    # the half graph of the directed GP(8, 25) is GP(4, 25)
    ("two-re", 4, _corrupt_rows, "q=25 k=8: symmetrized spectrum is not twice the real parts"),
])
def test_corrupted_rows_fail_their_check(monkeypatch, check, corrupted_k, corrupt, failure):
    _corrupt(monkeypatch, spectra, "spectrum", corrupted_k, corrupt)
    outcome = next(o for o in verify_field(25) if o.name == check)
    assert outcome.failed == 1
    assert outcome.first_failure == failure
    if check == "boundary-spectrum":  # the message is the one the Cyclotomic sets gave
        graph = build_graph(build_field(5, 2), corrupted_k)
        assert f"q=25 k={corrupted_k}: {_failure(_check_boundary_by_cyclotomic_sets, graph)}" == failure


def _trade_a_trace(report):
    # two rows of one multiplicity trade a trace: sum of mult * eta stays, sum of mult * eta^2 does not
    rows = report._rows.copy()
    multiplicities = report._multiplicities
    i, j = np.flatnonzero(multiplicities == multiplicities[-1])[:2]
    rows[[i, j], [0, -1]] = rows[[j, i], [-1, 0]]
    return dataclasses.replace(report, _rows=rows)


TRADED_TRACE_FAILURES = [
    (25, 4, "pairs", "q=25 k=4: sum of squared eigenvalues is 138 - 36*z + 48*z^2, expected 150"),
    (49, 3, "kronecker", "q=49 k=3: sum of squared eigenvalues is 1008 + 96*z + 128*z^3 + 256*z^4 "
                         "+ 192*z^5, expected 784"),
]


@pytest.mark.parametrize("q, corrupted_k, branch, failure", TRADED_TRACE_FAILURES)
def test_a_traded_trace_fails_the_second_moment(monkeypatch, q, corrupted_k, branch, failure):
    report = spectra.spectrum(build_graph(build_field(*prime_power(q)), corrupted_k))
    assert (report.n ** 2 <= verify.KRONECKER_RATIO * report._p) == (branch == "pairs")
    assert not verify.moments(_trade_a_trace(report))[0].any()
    _corrupt(monkeypatch, spectra, "spectrum", corrupted_k, _trade_a_trace)
    outcome = next(o for o in verify_field(q) if o.name == "trace-identities")
    assert (outcome.failed, outcome.first_failure) == (1, failure)


def test_second_moment_check_survives_python_O(run_optimized):
    # the moment comparison raises explicitly, so -O keeps it in both branches
    proc = run_optimized("""
        import dataclasses

        import numpy as np

        from gpgraphs import spectra
        from gpgraphs.verify import verify_field

        honest = spectra.spectrum

        for q, corrupted_k in ((25, 4), (49, 3)):
            def corrupted(graph):
                report = honest(graph)
                if graph.k != corrupted_k:
                    return report
                rows = report._rows.copy()
                multiplicities = report._multiplicities
                i, j = np.flatnonzero(multiplicities == multiplicities[-1])[:2]
                rows[[i, j], [0, -1]] = rows[[j, i], [-1, 0]]
                return dataclasses.replace(report, _rows=rows)

            spectra.spectrum = corrupted
            moments = next(o for o in verify_field(q) if o.name == "trace-identities")
            print(moments.failed, moments.first_failure)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(f"1 {failure}\n" for *_, failure in TRADED_TRACE_FAILURES), proc.stdout


SHIFTED_PERIOD_FAILURES = [
    (13, 3, "q=13 k=3: sum of eigenvalues is 4 - 4*z, not 0"),
    (25, 8, "q=25 k=8: sum of eigenvalues is 3 - 3*z, not 0"),
    (29, 4, "q=29 k=4: sum of eigenvalues is 7 - 7*z, not 0"),
    (49, 4, "q=49 k=4: sum of eigenvalues is 12 - 12*z, not 0"),
]


def test_shifted_periods_fail_the_trace_identity_under_python_O(run_optimized):
    # every period times zeta keeps the multiplicities, the components and the
    # nature, and only the eigenvalue sum moves: spectrum no longer checks
    # it, so verify's first moment must catch it, also when asserts are stripped
    proc = run_optimized("""
        from gpgraphs import spectra
        from gpgraphs.verify import verify_field

        honest = spectra._period_rows

        for q, corrupted_k in ((13, 3), (25, 8), (29, 4), (49, 4)):
            def shifted(field, k, n):
                rows = honest(field, k, n)
                if k == corrupted_k:
                    rows[1:] = (rows[1:] + 1) % field.p
                    rows[1:].sort(axis=1)
                return rows

            spectra._period_rows = shifted
            moments = next(o for o in verify_field(q) if o.name == "trace-identities")
            print(moments.failed, moments.first_failure)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(f"1 {failure}\n" for *_, failure in SHIFTED_PERIOD_FAILURES), proc.stdout


def _boundary_by_norms(report):
    """The values with lam * conj(lam) = n^2, by Cyclotomic arithmetic, in entry order."""
    n_squared = Cyclotomic.from_int(report._p, report.n ** 2)
    values = (Cyclotomic.from_terms(report._p, e.terms) for e in report.entries)
    return tuple(value for value in values if value * value.conjugate() == n_squared)


def _check_boundary_by_cyclotomic_sets(graph, half):
    """The boundary check on sets of Cyclotomic values: the oracle of verify's check on rows."""
    field = graph.field
    found = set(_boundary_by_norms(spectra.spectrum(graph)))
    if graph.k == field.q - 1:
        expected = {root_power(field.p, j) for j in range(field.p)}  # for p = 2, {1, -1}
    else:
        expected = {Cyclotomic.from_int(field.p, graph.n)}
    if found != expected:
        raise AssertionError(f"boundary spectrum {sorted(map(str, found))} != expected")


def _failure(check, graph):
    try:
        check(graph, None)
    except AssertionError as exc:
        return str(exc)
    return None


def test_boundary_on_rows_matches_cyclotomic_sets_and_norms_for_every_q_up_to_343():
    graphs = 0
    for q in range(2, 344):
        if prime_power(q) is None:
            continue
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            report = spectra.spectrum(graph)
            assert boundary_values(report) == _boundary_by_norms(report), (q, k)
            assert _failure(verify._check_boundary, graph) is None, (q, k)
            assert _failure(_check_boundary_by_cyclotomic_sets, graph) is None, (q, k)
            graphs += 1
    assert graphs == 729


@pytest.mark.parametrize("q", [25, 64, 81, 337])
def test_passing_verify_builds_no_cyclotomic_integer(monkeypatch, q):
    # verify works on period rows: a passing sweep decodes no row into an Entry
    decoded = []
    entries = spectra.SpectrumReport._entries
    monkeypatch.setattr(spectra.SpectrumReport, "_entries",
                        lambda self, indices: decoded.append(self.k) or entries(self, indices))
    assert all(o.failed == 0 for o in verify_field(q))
    assert decoded == []
    spectra.spectrum(build_graph(build_field(*prime_power(q)), 1)).entries  # the count works
    assert decoded == [1]


def test_census_check_survives_python_O(run_optimized):
    # the recount by nature_for is an explicit comparison, so -O keeps it
    proc = run_optimized("""
        from gpgraphs import Nature, spectra
        from gpgraphs.verify import verify_field

        spectra.nature_for = lambda p, m, k: Nature.INTEGRAL
        census = next(o for o in verify_field(49) if o.name == "census")
        print(census.passed, census.failed, census.first_failure)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("0 1 q=49: "), proc.stdout


def test_boundary_check_survives_python_O(run_optimized):
    # the row comparison raises explicitly, so -O keeps it
    proc = run_optimized("""
        import dataclasses
        from gpgraphs import spectra
        from gpgraphs.verify import verify_field

        honest = spectra.spectrum

        def corrupted(graph):
            report = honest(graph)
            if graph.k != 24:
                return report
            rows = report._rows.copy()
            rows[-1] = rows[-2]  # zeta^4 becomes a second zeta^3
            return dataclasses.replace(report, _rows=rows)

        spectra.spectrum = corrupted
        boundary = next(o for o in verify_field(25) if o.name == "boundary-spectrum")
        print(boundary.passed, boundary.failed, boundary.first_failure)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("7 1 q=25 k=24: boundary spectrum "), proc.stdout


def _flip_directed(graph):
    graph.directed = not graph.directed


def _toggle_minus_one(graph):
    graph.connection = np.setxor1d(graph.connection, [index_neg(graph.field, 1)])


def _hold_a_negative(graph):
    # the last k-th power becomes the negative of another, so there are still n of them
    graph.connection = np.append(graph.connection[:-1], index_neg(graph.field, int(graph.connection[1])))


def _swap_a_power(graph):
    # omega^(2k) gives way to omega, which is no k-th power, so there are still n elements
    exp = graph.field.exp
    graph.connection = np.union1d(np.setdiff1d(graph.connection, exp[2 * graph.k]), exp[1])


def _repeat_a_power(graph):
    graph.connection = np.append(graph.connection, graph.connection[1])


def _corrupting_build(monkeypatch, corrupted_k, corrupt):
    honest = verify.build_graph

    def corrupted(field, k):
        graph = honest(field, k)
        if graph.k == corrupted_k:
            corrupt(graph)
        return graph

    monkeypatch.setattr(verify, "build_graph", corrupted)


# GP(4, 25) is undirected with n = 6, GP(8, 25) directed with n = 3
@pytest.mark.parametrize("corrupted_k, corrupt, failure", [
    (8, _flip_directed, "complex spectrum, but the valuation rule says undirected"),
    (4, _flip_directed, "real-nonintegral spectrum, but the valuation rule says directed"),
    (4, _toggle_minus_one, "membership of -1 disagrees with the valuation rule (undirected)"),
    (8, _toggle_minus_one, "membership of -1 disagrees with the valuation rule (directed)"),
    (8, _hold_a_negative, "the directed connection set holds some r and -r"),
    (4, _swap_a_power, "the connection set is not the n = 6 k-th powers"),
    (4, _repeat_a_power, "the connection set is not the n = 6 k-th powers"),
])
def test_corrupted_directedness_fails_the_nature_check(monkeypatch, corrupted_k, corrupt, failure):
    _corrupting_build(monkeypatch, corrupted_k, corrupt)
    nature = next(o for o in verify_field(25) if o.name == "nature")
    assert (nature.passed, nature.failed) == (7, 1)
    assert nature.first_failure == f"q=25 k={corrupted_k}: {failure}"


def test_waring_check_compares_the_traversal_with_the_closed_form(monkeypatch):
    # the traversal of GP(4, 25) loses one of its 4 classes; components(graph) stays exact
    _corrupt(monkeypatch, verify, "quotient_bfs", 4,
             lambda dist: np.where(np.arange(dist.size) == 0, -1, dist))
    waring = next(o for o in verify_field(25) if o.name == "waring-formula")
    assert (waring.passed, waring.failed) == (7, 1)
    assert waring.first_failure == (
        "q=25 k=4: traversal gives ComponentDecomposition(a=2, count=1, component_k=3, component_q=19), "
        "order of p mod n gives ComponentDecomposition(a=2, count=1, component_k=4, component_q=25)")


def test_period_law_compares_the_traversal_with_the_closed_form(monkeypatch):
    # a closed form that gives the directed GP(8, 25) period 2; the traversal still finds 1
    honest = verify.period
    monkeypatch.setattr(verify, "period", lambda graph: 2 if graph.k == 8 else honest(graph))
    law = next(o for o in verify_field(25) if o.name == "period-law")
    assert (law.passed, law.failed) == (7, 1)
    assert law.first_failure == "q=25 k=8: period 1 by traversal != closed form 2"


def test_waring_check_compares_the_signed_traversal_with_the_reduction(monkeypatch):
    # a reduction that gives the directed GP(8, 25) w = g(8, 25) = 4; its signed traversal gives 3
    _corrupt(monkeypatch, verify, "graph_waring", 8, lambda result: dataclasses.replace(result, w=result.g))
    waring = next(o for o in verify_field(25) if o.name == "waring-formula")
    assert (waring.passed, waring.failed) == (7, 1)
    assert waring.first_failure == "q=25 k=8: w = 3 by diameter != 4 by reduction to g"


def test_nature_check_compares_with_the_arithmetic_rule_first(monkeypatch):
    # a real spectrum on the directed GP(8, 25) breaks both comparisons; the first is reported
    _corrupt(monkeypatch, spectra, "spectrum", 8,
             lambda report: dataclasses.replace(report, nature=spectra.Nature.INTEGRAL))
    nature = next(o for o in verify_field(25) if o.name == "nature")
    assert nature.first_failure == "q=25 k=8: eigenvalue nature integral != arithmetic rule complex"


def test_nature_check_survives_python_O(run_optimized):
    # the antisymmetry comparison raises explicitly, so -O keeps it
    proc = run_optimized("""
        import numpy as np

        from gpgraphs import verify
        from gpgraphs.verify import verify_field

        honest = verify.build_graph

        def corrupted(field, k):
            graph = honest(field, k)
            if graph.k == 8:  # directed: the last k-th power becomes -r = (-1) * r for another r
                minus_r = field.exp[(field.log[graph.connection[1]] + field.log[4]) % 24]
                graph.connection = np.append(graph.connection[:-1], minus_r)
            return graph

        verify.build_graph = corrupted
        nature = next(o for o in verify_field(25) if o.name == "nature")
        print(nature.passed, nature.failed, nature.first_failure)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7 1 q=25 k=8: the directed connection set holds some r and -r\n", proc.stdout


# GP(2, 7) is the directed Paley graph (mu = 3) and GP(6, 7) the directed 7-cycle (mu = 7)
@pytest.mark.parametrize("corrupted_k, kind, mu", [(2, GENERIC, 3), (6, PALEY_UNION, 7)])
def test_three_eigenvalue_check_compares_mu_with_the_label(monkeypatch, corrupted_k, kind, mu):
    _corrupt(monkeypatch, verify, "classify_structure", corrupted_k,
             lambda label: dataclasses.replace(label, kind=kind))
    check = next(o for o in verify_field(7) if o.name == "mu-directed")
    assert (check.passed, check.failed) == (1, 1)
    assert check.first_failure == (
        f"q=7 k={corrupted_k}: the oriented Paley union label must hold exactly when mu = 3 (mu = {mu})")


def test_three_eigenvalue_check_survives_python_O(run_optimized):
    # the label comparison raises explicitly, so -O keeps it
    proc = run_optimized("""
        import dataclasses
        from gpgraphs import verify
        from gpgraphs.graphs import GENERIC
        from gpgraphs.verify import verify_field

        honest = verify.classify_structure
        verify.classify_structure = lambda graph: (
            dataclasses.replace(honest(graph), kind=GENERIC) if graph.k == 2 else honest(graph))
        check = next(o for o in verify_field(7) if o.name == "mu-directed")
        print(check.passed, check.failed, check.first_failure)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("1 1 q=7 k=2: the oriented Paley union label must hold exactly "
                           "when mu = 3 (mu = 3)\n"), proc.stdout


def _integral_nature_rule(monkeypatch):
    monkeypatch.setattr(spectra, "nature_for", lambda p, m, k: spectra.Nature.INTEGRAL)


def _extra_principal(monkeypatch):
    _corrupt(monkeypatch, spectra, "spectrum", 6, lambda report: dataclasses.replace(
        report, principal_multiplicity=report.principal_multiplicity + 1))


def _extra_component(monkeypatch):
    _corrupt(monkeypatch, verify, "components", 6, lambda dec: dataclasses.replace(dec, count=dec.count + 1))


# spectrum checks no law, so each corruption fails only the families that own
# its law; GP(6, 25) has 5 components
@pytest.mark.parametrize("corrupt, owners", [
    (_integral_nature_rule, {"nature", "census"}),
    (_extra_principal, {"waring-formula"}),
    (_extra_component, {"waring-formula"}),
], ids=["nature_for", "principal-multiplicity", "component-count"])
def test_a_corrupted_law_fails_only_its_owners(monkeypatch, corrupt, owners):
    corrupt(monkeypatch)
    assert {o.name for o in verify_field(25) if o.failed} == owners


# report reads mu, the g of the cycles and disconnectedness from closed forms, and each
# has one owner here: over GF(13), GP(6, 13) and GP(12, 13) are the 13-cycles and
# GP(4, 13) is connected
CLOSED_FORM_CORRUPTIONS = {
    "mu-off-by-one": (
        "honest = spectra.eigenvalue_count\n"
        "spectra.eigenvalue_count = lambda graph: honest(graph) + (graph.field.m == 1)",
        {"nature": (6, "q=13 k=1: eigenvalue_count 3 != mu = 2 of the spectrum")}),
    # g = k + 1 on both cycles, and so w = g on the undirected one; verify passes the directed one its w
    "cycle-g-off-by-one": (
        "honest = verify.graph_waring\n"
        "verify.graph_waring = lambda graph, half_g: (\n"
        "    dataclasses.replace(honest(graph, half_g), g=graph.k + 1, w=half_g or graph.k + 1)\n"
        "    if 2 * graph.k >= 12 else honest(graph, half_g))",
        {"waring-formula": (2, "q=13 k=6: g = 7 != 6, the diameter of the traversal")}),
    "two-components": (
        "honest = waring.components\n"
        "waring.components = lambda graph: (\n"
        "    dataclasses.replace(honest(graph), count=2) if graph.k == 4 else honest(graph))",
        {"waring-formula": (1, "q=13 k=4: g = None != 3, the diameter of the traversal")}),
}


@pytest.mark.parametrize("name", list(CLOSED_FORM_CORRUPTIONS))
def test_a_wrong_closed_form_fails_only_its_owner_under_python_O(run_optimized, name):
    corruption, failures = CLOSED_FORM_CORRUPTIONS[name]
    proc = run_optimized("\n".join([
        "import dataclasses",
        "from gpgraphs import spectra, verify, waring",
        "from gpgraphs.verify import verify_field",
        corruption,
        "print({o.name: (o.failed, o.first_failure) for o in verify_field(13) if o.failed})",
    ]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{failures}\n", proc.stdout


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
