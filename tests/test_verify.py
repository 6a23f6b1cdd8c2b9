import dataclasses

import numpy as np
import pytest

from gpgraphs import build_field, build_graph, fields, graphs, spectra, verify
from gpgraphs.graphs import GENERIC, PALEY_UNION, ComponentDecomposition
from gpgraphs.numbertheory import divisors, prime_power
from gpgraphs.verify import CHECK_NAMES, report_rows, run_verification, verify_field
from oracles import Cyclotomic, boundary_values, index_neg, root_power


def test_verify_field_single():
    outcomes = verify_field(3)  # k in {1, 2}: a complete graph and a directed triangle
    assert [o.name for o in outcomes] == list(CHECK_NAMES)
    assert all(o.failed == 0 for o in outcomes)
    by_name = {o.name: o for o in outcomes}
    assert by_name["census"].passed == 1
    assert by_name["nature"].passed == 2
    assert by_name["two-re"].passed == 1  # only GP(2, 3) is directed


@pytest.mark.parametrize("q, directed", [(25, [8, 24]), (49, [16, 48])])
def test_report_rows_hand_each_directed_row_the_graph_of_its_row_k_over_2(q, directed):
    # w of a directed GP(k, q) is g(k/2, q), read off the very graph that row k/2 yielded
    rows = list(report_rows(build_field(*prime_power(q))))
    graph_of, row_of = {row.k: graph for graph, _, row in rows}, {row.k: row for _, _, row in rows}
    assert [row.k for graph, _, row in rows if graph.directed] == directed
    for graph, half, row in rows:
        assert half is (graph_of[row.k // 2] if graph.directed else None), (q, row.k)
        if graph.directed:  # GP(24, 25) and GP(48, 49) are disconnected, with no w
            assert row.w == (row_of[row.k // 2].g if row.components == 1 else None), (q, row.k)


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
            assert _failure(lambda g, half: verify._check_boundary(g, half, None), graph) is None, (q, k)
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
    # the traversal of GP(4, 25) loses one of its 4 classes; components(graph) stays exact. The
    # directed GP(8, 25), whose half it is, refuses it too: its arcs mod 4 certify that traversal
    _corrupt(monkeypatch, verify, "quotient_bfs", 4,
             lambda dist: np.where(np.arange(dist.size) == 0, -1, dist))
    half_failure = "the traversal of GP(4,25) is not certified: class 0 must be at level 1"
    assert _failing_rows(25)[1:] == [(8, "waring-formula", half_failure)]
    waring = next(o for o in verify_field(25) if o.name == "waring-formula")
    assert (waring.passed, waring.failed) == (6, 2)
    assert waring.first_failure == (
        "q=25 k=4: traversal gives ComponentDecomposition(a=2, count=1, component_k=3, component_q=19), "
        "order of p mod n gives ComponentDecomposition(a=2, count=1, component_k=4, component_q=25)")


def test_waring_check_bounds_the_diameter_by_mu(monkeypatch):
    # a diagonalizable graph's diameter is below mu; a spectrum of GP(4, 25) that gives mu 3,
    # not 5, meets its traversal diameter 3 there, and so fails the nature check as well
    _corrupt(monkeypatch, spectra, "spectrum", 4, lambda report: dataclasses.replace(report, mu=3))
    failed = {o.name: (o.failed, o.first_failure) for o in verify_field(25) if o.failed}
    assert failed == {"nature": (1, "q=25 k=4: eigenvalue_count 5 != mu = 3 of the spectrum"),
                      "waring-formula": (1, "q=25 k=4: diameter 3 is not below mu = 3 of the spectrum")}


def test_period_law_compares_the_traversal_with_the_closed_form(monkeypatch):
    # a closed form that gives the directed GP(8, 25) period 2; the traversal still finds 1
    honest = verify.period
    monkeypatch.setattr(verify, "period", lambda graph: 2 if graph.k == 8 else honest(graph))
    law = next(o for o in verify_field(25) if o.name == "period-law")
    assert (law.passed, law.failed) == (7, 1)
    assert law.first_failure == "q=25 k=8: period 1 by traversal != closed form 2"


def test_waring_check_compares_the_certified_half_with_the_reduction(monkeypatch):
    # a reduction that gives the directed GP(8, 25) w = g(8, 25) = 4; the traversal of its half
    # GP(4, 25), certified by the arcs of GP(8, 25) mod 4, gives 3
    _corrupt(monkeypatch, verify, "graph_waring", 8, lambda result: dataclasses.replace(result, w=result.g))
    waring = next(o for o in verify_field(25) if o.name == "waring-formula")
    assert (waring.passed, waring.failed) == (7, 1)
    assert waring.first_failure == "q=25 k=8: w = 3 by diameter != 4 by reduction to g"


def _raise_the_farthest_level(monkeypatch, q, k):
    """The kept traversal of GP(k, q), which report and verify both read, puts its farthest level one further."""
    honest = graphs.log_bfs

    def corrupted(zech, steps, modulus):
        dist, parent, step = honest(zech, steps, modulus)
        if (zech.size + 1, modulus) == (q, k):
            dist = np.where(dist == dist.max(), dist + 1, dist)
        return dist, parent, step

    monkeypatch.setattr(graphs, "log_bfs", corrupted)


def _failing_rows(q):
    """(k, family, message) of each failing graph check over GF(q), in sweep order."""
    failing = []
    for graph, half, row in report_rows(build_field(*prime_power(q))):
        for name, check, runs_on in verify._CHECKS:
            if runs_on == "graph" or runs_on == "directed" and graph.directed:
                try:
                    check(graph, half, row)
                except AssertionError as exc:
                    failing.append((row.k, name, str(exc)))
    return failing


def test_a_farther_level_fails_only_the_distance_certificate_also_under_python_O(monkeypatch, run_optimized):
    # GP(3, 13) is undirected and generic with g = 2 < mu = 4, and no directed row's half, as
    # GP(6, 13) is undirected: with its farthest level at 3, report prints g = 3, which is still
    # below mu and gives the same period, so only the certificate of the traversal can refuse it
    failure = ("the traversal of GP(3,13) is not certified: "
               "no arc may leave the reached classes or skip a level")
    expected = {"waring-formula": (1, f"q=13 k=3: {failure}")}
    _raise_the_farthest_level(monkeypatch, 13, 3)
    assert {o.name: (o.failed, o.first_failure) for o in verify_field(13) if o.failed} == expected
    proc = run_optimized("""
        import numpy as np

        from gpgraphs import graphs
        from gpgraphs.verify import verify_field

        honest = graphs.log_bfs

        def corrupted(zech, steps, modulus):
            dist, parent, step = honest(zech, steps, modulus)
            if (zech.size + 1, modulus) == (13, 3):
                dist = np.where(dist == dist.max(), dist + 1, dist)
            return dist, parent, step

        graphs.log_bfs = corrupted
        print({o.name: (o.failed, o.first_failure) for o in verify_field(13) if o.failed})
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{expected}\n", proc.stdout


def test_a_farther_level_of_a_half_fails_its_row_and_its_directed_row(monkeypatch):
    # GP(4, 25) is the half of the directed GP(8, 25), whose w is the certified diameter of
    # GP(4, 25): its arcs are those of GP(8, 25) folded mod 4, so both rows refuse the traversal
    _raise_the_farthest_level(monkeypatch, 25, 4)
    failure = ("the traversal of GP(4,25) is not certified: "
               "no arc may leave the reached classes or skip a level")
    assert _failing_rows(25) == [(4, "waring-formula", failure), (8, "waring-formula", failure)]
    waring = next(o for o in verify_field(25) if o.name == "waring-formula")
    assert (waring.passed, waring.failed, waring.first_failure) == (6, 2, f"q=25 k=4: {failure}")


# GP(4, 25) is undirected with g = 3: one wrong level for each law of the certificate
LEVEL_ONE, NO_SKIP = "class 0 must be at level 1", "no arc may leave the reached classes or skip a level"
NO_IN_ARC = "each other reached class must have an in-arc from the level below"


@pytest.mark.parametrize("change, law", [
    (lambda dist: np.where(np.arange(dist.size) == 0, 2, dist), LEVEL_ONE),
    (lambda dist: np.where(dist == dist.max(), dist + 1, dist), NO_SKIP),
    (lambda dist: np.where(dist == dist.max(), -1, dist), NO_SKIP),
    (lambda dist: np.where(dist == dist.max(), dist - 1, dist), NO_IN_ARC),
    (lambda dist: np.where(np.arange(dist.size) == 3, 1, dist), NO_IN_ARC),  # class 3, at 3, beside class 0
], ids=["class-0-at-2", "farthest-plus-1", "farthest-unreached", "farthest-minus-1", "second-class-at-1"])
def test_each_law_of_the_certificate_refuses_a_wrong_level(monkeypatch, change, law):
    graph = build_graph(build_field(5, 2), 4)
    certify = verify._certified_diameter.__wrapped__  # the kept function, run afresh
    assert certify(graph) == 3
    _corrupt(monkeypatch, verify, "quotient_bfs", 4, change)
    with pytest.raises(AssertionError) as raised:
        certify(graph)
    assert str(raised.value) == f"the traversal of GP(4,25) is not certified: {law}"


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


# report reads mu, the g of the labelled graphs and disconnectedness from closed forms,
# and each has one owner here: over GF(13), GP(6, 13) and GP(12, 13) are the 13-cycles and
# GP(4, 13) is connected; over GF(81), GP(5, 81) is the Hamming graph H(2, 9), mu = 3 and g = 2
CLOSED_FORM_CORRUPTIONS = {
    "mu-off-by-one": (13,
        "honest = spectra.eigenvalue_count\n"
        "spectra.eigenvalue_count = lambda graph: honest(graph) + (graph.field.m == 1)",
        {"nature": (6, "q=13 k=1: eigenvalue_count 3 != mu = 2 of the spectrum")}),
    # g = k + 1 on both cycles, and so w = g on the undirected one and, on the directed one,
    # the g of its half GP(6, 13), k/2 + 1
    "cycle-g-off-by-one": (13,
        "honest = verify.graph_waring\n"
        "verify.graph_waring = lambda graph: (\n"
        "    dataclasses.replace(honest(graph), g=graph.k + 1, w=graph.k // (1 + graph.directed) + 1)\n"
        "    if 2 * graph.k >= 12 else honest(graph))",
        {"waring-formula": (2, "q=13 k=6: g = 7 != 6, the diameter of the traversal")}),
    # waring reads connectivity off the components
    "two-components": (13,
        "honest = waring.components\n"
        "waring.components = lambda graph: (\n"
        "    dataclasses.replace(honest(graph), count=2) if graph.k == 4 else honest(graph))",
        {"waring-formula": (1, "q=13 k=4: g = None != 3, the diameter of the traversal")}),
    # the law g = mu - 1 read as g = mu on the Hamming graphs only
    "hamming-g-off-by-one": (81,
        "honest = waring.eigenvalue_count\n"
        "waring.eigenvalue_count = lambda graph: (\n"
        "    honest(graph) + (waring.classify_structure(graph).kind == 'hamming'))",
        {"waring-formula": (1, "q=81 k=5: g = 3 != 2, the diameter of the traversal")}),
}


@pytest.mark.parametrize("name", list(CLOSED_FORM_CORRUPTIONS))
def test_a_wrong_closed_form_fails_only_its_owner_under_python_O(run_optimized, name):
    q, corruption, failures = CLOSED_FORM_CORRUPTIONS[name]
    proc = run_optimized("\n".join([
        "import dataclasses",
        "from gpgraphs import spectra, verify, waring",
        "from gpgraphs.verify import verify_field",
        corruption,
        f"print({{o.name: (o.failed, o.first_failure) for o in verify_field({q}) if o.failed}})",
    ]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{failures}\n", proc.stdout


# GP(2, 25) is the Paley graph srg(25, 12, 5, 6): one srg column breaks the identity, one
# says no srg where the spectrum has three eigenvalues on a connected undirected graph, and
# one meets the identity with e and d that the connection set does not give
SRG_CORRUPTIONS = {
    "identity": ("srg[:3] + (srg[3] + 1,)", "srg(25, 12, 5, 7) breaks (v-r-1)d = r(r-e-1)"),
    "presence": ("None", "srg None, but the spectrum has mu = 3 and principal multiplicity 1 (undirected)"),
    "counts": ("(25, 12, 11, 0)", "srg(25, 12, 11, 0) != srg(25, 12, 5, 6) counted on the connection set"),
}


@pytest.mark.parametrize("name", list(SRG_CORRUPTIONS))
def test_a_wrong_srg_column_fails_only_the_nature_check_under_python_O(run_optimized, name):
    change, failure = SRG_CORRUPTIONS[name]
    proc = run_optimized(f"""
        from gpgraphs import spectra
        from gpgraphs.verify import verify_field

        honest = spectra.srg_parameters
        spectra.srg_parameters = lambda graph: (
            (lambda srg: {change})(honest(graph)) if graph.k == 2 else honest(graph))
        print({{o.name: (o.failed, o.first_failure) for o in verify_field(25) if o.failed}})
    """)
    assert proc.returncode == 0, proc.stderr
    expected = {"nature": (1, f"q=25 k=2: {failure}")}
    assert proc.stdout == f"{expected}\n", proc.stdout


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


def test_kept_arcs_take_the_narrowest_signed_type_that_holds_their_classes():
    # they live as long as the field stays cached: GF(4096) has q - 1 = 4095 = 3^2 * 5 * 7 * 13
    field = build_field(2, 12)
    for k, dtype in ((1, np.int8), (65, np.int8), (315, np.int16), (4095, np.int16)):
        arcs = verify._quotient_arcs(build_graph(field, k))
        assert arcs.dtype == dtype and arcs.shape == (2, 4095), k
        assert arcs.min() == -1 and arcs.max() == k - 1, k


# each second method that a kept law runs; a sweep that reads the kept laws calls none of them
SECOND_METHODS = ("moments", "two_re_holds", "boundary_rows", "_held")


def _counting(monkeypatch, names=SECOND_METHODS):
    """Counts the calls to each of verify's names; each still returns what it returned."""
    calls = dict.fromkeys(names, 0)

    def counted(name, honest):
        def call(*args):
            calls[name] += 1
            return honest(*args)
        return call

    for name in names:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    return calls


@pytest.mark.parametrize("q", [25, 49, 81])
def test_a_second_sweep_of_a_cached_field_runs_no_second_method(monkeypatch, q):
    calls = _counting(monkeypatch)
    first = verify_field(q)
    assert all(o.failed == 0 for o in first)
    assert all(calls.values()), calls
    calls.update(dict.fromkeys(calls, 0))
    assert verify_field(q) == first
    assert calls == dict.fromkeys(SECOND_METHODS, 0)


def test_verify_keeps_laws_and_small_quantities_on_a_graph_and_no_array_but_its_arcs():
    # GP(8, 25) is directed, GP(2, 25) the Paley graph srg(25, 12, 5, 6)
    verify_field(25)
    field = build_field(5, 2)
    ours = {k: {fn.__name__: value for fn, value in graph.kept.items() if fn.__module__ == verify.__name__}
            for k, graph in field.graphs.items()}
    laws = ["_connection_set", "_check_moments", "_check_two_re", "_quotient_arcs", "_traversed_period",
            "_certified_diameter", "_traversed_components", "_check_three_eigenvalues", "_check_boundary"]
    assert sorted(ours[8]) == sorted(laws)
    assert sorted(ours[2]) == sorted(name for name in laws if name not in ("_check_two_re",
                                                                          "_check_three_eigenvalues"))
    assert ours[2]["_connection_set"] == (25, 12, 5, 6) and ours[8]["_connection_set"] is None
    for k, kept in ours.items():
        for name, value in kept.items():
            small = value is None or isinstance(value, (int, tuple, ComponentDecomposition))
            assert isinstance(value, np.ndarray) if name == "_quotient_arcs" else small, (k, name)


# over GF(25): the directed GP(8, 25) has period 1 and w = g(4, 25) = 3, GP(2, 25) is the
# Paley graph srg(25, 12, 5, 6), GP(4, 25) has mu = 5 and GP(6, 25) 5 components
CORRUPTED_BETWEEN_SWEEPS = {
    "period": (verify, "period", 8, lambda period: 2,
               {"period-law": (1, "q=25 k=8: period 1 by traversal != closed form 2")}),
    "srg-counts": (spectra, "srg_parameters", 2, lambda srg: (25, 12, 11, 0),
                   {"nature": (1, "q=25 k=2: srg(25, 12, 11, 0) != srg(25, 12, 5, 6) counted on the "
                                  "connection set")}),
    "mu": (spectra, "eigenvalue_count", 4, lambda mu: mu + 1,
           {"nature": (1, "q=25 k=4: eigenvalue_count 6 != mu = 5 of the spectrum")}),
    "w": (verify, "graph_waring", 8, lambda result: dataclasses.replace(result, w=result.g),
          {"waring-formula": (1, "q=25 k=8: w = 3 by diameter != 4 by reduction to g")}),
    "components": (verify, "components", 6, lambda dec: dataclasses.replace(dec, count=dec.count + 1),
                   {"waring-formula": (1, "q=25 k=6: traversal gives ComponentDecomposition(a=1, count=5, "
                                          "component_k=1, component_q=5), order of p mod n gives "
                                          "ComponentDecomposition(a=1, count=6, component_k=1, "
                                          "component_q=5)")}),
}


@pytest.mark.parametrize("name", list(CORRUPTED_BETWEEN_SWEEPS))
def test_a_closed_form_corrupted_between_sweeps_fails_its_owner_on_the_second(monkeypatch, name):
    # the laws of the first sweep stay kept, and each row is still compared with them
    owner, attr, corrupted_k, change, failures = CORRUPTED_BETWEEN_SWEEPS[name]
    assert all(o.failed == 0 for o in verify_field(25))
    _corrupt(monkeypatch, owner, attr, corrupted_k, change)
    second = verify_field(25)
    assert {o.name: (o.failed, o.first_failure) for o in second if o.failed} == failures
    build_field(5, 2).graphs.clear()  # a sweep with nothing kept reports the same
    assert verify_field(25) == second


def _break_the_first_moment(honest):
    def broken(report):
        first, second = honest(report)
        if report.k == 6:  # GP(6, 25): its eigenvalues now sum to zeta
            first = first.copy()
            first[1] += 1
        return first, second
    return broken


def test_a_broken_law_is_never_kept(monkeypatch):
    monkeypatch.setattr(verify, "moments", _break_the_first_moment(verify.moments))
    calls = _counting(monkeypatch, ("moments",))
    failures = []
    for _ in range(2):
        moments = next(o for o in verify_field(25) if o.name == "trace-identities")
        failures.append((moments.passed, moments.failed, moments.first_failure, calls["moments"]))
        calls["moments"] = 0
    # the first sweep runs moments on all 8 graphs, the second only on the one whose law broke
    assert failures == [(7, 1, "q=25 k=6: sum of eigenvalues is z, not 0", 8),
                        (7, 1, "q=25 k=6: sum of eigenvalues is z, not 0", 1)]


def test_a_broken_law_is_never_kept_under_python_O(run_optimized):
    proc = run_optimized("""
        from gpgraphs import verify
        from gpgraphs.verify import verify_field

        honest, runs = verify.moments, []

        def broken(report):
            runs.append(report.k)
            first, second = honest(report)
            if report.k == 6:
                first = first.copy()
                first[1] += 1
            return first, second

        verify.moments = broken
        for _ in range(2):
            moments = next(o for o in verify_field(25) if o.name == "trace-identities")
            print(moments.passed, moments.failed, moments.first_failure, len(runs))
            runs.clear()
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("7 1 q=25 k=6: sum of eigenvalues is z, not 0 8\n"
                           "7 1 q=25 k=6: sum of eigenvalues is z, not 0 1\n"), proc.stdout


def test_an_evicted_field_takes_its_kept_laws_with_it(monkeypatch):
    # budget 256: GF(25) with its 8 graphs weighs 25 * 9 = 225, so GF(49) evicts it
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    monkeypatch.setattr(fields, "DEFAULT_SIZE_BUDGET", 256)
    calls = _counting(monkeypatch)
    first = verify_field(25)
    computed = dict(calls)
    field = build_field(5, 2)
    assert len(field.graphs) == 8 and all(computed.values()), computed
    calls.update(dict.fromkeys(calls, 0))
    assert verify_field(25) == first and not any(calls.values())  # cached: nothing recomputed
    build_field(7, 2)
    assert list(fields._FIELD_CACHE) == [(7, 2)] and field.graphs == {}
    assert verify_field(25) == first
    assert calls == computed  # a new GF(25): every law is computed again
    assert build_field(5, 2) is not field
