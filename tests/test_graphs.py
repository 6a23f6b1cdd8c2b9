import dataclasses
import math
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpgraphs import cli, graphs, verify
from gpgraphs import (
    build_field,
    build_graph,
    classify_structure,
    components,
    period,
    waring_result,
)
from gpgraphs.cli import build_report_rows
from gpgraphs.graphs import StructureLabel, quotient_bfs
from gpgraphs.numbertheory import divisors, prime_power
from gpgraphs.spectra import eigenvalue_count, spectrum
from gpgraphs.verify import _traversed_components, _traversed_period, verify_field
from oracles import (ORACLE_SIZE_LIMIT, add_outer, bfs_distances, dense_mu_and_nature, has_arc, index_add,
                     index_neg, quotient_steps, signed_traversal, symmetric_connection, symmetrize)


def test_build_examples():
    g = build_graph(build_field(5, 2), 8)
    assert g.directed and g.n == 3 and g.k == 8
    g = build_graph(build_field(7, 1), 1)
    assert not g.directed and g.n == 6  # complete graph
    g = build_graph(build_field(7, 2), 16)
    assert g.directed and g.n == 3


def test_k_is_reduced():
    field = build_field(5, 2)
    assert build_graph(field, 28).k == 4
    assert build_graph(field, 25).k == 1
    # to the field's own graph for gcd(k, q - 1)
    assert build_graph(field, 28) is build_graph(field, math.gcd(28, 24)) is field.graphs[4]
    for k in (0, -3):  # refused before any reduction: gcd(0, 24) = 24 and gcd(-3, 24) = 3
        with pytest.raises(ValueError, match=f"^k = {k} must be positive$"):
            build_graph(field, k)
    assert set(field.graphs) == {1, 4}


def test_a_kept_none_is_computed_once():
    calls = []

    @graphs.kept
    def nothing(graph):
        calls.append(graph.k)

    graph = build_graph(build_field(5, 2), 24)  # disconnected, so verify's kept certificate of it is None
    assert nothing(graph) is None and nothing(graph) is None
    assert calls == [24] and graph.kept == {nothing.__wrapped__: None}


def test_degrees_are_n_everywhere():
    for q in range(2, 344):
        pm = prime_power(q)
        if pm is None:
            continue
        field = build_field(*pm)
        vertices = np.arange(q, dtype=np.int64)
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            heads = add_outer(field, vertices, np.asarray(graph.connection, dtype=np.int64))
            assert heads.shape == (q, graph.n)  # out-degree n by construction
            in_degrees = np.bincount(heads.ravel(), minlength=q)
            assert (in_degrees == graph.n).all()


def test_has_arc_matches_connection():
    field = build_field(5, 2)
    graph = build_graph(field, 8)
    for v in range(field.q):
        assert has_arc(graph, 0, v) == (v in set(graph.connection))
    # translation invariance
    assert has_arc(graph, 7, index_add(field, 7, int(graph.connection[1])))


def test_distance_profile_is_vertex_independent():
    field = build_field(5, 2)
    for k in (2, 4, 8):
        graph = build_graph(field, k)
        base = np.bincount(bfs_distances(field, graph.connection, root=0))
        for root in (1, 7, 24):
            profile = np.bincount(bfs_distances(field, graph.connection, root=root))
            assert (profile == base).all()


def test_components_examples():
    dec = components(build_graph(build_field(5, 2), 6))
    assert (dec.count, dec.component_k, dec.component_q) == (5, 1, 5)  # five K_5
    dec = components(build_graph(build_field(7, 1), 1))
    assert dec.count == 1
    dec = components(build_graph(build_field(2, 8), 51))
    assert (dec.count, dec.component_k, dec.component_q) == (16, 3, 16)


def test_components_bfs_count_small_sweep():
    for q in (9, 16, 25, 27, 49, 81):
        p, m = prime_power(q)
        field = build_field(p, m)
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            dec = components(graph)
            assert dec == _traversed_components(graph)
            # the order of p modulo n by direct search over every exponent, not only the divisors of m
            assert dec.a == next(e for e in range(1, graph.n + 1) if pow(p, e, graph.n) == 1 % graph.n)
            assert dec.count * dec.component_q == q
            # explicit weak-component count: one vertex-level BFS per unlabelled vertex
            labelled = np.zeros(q, dtype=bool)
            bfs_count = 0
            for start in range(q):
                if not labelled[start]:
                    labelled |= bfs_distances(field, symmetric_connection(graph), start) >= 0
                    bfs_count += 1
            assert dec.count == bfs_count, (q, k)


def _vertex_oracle(field, graph):
    """(component count, period, g, w) from vertex-level BFS over all q vertices."""
    dist = bfs_distances(field, graph.connection)
    reached = np.nonzero(dist >= 0)[0]
    conn = np.asarray(graph.connection, dtype=np.int64)
    cycle_gcd = 0
    for chunk in np.array_split(reached, max(1, reached.size * graph.n // 50_000)):
        heads = add_outer(field, chunk, conn)
        cycle_gcd = math.gcd(cycle_gcd, int(np.gcd.reduce(
            np.abs(dist[chunk][:, None] + 1 - dist[heads]).ravel())))
    g = int(dist.max()) if reached.size == field.q else None
    if graph.directed:
        signed = bfs_distances(field, symmetric_connection(graph))
        w = None if (signed < 0).any() else int(signed.max())
    else:
        w = g
    return field.q // reached.size, cycle_gcd, g, w


ORACLE_FIELDS = [q for q in range(2, ORACLE_SIZE_LIMIT + 1) if prime_power(q) is not None]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS).flatmap(lambda q: st.tuples(st.just(q), st.sampled_from(divisors(q - 1)))))
def test_report_row_agrees_with_vertex_bfs_and_dense_eigensolver(qk):
    # the report's closed forms against the oracles: components, period, g and w by vertex-level
    # BFS over the k-th powers and their negatives, mu and nature by a dense eigensolver
    q, k = qk
    row = next(row for row in build_report_rows(q) if row.k == k)
    field = build_field(*prime_power(q))
    graph = build_graph(field, k)
    assert (row.components, row.period, row.g, row.w) == _vertex_oracle(field, graph), (q, k)
    mu, nature = dense_mu_and_nature(graph)
    assert (row.mu, row.nature) == (mu, nature.render()), (q, k)


def test_quotient_matches_vertex_bfs_sweep():
    # every k on every q <= 343, plus q = 729 and 1024
    qs = [q for q in range(2, 344) if prime_power(q) is not None] + [729, 1024]
    for q in qs:
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            traversed = _traversed_components(graph)
            oracle = _vertex_oracle(field, graph)
            wres = waring_result(field, k)
            quotient = (traversed.count, period(graph), wres.g, wres.w)
            assert quotient == oracle, (q, k)
            assert traversed == components(graph), (q, k)
            # verify's period off the arcs, and w off the signed steps
            signed = signed_traversal(graph)
            signed_w = None if (signed < 0).any() else int(signed.max())
            assert (_traversed_period(graph), signed_w) == (oracle[1], oracle[3]), (q, k)
            if graph.directed:  # -1 is in class k/2, so the signed classes mod k/2 are those of GP(k/2, q)
                half = build_graph(field, k // 2)
                assert signed.tolist() == np.tile(quotient_bfs(half), 2).tolist(), (q, k)
                # and the quotient arcs of GP(k, q) folded mod k/2 are those of GP(k/2, q), vertex 0 kept
                arcs = verify._quotient_arcs(graph)
                assert np.array_equal(np.where(arcs < 0, -1, arcs % half.k), verify._quotient_arcs(half)), (q, k)


def test_quotient_bfs_shape():
    graph = build_graph(build_field(7, 1), 6)  # directed 7-cycle 0 -> 1 -> ... -> 6 -> 0
    dist = quotient_bfs(graph)
    assert dist.shape == (6,)  # six singleton classes; vertex 0 has no slot
    assert sorted(dist) == list(range(1, 7))
    signed = signed_traversal(graph)
    assert signed.max() == 3  # the undirected 7-cycle


def test_signed_steps_add_the_log_of_minus_one():
    # -1 has log (q - 1)/2 for odd q, and is 1, log 0, for even q: there signing repeats each step
    for (p, m), k in (((5, 2), 8), ((2, 4), 3)):
        field = build_field(p, m)
        steps = quotient_steps(field, build_graph(field, k), False)
        negatives = quotient_steps(field, build_graph(field, k), True)[steps.size:]
        assert negatives.tolist() == [int(field.log[index_neg(field, int(x))]) for x in field.exp[steps]]
    assert negatives.tolist() == steps.tolist()  # GF(16)


def test_stored_traversal_is_shared_and_read_only():
    field = build_field(5, 2)
    directed, undirected = build_graph(field, 8), build_graph(field, 4)
    stored = quotient_bfs(directed)
    assert quotient_bfs(directed) is stored
    assert signed_traversal(directed) is not stored
    # an undirected graph's signed steps reach its classes as its unsigned ones do
    signed = graphs.log_bfs(field.zech, quotient_steps(field, undirected, True), undirected.k)[0]
    assert signed.tolist() == quotient_bfs(undirected).tolist()
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = 7


def test_a_graph_holds_its_facts_and_keeps_each_result_once():
    graph = build_graph(build_field(2399, 1), 2398)  # the directed 2399-cycle
    assert vars(graph) == {"field": graph.field, "k": 2398, "n": 1, "directed": True, "kept": {}}
    kept = [components, classify_structure, spectrum, eigenvalue_count, quotient_bfs]
    first = [read(graph) for read in kept]
    assert all(read(graph) is value for read, value in zip(kept, first))
    # mu = 2399 is an int above 256, which Python does not cache: a second computation
    # would give an equal but distinct object
    assert first[3] == 2399 and len(graph.kept) == len(kept)
    assert set(vars(graph)) == {"field", "k", "n", "directed", "kept"}


def test_a_label_holds_only_its_kind_and_text():
    # the copies, the part and directedness are the facts of components and the graph
    assert [f.name for f in dataclasses.fields(StructureLabel)] == ["kind", "text"]


def _reference_log_bfs(zech, steps, modulus):
    """(dist, parent, step) of a FIFO deque BFS over the logs mod modulus."""
    dist, parent, step = [-1] * modulus, [-1] * modulus, [-1] * modulus
    queue = deque()
    for j, b in enumerate(steps):
        if dist[b % modulus] < 0:
            dist[b % modulus], step[b % modulus] = 1, j
            queue.append(b % modulus)
    while queue:
        a = queue.popleft()
        for j, b in enumerate(steps):
            z = zech[(b - a) % len(zech)]
            if z >= 0 and dist[(a + z) % modulus] < 0:
                v = (a + z) % modulus
                dist[v], parent[v], step[v] = dist[a] + 1, a, j
                queue.append(v)
    return dist, parent, step


@pytest.fixture(scope="module")
def quotient_oracle_cases():
    # every k on every q <= 343, unsigned and, where directed, signed: the
    # class distances read off the vertex-level BFS, and the deque's FIFO parents
    cases = []
    for q in range(2, 344):
        if not prime_power(q):
            continue
        field = build_field(*prime_power(q))
        zech = field.zech.tolist()
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            for signed in (False, True) if graph.directed else (False,):
                vertex = bfs_distances(field, symmetric_connection(graph) if signed else graph.connection)
                steps = quotient_steps(field, graph, signed)
                reference = _reference_log_bfs(zech, steps.tolist(), graph.k)
                cases.append((field, graph, signed, vertex[field.exp[:graph.k]], steps, reference))
    return cases


def test_quotient_traversal_matches_vertex_bfs_in_every_kernel_mode(kernel_mode, quotient_oracle_cases):
    for field, graph, signed, by_vertex, steps, reference in quotient_oracle_cases:
        got = graphs.log_bfs(field.zech, steps, graph.k)
        # unsigned, the kept function itself, run afresh in each kernel mode
        dist = got[0] if signed else quotient_bfs.__wrapped__(graph)
        assert dist.tolist() == by_vertex.tolist(), (field.q, graph.k, signed)
        # one row's sums repeat mod k, so each block must keep the first of each class
        assert [a.tolist() for a in got] == list(reference), (field.q, graph.k, signed)


def test_traversal_expands_no_level_once_every_class_is_reached(monkeypatch):
    monkeypatch.setattr(graphs, "_PYTHON_LEVEL_ARCS", 0)  # every level in numpy, one call each
    expanded = []
    kernel = graphs._numpy_level
    monkeypatch.setattr(graphs, "_numpy_level", lambda *args: expanded.append(1) or kernel(*args))
    field = build_field(7, 4)
    for k in divisors(2400):
        expanded.clear()
        dist = quotient_bfs(build_graph(field, k))
        # expanding levels 1, ..., g - 1 reaches every class of a connected graph; a
        # disconnected one expands its last level too, and finds nothing
        assert len(expanded) == dist.max() - (dist >= 0).all(), k
    monkeypatch.undo()
    # the Python loop stops inside a level, at the arc that reaches the last class: GP(2, 343)
    # reaches class 0 on level 1, and level 2 walks its 171 arcs only up to the first into class 1
    reads = []

    class CountedZech:  # the loop reads zech once per arc
        def __init__(self, zech):
            self.zech = zech

        def __getitem__(self, i):
            reads.append(i)
            return self.zech[i]

    field = build_field(7, 3)
    # the loop takes its tables as memoryviews; the view of zech counts its reads
    monkeypatch.setattr(graphs, "memoryview", lambda table: CountedZech(memoryview(table))
                        if table is field.zech else memoryview(table), raising=False)
    assert quotient_bfs(build_graph(field, 2)).tolist() == [1, 2]
    steps = range(0, 342, 2)  # 1 + omega^b = omega^zech[b], in class 1 when zech[b] is odd
    first = next(j for j, b in enumerate(steps) if field.zech[b] >= 0 and field.zech[b] % 2 == 1)
    assert len(reads) == 1 + first < len(steps)


def test_numpy_level_stops_at_the_block_that_reaches_the_last_class(monkeypatch):
    monkeypatch.setattr(graphs, "_PYTHON_LEVEL_ARCS", 0)  # every level in numpy, one call each
    monkeypatch.setattr(graphs, "_BLOCK_ARCS", 16)  # as KERNEL_MODES["tiny_blocks"]
    levels, blocks = [], []
    kernel, first_arrivals = graphs._numpy_level, graphs._first_arrivals
    monkeypatch.setattr(graphs, "_numpy_level",
                        lambda frontier, *args: levels.append(frontier.tolist()) or blocks.clear()
                        or kernel(frontier, *args))
    # level 1 takes one call, before any kernel, and then each block one
    monkeypatch.setattr(graphs, "_first_arrivals", lambda *args: blocks.append(1) or first_arrivals(*args))
    field = build_field(7, 4)
    stopped = []
    for k in divisors(2400):
        levels.clear()
        dist, parent, _ = graphs.log_bfs(field.zech, np.arange(0, 2400, k), k)
        if not levels or (dist < 0).any():  # reached on level 1, or disconnected
            continue
        # the last call expands level g - 1 in blocks of `rows` rows, and the last class
        # found has the latest parent among the classes on level g
        frontier, rows = levels[-1], max(1, 16 // (2400 // k))
        last = max(frontier.index(a) for a in parent[dist == dist.max()].tolist()) // rows
        assert len(blocks) == last + 1, k
        if last + 1 < math.ceil(len(frontier) / rows):
            stopped.append(k)
    # 14 of the 25 connected graphs find their last class before the last row of level g - 1
    assert stopped == [16, 24, 30, 32, 40, 48, 60, 75, 80, 96, 120, 160, 240, 480]


def test_quotient_traversal_memory_over_every_k_of_gf_2_16():
    # measured tracemalloc peak (numpy 2.4): 1.6 MB, at k = 1, where one row
    # of 65,535 arcs expands in numpy; the bound leaves about 25 % headroom.
    # The sorted-arc traversal this kernel replaced peaked at 8.0 MB here
    field = build_field(2, 16)
    field.zech  # built once per field, before the traversals are measured
    peaks = []
    for k in divisors(field.q - 1):
        graph = build_graph(field, k)
        tracemalloc.start()
        try:
            quotient_bfs(graph)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(peaks) == 16  # 65535 = 3 * 5 * 17 * 257
    assert max(peaks) < 2.0 * 2 ** 20


def _count_traversals(monkeypatch) -> Counter:
    """Counts runs of the BFS kernel mod k, not reads of the stored result, by (k, signed).

    quotient_bfs runs graphs.log_bfs over the n = (q - 1)/k k-th powers; a signed run takes 2n steps.
    """
    runs = Counter()
    kernel = graphs.log_bfs
    monkeypatch.setattr(graphs, "log_bfs", lambda zech, steps, k: runs.update([(k, steps.size > zech.size // k)])
                        or kernel(zech, steps, k))
    return runs


def test_verify_traverses_each_graph_once(monkeypatch):
    runs = _count_traversals(monkeypatch)
    assert all(o.failed == 0 for o in verify_field(25))
    # the certificates of g and w read the kept traversals: the directed GP(8, 25) and
    # the disconnected GP(24, 25) are traversed once, unsigned, as every other graph
    assert runs == Counter((k, False) for k in divisors(24))
    assert sum(runs.values()) == 8
    assert not hasattr(verify, "log_bfs")


def test_report_traverses_each_connected_generic_graph_once_and_never_signed(monkeypatch):
    runs = _count_traversals(monkeypatch)
    # a labelled connected graph has g = mu - 1 and a disconnected one no g, by components
    # alone; w of a directed graph is the g of its row k/2. Of the 10 connected graphs over
    # GF(729) 5 are generic, and of the 26 over GF(2401) 19
    for q, traversed in ((729, 5), (2401, 19)):
        runs.clear()
        rows = build_report_rows(q)
        generic = [row for row in rows if row.components == 1 and row.structure == "generic"]
        assert runs == Counter((row.k, False) for row in generic)
        assert len(runs) == traversed, q
    assert len(rows) == 36
    directed = [row for row in rows if row.directed]
    assert len(directed) == 6
    # 343 directed Paley graphs on 7 vertices (k = 800) and 343 directed 7-cycles (k = 2400)
    assert [row.k for row in directed if row.g is None] == [800, 2400]
    runs.clear()
    rows = build_report_rows(2399)  # prime, 2398 = 2 * 11 * 109
    # K(2399), the directed Paley graph and the 2399-cycles GP(1199, 2399) and GP(2398, 2399) are labelled
    assert runs == Counter((row.k, False) for row in rows if row.k not in (1, 2, 1199, 2398))
    assert [(row.k, row.mu, row.g) for row in rows if row.k in (1, 2, 1199, 2398)] \
        == [(1, 2, 1), (2, 3, 2), (1199, 1200, 1199), (2398, 2399, 2398)]
    # every directed graph is connected, and its w is the g of row k/2
    assert [(row.k, row.w) for row in rows if row.directed] == [(2, 1), (22, 2), (218, 4), (2398, 1199)]


def test_a_second_report_prints_the_same_bytes_and_traverses_nothing(monkeypatch, capsys):
    # every kept result stays on the cached field's own graphs, so the second run reads them
    runs = _count_traversals(monkeypatch)
    assert cli.main(["report", "--q", "2401"]) == 0
    first, traversed = capsys.readouterr().out, sum(runs.values())
    assert traversed == 19
    assert cli.main(["report", "--q", "2401"]) == 0
    assert capsys.readouterr().out == first
    assert sum(runs.values()) == traversed


def test_waring_command_runs_no_signed_traversal(monkeypatch, capsys):
    runs = _count_traversals(monkeypatch)
    assert cli.main(["waring", "--q", "25", "--k", "8"]) == 0
    assert capsys.readouterr().out == "q=25 k=8: g=4 w=3\n"
    # w of the directed GP(8, 25) is g(4, 25)
    assert runs == Counter([(8, False), (4, False)])


def test_symmetrize():
    field = build_field(5, 2)
    g8 = build_graph(field, 8)
    half = symmetrize(g8)
    assert half.k == 4 and not half.directed
    assert symmetrize(half) is half  # idempotent
    g2 = build_graph(build_field(13, 1), 2)
    assert symmetrize(g2) is g2  # 13 = 1 mod 4, already undirected
    # symmetrizing the full directed cycle graph gives the half-power graph
    for q in (5, 7, 27):
        field = build_field(*prime_power(q))
        assert symmetrize(build_graph(field, q - 1)).k == (q - 1) // 2


def test_symmetric_connection_equals_half_power_residues():
    field = build_field(3, 5)
    for k in (2, 22, 242):
        graph = build_graph(field, k)
        assert graph.directed
        assert set(symmetric_connection(graph)) == set(build_graph(field, k // 2).connection)


def test_period_of_directed_paley_7():
    field = build_field(7, 1)
    graph = build_graph(field, 2)
    # explicit directed cycles of lengths 3, 4, 6 and 7 (squares mod 7 are 1, 2, 4)
    cycles = [(0, 4, 6), (0, 4, 5, 6), (0, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 6)]
    for cycle in cycles:
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert has_arc(graph, u, v)
    assert math.gcd(*[len(c) for c in cycles]) == 1
    assert period(graph) == 1


def test_period_examples():
    assert period(build_graph(build_field(5, 1), 4)) == 5   # directed 5-cycle
    assert period(build_graph(build_field(2, 8), 255)) == 2  # disjoint K_2, arc pairs
    assert period(build_graph(build_field(5, 2), 24)) == 5   # five directed 5-cycles
    assert period(build_graph(build_field(5, 2), 8)) == 1
    assert period(build_graph(build_field(2, 2), 1)) == 1    # K_4 has triangles
    assert period(build_graph(build_field(2, 1), 1)) == 2    # single K_2


def test_period_matches_closed_walk_oracle():
    # independent oracle: gcd of all closed-walk lengths, read off adjacency
    # powers (every closed walk decomposes into directed cycles and back)
    for q in (3, 5, 7, 9, 11, 13, 25, 27):
        field = build_field(*prime_power(q))
        vertices = np.arange(q, dtype=np.int64)
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            conn = np.asarray(symmetric_connection(graph) if not graph.directed
                              else graph.connection, dtype=np.int64)
            adj = np.zeros((q, q), dtype=np.int64)
            adj[vertices[:, None], add_outer(field, vertices, conn)] = 1
            power = np.eye(q, dtype=np.int64)
            lengths = []
            for length in range(1, 2 * q + 1):
                power = np.clip(power @ adj, 0, 1)  # boolean reachability product
                if np.trace(power) > 0:
                    lengths.append(length)
            assert math.gcd(*lengths) == period(graph) == _traversed_period(graph), (q, k)


def test_classification():
    cases = [
        (5, 2, 1, "K(25)"),
        (5, 2, 2, "P(25)"),
        (5, 2, 3, "H(2,5)=L(5,5)"),
        (5, 2, 6, "5xK(5)"),
        (5, 2, 12, "5xP(5)"),
        (5, 2, 24, "5xdC(5)"),
        (7, 2, 16, "7xdP(7)"),
        (7, 2, 24, "7xC(7)"),
        (3, 4, 4, "semiprimitive"),
        (3, 4, 5, "H(2,9)=L(9,9)"),
        (3, 4, 10, "9xK(9)"),
        (2, 8, 3, "semiprimitive"),
        (2, 8, 51, "16xGP(3,16)"),
        (2, 8, 255, "128xK(2)"),
        (5, 2, 8, "generic"),
        (2, 8, 15, "generic"),
    ]
    for p, m, k, expected in cases:
        graph = build_graph(build_field(p, m), k)
        assert classify_structure(graph).render() == expected, (p, m, k)


def test_classification_full_sweep_is_consistent():
    kinds = {"complete-union", "paley-union", "cycle-union", "hamming", "semiprimitive", "generic"}
    assert kinds == {value for name, value in vars(graphs).items() if name.isupper() and isinstance(value, str)}
    seen = set()
    for q in range(2, 344):
        pm = prime_power(q)
        if pm is None:
            continue
        field = build_field(*pm)
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            label = classify_structure(graph)
            assert label.kind in kinds
            seen.add(label.kind)
            assert label.render() == label.text
            copies, cross, _ = label.text.partition("x")
            assert (int(copies) if cross else 1) == components(graph).count, label.text
            if label.kind in ("hamming", "semiprimitive"):
                assert components(graph).count == 1
    assert seen == kinds  # no label kind is dead


def test_hamming_label_requires_connectivity():
    # GP(10, 81) satisfies the Hamming parameter shape for b = 4 but splits into
    # nine K_9 blocks, so it must label as a complete-graph union instead.
    graph = build_graph(build_field(3, 4), 10)
    label = classify_structure(graph)
    assert (label.kind, label.text) == ("complete-union", "9xK(9)")
