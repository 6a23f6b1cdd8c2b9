import random
import re
import tracemalloc
from collections import deque

import pytest

from gpgraphs import (
    FieldElement,
    FiniteField,
    NotPrime,
    NumberDoesNotExist,
    build_field,
    build_graph,
    components,
    srg_parameters,
    waring_result,
    witness,
)
from gpgraphs import graphs
from gpgraphs.graphs import quotient_bfs
from gpgraphs.numbertheory import divisors, prime_power
from oracles import (Element, bfs_distances, discrete_log, index_add, index_neg, is_primitive_divisor,
                     signed_traversal, symmetrize, verify_reduction)


def test_g_values():
    field = build_field(5, 2)
    assert waring_result(field, 4).g == 3
    assert waring_result(field, 8).g == 4
    assert waring_result(build_field(2, 8), 15).g == 3
    assert waring_result(build_field(7, 2), 12).g == 6


def test_w_values():
    assert waring_result(build_field(5, 2), 8).w == 3
    assert waring_result(build_field(5, 1), 4).w == 2
    assert waring_result(build_field(5, 1), 4).g == 4  # the signed number can be smaller
    assert waring_result(build_field(3, 1), 2).w == 1  # 2 = -1 in GF(3)
    field = build_field(3, 4)
    assert (waring_result(field, 8).g, waring_result(field, 16).g, waring_result(field, 16).w) \
        == (3, 4, 3)


def test_absent_when_disconnected():
    field = build_field(5, 2)
    assert waring_result(field, 6).g is None and waring_result(field, 6).w is None
    result = waring_result(field, 6)
    assert not result.exists and "5 components" in result.reason_if_absent
    for k in (17, 51, 85, 255):
        assert not waring_result(build_field(2, 8), k).exists


def test_existence_iff_connected_sweep():
    for q in (9, 25, 27, 49, 64, 81):
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            connected = components(build_graph(field, k)).count == 1
            assert (waring_result(field, k).g is not None) == connected


def test_g_of_first_power_and_binary_equality():
    for q in (3, 4, 25, 32, 81):
        assert waring_result(build_field(*prime_power(q)), 1).g == 1
    for m in (2, 3, 4, 5, 6):
        field = build_field(2, m)
        for k in divisors(2 ** m - 1):
            g = waring_result(field, k).g
            if g is not None:
                assert waring_result(field, k).w == g


def test_strongly_regular_graphs_have_diameter_two():
    for q, k in ((81, 4), (81, 5), (256, 3), (256, 5), (25, 2), (49, 4)):
        field = build_field(*prime_power(q))
        assert srg_parameters(build_graph(field, k)) is not None
        assert waring_result(field, k).g == 2


def test_directed_eccentricity_equals_diameter_small():
    # diameter over all source vertices matches the eccentricity of 0
    for q in (5, 7, 9, 13, 16, 25, 27, 49):
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            dist0 = bfs_distances(field, graph.connection, root=0)
            if (dist0 < 0).any():
                continue
            ecc0 = int(dist0.max())
            for root in range(1, q):
                dist = bfs_distances(field, graph.connection, root=root)
                assert int(dist.max()) == ecc0


def test_witness_signed_pair():
    field = build_field(5, 1)
    terms = witness(field, 4, field.element(3), signed=True)
    assert len(terms) == 2
    total = Element.zero(field)
    for sign, x in terms:
        power = Element.of(x) ** 4
        total = total + (power if sign > 0 else -power)
    assert total == field.element(3)


def test_witness_zero_target():
    assert witness(build_field(5, 1), 4, 0, signed=True) == []


def test_witness_in_gf25_model():
    field = FiniteField(5, 2, (3, 2, 1))  # x^2 + 2x + 3
    beta = Element.from_coeffs(field, (1, 3))  # 3a + 1
    signed_terms = witness(field, 8, beta, signed=True)
    assert len(signed_terms) == 3
    unsigned_terms = witness(field, 8, beta, signed=False)
    assert len(unsigned_terms) == 4
    for terms, use_sign in ((signed_terms, True), (unsigned_terms, False)):
        total = Element.zero(field)
        for sign, x in terms:
            assert use_sign or sign == 1
            power = Element.of(x) ** 8
            total = total + (power if sign > 0 else -power)
        assert total == beta


def test_witness_lengths_cover_the_diameters():
    field = build_field(5, 2)
    g_lengths = [len(witness(field, 8, t, signed=False)) for t in range(field.q)]
    w_lengths = [len(witness(field, 8, t, signed=True)) for t in range(field.q)]
    assert max(g_lengths) == waring_result(field, 8).g == 4
    assert max(w_lengths) == waring_result(field, 8).w == 3


def test_witness_unreachable_target():
    field = build_field(5, 2)
    # GP(6, 25) splits into five K_5 blocks; the block of 0 is the prime
    # subfield, so the generator a is unreachable
    assert witness(field, 6, field.element(3), signed=False) is not None
    with pytest.raises(NumberDoesNotExist):
        witness(field, 6, field.element(5), signed=False)  # a, of coefficients (0, 1)


def test_primitive_divisor():
    assert is_primitive_divisor(4, 5, 1)
    assert not is_primitive_divisor(4, 5, 2)  # 4 | 5^1 - 1 already
    assert is_primitive_divisor(8, 5, 2)
    assert not is_primitive_divisor(5, 7, 2)  # 5 does not divide 48


def test_reduction_formula_examples():
    assert verify_reduction(5, 1, 2, 4)   # w(3,25) = 2*w(1,5)
    assert verify_reduction(7, 1, 2, 6)   # w(4,49) = 2*w(1,7)
    assert verify_reduction(3, 1, 1, 2)   # b = 1 identity
    assert verify_reduction(2, 2, 1, 3)


def test_reduction_formula_preconditions():
    with pytest.raises(ValueError, match=re.escape("c = 4 is not a primitive divisor of 5^2 - 1 = 24")):
        verify_reduction(5, 2, 2, 4)      # 4 divides 5 - 1 already
    with pytest.raises(ValueError, match=re.escape("bc = 12 is not a primitive divisor of 5^3 - 1 = 124")):
        verify_reduction(5, 1, 3, 4)      # bc = 12 divides no new level: 12 | 5^3-1=124? no
    with pytest.raises(NotPrime):
        verify_reduction(6, 1, 2, 5)


def test_w_agrees_between_diameter_and_reduction_sweep():
    # w against the vertex-level BFS diameter of the symmetrized graph and
    # against the reduction to g: g(k, q) undirected, g(k/2, q) directed
    for q in (9, 25, 27, 49):
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            g = waring_result(field, k).g
            if g is not None:
                w = waring_result(field, k).w
                assert w <= g
                graph = build_graph(field, k)
                dist = bfs_distances(field, symmetrize(graph).connection)
                assert w == int(dist.max())
                assert w == (waring_result(field, graph.k // 2).g if graph.directed else g), (q, k)


def test_waring_result_memory_is_linear_in_q():
    # vertex-level BFS for GP(1, 8192) needs a q x n x m array (about 3.5 GB)
    field = build_field(2, 13)
    tracemalloc.start()
    try:
        result = waring_result(field, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.g, result.w) == (1, 1)
    assert peak < 16 * 2 ** 20


def _sumset_oracle(field, k, signed):
    # least s with every element a sum of s (possibly signed, possibly zero)
    # k-th powers, by growing sumsets; independent of any graph traversal
    powers = {(x ** k).index for x in Element.elements(field)}
    if signed:
        powers |= {index_neg(field, i) for i in powers}
    reachable = {0}
    for s in range(1, field.q + 1):
        reachable = {index_add(field, a, b) for a in reachable for b in powers}
        if len(reachable) == field.q:
            return s
    return None


def test_waring_numbers_match_sumset_oracle():
    for q in (3, 5, 7, 9, 13, 16, 25, 27):
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            assert waring_result(field, k).g == _sumset_oracle(field, k, signed=False), (q, k)
            assert waring_result(field, k).w == _sumset_oracle(field, k, signed=True), (q, k)


def _reference_witness(field, k, target, signed):
    # the vertex-level deque BFS, one index_add per arc: the parent of a vertex
    # is the first (u, r) in FIFO order, with r in the insertion order of steps
    graph = build_graph(field, k)
    target_idx = field.element(target).index
    steps = {r: 1 for r in graph.connection.tolist()}
    if signed:
        for r in graph.connection.tolist():
            steps.setdefault(index_neg(field, r), -1)
    parents = {0: (-1, 0)}
    queue = deque([0])
    while queue and target_idx not in parents:
        u = queue.popleft()
        for r in steps:
            v = index_add(field, u, r)
            if v not in parents:
                parents[v] = (u, r)
                queue.append(v)
    if target_idx not in parents:
        name = "w" if signed else "g"
        raise NumberDoesNotExist(f"{name}({graph.k},{field.q}) does not exist: "
                                 f"target {target_idx} is unreachable")
    out = []
    v = target_idx
    while v != 0:
        u, r = parents[v]
        sign = steps[r]
        e = discrete_log(field, r if sign == 1 else index_neg(field, r))
        out.append((sign, FieldElement(field, int(field.exp[e // graph.k]))))
        v = u
    out.reverse()
    return out


def _terms_or_message(fn, field, k, target, signed):
    try:
        return [(sign, x.index) for sign, x in fn(field, k, target, signed)]
    except NumberDoesNotExist as exc:
        return str(exc)


def _oracle_targets(field, graph, signed):
    # a seeded target, a vertex of the farthest class, and an unreachable one if any
    dist = signed_traversal(graph) if signed else quotient_bfs(graph)
    targets = {random.Random(field.q * 1009 + graph.k).randrange(1, field.q)}
    targets.add(int(field.exp[int(dist.argmax())]))
    unreached = (dist < 0).nonzero()[0]
    if unreached.size:
        targets.add(int(field.exp[int(unreached[0])]))
    return sorted(targets)


@pytest.fixture(scope="module")
def witness_oracle_cases():
    cases = []
    for q in range(2, 257):
        if not prime_power(q):
            continue
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            for signed in (False, True):
                for t in _oracle_targets(field, graph, signed):
                    expected = _terms_or_message(_reference_witness, field, k, t, signed)
                    cases.append((field, graph, t, signed, expected))
    return cases


def test_witness_matches_deque_bfs_exactly(kernel_mode, witness_oracle_cases):
    assert any(isinstance(expected, str) for *_, expected in witness_oracle_cases)
    for field, graph, t, signed, expected in witness_oracle_cases:
        got = _terms_or_message(witness, field, graph.k, t, signed)
        assert got == expected, (field.q, graph.k, t, signed)


@pytest.mark.parametrize("k, expected", [
    # GP(85, 1021) has 12 steps: level 1 has 144 arcs and runs in the Python
    # loop, which hands the larger levels after it to numpy
    (85, ["_python_levels", "_numpy_level", "_numpy_level", "_numpy_level",
          "_numpy_level", "_numpy_level"]),
    # GP(1020, 1021) is a directed cycle: every level has one arc
    (1020, ["_python_levels"]),
])
def test_witness_kernel_follows_level_size(k, expected, monkeypatch):
    field = build_field(1021, 1)
    target = int(field.exp[int(quotient_bfs(build_graph(field, k)).argmax())])
    calls = []  # of the witness search only, not of the traversal that chose its target
    for name in ("_python_levels", "_numpy_level"):
        kernel = getattr(graphs, name)
        monkeypatch.setattr(graphs, name,
                            lambda *args, kernel=kernel, name=name: calls.append(name) or kernel(*args))
    witness(field, k, target, signed=False)
    assert calls == expected


def test_undirected_graphs_have_one_witness_for_both_signs(witness_oracle_cases):
    # the signed steps of an undirected graph are its unsigned ones, so the
    # CLI prints its g-witness as its w-witness
    unsigned = {(field.q, graph.k, t): expected
                for field, graph, t, signed, expected in witness_oracle_cases if not signed}
    compared = 0
    for field, graph, t, signed, expected in witness_oracle_cases:
        if signed and not graph.directed and not isinstance(expected, str):
            assert expected == unsigned[field.q, graph.k, t]
            compared += 1
    assert compared > 500


@pytest.mark.parametrize("p, m, k, bound_mb", [
    # GP(65520, 65521) is a directed 65521-cycle: a path of 65,520 terms
    # through the Python loop, one vertex per level. GP(17, 2^16) has 3,855
    # steps, so level 1 expands in numpy blocks. Measured tracemalloc peaks
    # (numpy 2.4): 11.1 MB and 5.9 MB; the bounds were set with about 25 %
    # headroom over the 10.3 MB and 6.6 MB of an earlier kernel.
    (65521, 1, 65520, 13),
    (2, 16, 17, 8),
])
def test_witness_at_the_farthest_target_matches_deque_bfs_in_bounded_memory(p, m, k, bound_mb):
    field = build_field(p, m)
    graph = build_graph(field, k)
    dist = quotient_bfs(graph)
    target = int(field.exp[int(dist.argmax())])
    if graph.n == 1:  # the deque's only path on a cycle: target copies of 1 = 1^k
        expected = [(1, 1)] * target
    else:
        expected = _terms_or_message(_reference_witness, field, k, target, False)
    assert len(expected) == int(dist.max())
    tracemalloc.start()
    try:
        terms = witness(field, k, target, signed=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(sign, x.index) for sign, x in terms] == expected
    assert peak < bound_mb * 2 ** 20


def test_witness_law_survives_python_O(run_optimized):
    # a step that is not a k-th power must still be caught when asserts are stripped
    proc = run_optimized("""
        import sys

        import numpy as np

        from gpgraphs import InvariantViolated, build_field, waring, witness

        honest_build = waring.build_graph

        def corrupted_build(field, k):
            graph = honest_build(field, k)
            graph.connection = np.array([1, 2, 3])  # 3 is not a square mod 7
            return graph

        waring.build_graph = corrupted_build
        try:
            witness(build_field(7, 1), 2, 3, signed=False)
        except InvariantViolated as exc:
            print(exc)
        else:
            sys.exit("a step that is not a k-th power went unnoticed")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "step elements are k-th powers" in proc.stdout
