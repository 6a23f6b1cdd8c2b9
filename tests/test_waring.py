import tracemalloc

import pytest

from gpgraphs import (
    NotPrime,
    NumberDoesNotExist,
    PreconditionViolated,
    bfs_distances,
    build_field,
    build_graph,
    components,
    is_primitive_divisor,
    srg_parameters,
    symmetrize,
    verify_reduction,
    waring_g,
    waring_result,
    waring_w,
    witness,
)
from gpgraphs.numbertheory import divisors, prime_power

F25_MODEL_MODULUS = (3, 2, 1)


def test_g_values():
    field = build_field(5, 2)
    assert waring_g(field, 4) == 3
    assert waring_g(field, 8) == 4
    assert waring_g(build_field(2, 8), 15) == 3
    assert waring_g(build_field(7, 2), 12) == 6


def test_w_values():
    assert waring_w(build_field(5, 2), 8) == 3
    assert waring_w(build_field(5, 1), 4) == 2
    assert waring_g(build_field(5, 1), 4) == 4  # the signed number can be smaller
    assert waring_w(build_field(3, 1), 2) == 1  # 2 = -1 in GF(3)
    field = build_field(3, 4)
    assert (waring_g(field, 8), waring_g(field, 16), waring_w(field, 16)) == (3, 4, 3)


def test_absent_when_disconnected():
    field = build_field(5, 2)
    assert waring_g(field, 6) is None and waring_w(field, 6) is None
    result = waring_result(field, 6)
    assert not result.exists and "5 components" in result.reason_if_absent
    for k in (17, 51, 85, 255):
        assert not waring_result(build_field(2, 8), k).exists


def test_existence_iff_connected_sweep():
    for q in (9, 25, 27, 49, 64, 81):
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            connected = components(build_graph(field, k)).count == 1
            assert (waring_g(field, k) is not None) == connected


def test_g_of_first_power_and_binary_equality():
    for q in (3, 4, 25, 32, 81):
        assert waring_g(build_field(*prime_power(q)), 1) == 1
    for m in (2, 3, 4, 5, 6):
        field = build_field(2, m)
        for k in divisors(2 ** m - 1):
            g = waring_g(field, k)
            if g is not None:
                assert waring_w(field, k) == g


def test_strongly_regular_graphs_have_diameter_two():
    for q, k in ((81, 4), (81, 5), (256, 3), (256, 5), (25, 2), (49, 4)):
        field = build_field(*prime_power(q))
        assert srg_parameters(build_graph(field, k)) is not None
        assert waring_g(field, k) == 2


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
    total = field.zero()
    for sign, x in terms:
        total = total + (x ** 4 if sign > 0 else -(x ** 4))
    assert total == field.element(3)


def test_witness_zero_target():
    assert witness(build_field(5, 1), 4, 0, signed=True) == []


def test_witness_in_gf25_model():
    field = build_field(5, 2, modulus=F25_MODEL_MODULUS)
    beta = field.element((1, 3))  # 3a + 1
    signed_terms = witness(field, 8, beta, signed=True)
    assert len(signed_terms) == 3
    unsigned_terms = witness(field, 8, beta, signed=False)
    assert len(unsigned_terms) == 4
    for terms, use_sign in ((signed_terms, True), (unsigned_terms, False)):
        total = field.zero()
        for sign, x in terms:
            assert use_sign or sign == 1
            total = total + (x ** 8 if sign > 0 else -(x ** 8))
        assert total == beta


def test_witness_lengths_cover_the_diameters():
    field = build_field(5, 2)
    g_lengths = [len(witness(field, 8, t, signed=False)) for t in range(field.q)]
    w_lengths = [len(witness(field, 8, t, signed=True)) for t in range(field.q)]
    assert max(g_lengths) == waring_g(field, 8) == 4
    assert max(w_lengths) == waring_w(field, 8) == 3


def test_witness_unreachable_target():
    field = build_field(5, 2)
    # GP(6, 25) splits into five K_5 blocks; the block of 0 is the prime
    # subfield, so the generator a is unreachable
    assert witness(field, 6, field.element(3), signed=False) is not None
    with pytest.raises(NumberDoesNotExist):
        witness(field, 6, field.element((0, 1)), signed=False)


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
    with pytest.raises(PreconditionViolated):
        verify_reduction(5, 2, 2, 4)      # 4 divides 5 - 1 already
    with pytest.raises(PreconditionViolated):
        verify_reduction(5, 1, 3, 4)      # bc = 12 divides no new level: 12 | 5^3-1=124? no
    with pytest.raises(NotPrime):
        verify_reduction(6, 1, 2, 5)


def test_w_agrees_between_diameter_and_reduction_sweep():
    # w against the vertex-level BFS diameter of the symmetrized graph and
    # against the reduction to g: g(k, q) undirected, g(k/2, q) directed
    for q in (9, 25, 27, 49):
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            g = waring_g(field, k)
            if g is not None:
                w = waring_w(field, k)
                assert w <= g
                graph = build_graph(field, k)
                dist = bfs_distances(field, symmetrize(graph).connection)
                assert w == int(dist.max())
                assert w == (waring_g(field, graph.k // 2) if graph.directed else g), (q, k)


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
    powers = {(x ** k).index for x in field.elements()}
    if signed:
        powers |= {field.index_neg(i) for i in powers}
    reachable = {0}
    for s in range(1, field.q + 1):
        reachable = {field.index_add(a, b) for a in reachable for b in powers}
        if len(reachable) == field.q:
            return s
    return None


def test_waring_numbers_match_sumset_oracle():
    for q in (3, 5, 7, 9, 13, 16, 25, 27):
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            assert waring_g(field, k) == _sumset_oracle(field, k, signed=False), (q, k)
            assert waring_w(field, k) == _sumset_oracle(field, k, signed=True), (q, k)
