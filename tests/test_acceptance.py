"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import functools
import math
import time
from pathlib import Path

from gpgraphs import (
    FiniteField,
    Nature,
    build_field,
    build_graph,
    census,
    classify_structure,
    components,
    nature_for,
    period,
    spectrum,
    waring_result,
)
from gpgraphs.cli import build_report_rows, render_records, render_table
from gpgraphs.graphs import PALEY_UNION
from gpgraphs.numbertheory import divisors, prime_power, v2
from gpgraphs.verify import _traversed_period
from oracles import (
    Cyclotomic,
    bfs_distances,
    has_arc,
    is_primitive_divisor,
    numeric_oracle_check,
    parse_records,
    root_power,
    second_modulus,
    symmetric_connection,
    verify_2re,
    verify_reduction,
)

GOLDEN = Path(__file__).parent / "golden"


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {description}")
        return run
    return wrap


def prime_powers_up_to(bound):
    return [q for q in range(2, bound + 1) if prime_power(q) is not None]


def graphs_over(q):
    field = build_field(*prime_power(q))
    return field, [build_graph(field, k) for k in divisors(q - 1)]


# Values stated in the worked examples for q = 25, 49, 81, 256:
# per k: (nature, g, w, srg parameters or None, structure substring or None)
EXPECTED_Q25 = {
    1: ("integral", 1, 1, None, "K(25)"),
    2: ("integral", 2, 2, (25, 12, 5, 6), "P(25)"),
    3: ("integral", 2, 2, (25, 8, 3, 2), "L(5,5)"),
    4: ("real-nonintegral", 3, 3, None, None),
    6: ("integral", None, None, None, "5xK(5)"),
    8: ("complex", 4, 3, None, None),
    12: ("real-nonintegral", None, None, None, "5xP(5)"),
    24: ("complex", None, None, None, "5xdC(5)"),
}
EXPECTED_Q49 = {
    1: ("integral", 1, 1, None, "K(49)"),
    2: ("integral", 2, 2, (49, 24, 11, 12), "P(49)"),
    3: ("real-nonintegral", 2, 2, None, None),
    4: ("integral", 2, 2, (49, 12, 5, 2), "L(7,7)"),
    6: ("real-nonintegral", 3, 3, None, None),
    8: ("integral", None, None, None, "7xK(7)"),
    12: ("real-nonintegral", 6, 6, None, None),
    16: ("complex", None, None, None, "7xdP(7)"),
    24: ("real-nonintegral", None, None, None, "7xC(7)"),
    48: ("complex", None, None, None, "7xdC(7)"),
}
EXPECTED_Q81 = {
    1: ("integral", 1, 1, None, "K(81)"),
    2: ("integral", 2, 2, (81, 40, 19, 20), "P(81)"),
    4: ("integral", 2, 2, (81, 20, 1, 6), "semiprimitive"),
    5: ("integral", 2, 2, (81, 16, 7, 2), "L(9,9)"),
    8: ("integral", 3, 3, None, None),
    10: ("integral", None, None, None, "9xK(9)"),
    16: ("complex", 4, 3, None, None),
    20: ("integral", None, None, None, "9xP(9)"),
    40: ("integral", None, None, None, "27xK(3)"),
    80: ("complex", None, None, None, "27xdP(3)"),
}
EXPECTED_Q256 = {
    1: ("integral", 1, 1, None, "K(256)"),
    3: ("integral", 2, 2, (256, 85, 24, 30), "semiprimitive"),
    5: ("integral", 2, 2, (256, 51, 2, 12), "semiprimitive"),
    15: ("integral", 3, 3, None, None),
    17: ("integral", None, None, None, "16xK(16)"),
    51: ("integral", None, None, None, "16xGP(3,16)"),
    85: ("integral", None, None, None, "64xK(4)"),
    255: ("integral", None, None, None, "128xK(2)"),
}


@criterion(1, "worked-example reports for q = 25, 49, 81, 256 (golden, byte-exact)")
def test_criterion_01_golden_reports():
    start = time.perf_counter()
    for q, expected in ((25, EXPECTED_Q25), (49, EXPECTED_Q49),
                        (81, EXPECTED_Q81), (256, EXPECTED_Q256)):
        rows = build_report_rows(q)
        assert render_table(rows) == (GOLDEN / f"report_q{q}.txt").read_text()
        records_text = render_records(rows)
        assert records_text == (GOLDEN / f"report_q{q}.jsonl").read_text()
        assert parse_records(records_text) == rows
        assert sorted(expected) == [row.k for row in rows]
        for row in rows:
            nature, g, w, srg, structure = expected[row.k]
            assert row.nature == nature, (q, row.k)
            assert row.g == g and row.w == w, (q, row.k)
            if srg is not None:
                assert row.srg == srg, (q, row.k)
            if structure is not None:
                assert structure in row.structure, (q, row.k)
    assert time.perf_counter() - start < 30.0


@criterion(2, "exact spectrum identities for every (k, q) with q <= 343")
def test_criterion_02_spectrum_exactness():
    start = time.perf_counter()
    graph_count = 0
    for q in prime_powers_up_to(343):
        field, graphs = graphs_over(q)
        p = field.p
        for graph in graphs:
            report = spectrum(graph)
            assert sum(m for _, m in report.eigenvalues) == q
            first = Cyclotomic.zero(p)
            second = Cyclotomic.zero(p)
            for value, mult in report.eigenvalues:
                value = Cyclotomic.of(value)
                first = first + value * mult
                second = second + value * value * mult
            assert first.is_zero()
            expected = 0 if graph.directed else q * graph.n
            assert second == Cyclotomic.from_int(p, expected)
            assert report.principal_multiplicity == components(graph).count
            assert report.nature is nature_for(p, field.m, graph.k)
            graph_count += 1
    assert graph_count >= 250
    assert time.perf_counter() - start < 60.0


@criterion(3, "GP(38, 343) has the exact ten-eigenvalue multiset")
def test_criterion_03_ten_eigenvalues():
    h = root_power(7, 1) + root_power(7, 2) + root_power(7, 4)  # (-1 + i*sqrt7)/2
    hb = h.conjugate()
    expected = {
        Cyclotomic.from_int(7, 9): 1,
        Cyclotomic.from_int(7, 2): 54,
        h * 2 + 3: 27, hb * 2 + 3: 27,
        h + 6: 9, hb + 6: 9,
        h * 3: 27, hb * 3: 27,
        h - 1: 81, hb - 1: 81,
    }
    report = spectrum(build_graph(build_field(7, 3), 38))
    assert dict(report.eigenvalues) == expected
    assert report.mu == 10


@criterion(4, "doubled real parts: symmetrized spectra for all directed (k, q), q <= 343 and q = 243")
def test_criterion_04_two_re():
    checked = 0
    for q in prime_powers_up_to(343):
        field, graphs = graphs_over(q)
        for graph in graphs:
            if graph.directed:
                assert verify_2re(field, graph.k), (q, graph.k)
                checked += 1
    field = build_field(3, 5)
    for k in (2, 22, 242):
        assert verify_2re(field, k)
    assert checked >= 100


@criterion(5, "period law: cycle-gcd is 1 except p for the full-power graph, all odd q <= 343")
def test_criterion_05_period_law():
    for q in prime_powers_up_to(343):
        if q % 2 == 0:
            continue
        field, graphs = graphs_over(q)
        for graph in graphs:
            if not graph.directed:
                continue
            expected = field.p if graph.k == q - 1 else 1
            assert period(graph) == expected == _traversed_period(graph), (q, graph.k)
    # the smallest directed quadratic-residue graph carries cycles of length 3, 4, 6, 7
    graph = build_graph(build_field(7, 1), 2)
    cycles = [(0, 4, 6), (0, 4, 5, 6), (0, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 6)]
    for cycle in cycles:
        assert all(has_arc(graph, u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    assert math.gcd(*[len(c) for c in cycles]) == 1 == period(graph)


@criterion(6, "signed Waring numbers: BFS diameter equals the reduction formula, q <= 343")
def test_criterion_06_waring_consistency():
    for q in prime_powers_up_to(343):
        field, graphs = graphs_over(q)
        p, m = field.p, field.m
        for graph in graphs:
            connected = components(graph).a == m
            g = waring_result(field, graph.k).g
            assert (g is not None) == connected, (q, graph.k)
            if connected:
                w = waring_result(field, graph.k).w
                assert w is not None and w <= g
                # vertex-level BFS diameter of the symmetrized graph
                dist = bfs_distances(field, symmetric_connection(graph))
                assert w == int(dist.max()), (q, graph.k)
                # reduction: g(k, q) undirected, g(k/2, q) directed
                assert w == (waring_result(field, graph.k // 2).g if graph.directed else g), (q, graph.k)


@criterion(7, "weak Waring reduction formula for all admissible (p, a, b, c) with p^(ab) <= 2401")
def test_criterion_07_reduction_formula():
    assert verify_reduction(5, 1, 2, 4)
    assert verify_reduction(7, 1, 2, 6)
    checked = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for a in range(1, 12):
            for b in range(2, 12):
                if p ** (a * b) > 2401:
                    break
                for c in divisors(p ** a - 1):
                    if is_primitive_divisor(c, p, a) and is_primitive_divisor(b * c, p, a * b):
                        assert verify_reduction(p, a, b, c), (p, a, b, c)
                        checked += 1
    assert checked >= 20
    # degenerate b = 1 instances reduce both sides to the same number
    for p, a, c in ((3, 1, 2), (5, 2, 8), (7, 1, 3)):
        assert verify_reduction(p, a, 1, c)


@criterion(8, "census identities against exhaustive classification for q <= 10^4")
def test_criterion_08_census():
    start = time.perf_counter()
    for q in prime_powers_up_to(10 ** 4):
        p, m = prime_power(q)
        c = census(p, m)
        natures = [nature_for(p, m, k) for k in divisors(q - 1)]
        counted = tuple(natures.count(nature) for nature in Nature)
        assert counted == (c.n_integral, c.n_real_nonintegral, c.n_complex), q
        assert c.sigma == len(natures), q
        if q % 2 == 1:
            assert c.sigma == (v2(q - 1) + 1) * c.n_complex, q
            assert c.n_real == v2(q - 1) * c.n_complex, q
    assert census(5, 2).n_complex == 2
    assert census(5, 2).n_integral == 4
    assert census(3, 4).n_integral == 8
    assert time.perf_counter() - start < 30.0


@criterion(9, "dense numeric eigensolver matches exact spectra for q <= 128 at 1e-8")
def test_criterion_09_numeric_oracle():
    for q in prime_powers_up_to(128):
        _, graphs = graphs_over(q)
        for graph in graphs:
            assert numeric_oracle_check(graph, 1e-8), (q, graph.k)


@criterion(10, "three-eigenvalue digraph law over all directed (k, q) with q <= 2401")
def test_criterion_10_three_eigenvalue_digraphs():
    for q in prime_powers_up_to(2401):
        if q % 2 == 0:
            continue
        field, graphs = graphs_over(q)
        p, m = field.p, field.m
        for graph in graphs:
            if not graph.directed:
                continue
            labelled = classify_structure(graph).kind == PALEY_UNION
            a, mu = components(graph).a, spectrum(graph).mu
            condition = (p ** a) % 4 == 3 and graph.k * (p ** a - 1) == 2 * (q - 1)
            assert mu >= 3 and labelled == condition == (mu == 3), (q, graph.k)


@criterion(11, "spectra do not depend on the modulus polynomial (q = 25, 49, 81)")
def test_criterion_11_modulus_independence():
    for p, m in ((5, 2), (7, 2), (3, 4)):
        canonical = build_field(p, m)
        alternate = FiniteField(p, m, second_modulus(p, m))
        assert alternate.modulus != canonical.modulus
        for k in divisors(p ** m - 1):
            left = dict(spectrum(build_graph(canonical, k)).eigenvalues)
            right = dict(spectrum(build_graph(alternate, k)).eigenvalues)
            assert left == right, (p, m, k)
