"""Verification sweeps: re-derive every structural law on all graphs up to a bound.

Each check runs independently per (k, q) so a single failure is reported
with its exact location instead of aborting the sweep. The graph checks are
one table; mu-directed holds a digraph's mu = 3 to the oriented Paley label
of classify_structure. Each field comes from fields.field_of_order, and the
size budget in fields refuses a max_q before any field is built.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import spectra
from .cyclotomic import render_terms
from .families import census
from .fields import FiniteField, check_size_budget, field_of_order
from .graphs import (PALEY_UNION, ComponentDecomposition, GPGraph, build_graph, classify_structure,
                     components, period, quotient_bfs)
from .numbertheory import divisors, prime_power, v2
from .waring import _diameter, graph_waring

CHECK_NAMES = (
    "nature",
    "trace-identities",
    "two-re",
    "period-law",
    "waring-formula",
    "census",
    "mu-directed",
    "boundary-spectrum",
)


@dataclass
class CheckOutcome:
    name: str
    passed: int = 0
    failed: int = 0
    first_failure: str | None = None


def _check_nature(graph: GPGraph, half: GPGraph | None):
    """The nature against its rule, then the valuation rule against realness and the connection set."""
    report = spectra.spectrum(graph)
    arithmetic = spectra.nature_for(graph.field.p, graph.field.m, graph.k)
    if report.nature != arithmetic:
        raise AssertionError(
            f"eigenvalue nature {report.nature.render()} != arithmetic rule {arithmetic.render()}")
    shape = "directed" if graph.directed else "undirected"
    if (report.nature is spectra.Nature.COMPLEX) != graph.directed:
        raise AssertionError(f"{report.nature.render()} spectrum, but the valuation rule says {shape}")
    field, connection, p = graph.field, graph.connection, graph.field.p
    held = np.zeros(field.q, dtype=bool)  # a table, as np.isin would import numpy.ma (about 1 MB)
    held[connection] = True
    if held[p - 1] == graph.directed:  # -1 has the coefficients (p - 1, 0, ..., 0)
        raise AssertionError(f"membership of -1 disagrees with the valuation rule ({shape})")
    if graph.directed:  # -r coefficient by coefficient
        pows = p ** np.arange(field.m)
        if held[(p - connection[:, None] // pows % p) % p @ pows].any():
            raise AssertionError("the directed connection set holds some r and -r")
    # n distinct logs that are multiples of k are 0, k, ..., q - 1 - k; the zero element's log is -1
    if not np.array_equal(np.sort(field.log[connection]), np.arange(0, field.q - 1, graph.k)):
        raise AssertionError(f"the connection set is not the n = {graph.n} k-th powers")


def _render(coeffs) -> str:
    return render_terms((j, c) for j, c in enumerate(coeffs.tolist()) if c)


def _check_moments(graph: GPGraph, half: GPGraph | None):
    first, second = spectra.moments(spectra.spectrum(graph))
    if first.any():
        raise AssertionError(f"sum of eigenvalues is {_render(first)}, not 0")
    expected = 0 if graph.directed else graph.field.q * graph.n
    if second[0] != expected or second[1:].any():
        raise AssertionError(f"sum of squared eigenvalues is {_render(second)}, expected {expected}")


def _check_two_re(graph: GPGraph, half: GPGraph):
    if not spectra.two_re_holds(spectra.spectrum(graph), spectra.spectrum(half)):
        raise AssertionError("symmetrized spectrum is not twice the real parts")


def _traversed_period(graph: GPGraph) -> int:
    """The gcd of d(u) + 1 - d(v) over the arcs u -> v of the quotient, d the distance from 0.

    Every component is a strongly connected translate of the component of 0,
    and a quotient arc carries the value of the vertex arcs it stands for.
    The q - 1 arcs x -> x + r, e = log(r / x), run from class -e mod k to
    class zech[e] - e mod k, or to vertex 0 where zech[e] = -1.
    """
    dist, k, zech = quotient_bfs(graph), graph.k, graph.field.zech
    e = np.arange(zech.size)
    src = dist[-e % k]
    dst = np.where(zech < 0, 0, dist[(zech - e) % k])
    reached = src >= 0
    return int(np.gcd.reduce(np.abs(src[reached] + 1 - dst[reached])))


def _check_period_law(graph: GPGraph, half: GPGraph | None):
    traversed, closed_form = _traversed_period(graph), period(graph)
    if traversed != closed_form:
        raise AssertionError(f"period {traversed} by traversal != closed form {closed_form}")


def _traversed_components(graph: GPGraph) -> ComponentDecomposition:
    """Components from the quotient BFS: the component of 0 has 1 + n * (classes reached) vertices."""
    reached = int((quotient_bfs(graph) >= 0).sum())
    size = 1 + graph.n * reached
    return ComponentDecomposition(round(math.log(size, graph.field.p)), graph.field.q // size, reached, size)


def _check_waring_formula(graph: GPGraph, half: GPGraph | None):
    traversed, closed_form = _traversed_components(graph), components(graph)
    if traversed != closed_form:
        raise AssertionError(f"traversal gives {traversed}, order of p mod n gives {closed_form}")
    # the library's w is the reduction: g(k, q) undirected, g(k/2, q) directed
    result = graph_waring(graph, _diameter(half) if graph.directed else None)
    g, by_formula = result.g, result.w
    dist = quotient_bfs(graph, signed=True)  # the symmetrized graph, traversed
    w = None if (dist < 0).any() else int(dist.max())
    if (g is not None) != (closed_form.count == 1):
        raise AssertionError("existence of g must coincide with connectedness")
    if w != by_formula:
        raise AssertionError(f"w = {w} by diameter != {by_formula} by reduction to g")
    if g is not None and w > g:
        raise AssertionError(f"w = {w} inconsistent with g = {g}")


def _check_boundary(graph: GPGraph, half: GPGraph | None):
    report = spectra.spectrum(graph)
    boundary = spectra.boundary_rows(report)
    # boundary rows are constant and n wide, so each is named by its trace t (n * zeta^t)
    found = sorted(set(report._rows[boundary, 0].tolist()))
    q, p = graph.field.q, graph.field.p
    expected = list(range(p)) if graph.k == q - 1 else [0]  # zeta^j (n = 1), or n itself
    if found != expected:
        values = sorted({render_terms(e.terms) for e in report._entries(boundary)})
        raise AssertionError(f"boundary spectrum {values} != expected")


def _check_three_eigenvalues(graph: GPGraph, half: GPGraph):
    """A digraph has mu >= 3, and mu = 3 exactly when its label is a union of oriented Paley graphs."""
    mu = spectra.spectrum(graph).mu
    if mu < 3:
        raise AssertionError(f"a directed GP-graph has at least three eigenvalues, not {mu}")
    if (classify_structure(graph).kind == PALEY_UNION) != (mu == 3):
        raise AssertionError(f"the oriented Paley union label must hold exactly when mu = 3 (mu = {mu})")


def _check_census(field: FiniteField):
    p, m, q = field.p, field.m, field.q
    c = census(p, m)
    by_nature = [spectra.nature_for(p, m, k) for k in divisors(q - 1)]
    counted = tuple(by_nature.count(nature) for nature in spectra.Nature)
    by_formula = (c.n_integral, c.n_real_nonintegral, c.n_complex)
    if counted != by_formula:
        raise AssertionError(f"(integral, real-nonintegral, complex) = {by_formula} by formula, "
                             f"{counted} by classifying every divisor of q - 1")
    # odd q: each odd divisor d of q - 1 gives v2(q - 1) + 1 graphs GP(2^j d, q),
    # and only the one with the whole 2-part of q - 1 is complex
    if q % 2 == 1 and (c.sigma, c.n_real) != ((v2(q - 1) + 1) * c.n_complex, v2(q - 1) * c.n_complex):
        raise AssertionError(f"(sigma, n_real) = {(c.sigma, c.n_real)} breaks the v2 identities "
                             f"for n_complex = {c.n_complex}")


# (name, check, directed graphs only) in the order they run; each check takes
# (graph, half), half the GP(k/2, q) of a directed graph and None otherwise
_GRAPH_CHECKS = (
    ("nature", _check_nature, False),
    ("trace-identities", _check_moments, False),
    ("period-law", _check_period_law, False),
    ("mu-directed", _check_three_eigenvalues, True),
    ("boundary-spectrum", _check_boundary, False),
    ("waring-formula", _check_waring_formula, False),
    ("two-re", _check_two_re, True),
)


def _record(outcome: CheckOutcome, context: str, fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # a failure anywhere must not stop the sweep
        outcome.failed += 1
        if outcome.first_failure is None:
            outcome.first_failure = f"{context}: {exc}"
    else:
        outcome.passed += 1


def verify_field(q: int) -> list[CheckOutcome]:
    """Run every check category on every GP-graph over GF(q)."""
    outcomes = {name: CheckOutcome(name) for name in CHECK_NAMES}
    field = field_of_order(q)
    _record(outcomes["census"], f"q={q}", _check_census, field)
    # ascending k: the two-re check of GP(k, q) reads the cached spectrum of GP(k/2, q)
    graphs = {k: build_graph(field, k) for k in divisors(q - 1)}
    for k, graph in graphs.items():
        half = graphs[k // 2] if graph.directed else None
        for name, fn, directed_only in _GRAPH_CHECKS:
            if graph.directed or not directed_only:
                _record(outcomes[name], f"q={q} k={k}", fn, graph, half)
    return [outcomes[name] for name in CHECK_NAMES]


def run_verification(max_q: int, jobs: int = 1) -> list[CheckOutcome]:
    """Sweep all prime powers q <= max_q; results merge in q order.

    A max_q above the field size budget is refused before any field is built.
    More workers than CPUs would only compete for them, so jobs is capped
    at os.cpu_count().
    """
    check_size_budget(max_q, f"max_q = {max_q}")
    qs = [q for q in range(2, max_q + 1) if prime_power(q) is not None]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_q = list(pool.map(verify_field, qs))
    else:
        per_q = [verify_field(q) for q in qs]
    merged = {name: CheckOutcome(name) for name in CHECK_NAMES}
    for outcomes in per_q:
        for outcome in outcomes:
            target = merged[outcome.name]
            target.passed += outcome.passed
            target.failed += outcome.failed
            if target.first_failure is None and outcome.first_failure is not None:
                target.first_failure = outcome.first_failure
    return [merged[name] for name in CHECK_NAMES]
