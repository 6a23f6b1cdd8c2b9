"""Verification sweeps: re-derive every structural law on all graphs up to a bound.

Each check runs independently per (k, q) so a single failure is reported
with its exact location instead of aborting the sweep.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import spectra
from .cyclotomic import CyclotomicInteger, root_power
from .families import census
from .fields import build_field
from .graphs import GPGraph, build_graph, component_structure, components, period
from .numbertheory import divisors, prime_power
from .waring import waring_g, waring_w

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


def _check_nature(graph: GPGraph):
    report = spectra.spectrum(graph)
    arithmetic = spectra.nature_arithmetic(graph)
    if report.nature != arithmetic:
        raise AssertionError(
            f"eigenvalue nature {report.nature.render()} != arithmetic rule {arithmetic.render()}")


def _check_moments(graph: GPGraph):
    p = graph.field.p
    first = CyclotomicInteger.zero(p)
    second = CyclotomicInteger.zero(p)
    for value, mult in spectra.spectrum(graph).eigenvalues:
        first = first + value * mult
        second = second + value * value * mult
    if not first.is_zero():
        raise AssertionError(f"sum of eigenvalues is {first}, not 0")
    expected = 0 if graph.directed else graph.field.q * graph.n
    if second != CyclotomicInteger.from_int(p, expected):
        raise AssertionError(f"sum of squared eigenvalues is {second}, expected {expected}")


def _check_two_re(graph: GPGraph):
    if not spectra.verify_2re(graph.field, graph.k):
        raise AssertionError("symmetrized spectrum is not twice the real parts")


def _check_period_law(graph: GPGraph):
    d = period(graph)
    q, p = graph.field.q, graph.field.p
    if graph.directed:
        expected = p if graph.k == q - 1 else 1
    else:
        expected = 2 if (p == 2 and graph.k == q - 1) else 1
    if d != expected:
        raise AssertionError(f"period {d} != closed form {expected}")


def _check_waring_formula(graph: GPGraph):
    traversed, closed_form = components(graph), component_structure(graph)
    if traversed != closed_form:
        raise AssertionError(f"traversal gives {traversed}, order of p mod n gives {closed_form}")
    g = waring_g(graph.field, graph.k)
    if (g is not None) != (closed_form.count == 1):
        raise AssertionError("existence of g must coincide with connectedness")
    if g is not None:
        w = waring_w(graph.field, graph.k)
        # reduction: w(k, q) = g(k, q) undirected, g(k/2, q) directed
        by_formula = waring_g(graph.field, graph.k // 2) if graph.directed else g
        if w != by_formula:
            raise AssertionError(f"w = {w} by diameter != {by_formula} by reduction to g")
        if w > g:
            raise AssertionError(f"w = {w} inconsistent with g = {g}")


def _check_mu_directed(graph: GPGraph):
    spectra.detect_three_ev_digraph(graph)  # checks mu >= 3 and the 3-eigenvalue law


def _check_boundary(graph: GPGraph):
    field = graph.field
    q, p, n = field.q, field.p, graph.n
    found = set(spectra.boundary_spectrum(graph))
    if graph.k == q - 1:
        if p == 2:
            expected = {CyclotomicInteger.from_int(2, 1), CyclotomicInteger.from_int(2, -1)}
        else:
            expected = {root_power(p, j) for j in range(p)}
    else:
        expected = {CyclotomicInteger.from_int(p, n)}
    if found != expected:
        raise AssertionError(f"boundary spectrum {sorted(map(str, found))} != expected")


_GRAPH_CHECKS = (
    ("nature", _check_nature, False),
    ("trace-identities", _check_moments, False),
    ("two-re", _check_two_re, True),
    ("period-law", _check_period_law, False),
    ("waring-formula", _check_waring_formula, False),
    ("mu-directed", _check_mu_directed, True),
    ("boundary-spectrum", _check_boundary, False),
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
    p, m = prime_power(q)
    field = build_field(p, m)
    _record(outcomes["census"], f"q={q}", census, q)
    for k in divisors(q - 1):
        graph = build_graph(field, k)
        context = f"q={q} k={k}"
        for name, fn, directed_only in _GRAPH_CHECKS:
            if directed_only and not graph.directed:
                continue
            _record(outcomes[name], context, fn, graph)
    return [outcomes[name] for name in CHECK_NAMES]


def run_verification(max_q: int, jobs: int = 1) -> list[CheckOutcome]:
    """Sweep all prime powers q <= max_q; results merge in q order.

    More workers than CPUs would only compete for them, so jobs is capped
    at os.cpu_count().
    """
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
