"""Verification sweeps: re-derive every structural law on all graphs up to a bound.

Each check runs independently per (k, q) so a single failure is reported
with its exact location instead of aborting the sweep. The graph checks are
one table, and each law of spectra.spectrum, which checks none, has one
owner here, with the second method it compares with: eta^2 is summed from
trace pairs (`moments`), eta + conj(eta) is a row merged with its negative
(`doubled_rows`), modulus n is a constant row (`boundary_rows`), and each closed
form that report reads meets its own here. Each field comes from fields.field_of_order,
and the size budget in fields refuses a max_q before any field is built.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import check
from .families import census
from .fields import FiniteField, check_size_budget, field_of_order
from .graphs import (PALEY_UNION, ComponentDecomposition, GPGraph, build_graph, classify_structure,
                     components, period, quotient_bfs)
from .numbertheory import divisors, prime_power, v2
from .spectra import SpectrumReport, render_terms
from .waring import _diameter, graph_waring

PAIR_BLOCK = 1 << 20  # trace pairs summed at once by _pair_sums: 8 MB of intp
# rows with n^2 > KRONECKER_RATIO * p are squared by Kronecker substitution: one
# row took about as long either way at n^2 / p near 16 for p = 257 and 47 for p = 3001
KRONECKER_RATIO = 32

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
    """Nature and mu against report's closed forms, then the valuation rule against realness and the set."""
    report = spectra.spectrum(graph)
    arithmetic = spectra.nature_for(graph.field.p, graph.field.m, graph.k)
    if report.nature != arithmetic:
        raise AssertionError(
            f"eigenvalue nature {report.nature.render()} != arithmetic rule {arithmetic.render()}")
    if (counted := spectra.eigenvalue_count(graph)) != report.mu:
        raise AssertionError(f"eigenvalue_count {counted} != mu = {report.mu} of the spectrum")
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


def _groups(multiplicities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct multiplicities, ascending, and for each row the index of its own among them.

    The distinct values come from a sort: np.unique without indices would
    import numpy.ma, which costs a one-command process about 20 ms.
    """
    ordered = np.sort(multiplicities)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return distinct, np.searchsorted(distinct, multiplicities)


def _value_sum(rows: np.ndarray, groups: tuple[np.ndarray, np.ndarray], p: int) -> np.ndarray:
    """The sum of mult * eta over the rows, as a canonical coefficient vector, in exact integers.

    One bincount holds a trace histogram per multiplicity group (see
    `_groups`), side by side, and the distinct multiplicities weight them
    in one int64 product.
    """
    distinct, group = groups
    counts = np.bincount((rows + group[:, None] * p).ravel(), minlength=len(distinct) * p)
    total = distinct @ counts.reshape(-1, p)
    return total - total[-1]


def _pair_sums(rows: np.ndarray, p: int, group: np.ndarray, count: int) -> np.ndarray:
    """The histogram of t + u over all pairs of traces t, u within each row, one per group.

    Row r counts into group[r] < count; each group's 2p bins sum over its rows and
    are not yet folded mod p. The pairs are formed in blocks of at most
    PAIR_BLOCK, so the temporaries stay small whatever the row count.
    """
    n = rows.shape[1]
    per_block = max(1, PAIR_BLOCK // (n * n))  # rows
    step = max(1, min(n, PAIR_BLOCK // n))  # left-hand traces of one row
    total = np.zeros(count * 2 * p, dtype=np.int64)
    for start in range(0, len(rows), per_block):
        block = rows[start:start + per_block]
        right = block + group[start:start + per_block, None] * (2 * p)  # int64, in its group's bins
        for left in range(0, n, step):
            pairs = block[:, left:left + step, None] + right[:, None, :]
            total += np.bincount(pairs.ravel(), minlength=count * 2 * p)
    return total.reshape(count, 2 * p)


def _kronecker_square(row: np.ndarray, p: int) -> np.ndarray:
    """The histogram of t + u over all pairs of traces t, u in one row, as `_pair_sums` gives it.

    That histogram is the square of the row's trace histogram h as a
    polynomial. Packed into fixed-width slots of one Python int, h squares
    as that int (Kronecker substitution). A coefficient of the square is
    at most max(h) * n <= n^2, which its slot holds, so no slot carries
    into the next.
    """
    counts = np.bincount(row, minlength=p)
    width = ((int(counts.max()) * len(row)).bit_length() + 7) // 8  # bytes per slot, at most 8
    slots = counts.astype("<u8").view(np.uint8).reshape(p, 8)
    packed = int.from_bytes(slots[:, :width].tobytes(), "little")
    square = np.zeros((2 * p, 8), dtype=np.uint8)
    square[:, :width] = np.frombuffer((packed * packed).to_bytes(2 * p * width, "little"),
                                      dtype=np.uint8).reshape(2 * p, width)
    return square.view("<u8").ravel().astype(np.int64)


def _weighted_squares(rows: np.ndarray, groups: tuple[np.ndarray, np.ndarray], p: int) -> np.ndarray:
    """The sum of mult * eta^2 over the rows, as a length-p histogram folded mod p.

    Rows of n traces are counted by pairs, in n^2 steps each, while
    n^2 <= KRONECKER_RATIO * p, one histogram per multiplicity group,
    weighted in one int64 product. Wider rows are squared one at a time by
    `_kronecker_square`, whose cost grows with p alone, and weighted each.
    """
    distinct, group = groups
    n = rows.shape[1]
    if n * n <= KRONECKER_RATIO * p:
        total = distinct @ _pair_sums(rows, p, group, len(distinct))
    else:
        total = np.zeros(2 * p, dtype=np.int64)
        for row, mult in zip(rows, distinct[group].tolist()):
            total += mult * _kronecker_square(row, p)
    return total[:p] + total[p:]


def moments(report: SpectrumReport) -> tuple[np.ndarray, np.ndarray]:
    """The sums of mult * eta and of mult * eta^2 over the distinct values, canonical.

    Both are exact int64 vectors of length p; no mu x p array is built. An
    entry of the second sum is at most q * n^2, so int64 holds it while
    that bound is below 2^63.
    """
    p, q, n = report._p, report.q, report.n
    check(q * n * n < 2 ** 63, f"GP({report.k},{q}): q * n^2 must fit in int64 for exact products")
    groups = _groups(report._multiplicities)
    second = _weighted_squares(report._rows, groups, p)
    return _value_sum(report._rows, groups, p), second - second[-1]


def _render(coeffs) -> str:
    return render_terms((j, c) for j, c in enumerate(coeffs.tolist()) if c)


def _check_moments(graph: GPGraph, half: GPGraph | None):
    first, second = moments(spectra.spectrum(graph))
    if first.any():
        raise AssertionError(f"sum of eigenvalues is {_render(first)}, not 0")
    expected = 0 if graph.directed else graph.field.q * graph.n
    if second[0] != expected or second[1:].any():
        raise AssertionError(f"sum of squared eigenvalues is {_render(second)}, expected {expected}")


def doubled_rows(report: SpectrumReport) -> np.ndarray:
    """eta + conj(eta) for each distinct value, as the sorted row of its traces t and -t mod p."""
    p, rows = report._p, report._rows
    doubled = np.concatenate([rows, ((p - rows.astype(np.int64)) % p).astype(rows.dtype)], axis=1)
    doubled.sort(axis=1)
    return doubled


def two_re_holds(directed: SpectrumReport, half: SpectrumReport) -> bool:
    """Whether {lam + conj(lam)} over the directed spectrum is the spectrum of its symmetrization.

    The coset of the symmetrized graph GP(k/2, q) is the directed coset and
    its negative, so its period rows, 2n wide, are the `doubled_rows`. Rows
    of equal width are equal values exactly when they are equal, so the two
    multisets are compared by row bytes.
    """
    expected = Counter()
    for row, mult in zip(doubled_rows(directed), directed._multiplicities.tolist()):
        expected[row.tobytes()] += mult
    return expected == Counter(dict(zip(map(np.ndarray.tobytes, half._rows),
                                        half._multiplicities.tolist())))


def _check_two_re(graph: GPGraph, half: GPGraph):
    if not two_re_holds(spectra.spectrum(graph), spectra.spectrum(half)):
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
    principal = spectra.spectrum(graph).principal_multiplicity  # n occurs once per component
    if principal != closed_form.count:
        raise AssertionError(f"principal multiplicity {principal} != component count {closed_form.count}")
    # the library's w is the reduction: g(k, q) undirected, g(k/2, q) directed
    result = graph_waring(graph, _diameter(half) if graph.directed else None)
    g, by_formula = result.g, result.w
    dist = quotient_bfs(graph, signed=True)  # the symmetrized graph, traversed
    w = None if (dist < 0).any() else int(dist.max())
    if g != (diameter := _diameter(graph)):  # the traversal period-law stored; g exists iff connected
        raise AssertionError(f"g = {g} != {diameter}, the diameter of the traversal")
    if w != by_formula:
        raise AssertionError(f"w = {w} by diameter != {by_formula} by reduction to g")
    if g is not None and w > g:
        raise AssertionError(f"w = {w} inconsistent with g = {g}")


def boundary_rows(report: SpectrumReport) -> np.ndarray:
    """Indices of the distinct values of maximum modulus n: the rows whose traces are all equal.

    A sum of n roots of unity has modulus n exactly when its terms are all
    the same root, so the row of a boundary value n * zeta^t is n copies of t.
    """
    rows = report._rows
    return np.flatnonzero((rows == rows[:, :1]).all(axis=1))


def _check_boundary(graph: GPGraph, half: GPGraph | None):
    report = spectra.spectrum(graph)
    boundary = boundary_rows(report)
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
