"""The report rows, and verification sweeps that check them on all graphs up to a bound.

`report_rows` builds the row that `report` prints for each GP(k, q) from the closed
forms, and hands a directed graph its GP(k/2, q). Each check family compares that
row, or the graph, with a second method (the spectrum, the traversals, the sets) and
owns its laws, as spectra.spectrum checks none: eta^2 is summed from trace pairs
(`moments`; both square kernels end in one histogram per multiplicity group, and one
int64 product weights them), eta + conj(eta) is a row merged with its negative
(`doubled_rows`), modulus n is a constant row (`boundary_rows`), one set of quotient
arcs gives the period and certifies the kept traversals of g and w (`_quotient_arcs`),
and the srg column is checked against counts on the connection set. A law of the graph
alone, and a second method's answer of a few ints, is kept on the graph once it holds
(graphs.kept: a raise keeps nothing), so a sweep over cached fields compares only the
rows. One table, `_CHECKS`, names each family once, in print order, with what it runs
on. A failing check is recorded with its (k, q) and the sweep goes on; building a row
checks no law, so a raise there is a defect that ends `report` and `verify_field` alike.
Each field comes from fields.field_of_order, whose size budget refuses a max_q first.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from . import spectra
from .errors import check
from .families import census
from .fields import FiniteField, check_size_budget, field_of_order
from .graphs import (PALEY_UNION, ComponentDecomposition, GPGraph, build_graph, classify_structure,
                     components, kept, period, quotient_bfs)
from .numbertheory import divisors, prime_power, v2
from .spectra import SpectrumReport, render_terms
from .waring import graph_waring

PAIR_BLOCK = 1 << 20  # trace pairs summed at once by _pair_sums: 8 MB of intp
# rows with n^2 > KRONECKER_RATIO * p are squared by Kronecker substitution: one
# row took about as long either way at n^2 / p near 16 for p = 257 and 47 for p = 3001
KRONECKER_RATIO = 32

@dataclass(frozen=True)
class FieldReportRow:
    q: int
    p: int
    m: int
    k: int
    n: int
    structure: str
    directed: bool
    components: int
    nature: str
    mu: int
    srg: tuple[int, int, int, int] | None
    period: int
    g: int | None
    w: int | None

    def to_record(self) -> dict:
        return {name: getattr(self, name) for name in ROW_FIELDS}  # json writes srg as a list


ROW_FIELDS = tuple(f.name for f in fields(FieldReportRow))  # the report columns, in order


def report_rows(field: FiniteField) -> Iterator[tuple[GPGraph, GPGraph | None, FieldReportRow]]:
    """Each GP(k, q), k | q - 1 ascending, its half and the row report prints: closed forms, no spectrum."""
    p, m, q = field.p, field.m, field.q
    for k in divisors(q - 1):
        graph = build_graph(field, k)
        half = build_graph(field, k // 2) if graph.directed else None  # the earlier row k/2; its g is w
        wres = graph_waring(graph)
        yield graph, half, FieldReportRow(
            q=q, p=p, m=m, k=k, n=graph.n, structure=classify_structure(graph).render(),
            directed=graph.directed, components=components(graph).count,
            nature=spectra.nature_for(p, m, k).render(), mu=spectra.eigenvalue_count(graph),
            srg=spectra.srg_parameters(graph), period=period(graph), g=wres.g, w=wres.w)


@dataclass
class CheckOutcome:
    name: str
    passed: int = 0
    failed: int = 0
    first_failure: str | None = None


def _check_nature(graph: GPGraph, half: GPGraph | None, row: FieldReportRow):
    """The row's nature and mu against the spectrum, then its srg against the set's kept laws and counts."""
    report = spectra.spectrum(graph)
    if report.nature.render() != row.nature:
        raise AssertionError(f"eigenvalue nature {report.nature.render()} != arithmetic rule {row.nature}")
    if row.mu != report.mu:
        raise AssertionError(f"eigenvalue_count {row.mu} != mu = {report.mu} of the spectrum")
    if (row.srg is not None) != ((counted := _connection_set(graph)) is not None):
        shape = "directed" if graph.directed else "undirected"
        raise AssertionError(f"srg {row.srg}, but the spectrum has mu = {report.mu} and principal "
                             f"multiplicity {report.principal_multiplicity} ({shape})")
    if row.srg is not None:
        v, r, e, d = row.srg
        if (v - r - 1) * d != r * (r - e - 1):
            raise AssertionError(f"srg{row.srg} breaks (v-r-1)d = r(r-e-1)")
        if row.srg != counted:
            raise AssertionError(f"srg{row.srg} != srg{counted} counted on the connection set")


def _held(graph: GPGraph) -> np.ndarray:
    """The connection set as a table over the element indices: np.isin would import numpy.ma (about 1 MB)."""
    held = np.zeros(graph.field.q, dtype=bool)
    held[graph.connection] = True
    return held


@kept
def _connection_set(graph: GPGraph) -> tuple[int, int, int, int] | None:
    """The set's laws by the valuation rule, then (q, n, e, d) counted on it where the spectrum says srg."""
    field, connection, p, report = graph.field, graph.connection, graph.field.p, spectra.spectrum(graph)
    shape, held = "directed" if graph.directed else "undirected", _held(graph)
    if (report.nature is spectra.Nature.COMPLEX) != graph.directed:
        raise AssertionError(f"{report.nature.render()} spectrum, but the valuation rule says {shape}")
    if held[p - 1] == graph.directed:  # -1 has the coefficients (p - 1, 0, ..., 0)
        raise AssertionError(f"membership of -1 disagrees with the valuation rule ({shape})")
    pows = p ** np.arange(field.m)  # an index's base-p digits are its coefficients
    if graph.directed and held[(p - connection[:, None] // pows % p) % p @ pows].any():  # -r by coefficients
        raise AssertionError("the directed connection set holds some r and -r")
    # n distinct logs that are multiples of k are 0, k, ..., q - 1 - k; the zero element's log is -1
    if not np.array_equal(np.sort(field.log[connection]), np.arange(0, field.q - 1, graph.k)):
        raise AssertionError(f"the connection set is not the n = {graph.n} k-th powers")
    # a connected undirected graph is strongly regular exactly when it has three eigenvalues
    if graph.directed or report.principal_multiplicity != 1 or report.mu != 3:
        return None
    # e and d count the common neighbours x of 0 and u (x and x - u in the set), for the
    # adjacent u = 1 and the non-adjacent w, the least nonzero index outside the set
    w = int(np.argmin(held[1:])) + 1
    common = [int(held[(connection[:, None] // pows - u // pows) % p @ pows].sum()) for u in (1, w)]
    return field.q, graph.n, *common


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


def moments(report: SpectrumReport) -> tuple[np.ndarray, np.ndarray]:
    """The sums of mult * eta and of mult * eta^2 over the distinct values, canonical.

    The rows are grouped by multiplicity, and each sum is one histogram per
    group: the traces for eta, and for eta^2 the pairs t + u of `_pair_sums`
    while n^2 <= KRONECKER_RATIO * p, else each row's `_kronecker_square`
    added into its group's row. One int64 product with the distinct
    multiplicities weights each; no mu x p array is built. An entry of the
    second sum is at most q * n^2, so int64 holds it while that bound is
    below 2^63.
    """
    p, q, n, rows = report._p, report.q, report.n, report._rows
    check(q * n * n < 2 ** 63, f"GP({report.k},{q}): q * n^2 must fit in int64 for exact products")
    # with its indices np.unique imports no numpy.ma (about 20 ms of a one-command process)
    distinct, group = np.unique(report._multiplicities, return_inverse=True)
    count = len(distinct)
    traces = np.bincount((rows + group[:, None] * p).ravel(), minlength=count * p).reshape(count, p)
    if n * n <= KRONECKER_RATIO * p:
        squares = _pair_sums(rows, p, group, count)
    else:
        squares = np.zeros((count, 2 * p), dtype=np.int64)
        for row, g in zip(rows, group.tolist()):
            squares[g] += _kronecker_square(row, p)
    first, second = distinct @ traces, distinct @ squares
    second = second[:p] + second[p:]
    return first - first[-1], second - second[-1]


def _render(coeffs) -> str:
    return render_terms((j, c) for j, c in enumerate(coeffs.tolist()) if c)


def _law(law):
    """law(graph) as a check of (graph, half, row), kept on the graph once it holds (graphs.kept)."""
    law = kept(law)
    return lambda graph, half, row: law(graph)


@_law
def _check_moments(graph: GPGraph):
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
    return expected == Counter(dict(zip(map(np.ndarray.tobytes, half._rows), half._multiplicities.tolist())))


@_law
def _check_two_re(graph: GPGraph):
    if not two_re_holds(spectra.spectrum(graph), spectra.spectrum(build_graph(graph.field, graph.k // 2))):
        raise AssertionError("symmetrized spectrum is not twice the real parts")


@kept
def _quotient_arcs(graph: GPGraph) -> np.ndarray:
    """The q - 1 arcs x -> x + 1, x = omega^-e, as rows (tail, head) of classes mod k; head -1 is vertex 0.

    A k-th power times x is an automorphism fixing 0, so they stand for every arc of every component,
    a translate of that of 0, and mod k' | k they are GP(k', q)'s. x + 1 = omega^(zech[e] - e), or 0.
    """
    zech = graph.field.zech
    arcs = (np.stack([np.zeros_like(zech), zech]) - np.arange(zech.size, dtype=zech.dtype)) % graph.k
    arcs = arcs.astype(np.min_scalar_type(-graph.k))  # kept as long as the field: int8 up to k = 128
    arcs[1, graph.field.log[graph.field.p - 1]] = -1  # 1 + omega^e = 0 where omega^e = -1, of index p - 1
    return arcs


@kept
def _traversed_period(graph: GPGraph) -> int:
    """The gcd of d(u) + 1 - d(v) over the quotient arcs u -> v, d the distance from 0 (0 at head -1)."""
    src, dst = np.concatenate((quotient_bfs(graph), [0]))[_quotient_arcs(graph)]
    return int(np.gcd.reduce(src + 1 - dst, where=src >= 0, initial=0))


@kept
def _certified_diameter(graph: GPGraph) -> int | None:
    """The diameter of graph's kept traversal, once its quotient arcs certify it; kept on the graph.

    As a BFS certificate (McConnell et al. 2011) the laws put no class above or below its distance. For a
    directed GP(2k, q), -1 lies in class k, so graph's arcs are its own mod k, of the steps r and -r: its w.
    """
    level, arcs = quotient_bfs(graph).astype(np.uint32), _quotient_arcs(graph)  # unreached, -1: 2^32 - 1
    src, dst = np.concatenate((level, [0]))[arcs]  # d = 0 at vertex 0, head -1
    step = dst - src
    laws = (("class 0 must be at level 1", level[0] == 1),
            ("no arc may leave the reached classes or skip a level", step.max() <= 1),
            ("each other reached class must have an in-arc from the level below",  # an arc of step 1
             (np.bincount(arcs[1][step == 1], minlength=graph.k) >= (level < 2 ** 31))[1:].all()))
    if broken := [law for law, holds in laws if not holds]:
        raise AssertionError(f"the traversal of GP({graph.k},{graph.field.q}) is not certified: {broken[0]}")
    return None if (top := int(level.max())) >= 2 ** 31 else top  # a negative level reads 2^31 or more


def _check_period_law(graph: GPGraph, half: GPGraph | None, row: FieldReportRow):
    if (traversed := _traversed_period(graph)) != row.period:
        raise AssertionError(f"period {traversed} by traversal != closed form {row.period}")


@kept
def _traversed_components(graph: GPGraph) -> ComponentDecomposition:
    """Components from the quotient BFS: the component of 0 has 1 + n * (classes reached) vertices."""
    size = 1 + graph.n * (reached := int((quotient_bfs(graph) >= 0).sum()))
    return ComponentDecomposition(round(math.log(size, graph.field.p)), graph.field.q // size, reached, size)


def _check_waring_formula(graph: GPGraph, half: GPGraph | None, row: FieldReportRow):
    traversed, closed_form = _traversed_components(graph), components(graph)
    if traversed != closed_form:
        raise AssertionError(f"traversal gives {traversed}, order of p mod n gives {closed_form}")
    principal = spectra.spectrum(graph).principal_multiplicity  # n occurs once per component
    if principal != row.components:
        raise AssertionError(f"principal multiplicity {principal} != component count {row.components}")
    if row.g != (diameter := _certified_diameter(graph)):  # g exists iff connected
        raise AssertionError(f"g = {row.g} != {diameter}, the diameter of the traversal")
    if diameter is not None and diameter >= (mu := spectra.spectrum(graph).mu):  # A is diagonalizable
        raise AssertionError(f"diameter {diameter} is not below mu = {mu} of the spectrum")
    w = _certified_diameter(half) if half else diameter  # half's arcs are graph's mod k/2, so w <= g
    if w != row.w:  # the reduction: w is g(k, q) undirected, g(k/2, q) directed
        raise AssertionError(f"w = {w} by diameter != {row.w} by reduction to g")


def boundary_rows(report: SpectrumReport) -> np.ndarray:
    """Indices of the distinct values of maximum modulus n: the rows whose traces are all equal.

    A sum of n roots of unity has modulus n exactly when its terms are all
    the same root, so the row of a boundary value n * zeta^t is n copies of t.
    """
    rows = report._rows
    return np.flatnonzero((rows == rows[:, :1]).all(axis=1))


@_law
def _check_boundary(graph: GPGraph):
    report = spectra.spectrum(graph)
    boundary = boundary_rows(report)
    # boundary rows are constant and n wide, so each is named by its trace t (n * zeta^t)
    found = sorted(set(report._rows[boundary, 0].tolist()))
    expected = list(range(graph.field.p)) if graph.k == graph.field.q - 1 else [0]  # zeta^j (n = 1), or n
    if found != expected:
        values = sorted({render_terms(e.terms) for e in report._entries(boundary)})
        raise AssertionError(f"boundary spectrum {values} != expected")


@_law
def _check_three_eigenvalues(graph: GPGraph):
    """A digraph has mu >= 3, and mu = 3 exactly when its label is a union of oriented Paley graphs."""
    mu = spectra.spectrum(graph).mu
    if mu < 3:
        raise AssertionError(f"a directed GP-graph has at least three eigenvalues, not {mu}")
    if (classify_structure(graph).kind == PALEY_UNION) != (mu == 3):
        raise AssertionError(f"the oriented Paley union label must hold exactly when mu = 3 (mu = {mu})")


def _check_census(field: FiniteField, natures: list[str]):
    q = field.q
    c = census(field.p, field.m)
    counted = tuple(natures.count(nature.render()) for nature in spectra.Nature)
    by_formula = (c.n_integral, c.n_real_nonintegral, c.n_complex)
    if counted != by_formula:
        raise AssertionError(f"(integral, real-nonintegral, complex) = {by_formula} by formula, "
                             f"{counted} by classifying every divisor of q - 1")
    # odd q: each odd divisor d of q - 1 gives v2(q - 1) + 1 graphs GP(2^j d, q),
    # and only the one with the whole 2-part of q - 1 is complex
    if q % 2 == 1 and (c.sigma, c.n_real) != ((v2(q - 1) + 1) * c.n_complex, v2(q - 1) * c.n_complex):
        raise AssertionError(f"(sigma, n_real) = {(c.sigma, c.n_real)} breaks the v2 identities "
                             f"for n_complex = {c.n_complex}")


# (name, check, what it runs on) in print order: every graph, directed graphs only, or the field.
# A graph check takes (graph, half, row), half the GP(k/2, q) of a directed graph and None otherwise
# (a `_law` reads the graph alone); the field check takes (field, the natures of its rows).
_CHECKS = (
    ("nature", _check_nature, "graph"),
    ("trace-identities", _check_moments, "graph"),
    ("two-re", _check_two_re, "directed"),
    ("period-law", _check_period_law, "graph"),
    ("waring-formula", _check_waring_formula, "graph"),
    ("census", _check_census, "field"),
    ("mu-directed", _check_three_eigenvalues, "directed"),
    ("boundary-spectrum", _check_boundary, "graph"),
)
CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)


def _record(outcome: CheckOutcome, fn, args: tuple, q: int, k: int | None = None):
    try:
        fn(*args)
    except Exception as exc:  # a failure anywhere must not stop the sweep
        outcome.failed += 1
        if outcome.first_failure is None:  # named only now: a pass formats nothing
            outcome.first_failure = f"q={q}: {exc}" if k is None else f"q={q} k={k}: {exc}"
    else:
        outcome.passed += 1


def verify_field(q: int) -> list[CheckOutcome]:
    """Run every check category on every report row over GF(q), and the census on their natures."""
    outcomes = {name: CheckOutcome(name) for name in CHECK_NAMES}
    field = field_of_order(q)
    natures = []
    for graph, half, row in report_rows(field):
        for name, fn, runs_on in _CHECKS:
            if runs_on == "graph" or runs_on == "directed" and graph.directed:
                _record(outcomes[name], fn, (graph, half, row), q, row.k)
        natures.append(row.nature)
    for name, fn, runs_on in _CHECKS:
        if runs_on == "field":
            _record(outcomes[name], fn, (field, natures), q)
    return list(outcomes.values())


def run_verification(max_q: int, jobs: int = 1) -> list[CheckOutcome]:
    """Sweep all prime powers q <= max_q; results merge in q order.

    A max_q above the field size budget is refused before any field is built.
    More workers than CPUs would only compete for them, so jobs is capped
    at os.cpu_count().
    """
    check_size_budget(max_q, "max_q")
    qs = [q for q in range(2, max_q + 1) if prime_power(q) is not None]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_q = list(pool.map(verify_field, qs))
    else:
        per_q = [verify_field(q) for q in qs]
    merged = {name: CheckOutcome(name) for name in CHECK_NAMES}
    for outcome in (outcome for outcomes in per_q for outcome in outcomes):
        target = merged[outcome.name]
        target.passed, target.failed = target.passed + outcome.passed, target.failed + outcome.failed
        target.first_failure = target.first_failure or outcome.first_failure  # the first in q order
    return list(merged.values())
