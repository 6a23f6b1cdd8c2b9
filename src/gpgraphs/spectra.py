"""Exact spectra of GP-graphs from one matrix of Gaussian periods.

Every eigenvalue of GP(k, q) lies in Z[zeta_p]. The additive character
x -> zeta^Tr(omega^e x) sums to the Gaussian period

    eta_i = sum of zeta^Tr(x) over the coset omega^i * <omega^k>,   i = e mod k,

on the connection set, so the spectrum is the regularity degree
n = (q-1)/k once (the trivial character) and every eta_i n times, for
connected and disconnected graphs alike. The periods are the rows of one
k x p histogram of Tr(omega^e) by class e mod k. Its rows are
deduplicated, counted and classified in numpy: a row is rational when its
interior coefficients vanish and real when it equals its conjugate, a
column permutation. In a prime field the trace is the identity and each
row is the indicator of a coset, so the cosets are kept as supports and
no p x p matrix is built. The order of the eigenvalues and their float
images are computed only when something reads them. The exact spectrum
can be cross-checked against a dense floating-point eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from enum import IntEnum
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .cyclotomic import CyclotomicInteger, ValueClass, embed_coeffs
from .errors import IndexOutOfRange, InvariantViolated, NotDirected, SizeBudgetExceeded
from .fields import FiniteField
from .graphs import GPGraph, build_graph, component_structure

ORACLE_SIZE_LIMIT = 512


class Nature(IntEnum):
    """Nature of a whole spectrum; the order is the fixed report sort order."""

    INTEGRAL = 0
    REAL_NONINTEGRAL = 1
    COMPLEX = 2

    def render(self) -> str:
        return {0: "integral", 1: "real-nonintegral", 2: "complex"}[self.value]


class Eigenvalue(NamedTuple):
    """One distinct eigenvalue: exact value, multiplicity, class and double-precision image."""

    value: CyclotomicInteger
    multiplicity: int
    value_class: ValueClass
    numeric: complex


@dataclass(frozen=True)
class SpectrumReport:
    q: int
    k: int
    n: int
    nature: Nature
    mu: int
    principal_multiplicity: int
    # the distinct values, unordered; value 0 is the principal one
    _row: Callable[[int], np.ndarray] = dataclass_field(repr=False, compare=False)
    _multiplicities: tuple[int, ...] = dataclass_field(repr=False, compare=False)
    _classes: tuple[ValueClass, ...] = dataclass_field(repr=False, compare=False)

    @cached_property
    def table(self) -> tuple[Eigenvalue, ...]:
        """The distinct eigenvalues by descending real part, then imaginary part, then coefficients."""
        entries = []
        for j, (mult, value_class) in enumerate(zip(self._multiplicities, self._classes)):
            row = self._row(j)
            value = CyclotomicInteger(len(row), row.tolist())
            entries.append(Eigenvalue(value, mult, value_class, embed_coeffs(len(row), row)))
        entries.sort(key=lambda e: (-round(e.numeric.real, 9), round(e.numeric.imag, 9),
                                    e.value.coeffs))
        return tuple(entries)

    @cached_property
    def eigenvalues(self) -> tuple[tuple[CyclotomicInteger, int], ...]:
        """(value, multiplicity) pairs in the order of `table`."""
        return tuple((e.value, e.multiplicity) for e in self.table)


def nature_for(p: int, m: int, k: int) -> Nature:
    """Arithmetic nature of GP(k, p^m) from divisibility alone."""
    q = p ** m
    k = math.gcd(k, q - 1)
    if p == 2 or ((q - 1) // (p - 1)) % k == 0:
        return Nature.INTEGRAL
    if ((q - 1) // 2) % k == 0:
        return Nature.REAL_NONINTEGRAL
    return Nature.COMPLEX


def nature_arithmetic(graph: GPGraph) -> Nature:
    return nature_for(graph.field.p, graph.field.m, graph.k)


def gaussian_period(field: FiniteField, k: int, i: int) -> CyclotomicInteger:
    """The period sum over the coset omega^i * <omega^k>, exactly in Z[zeta_p]."""
    if (field.q - 1) % k != 0:
        raise ValueError(f"k = {k} does not divide q - 1 = {field.q - 1}")
    if not 0 <= i < k:
        raise IndexOutOfRange(f"coset index {i} outside [0, {k})")
    return CyclotomicInteger(field.p, np.bincount(field.trace_of_exp[i::k], minlength=field.p).tolist())


def _check(holds, graph: GPGraph, law: str):
    """Raise unless a law holds; unlike assert, this survives python -O."""
    if not holds:
        raise InvariantViolated(f"GP({graph.k},{graph.field.q}): {law}")


# Each builder returns the distinct values of {n} and the k periods, value 0
# being n: (row, multiplicities, rational, real, total), where row(j) is the
# canonical coefficient vector of value j and total is the sum of every
# eigenvalue with multiplicity, as an uncanonicalized coefficient vector.

def _period_matrix(field: FiniteField, k: int, n: int):
    """Extension fields: the k x p histogram of Tr(omega^e) by class e mod k."""
    p = field.p
    e = np.arange(field.q - 1, dtype=np.int64)
    periods = np.bincount(e % k * p + field.trace_of_exp, minlength=k * p).reshape(k, p)
    # canonical form: the last coefficient is zero. The column is copied
    # first; subtracting an overlapping view makes numpy copy the whole matrix.
    periods -= periods[:, -1:].copy()
    principal = np.zeros(p, dtype=np.int64)
    principal[0] = n
    # hashing row bytes; np.unique(axis=0) sorts lexicographically and is far slower
    ids = {principal.tobytes(): 0}
    inverse = np.fromiter((ids.setdefault(row.tobytes(), len(ids)) for row in periods),
                          dtype=np.int64, count=k)
    found, firsts = np.unique(inverse, return_index=True)
    values = np.vstack([principal, periods[firsts[found > 0]]])
    multiplicities = np.bincount(inverse, minlength=len(ids)) * n
    multiplicities[0] += 1
    rational = ~values[:, 1:p - 1].any(axis=1)
    # conjugation permutes the columns j -> -j mod p; column 0 stays put, so
    # a canonical row equals its re-canonicalized conjugate only if it equals
    # the permuted row itself
    real = (values[:, -np.arange(p) % p] == values).all(axis=1)
    return values.__getitem__, multiplicities, rational, real, multiplicities @ values


def _coset_periods(field: FiniteField, k: int, n: int):
    """Prime fields: Tr is the identity, so eta_i is the indicator of its coset.

    The k cosets are disjoint and nonempty, so their indicators are k
    distinct values, none equal to n; an indicator is rational only when
    its coset is all of F_p*, and real when the coset is closed under
    negation.
    """
    p = field.p
    cosets = np.sort(np.asarray(field.exp, dtype=np.int64).reshape(n, k).T, axis=1)
    real = np.ones(k + 1, dtype=bool)
    real[1:] = (np.sort(p - cosets, axis=1) == cosets).all(axis=1)
    rational = np.ones(k + 1, dtype=bool)
    rational[1:] = n == p - 1
    multiplicities = np.full(k + 1, n, dtype=np.int64)
    multiplicities[0] = 1
    total = n * np.bincount(cosets.ravel(), minlength=p)
    total[0] += n
    return partial(_coset_row, p, n, cosets), multiplicities, rational, real, total


def _coset_row(p: int, n: int, cosets: np.ndarray, j: int) -> np.ndarray:
    """Canonical coefficients of value j of `_coset_periods`: n, or a coset indicator."""
    out = np.zeros(p, dtype=np.int64)
    if j:
        out[cosets[j - 1]] = 1
    else:
        out[0] = n
    return out - out[-1]


def spectrum(graph: GPGraph) -> SpectrumReport:
    """The exact eigenvalue multiset of GP(k, q): n once, and every Gaussian period n times.

    Extension fields read the periods off one k x p histogram
    (`_period_matrix`); prime fields keep them as coset supports
    (`_coset_periods`). Either way the result is checked on every call:
    the multiplicities sum to q, n occurs once per component, the
    eigenvalues sum to zero, and the nature matches the arithmetic rule.
    """
    if graph._spectrum is not None:
        return graph._spectrum
    field = graph.field
    q, k, n = field.q, graph.k, graph.n
    build = _coset_periods if field.m == 1 else _period_matrix
    row, multiplicities, rational, real, total = build(field, k, n)

    if not real.all():
        nature = Nature.COMPLEX
    elif not rational.all():
        nature = Nature.REAL_NONINTEGRAL
    else:
        nature = Nature.INTEGRAL
    count = component_structure(graph).count
    _check(multiplicities.sum() == q, graph, "eigenvalue multiplicities must sum to q")
    _check(multiplicities[0] == count,
           graph, f"principal multiplicity {multiplicities[0]} must equal the component count {count}")
    _check((total == total[-1]).all(), graph, "a loop-free adjacency matrix has trace zero")
    _check(nature == nature_arithmetic(graph), graph,
           f"eigenvalue nature {nature.render()} must match the arithmetic rule")

    classes = tuple(ValueClass.RATIONAL if ra else ValueClass.REAL_IRRATIONAL if re
                    else ValueClass.NONREAL for ra, re in zip(rational.tolist(), real.tolist()))
    report = SpectrumReport(
        q=q, k=k, n=n,
        nature=nature,
        mu=len(classes),
        principal_multiplicity=int(multiplicities[0]),
        _row=row,
        _multiplicities=tuple(multiplicities.tolist()),
        _classes=classes,
    )
    graph._spectrum = report
    return report


def mu(graph: GPGraph) -> int:
    """Number of distinct eigenvalues."""
    return spectrum(graph).mu


def verify_2re(field: FiniteField, k: int) -> bool:
    """Check that the symmetrized spectrum is {lam + conj(lam)} of the directed one."""
    graph = build_graph(field, k)
    if not graph.directed:
        raise NotDirected(f"GP({graph.k},{field.q}) is undirected")
    doubled: dict[CyclotomicInteger, int] = {}
    for value, mult in spectrum(graph).eigenvalues:
        s = value + value.conjugate()
        doubled[s] = doubled.get(s, 0) + mult
    half = dict(spectrum(build_graph(field, graph.k // 2)).eigenvalues)
    return doubled == half


@dataclass(frozen=True)
class PaleyUnionDigraph:
    """A directed graph that is a disjoint union of directed Paley graphs."""

    copies: int
    part: int  # vertex count p^a of each directed Paley component

    def describe(self) -> str:
        return f"{self.copies} copies of directed Paley on {self.part} vertices"


def detect_three_ev_digraph(graph: GPGraph) -> PaleyUnionDigraph | None:
    """Detect the only directed GP-graphs with exactly three eigenvalues.

    These are unions of directed Paley graphs: k = 2(q-1)/(p^a - 1) with
    p^a = 3 (mod 4). The detection is checked to coincide with mu = 3, and
    every directed graph is checked to satisfy mu >= 3.
    """
    if not graph.directed:
        raise NotDirected(f"GP({graph.k},{graph.field.q}) is undirected")
    field = graph.field
    dec = component_structure(graph)
    pa = field.p ** dec.a
    found = None
    if pa % 4 == 3 and graph.k * (pa - 1) == 2 * (field.q - 1):
        found = PaleyUnionDigraph(copies=dec.count, part=pa)
    m = mu(graph)
    _check(m >= 3, graph, f"a directed GP-graph has at least three eigenvalues, not {m}")
    _check((found is not None) == (m == 3), graph,
           f"the union-of-directed-Paley test must hold exactly when mu = 3 (mu = {m})")
    return found


def srg_parameters(graph: GPGraph) -> tuple[int, int, int, int] | None:
    """Strong-regularity parameters (v, r, e, d), when the graph is one.

    Present exactly for connected undirected graphs with three eigenvalues.
    The common-neighbor counts are measured on one adjacent and one
    non-adjacent pair and checked against (v-r-1)d = r(r-e-1).
    """
    if graph.directed or component_structure(graph).count > 1 or mu(graph) != 3:
        return None
    field = graph.field
    q, n = field.q, graph.n
    nbrs0 = set(graph.connection)
    v_adj = graph.connection[0]
    nbrs_adj = {field.index_add(v_adj, r) for r in graph.connection}
    e = len(nbrs0 & nbrs_adj)
    w = next(i for i in range(1, q) if i not in nbrs0)
    nbrs_non = {field.index_add(w, r) for r in graph.connection}
    d = len(nbrs0 & nbrs_non)
    _check((q - n - 1) * d == n * (n - e - 1), graph,
           f"srg({q},{n},{e},{d}) must satisfy (v-r-1)d = r(r-e-1)")
    return (q, n, e, d)


def boundary_spectrum(graph: GPGraph) -> tuple[CyclotomicInteger, ...]:
    """Eigenvalues of maximum modulus n, decided exactly via lam * conj(lam) = n^2.

    The float image only preselects the candidates, because the exact
    product costs O(p) per nonzero coefficient; the exact product decides.
    """
    p, n = graph.field.p, graph.n
    n_squared = CyclotomicInteger.from_int(p, n * n)
    return tuple(e.value for e in spectrum(graph).table
                 if abs(abs(e.numeric) - n) < 0.5 and e.value * e.value.conjugate() == n_squared)


def numeric_oracle_check(graph: GPGraph, tolerance: float = 1e-8) -> bool:
    """Compare the exact spectrum against a dense floating-point eigensolver.

    Both eigenvalue lists are sorted by (real, imaginary) and paired off;
    the check passes when every pair is within the tolerance.
    """
    field = graph.field
    q = field.q
    if q > ORACLE_SIZE_LIMIT:
        raise SizeBudgetExceeded(f"q = {q} exceeds the dense-matrix limit {ORACLE_SIZE_LIMIT}")
    adj = np.zeros((q, q), dtype=np.float64)
    vertices = np.arange(q, dtype=np.int64)
    for r in graph.connection:
        heads = field.add_outer(vertices, np.array([r], dtype=np.int64)).ravel()
        adj[vertices, heads] = 1.0
    numeric = np.linalg.eigvals(adj)

    exact: list[complex] = []
    for entry in spectrum(graph).table:
        exact.extend([entry.numeric] * entry.multiplicity)

    def key(z):
        return (round(z.real, 6), round(z.imag, 6), z.real, z.imag)

    exact.sort(key=key)
    numeric = sorted((complex(z) for z in numeric), key=key)
    return all(abs(a - b) <= tolerance for a, b in zip(exact, numeric))
