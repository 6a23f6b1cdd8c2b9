"""Exact spectra of GP-graphs from one table of Gaussian periods.

Every eigenvalue of GP(k, q) lies in Z[zeta_p]. The additive character
x -> zeta^Tr(omega^e x) sums to the Gaussian period

    eta_i = sum of zeta^Tr(x) over the coset omega^i * <omega^k>,   i = e mod k,

on the connection set, so the spectrum is the regularity degree
n = (q-1)/k once (the trivial character) and every eta_i n times, for
connected and disconnected graphs, prime and extension fields alike. Each
period is stored as the sorted traces of its coset, one row of q - 1 + n
entries in all. A row sums to n, so two rows are the same cyclotomic
integer exactly when they are equal as raw vectors, and numpy deduplicates
and counts them. A value is real when it is fixed by zeta -> zeta^-1 and
rational when it is fixed by zeta -> zeta^g, g a generator of F_p*, which
generates the whole Galois group of Q(zeta_p); both automorphisms shift
the period index, so the tests compare periods, not coefficients. The
order of the eigenvalues and their float images are computed only when
something reads them, and the values are rendered from their nonzero
terms. eta^2 and eta * conj(eta) are histograms of trace sums over pairs
from one row, eta + conj(eta) is the row merged with its negative, and a
value has modulus n exactly when its row is constant, so no check
multiplies coefficient vectors; CyclotomicInteger arithmetic is the oracle.
The exact spectrum can be cross-checked against a dense floating-point
eigensolver.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cyclotomic import CyclotomicInteger, ValueClass, embed_coeffs
from .errors import IndexOutOfRange, NotDirected, SizeBudgetExceeded, check
from .fields import FiniteField
from .graphs import GPGraph, build_graph, components

ORACLE_SIZE_LIMIT = 512
PAIR_BLOCK = 1 << 20  # trace pairs summed at once by period_products: 8 MB of int64


class Nature(IntEnum):
    """Nature of a whole spectrum; the order is the fixed report sort order."""

    INTEGRAL = 0
    REAL_NONINTEGRAL = 1
    COMPLEX = 2

    def render(self) -> str:
        return {0: "integral", 1: "real-nonintegral", 2: "complex"}[self.value]


class Entry(NamedTuple):
    """One distinct eigenvalue as its nonzero canonical terms (j, c_j), ascending in j."""

    terms: tuple[tuple[int, int], ...]
    multiplicity: int
    value_class: ValueClass
    numeric: complex


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
    # the distinct values, unordered, as rows of _period_rows, with their
    # multiplicities and ValueClass codes (see spectrum)
    _p: int = dataclass_field(repr=False, compare=False)
    _rows: np.ndarray = dataclass_field(repr=False, compare=False)
    _multiplicities: np.ndarray = dataclass_field(repr=False, compare=False)
    _classes: np.ndarray = dataclass_field(repr=False, compare=False)

    @cached_property
    def entries(self) -> tuple[Entry, ...]:
        """The distinct eigenvalues by descending real part, then imaginary part, then coefficients."""
        return self._entries(np.arange(self.mu))

    def _entries(self, indices: np.ndarray) -> tuple[Entry, ...]:
        """The entries of the rows at `indices`, in the order of `entries`.

        Each row is decoded into a transient canonical coefficient vector,
        c_j = h_j - h_(p-1) for the trace histogram h; only its nonzero terms
        are kept, and its float image is the one CyclotomicInteger.embed
        gives. Dense coefficient tuples break ties between rounded images, so
        they are built only for the entries that tie.
        """
        p = self._p
        value_classes = tuple(ValueClass)  # in the order of the codes
        entries = []
        for row, mult, code in zip(self._rows[indices], self._multiplicities[indices].tolist(),
                                   self._classes[indices].tolist()):
            coeffs = np.bincount(row, minlength=p)
            coeffs -= coeffs[-1]
            nonzero = np.flatnonzero(coeffs)
            entries.append(Entry(tuple(zip(nonzero.tolist(), coeffs[nonzero].tolist())), mult,
                                 value_classes[code], embed_coeffs(p, coeffs)))
        keys = [(-round(e.numeric.real, 9), round(e.numeric.imag, 9)) for e in entries]
        tied = {key for key, count in Counter(keys).items() if count > 1}

        def order(i):
            if keys[i] not in tied:
                return keys[i]
            return keys[i] + (CyclotomicInteger.from_terms(p, entries[i].terms).coeffs,)

        return tuple(entries[i] for i in sorted(range(len(entries)), key=order))

    @cached_property
    def table(self) -> tuple[Eigenvalue, ...]:
        """`entries` with each value as a CyclotomicInteger."""
        return tuple(Eigenvalue(CyclotomicInteger.from_terms(self._p, e.terms), e.multiplicity,
                                e.value_class, e.numeric) for e in self.entries)

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


def _period_rows(field: FiniteField, k: int, n: int) -> np.ndarray:
    """n and the k Gaussian periods as a (k + 1) x n array of sorted traces.

    Row 1 + i lists Tr(x) for x in the coset of class i in ascending order,
    so eta_i is the sum of zeta^j over its entries j; row 0, all zeros, is
    n. The array holds q - 1 + n entries, whatever k and p are.
    """
    rows = np.zeros((k + 1, n), dtype=field.trace_of_exp.dtype)
    rows[1:] = field.trace_of_exp.reshape(n, k).T  # class i = e mod k is column i
    rows[1:].sort(axis=1)
    return rows


def _fixed_by(ids: np.ndarray, shift: int) -> np.ndarray:
    """Which periods are fixed by zeta -> zeta^a, for a = omega^shift in F_p*.

    ids[i] identifies the value of eta_i. Since a * Tr(x) = Tr(a * x), the
    automorphism maps eta_i to eta_(i + shift mod k), so eta_i is fixed
    exactly when that period has the same value.
    """
    return ids == np.roll(ids, -shift)


def _value_sum(rows: np.ndarray, multiplicities: np.ndarray, p: int) -> np.ndarray:
    """The sum of mult * eta over the rows, as a canonical coefficient vector.

    The float sums are exact: the largest is q * n < 2^53.
    """
    total = np.bincount(rows.ravel(), weights=np.repeat(multiplicities, rows.shape[1]),
                        minlength=p).astype(np.int64)
    return total - total[-1]


def period_products(report: SpectrumReport) -> np.ndarray:
    """eta^2 for each distinct value, as canonical rows.

    Row r is the histogram of (t + u) mod p over all pairs of traces
    t, u in period row r, less its last entry. That takes n^2 steps per row
    when n <= p; wider rows (most graphs over p = 2) convolve their two
    length-p trace histograms instead, in p^2 steps. The pairs are counted
    in blocks of about PAIR_BLOCK, so beyond the mu x p result the
    temporaries stay small. An entry is at most n^2 and the multiplicities
    sum to q, so int64 holds every sum of mult * row while q * n^2 < 2^63.
    """
    p, q, n = report._p, report.q, report.n
    check(q * n * n < 2 ** 63, f"GP({report.k},{q}): q * n^2 must fit in int64 for exact products")
    rows = report._rows.astype(np.int64)
    offsets = np.arange(len(rows))[:, None] * p
    products = np.zeros((len(rows), p), dtype=np.int64)
    if n <= p:
        step = max(1, PAIR_BLOCK // rows.size)
        for start in range(0, n, step):
            pairs = rows[:, start:start + step, None] + rows[:, None, :]
            pairs %= p
            pairs += offsets[:, :, None]
            np.add.at(products.reshape(-1), pairs, 1)
    else:
        counts = np.zeros_like(products)
        np.add.at(counts.reshape(-1), rows + offsets, 1)
        x = np.arange(p)
        for t in range(p):  # the pairs (t, u) with t + u = x
            products += counts[:, t, None] * counts[:, (x - t) % p]
    products -= products[:, -1:].copy()
    return products


def moments(report: SpectrumReport) -> tuple[np.ndarray, np.ndarray]:
    """The sums of mult * eta and of mult * eta^2 over the distinct values, canonical."""
    multiplicities = report._multiplicities
    return (_value_sum(report._rows, multiplicities, report._p),
            multiplicities @ period_products(report))


def spectrum(graph: GPGraph) -> SpectrumReport:
    """The exact eigenvalue multiset of GP(k, q): n once, and every Gaussian period n times.

    The periods are the rows of `_period_rows`, deduplicated by their
    bytes. A period equal to n, over a coset on which the trace vanishes,
    adds n to the principal multiplicity. A value is rational when it is
    fixed by zeta -> zeta^g, g = omega^((q-1)/(p-1)), and real when it is
    fixed by zeta -> zeta^-1. The result is checked on every call: the
    multiplicities sum to q, n occurs once per component, the eigenvalues
    sum to zero, and the nature matches the arithmetic rule.
    """
    if graph._spectrum is not None:
        return graph._spectrum
    field = graph.field
    p, q, k, n = field.p, field.q, graph.k, graph.n
    rows = _period_rows(field, k, n)
    # np.unique(axis=0) spends more promoting dtypes than sorting the row bytes
    _, firsts, inverse = np.unique(rows.view(np.dtype((np.void, rows.strides[0]))).ravel(),
                                   return_index=True, return_inverse=True)
    values = rows[firsts]
    multiplicities = np.bincount(inverse) * n
    principal = inverse[0]
    multiplicities[principal] += 1 - n
    ids = inverse[1:]
    irrational = ~_fixed_by(ids, (q - 1) // (p - 1))  # g
    nonreal = ~_fixed_by(ids, field.discrete_log(p - 1))  # -1, an element of F_p
    # codes 0 rational, 1 real irrational, 2 nonreal, in the order of
    # ValueClass and of Nature; equal periods get equal codes, and n is rational
    classes = np.zeros(len(values), dtype=np.int64)
    classes[ids] = irrational.astype(np.int64) + nonreal
    nature = Nature(int(classes.max()))

    count = components(graph).count
    label = f"GP({k},{q})"
    check(multiplicities.sum() == q, f"{label}: eigenvalue multiplicities must sum to q")
    check(multiplicities[principal] == count,
          f"{label}: principal multiplicity {multiplicities[principal]} "
          f"must equal the component count {count}")
    check(not _value_sum(values, multiplicities, p).any(),
          f"{label}: a loop-free adjacency matrix has trace zero")
    check(nature == nature_arithmetic(graph),
          f"{label}: eigenvalue nature {nature.render()} must match the arithmetic rule")

    report = SpectrumReport(
        q=q, k=k, n=n,
        nature=nature,
        mu=len(values),
        principal_multiplicity=int(multiplicities[principal]),
        _p=p,
        _rows=values,
        _multiplicities=multiplicities,
        _classes=classes,
    )
    graph._spectrum = report
    return report


def mu(graph: GPGraph) -> int:
    """Number of distinct eigenvalues."""
    return spectrum(graph).mu


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


def verify_2re(field: FiniteField, k: int) -> bool:
    """Check that the symmetrized spectrum is {lam + conj(lam)} of the directed one."""
    graph = build_graph(field, k)
    if not graph.directed:
        raise NotDirected(f"GP({graph.k},{field.q}) is undirected")
    return two_re_holds(spectrum(graph), spectrum(build_graph(field, graph.k // 2)))


@dataclass(frozen=True)
class PaleyUnionDigraph:
    """A directed graph that is a disjoint union of directed Paley graphs."""

    copies: int
    part: int  # vertex count p^a of each directed Paley component


def detect_three_ev_digraph(graph: GPGraph) -> PaleyUnionDigraph | None:
    """Detect the only directed GP-graphs with exactly three eigenvalues.

    These are unions of directed Paley graphs: k = 2(q-1)/(p^a - 1) with
    p^a = 3 (mod 4). The detection is checked to coincide with mu = 3, and
    every directed graph is checked to satisfy mu >= 3.
    """
    if not graph.directed:
        raise NotDirected(f"GP({graph.k},{graph.field.q}) is undirected")
    field = graph.field
    dec = components(graph)
    pa = field.p ** dec.a
    found = None
    if pa % 4 == 3 and graph.k * (pa - 1) == 2 * (field.q - 1):
        found = PaleyUnionDigraph(copies=dec.count, part=pa)
    m = mu(graph)
    label = f"GP({graph.k},{field.q})"
    check(m >= 3, f"{label}: a directed GP-graph has at least three eigenvalues, not {m}")
    check((found is not None) == (m == 3),
          f"{label}: the union-of-directed-Paley test must hold exactly when mu = 3 (mu = {m})")
    return found


def srg_parameters(graph: GPGraph) -> tuple[int, int, int, int] | None:
    """Strong-regularity parameters (v, r, e, d), when the graph is one.

    Present exactly for connected undirected graphs with three eigenvalues.
    The common-neighbor counts are measured on the Zech table, for the
    adjacent pair (0, 1) and the pair (0, w), w = omega^l the least index
    outside the k-th powers: omega^(jk) + omega^l = omega^(l + zech[jk - l])
    is a k-th power when that log is a multiple of k. They are checked
    against (v-r-1)d = r(r-e-1).
    """
    if graph.directed or components(graph).count > 1 or mu(graph) != 3:
        return None
    field = graph.field
    q, k, n = field.q, graph.k, graph.n
    powers = np.arange(0, q - 1, k)  # the logs of the k-th powers
    z = field.zech[powers]
    e = int(np.count_nonzero((z >= 0) & (z % k == 0)))
    log_w = int(field.log[1 + np.argmax(field.log[1:] % k != 0)])
    z = field.zech[(powers - log_w) % (q - 1)]
    d = int(np.count_nonzero((z >= 0) & ((log_w + z) % k == 0)))
    check((q - n - 1) * d == n * (n - e - 1),
          f"GP({k},{q}): srg({q},{n},{e},{d}) must satisfy (v-r-1)d = r(r-e-1)")
    return (q, n, e, d)


def boundary_rows(report: SpectrumReport) -> np.ndarray:
    """Indices of the distinct values of maximum modulus n: the rows whose traces are all equal.

    A sum of n roots of unity has modulus n exactly when its terms are all
    the same root, so the row of a boundary value n * zeta^t is n copies of t.
    """
    rows = report._rows
    return np.flatnonzero((rows == rows[:, :1]).all(axis=1))


def boundary_spectrum(graph: GPGraph) -> tuple[CyclotomicInteger, ...]:
    """Eigenvalues of maximum modulus n, in the order of `SpectrumReport.entries`."""
    report = spectrum(graph)
    return tuple(CyclotomicInteger.from_terms(report._p, e.terms)
                 for e in report._entries(boundary_rows(report)))


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
    adj[vertices[:, None], field.add_outer(vertices, graph.connection)] = 1.0
    numeric = np.linalg.eigvals(adj)

    exact: list[complex] = []
    for entry in spectrum(graph).entries:
        exact.extend([entry.numeric] * entry.multiplicity)

    def key(z):
        return (round(z.real, 6), round(z.imag, 6), z.real, z.imag)

    exact.sort(key=key)
    numeric = sorted((complex(z) for z in numeric), key=key)
    return all(abs(a - b) <= tolerance for a, b in zip(exact, numeric))
