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
the period index, so the tests compare periods, not coefficients.
A value is written in the canonical basis of Z[zeta_p]: the relation
1 + zeta + ... + zeta^(p-1) = 0 makes the coefficient of zeta^(p-1) zero,
so two values are equal exactly when their coefficients agree.
SpectrumReport.entries is the one view of the values: their order and
float images are computed only when something reads it, and each value
is kept as its nonzero canonical terms; eigenvalue_count gives mu with no
spectrum. Both run once per graph, which keeps each result (graphs.kept).
No law is checked here: verify owns each one. Ring arithmetic on Z[zeta_p]
and a dense eigensolver, the tests' oracles for these rows, are in tests/oracles.py.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from enum import Enum, IntEnum
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .fields import FiniteField
from .graphs import GPGraph, components, kept


class Nature(IntEnum):
    """Nature of a whole spectrum; the order is the fixed report sort order."""

    INTEGRAL = 0
    REAL_NONINTEGRAL = 1
    COMPLEX = 2

    def render(self) -> str:
        return {0: "integral", 1: "real-nonintegral", 2: "complex"}[self.value]


class ValueClass(Enum):
    """Classification of a single eigenvalue in Z[zeta_p]."""

    RATIONAL = "rational"
    REAL_IRRATIONAL = "real-irrational"
    NONREAL = "nonreal"


@lru_cache(maxsize=1)  # one report reads one p; a table per p seen would grow without bound
def _unit_roots(p: int) -> np.ndarray:
    return np.exp(2j * math.pi * np.arange(p) / p)


def embed_coeffs(p: int, coeffs) -> complex:
    """The image of a coefficient vector under zeta -> exp(2*pi*i/p).

    The single place that rounds a value to a complex double, so every
    caller agrees bit for bit on the image of the same coefficients.
    """
    return complex(np.asarray(coeffs, dtype=np.float64) @ _unit_roots(p))


def render_terms(terms: Iterable[tuple[int, int]]) -> str:
    """A value from its nonzero canonical terms (j, c_j), ascending in j, as `spectrum` prints it."""
    parts = []
    for j, c in terms:
        mag = abs(c)
        if j == 0:
            body = str(mag)
        else:
            var = "z" if j == 1 else f"z^{j}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


class Entry(NamedTuple):
    """One distinct eigenvalue as its nonzero canonical terms (j, c_j), ascending in j.

    `str`, `embed` and `classify` answer from the stored fields: the
    rendering, the float image and the value class.
    """

    terms: tuple[tuple[int, int], ...]
    multiplicity: int
    value_class: ValueClass
    numeric: complex

    def embed(self) -> complex:
        return self.numeric

    def classify(self) -> ValueClass:
        return self.value_class

    def __str__(self):
        return render_terms(self.terms)


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

        The canonical terms are c_j = h_j - h_(p-1) for the trace histogram h
        of a sorted row. One pass finds the runs of all rows: a row without
        trace p - 1 has h_(p-1) = 0, so its runs are its nonzero terms, and
        only a row with it decodes every c_j. The float image is embed_coeffs
        of a transient dense vector, whose summation order sets the sign of a
        real value's tiny imaginary part. The coefficients break ties between
        rounded images, so they are decoded again only for the entries that tie.
        """
        p = self._p
        rows = self._rows[indices]
        starts = np.ones(rows.shape, dtype=bool)  # where a run of equal traces starts
        np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
        starts = np.flatnonzero(starts)
        values, lengths = rows.ravel()[starts], np.diff(starts, append=rows.size)
        bounds = np.searchsorted(starts, np.arange(len(rows) + 1) * rows.shape[1]).tolist()
        value_classes = tuple(ValueClass)  # in the order of the codes
        entries = []
        for row, b, e, mult, code in zip(rows, bounds, bounds[1:], self._multiplicities[indices].tolist(),
                                         self._classes[indices].tolist()):
            coeffs = np.zeros(p)  # h, from the runs; float64 holds every count exactly
            at = values[b:e]  # the terms, while h_(p-1) = 0
            coeffs[at] = lengths[b:e]
            if row[-1] == p - 1:
                coeffs -= coeffs[-1]
                at = np.flatnonzero(coeffs)
            terms = tuple(zip(at.tolist(), map(int, coeffs[at].tolist())))
            entries.append(Entry(terms, mult, value_classes[code], embed_coeffs(p, coeffs)))
        keys = [(-round(e.numeric.real, 9), round(e.numeric.imag, 9)) for e in entries]
        tied = {key for key, count in Counter(keys).items() if count > 1}

        def order(i):
            if keys[i] not in tied:
                return keys[i]
            coeffs = np.bincount(rows[i], minlength=p)
            return keys[i] + (tuple((coeffs - coeffs[-1]).tolist()),)

        return tuple(entries[i] for i in sorted(range(len(entries)), key=order))

    @property
    def eigenvalues(self) -> tuple[tuple[Entry, int], ...]:
        """(entry, multiplicity) pairs in the order of `entries`."""
        return tuple((e, e.multiplicity) for e in self.entries)


def nature_for(p: int, m: int, k: int) -> Nature:
    """Arithmetic nature of GP(k, p^m) from divisibility alone, never building p^m.

    For c = p - 1 or 2 dividing q - 1, (q - 1)/c mod k is ((q - 1) mod ck)/c.
    """
    k = math.gcd(k, pow(p, m, k) - 1)  # gcd(k, q - 1)
    if p == 2 or (pow(p, m, k * (p - 1)) - 1) // (p - 1) % k == 0:
        return Nature.INTEGRAL
    if (pow(p, m, 2 * k) - 1) // 2 % k == 0:
        return Nature.REAL_NONINTEGRAL
    return Nature.COMPLEX


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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row that orders the rows as their bytes compare.

    A row of at most 8 bytes is its bytes read as one big-endian unsigned
    integer of 1, 2, 4 or 8 bytes; a wider row is a void scalar over its
    bytes. np.unique(axis=0) spends more promoting dtypes than sorting
    either key.
    """
    width = rows.strides[0]
    if width > 8:
        return rows.view(np.dtype((np.void, width))).ravel()
    size = 1 << (width - 1).bit_length()
    padded = np.zeros((len(rows), size), dtype=np.uint8)
    padded[:, size - width:] = rows.view(np.uint8).reshape(len(rows), width)
    return padded.view(f">u{size}").ravel().astype(f"u{size}", copy=False)


def _fixed_by(ids: np.ndarray, shift: int) -> np.ndarray:
    """Which periods are fixed by zeta -> zeta^a, for a = omega^shift in F_p*.

    ids[i] identifies the value of eta_i. Since a * Tr(x) = Tr(a * x), the
    automorphism maps eta_i to eta_(i + shift mod k), so eta_i is fixed
    exactly when that period has the same value.
    """
    shift %= len(ids)
    return ids == np.concatenate((ids[shift:], ids[:shift]))


@kept
def spectrum(graph: GPGraph) -> SpectrumReport:
    """The exact eigenvalue multiset of GP(k, q): n once, and every Gaussian period n times.

    The periods are the rows of `_period_rows`, deduplicated by their
    bytes. A period equal to n, over a coset on which the trace vanishes,
    adds n to the principal multiplicity. A value is rational when it is
    fixed by zeta -> zeta^g, g = omega^((q-1)/(p-1)), and real when it is
    fixed by zeta -> zeta^-1. No law is checked here (see verify); the
    multiplicities sum to (k + 1) n + 1 - n = q by construction.
    """
    field = graph.field
    p, q, k, n = field.p, field.q, graph.k, graph.n
    rows = _period_rows(field, k, n)
    _, firsts, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    values = rows[firsts]
    multiplicities = np.bincount(inverse) * n
    principal = inverse[0]
    multiplicities[principal] += 1 - n
    ids = inverse[1:]
    irrational = ~_fixed_by(ids, (q - 1) // (p - 1))  # g
    nonreal = ~_fixed_by(ids, field.log[p - 1])  # -1, which has index p - 1
    # codes 0 rational, 1 real irrational, 2 nonreal, in the order of
    # ValueClass and of Nature; equal periods get equal codes, and n is rational
    classes = np.zeros(len(values), dtype=np.int64)
    classes[ids] = irrational.astype(np.int64) + nonreal
    nature = Nature(int(classes.max()))
    for array in (values, multiplicities, classes):  # every caller of the graph shares them
        array.setflags(write=False)

    return SpectrumReport(
        q=q, k=k, n=n,
        nature=nature,
        mu=len(values),
        principal_multiplicity=int(multiplicities[principal]),
        _p=p,
        _rows=values,
        _multiplicities=multiplicities,
        _classes=classes,
    )


@kept
def eigenvalue_count(graph: GPGraph) -> int:
    """mu, the number of distinct eigenvalues, kept on the graph; it never reads the spectrum.

    At m = 1 the k periods sum zeta^j over disjoint j in {1, ..., p - 1}, a basis of Z[zeta_p]: mu = k + 1.
    Else it counts distinct rows of n and the periods: trace histograms if p <= n, else _period_rows.
    """
    field, k, n, p = graph.field, graph.k, graph.n, graph.field.p
    if field.m == 1:
        return k + 1
    if p <= n:  # class i = e mod k is column i; row 0 is n, all at trace 0
        rows = np.bincount((field.trace_of_exp.reshape(n, k) + np.arange(p, (k + 1) * p, p)).ravel(),
                           minlength=(k + 1) * p).astype(np.min_scalar_type(n)).reshape(k + 1, p)
        rows[0, 0] = n
    else:
        rows = _period_rows(field, k, n)
    keys = np.sort(_row_keys(rows))
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def srg_parameters(graph: GPGraph) -> tuple[int, int, int, int] | None:
    """Strong-regularity parameters (v, r, e, d), when the graph is one.

    Present exactly for connected undirected graphs with three eigenvalues.
    The common-neighbor counts are measured on the Zech table, for the
    adjacent pair (0, 1) and the pair (0, w), w = omega^l the least index
    outside the k-th powers: omega^(jk) + omega^l = omega^(l + zech[jk - l])
    is a k-th power when that log is a multiple of k. verify checks them
    against (v-r-1)d = r(r-e-1), and their presence against the spectrum.
    """
    if graph.directed or components(graph).count > 1 or eigenvalue_count(graph) != 3:
        return None
    field = graph.field
    q, k, n = field.q, graph.k, graph.n
    powers = np.arange(0, q - 1, k)  # the logs of the k-th powers
    z = field.zech[powers]
    e = int(np.count_nonzero((z >= 0) & (z % k == 0)))
    log_w = int(field.log[1 + np.argmax(field.log[1:] % k != 0)])
    z = field.zech[(powers - log_w) % (q - 1)]
    d = int(np.count_nonzero((z >= 0) & ((log_w + z) % k == 0)))
    return (q, n, e, d)
