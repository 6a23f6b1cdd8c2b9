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
SpectrumReport.entries is the one view of the values: their order and
float images are computed only when something reads it, and each value
is kept as its nonzero terms. eta^2 is the histogram of trace sums over
pairs from one row, eta + conj(eta) is the row merged with its negative,
and a value has modulus n exactly when its row is constant, so no check
multiplies coefficient vectors. The trace-zero law and the second moment
are checked by verify, on `moments`, not on every spectrum; so is the
three-eigenvalue law of digraphs, against the structure label. Cyclotomic
arithmetic and a dense floating-point eigensolver, the tests' oracles for
these rows, are in tests/oracles.py.
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
from .errors import check
from .fields import FiniteField
from .graphs import GPGraph, components

PAIR_BLOCK = 1 << 20  # trace pairs summed at once by _pair_sums: 8 MB of intp
# rows with n^2 > KRONECKER_RATIO * p are squared by Kronecker substitution: one
# row took about as long either way at n^2 / p near 16 for p = 257 and 47 for p = 3001
KRONECKER_RATIO = 32


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

    @cached_property
    def eigenvalues(self) -> tuple[tuple[CyclotomicInteger, int], ...]:
        """(value, multiplicity) pairs in the order of `entries`, each value a CyclotomicInteger."""
        return tuple((CyclotomicInteger.from_terms(self._p, e.terms), e.multiplicity)
                     for e in self.entries)


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
    k = len(ids)
    shift %= k
    fixed = np.empty(k, dtype=bool)
    np.equal(ids[:k - shift], ids[shift:], out=fixed[:k - shift])
    np.equal(ids[k - shift:], ids[:shift], out=fixed[k - shift:])
    return fixed


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


def spectrum(graph: GPGraph) -> SpectrumReport:
    """The exact eigenvalue multiset of GP(k, q): n once, and every Gaussian period n times.

    The periods are the rows of `_period_rows`, deduplicated by their
    bytes. A period equal to n, over a coset on which the trace vanishes,
    adds n to the principal multiplicity. A value is rational when it is
    fixed by zeta -> zeta^g, g = omega^((q-1)/(p-1)), and real when it is
    fixed by zeta -> zeta^-1. The result is checked on every call: the
    multiplicities sum to q, n occurs once per component, and the nature
    matches the arithmetic rule. That the eigenvalues sum to zero is
    checked by verify, on `moments`.
    """
    if graph._spectrum is not None:
        return graph._spectrum
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

    count = components(graph).count
    label = f"GP({k},{q})"
    check(multiplicities.sum() == q, f"{label}: eigenvalue multiplicities must sum to q")
    check(multiplicities[principal] == count,
          f"{label}: principal multiplicity {multiplicities[principal]} "
          f"must equal the component count {count}")
    check(nature == nature_for(p, field.m, k),
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


def srg_parameters(graph: GPGraph) -> tuple[int, int, int, int] | None:
    """Strong-regularity parameters (v, r, e, d), when the graph is one.

    Present exactly for connected undirected graphs with three eigenvalues.
    The common-neighbor counts are measured on the Zech table, for the
    adjacent pair (0, 1) and the pair (0, w), w = omega^l the least index
    outside the k-th powers: omega^(jk) + omega^l = omega^(l + zech[jk - l])
    is a k-th power when that log is a multiple of k. They are checked
    against (v-r-1)d = r(r-e-1).
    """
    if graph.directed or components(graph).count > 1 or spectrum(graph).mu != 3:
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
