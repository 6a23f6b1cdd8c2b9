"""Reference methods that the tests compare the library with.

The field model (elements with their arithmetic), vertex-level traversal
and adjacency on element indices, ring arithmetic in Z[zeta_p], Gaussian
periods one coset at a time, a dense floating-point eigensolver (for the
spectrum, and for mu and nature), cyclotomic polynomials over Z, and the
paper's results that the CLI does not serve: the weak-Waring reduction and
the sufficient integrality criteria.
"""

import itertools
import json
import math
from collections import Counter
from functools import lru_cache, reduce

import numpy as np

from gpgraphs import (
    FieldElement,
    NotPrime,
    SizeBudgetExceeded,
    build_field,
    build_graph,
    irreducible_polynomials,
    spectrum,
    waring_result,
)
from gpgraphs.cli import FieldReportRow
from gpgraphs.errors import check
from gpgraphs.families import _cyclotomic_value
from gpgraphs.graphs import log_bfs
from gpgraphs.numbertheory import divisors, is_prime
from gpgraphs.spectra import Entry, Nature, ValueClass, embed_coeffs, render_terms
from gpgraphs.verify import KRONECKER_RATIO, _kronecker_square, _pair_sums, boundary_rows

ORACLE_SIZE_LIMIT = 512


def index_add(field, u: int, v: int) -> int:
    """u + v, coefficient by coefficient; a scalar add_outer, which the deque-BFS oracles call per arc."""
    out = 0
    for i in range(field.m):
        w = field.p ** i
        out += (u // w + v // w) % field.p * w
    return out


def index_neg(field, u: int) -> int:
    return index_mul(field, field.p - 1, u)  # -u = (-1) * u, and -1 has index p - 1


def index_sub(field, u: int, v: int) -> int:
    return index_add(field, u, index_neg(field, v))


def index_mul(field, u: int, v: int) -> int:
    if u == 0 or v == 0:
        return 0
    return int(field.exp[(int(field.log[u]) + int(field.log[v])) % (field.q - 1)])


def index_inv(field, u: int) -> int:
    if u == 0:
        raise ValueError("the zero element has no inverse")
    return int(field.exp[-int(field.log[u]) % (field.q - 1)])


def index_pow(field, u: int, e: int) -> int:
    """u^e, on Python ints so that log(u) * e never wraps."""
    if u == 0:
        if e < 0:
            raise ValueError("negative power of the zero element")
        return int(e == 0)
    return int(field.exp[int(field.log[u]) * e % (field.q - 1)])


def discrete_log(field, x) -> int:
    """The exponent e with omega^e = x, for nonzero x (an index or an element)."""
    idx = field.element(x).index
    if idx == 0:
        raise ValueError("discrete log of zero is undefined")
    return int(field.log[idx])


class Element(FieldElement):
    """A FieldElement with the field operations, in which an int acts as a prime-subfield residue.

    Two elements are equal when they have the same field and index, so an
    Element also compares with the library's FieldElements.
    """

    __slots__ = ()

    @classmethod
    def of(cls, x: FieldElement) -> "Element":
        return cls(x.field, x.index)

    @classmethod
    def from_coeffs(cls, field, coeffs) -> "Element":
        """The element with these polynomial coefficients, constant term first."""
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != field.m or any(not 0 <= c < field.p for c in coeffs):
            raise ValueError(f"need {field.m} coefficients in [0, {field.p})")
        return cls(field, sum(c * field.p ** i for i, c in enumerate(coeffs)))

    @classmethod
    def zero(cls, field) -> "Element":
        return cls(field, 0)

    @classmethod
    def one(cls, field) -> "Element":
        return cls(field, 1)

    @classmethod
    def omega(cls, field) -> "Element":
        """The canonical primitive element: least index of multiplicative order q - 1."""
        return cls(field, field.omega_index)

    @classmethod
    def elements(cls, field):
        return (cls(field, i) for i in range(field.q))

    def is_zero(self) -> bool:
        return self.index == 0

    def _operand(self, other) -> int:
        """The index of other, an int (a prime-subfield residue) or an element of the same field."""
        if isinstance(other, int):
            return other % self.field.p
        if other.field is not self.field:
            raise ValueError("operands belong to different fields")
        return other.index

    def __add__(self, other):
        return Element(self.field, index_add(self.field, self.index, self._operand(other)))

    def __sub__(self, other):
        return Element(self.field, index_sub(self.field, self.index, self._operand(other)))

    def __mul__(self, other):
        return Element(self.field, index_mul(self.field, self.index, self._operand(other)))

    def __truediv__(self, other):
        return Element(self.field, index_mul(self.field, self.index,
                                             index_inv(self.field, self._operand(other))))

    def __pow__(self, e: int):
        return Element(self.field, index_pow(self.field, self.index, e))

    def __neg__(self):
        return Element(self.field, index_neg(self.field, self.index))

    def inverse(self) -> "Element":
        return Element(self.field, index_inv(self.field, self.index))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.index == other.index
        if isinstance(other, int):
            return self.index == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.index))


def second_modulus(p: int, m: int) -> tuple[int, ...]:
    """The modulus after the canonical one, second in the order of irreducible_polynomials."""
    return next(itertools.islice(irreducible_polynomials(p, m), 1, None))


def irreducible_by_trial_division(f: tuple[int, ...], p: int) -> bool:
    """Whether the monic f over F_p has no monic factor of degree 1 .. deg(f) / 2, by long division."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            rem = list(f)
            for top in range(m, d - 1, -1):  # the divisor low + (1,) is monic
                c = rem[top]
                for j, b in enumerate(low + (1,)):
                    rem[top - d + j] = (rem[top - d + j] - c * b) % p
            if not any(rem):
                return False
    return True


def add_outer(field, us, vs) -> np.ndarray:
    """Pairwise sums us[i] + vs[j] as a (len(us), len(vs)) index array."""
    us = np.asarray(us, dtype=np.int64)[:, None]
    vs = np.asarray(vs, dtype=np.int64)[None, :]
    out = np.zeros((us.size, vs.size), dtype=np.int64)
    for i in range(field.m):
        w = field.p ** i
        out += (us // w + vs // w) % field.p * w
    return out


def trace_table(field) -> np.ndarray:
    """Tr(x) for every index x: trace_of_exp[log[x]], and Tr(0) = 0."""
    table = np.zeros(field.q, dtype=np.int64)
    table[1:] = field.trace_of_exp[field.log[1:]]
    return table


def bfs_distances(field, connection, root: int = 0) -> np.ndarray:
    """BFS distances from a root over arcs u -> u + r, r in connection; -1 if unreached."""
    q = field.q
    conn = np.asarray(connection, dtype=np.int64)
    dist = np.full(q, -1, dtype=np.int64)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    d = 0
    while frontier.size:
        nbrs = np.unique(add_outer(field, frontier, conn).ravel())
        nbrs = nbrs[dist[nbrs] < 0]
        d += 1
        dist[nbrs] = d
        frontier = nbrs
    return dist


def has_arc(graph, u, v) -> bool:
    """Whether v - u is a nonzero k-th power, by its discrete log."""
    field = graph.field
    diff = index_sub(field, field.element(v).index, field.element(u).index)
    return diff != 0 and field.log[diff] % graph.k == 0


def symmetric_connection(graph) -> np.ndarray:
    """Connection set of the underlying undirected graph (k-th powers and their negatives), ascending."""
    return np.union1d(graph.connection, [index_neg(graph.field, r) for r in graph.connection.tolist()])


def quotient_steps(field, graph, signed: bool) -> np.ndarray:
    """The steps of the quotient BFS: the logs of the k-th powers, then, if signed, their negatives."""
    steps = np.arange(0, field.q - 1, graph.k)
    return np.concatenate([steps, (steps + field.log[field.p - 1]) % (field.q - 1)]) if signed else steps


def signed_traversal(graph) -> np.ndarray:
    """Class distances over the steps r and -r, by graphs.log_bfs mod k; an undirected graph holds each -r."""
    field = graph.field
    return log_bfs(field.zech, quotient_steps(field, graph, graph.directed), graph.k)[0]


def symmetrize(graph):
    """The underlying undirected graph; for a directed graph this is GP(k/2, q)."""
    if not graph.directed:
        return graph
    half = build_graph(graph.field, graph.k // 2)
    check(set(symmetric_connection(graph)) == set(half.connection),
          f"GP({graph.k},{graph.field.q}): the symmetrized connection set must be that of GP(k/2, q)")
    return half


def parse_records(text: str) -> list[FieldReportRow]:
    """Inverse of cli.render_records."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        record["srg"] = tuple(record["srg"]) if record["srg"] is not None else None
        rows.append(FieldReportRow(**record))
    return rows


class Cyclotomic:
    """A value in Z[zeta_p] with ring arithmetic, in which an int acts as a rational value.

    A value is a length-p integer coefficient vector over the redundant
    basis 1, zeta, ..., zeta^(p-1). The relation 1 + zeta + ... + zeta^(p-1)
    = 0 forces the last coefficient to zero, so two values are equal exactly
    when their vectors agree. Coefficients are Python ints and never
    overflow. `embed`, `classify` and `str` give what the library's
    `Entry` of the same value gives.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != p:
            raise ValueError(f"need exactly {p} coefficients, got {len(coeffs)}")
        last = coeffs[p - 1]
        if last:
            coeffs = [c - last for c in coeffs]
        self.p = p
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_terms(cls, p: int, terms) -> "Cyclotomic":
        """The value with coefficient c_j at zeta^j for each term (j, c_j), zero elsewhere."""
        coeffs = [0] * p
        for j, c in terms:
            coeffs[j] = c
        return cls(p, coeffs)

    @classmethod
    def from_int(cls, p: int, value: int) -> "Cyclotomic":
        coeffs = [0] * p
        coeffs[0] = value
        return cls(p, coeffs)

    @classmethod
    def zero(cls, p: int) -> "Cyclotomic":
        return cls.from_int(p, 0)

    def _operand(self, other) -> "Cyclotomic":
        """other, an int or a value of the same root order, as a value."""
        if isinstance(other, int):
            return Cyclotomic.from_int(self.p, other)
        if self.p != other.p:
            raise ValueError(f"cannot combine Z[zeta_{self.p}] with Z[zeta_{other.p}]")
        return other

    def __add__(self, other):
        other = self._operand(other)
        return Cyclotomic(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._operand(other)
        return Cyclotomic(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Cyclotomic(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic(self.p, [other * a for a in self.coeffs])
        other = self._operand(other)
        p = self.p
        out = [0] * p
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero:
                    out[(i + j) % p] += a * b
        return Cyclotomic(p, out)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^(-1): coefficient j moves to -j mod p."""
        c = self.coeffs
        return Cyclotomic(self.p, (c[0],) + c[:0:-1])

    def classify(self) -> ValueClass:
        if self.is_rational():
            return ValueClass.RATIONAL
        if self == self.conjugate():
            return ValueClass.REAL_IRRATIONAL
        return ValueClass.NONREAL

    def is_rational(self) -> bool:
        # canonical form: rational exactly when every coefficient but the first is zero
        return not any(self.coeffs[1:self.p - 1])

    def embed(self) -> complex:
        """Double-precision image under zeta -> exp(2*pi*i/p), as spectra.embed_coeffs rounds it."""
        return embed_coeffs(self.p, self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __str__(self):
        return render_terms((j, c) for j, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return f"Cyclotomic(p={self.p}, {self})"

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def rational_value(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]


def root_power(p: int, j: int) -> Cyclotomic:
    """zeta_p^j in canonical form; j is reduced modulo p."""
    if not is_prime(p):
        raise ValueError(f"root order p = {p} must be prime")
    coeffs = [0] * p
    coeffs[j % p] = 1
    return Cyclotomic(p, coeffs)


@lru_cache(maxsize=None)
def quadratic_gauss_sum(p: int) -> Cyclotomic:
    """The sum of legendre(x) * zeta^x over x in F_p*, for odd prime p.

    Its square is p when p = 1 (mod 4) and -p when p = 3 (mod 4), which
    gives exact sqrt(p) and i*sqrt(p) representatives inside Z[zeta_p].
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    coeffs = [0] * p
    for x in range(1, p):
        coeffs[x] = 1 if pow(x, (p - 1) // 2, p) == 1 else -1
    return Cyclotomic(p, coeffs)


def gaussian_period(field, k: int, i: int) -> Cyclotomic:
    """The period sum over the coset omega^i * <omega^k>, exactly in Z[zeta_p]."""
    if (field.q - 1) % k != 0:
        raise ValueError(f"k = {k} does not divide q - 1 = {field.q - 1}")
    if not 0 <= i < k:
        raise ValueError(f"coset index {i} outside [0, {k})")
    return Cyclotomic(field.p, np.bincount(field.trace_of_exp[i::k], minlength=field.p).tolist())


def exact_values(report) -> tuple[tuple[Cyclotomic, int], ...]:
    """(value, multiplicity) pairs in the order of `report.entries`, each value lifted to Cyclotomic."""
    return tuple((Cyclotomic.from_terms(report._p, e.terms), e.multiplicity) for e in report.entries)


def boundary_values(report) -> tuple[Cyclotomic, ...]:
    """The eigenvalues of maximum modulus n, in the order of `entries`, from the boundary rows."""
    return tuple(Cyclotomic.from_terms(report._p, e.terms)
                 for e in report._entries(boundary_rows(report)))


def dense_entries(report) -> tuple[Entry, ...]:
    """`report.entries`, each row decoded densely: c_j = h_j - h_(p-1) for its trace histogram h."""
    p, rows = report._p, report._rows
    entries = []
    for row, mult, code in zip(rows, report._multiplicities.tolist(), report._classes.tolist()):
        coeffs = np.bincount(row, minlength=p)
        coeffs -= coeffs[-1]
        nonzero = np.flatnonzero(coeffs)
        entries.append(Entry(tuple(zip(nonzero.tolist(), coeffs[nonzero].tolist())), mult,
                             tuple(ValueClass)[code], embed_coeffs(p, coeffs)))
    keys = [(-round(e.numeric.real, 9), round(e.numeric.imag, 9)) for e in entries]
    tied = {key for key, count in Counter(keys).items() if count > 1}

    def order(i):
        if keys[i] not in tied:
            return keys[i]
        coeffs = np.bincount(rows[i], minlength=p)
        return keys[i] + (tuple((coeffs - coeffs[-1]).tolist()),)

    return tuple(entries[i] for i in sorted(range(len(entries)), key=order))


def square_histogram(row: np.ndarray, p: int) -> np.ndarray:
    """eta^2 of one period row, as a length-p histogram: less its last entry, the canonical eta^2.

    Entry x counts the pairs of traces t, u in the row with t + u = x mod p.
    """
    if len(row) ** 2 <= KRONECKER_RATIO * p:  # the kernel that `moments` picks
        pairs = _pair_sums(row[None], p, np.zeros(1, dtype=np.intp), 1)[0]
    else:
        pairs = _kronecker_square(row, p)
    return pairs[:p] + pairs[p:]


def verify_2re(field, k: int) -> bool:
    """Check that the symmetrized spectrum is {lam + conj(lam)} of the directed one.

    The doubled real parts are summed in Z[zeta_p], weighted by multiplicity,
    and compared with the eigenvalues of GP(k/2, q) as a multiset.
    """
    graph = build_graph(field, k)
    if not graph.directed:
        raise ValueError(f"GP({graph.k},{field.q}) is undirected")
    doubled = Counter()
    for value, mult in exact_values(spectrum(graph)):
        doubled[value + value.conjugate()] += mult
    return doubled == Counter(dict(exact_values(spectrum(build_graph(field, graph.k // 2)))))


def dense_eigenvalues(graph) -> np.ndarray:
    """The q eigenvalues of the adjacency matrix, from a dense floating-point eigensolver."""
    field = graph.field
    q = field.q
    if q > ORACLE_SIZE_LIMIT:
        raise SizeBudgetExceeded(f"q = {q} exceeds the dense-matrix limit {ORACLE_SIZE_LIMIT}")
    adj = np.zeros((q, q), dtype=np.float64)
    vertices = np.arange(q, dtype=np.int64)
    adj[vertices[:, None], add_outer(field, vertices, graph.connection)] = 1.0
    return np.linalg.eigvals(adj)


def dense_mu_and_nature(graph, tolerance: float = 1e-6) -> tuple[int, Nature]:
    """The number of distinct eigenvalues and the spectrum's nature, from dense_eigenvalues.

    Eigenvalues within the tolerance of one another count as one.
    """
    distinct: list[complex] = []
    for z in dense_eigenvalues(graph).tolist():
        if all(abs(z - d) > tolerance for d in distinct):
            distinct.append(z)
    if all(abs(z - round(z.real)) <= tolerance for z in distinct):
        return len(distinct), Nature.INTEGRAL
    if all(abs(z.imag) <= tolerance for z in distinct):
        return len(distinct), Nature.REAL_NONINTEGRAL
    return len(distinct), Nature.COMPLEX


def numeric_oracle_check(graph, tolerance: float = 1e-8) -> bool:
    """Compare the exact spectrum against a dense floating-point eigensolver.

    Both eigenvalue lists are sorted by (real, imaginary) and paired off;
    the check passes when every pair is within the tolerance.
    """
    numeric = dense_eigenvalues(graph)

    exact: list[complex] = []
    for entry in spectrum(graph).entries:
        exact.extend([entry.numeric] * entry.multiplicity)

    def key(z):
        return (round(z.real, 6), round(z.imag, 6), z.real, z.imag)

    exact.sort(key=key)
    numeric = sorted((complex(z) for z in numeric), key=key)
    return all(abs(a - b) <= tolerance for a, b in zip(exact, numeric))


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of integer polynomials, dense coefficients constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _poly_divexact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Exact division of integer polynomials with monic divisor."""
    check(den[-1] == 1, "the divisor polynomial must be monic")
    work = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dc in enumerate(den):
                work[i + j] -= c * dc
    check(not any(work), "the polynomial division must be exact")
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, by dividing x^d - 1 by the earlier ones."""
    den = reduce(_poly_mul, map(cyclotomic_poly, divisors(d)[:-1]), (1,))
    return _poly_divexact(tuple([-1] + [0] * (d - 1) + [1]), den)


def integrality_reasons(p: int, m: int, k: int) -> list[str]:
    """All satisfied integrality criteria for GP(k, p^m).

    MasterDivisibility is the exact criterion k | (q-1)/(p-1); the others
    are sufficient conditions, so whenever any of them holds the master
    criterion is checked to hold as well.
    """
    q = p ** m
    if (q - 1) % k != 0:
        raise ValueError(f"k = {k} does not divide q - 1 = {q - 1}")
    reasons: list[str] = []
    if math.gcd(k, p - 1) == 1:
        reasons.append("CoprimePMinus1")
    if p % k == 1 % k and m % k == 0:
        reasons.append("BPlusCongruence")
    if (p + 1) % k == 0 and m % 2 == 0:
        reasons.append("CMinusCongruence")
    for d in divisors(m):
        if d > 1 and _cyclotomic_value(d, p) % k == 0:
            reasons.append(f"CyclotomicDivisor({d})")
    master = ((q - 1) // (p - 1)) % k == 0
    if master:
        reasons.append("MasterDivisibility")
    check(master or not reasons,
          f"GP({k},{q}): every sufficient criterion must imply the master divisibility")
    return reasons


def is_primitive_divisor(c: int, p: int, a: int) -> bool:
    """c divides p^a - 1 but no earlier p^t - 1."""
    if c < 1 or (p ** a - 1) % c != 0:
        return False
    return all((p ** t - 1) % c != 0 for t in range(1, a))


def verify_reduction(p: int, a: int, b: int, c: int) -> bool:
    """Check w((p^(ab)-1)/(bc), p^(ab)) = b * w((p^a-1)/c, p^a) by two BFS runs.

    Requires the primitive-divisor preconditions c | p^a - 1 (and no earlier
    p^t - 1) and bc | p^(ab) - 1 (likewise), which also guarantee both
    numbers exist.
    """
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if not is_primitive_divisor(c, p, a):
        raise ValueError(f"c = {c} is not a primitive divisor of {p}^{a} - 1 = {p ** a - 1}")
    if not is_primitive_divisor(b * c, p, a * b):
        raise ValueError(
            f"bc = {b * c} is not a primitive divisor of {p}^{a * b} - 1 = {p ** (a * b) - 1}")
    lhs = waring_result(build_field(p, a * b), (p ** (a * b) - 1) // (b * c)).w
    rhs = waring_result(build_field(p, a), (p ** a - 1) // c).w
    check(lhs is not None and rhs is not None,
          f"w must exist on both sides for (p, a, b, c) = ({p}, {a}, {b}, {c})")
    return lhs == b * rhs
