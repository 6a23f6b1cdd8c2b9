"""Power-residue Cayley graphs GP(k, q) on the additive group of GF(q).

The connection set is the subgroup of nonzero k-th powers, so there is an
arc u -> v exactly when v - u is a k-th power. A graph holds arithmetic
facts only: k reduced to gcd(k, q - 1), n = (q - 1)/k, and directedness
by the valuation rule. Components follow from the order of p modulo n,
the period from its law, and g from one BFS over the k coset classes.
The set is listed on first read, by the witness search, symmetrization
and the numeric oracle; verify's nature check compares it with the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import check
from .fields import FiniteField
from .numbertheory import divisors, multiplicative_order, v2


class GPGraph:
    """The graph GP(k, q): vertices GF(q), arcs u -> v iff v - u is a k-th power.

    The constructor reads no table and builds nothing of size n.
    """

    def __init__(self, field: FiniteField, k_raw: int):
        if k_raw < 1:
            raise ValueError(f"k = {k_raw} must be positive")
        q = field.q
        self.field = field
        self.k_raw = k_raw
        self.k = math.gcd(k_raw, q - 1)
        self.n = (q - 1) // self.k
        # -1 = omega^((q-1)/2) is a k-th power unless k takes the whole 2-part of q - 1
        self.directed = q % 2 == 1 and v2(self.k) == v2(q - 1) > 0

        self._components: ComponentDecomposition | None = None
        self._spectrum = None  # filled lazily by spectra.spectrum
        self._traversal: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # by quotient_bfs

    @cached_property
    def connection(self) -> tuple[int, ...]:
        """The nonzero k-th powers as ascending indices."""
        return tuple(self.field.power_residue_indices(self.k))

    def has_arc(self, u, v) -> bool:
        ui = self.field.element(u).index
        vi = self.field.element(v).index
        diff = self.field.index_sub(vi, ui)
        return diff != 0 and self.field.discrete_log(diff) % self.k == 0

    def symmetric_connection(self) -> tuple[int, ...]:
        """Connection set of the underlying undirected graph (k-th powers and their negatives)."""
        if not self.directed:
            return self.connection
        sym = set(self.connection)
        sym.update(self.field.index_neg(r) for r in self.connection)
        return tuple(sorted(sym))

    def __repr__(self):
        shape = "directed" if self.directed else "undirected"
        return f"GPGraph(k={self.k}, q={self.field.q}, n={self.n}, {shape})"


def build_graph(field: FiniteField, k_raw: int) -> GPGraph:
    return GPGraph(field, k_raw)


# ---------------------------------------------------------------------------
# traversal

def quotient_bfs(graph: GPGraph, signed: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BFS from vertex 0 over the coset classes of the k-th powers, on at most q + 1 arcs.

    Multiplying by a k-th power is an automorphism that fixes 0, so the
    distance from 0 is constant on each class i = log(x) mod k. A step
    x -> x + r with e = log(r / x) lands in class i + zech[e], or on 0 where
    zech[e] = -1, and e runs over the residues of -i mod k. A signed step
    x -> x - r shifts e by h = (q - 1) / 2, the log of -1.

    Returns (dist, src, dst): dist[i] for class i < k and dist[k] = 0 for
    vertex 0, -1 where unreached; src -> dst are the distinct quotient arcs.
    The unsigned result is kept on the graph, read-only. The signed one,
    verify's second method for w, is not; an undirected graph holds -1
    among its k-th powers, so its signed steps are its unsigned ones.
    """
    if signed and graph.directed:
        return _traverse(graph, True)
    if graph._traversal is None:
        result = _traverse(graph, False)
        for array in result:
            array.setflags(write=False)
        graph._traversal = result
    return graph._traversal


def _traverse(graph: GPGraph, signed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quotient BFS itself; quotient_bfs keeps its unsigned run on the graph."""
    field, k = graph.field, graph.k
    e = np.arange(field.q - 1, dtype=np.int64)
    zech = field.zech
    shifts = [0, (field.q - 1) // 2] if signed else [0]
    src = np.concatenate([(h - e) % k for h in shifts] + [np.full(len(shifts), k)])
    dst = np.concatenate([np.where(zech < 0, k, (h - e + zech) % k) for h in shifts]
                         + [np.array(shifts, dtype=np.int64) % k])
    nodes = k + 1
    keys = np.sort(src * nodes + dst)  # np.unique's hashing is slower here than sorting
    src, dst = np.divmod(keys[np.diff(keys, prepend=-1) != 0], nodes)

    # each arc is scanned once; a level-synchronous numpy BFS would pay
    # per level, and a directed cycle of length p has p levels
    bounds = np.searchsorted(src, np.arange(nodes + 1)).tolist()
    heads = dst.tolist()
    dist = [-1] * nodes
    dist[k] = 0
    queue = [k]
    for u in queue:
        step = dist[u] + 1
        for v in heads[bounds[u]:bounds[u + 1]]:
            if dist[v] < 0:
                dist[v] = step
                queue.append(v)
    return np.array(dist, dtype=np.int64), src, dst


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components: `count` copies of GP(component_k, component_q)."""

    a: int               # ord of p modulo n; the graph is connected iff a = m
    count: int           # p^(m - a)
    component_k: int     # (p^a - 1) / n
    component_q: int     # p^a


def components(graph: GPGraph) -> ComponentDecomposition:
    """The component of 0 is the subfield of order p^a, a = ord of p mod n; the rest translate it."""
    if graph._components is not None:
        return graph._components
    field = graph.field
    p, m, n = field.p, field.m, graph.n
    a = multiplicative_order(p, n)
    check(m % a == 0, f"GP({graph.k},{field.q}): ord of p mod n = {a} must divide m = {m}")
    dec = ComponentDecomposition(
        a=a,
        count=p ** (m - a),
        component_k=(p ** a - 1) // n,
        component_q=p ** a,
    )
    graph._components = dec
    return dec


def symmetrize(graph: GPGraph) -> GPGraph:
    """The underlying undirected graph; for a directed graph this is GP(k/2, q)."""
    if not graph.directed:
        return graph
    half = build_graph(graph.field, graph.k // 2)
    check(set(graph.symmetric_connection()) == set(half.connection),
          f"GP({graph.k},{graph.field.q}): the symmetrized connection set must be that of GP(k/2, q)")
    return half


def period(graph: GPGraph) -> int:
    """Gcd of directed cycle lengths; undirected graphs count each edge as an arc pair.

    By the paper's period law it is 1 except for GP(q - 1, q): directed
    p-cycles for odd q, copies of K2 for even q.
    """
    field = graph.field
    return field.p if graph.k == field.q - 1 else 1


# ---------------------------------------------------------------------------
# structural classification

COMPLETE_UNION = "complete-union"
PALEY_UNION = "paley-union"
CYCLE_UNION = "cycle-union"
K2_UNION = "k2-union"
HAMMING = "hamming"
SEMIPRIMITIVE = "semiprimitive"
GENERIC = "generic"


@dataclass(frozen=True)
class StructureLabel:
    kind: str
    copies: int = 1
    part: int | None = None      # vertex count of one component (union kinds)
    directed: bool = False
    hamming_b: int | None = None
    hamming_q: int | None = None
    component_k: int | None = None  # generic disconnected: copies of GP(component_k, part)

    def render(self) -> str:
        if self.kind == COMPLETE_UNION:
            body = f"K({self.part})"
        elif self.kind == PALEY_UNION:
            body = f"{'dP' if self.directed else 'P'}({self.part})"
        elif self.kind == CYCLE_UNION:
            body = f"{'dC' if self.directed else 'C'}({self.part})"
        elif self.kind == K2_UNION:
            body = "K(2)"
        elif self.kind == HAMMING:
            base = f"H({self.hamming_b},{self.hamming_q})"
            return base + (f"=L({self.hamming_q},{self.hamming_q})" if self.hamming_b == 2 else "")
        elif self.kind == GENERIC and self.copies > 1:
            body = f"GP({self.component_k},{self.part})"
        else:
            return self.kind
        return body if self.copies == 1 else f"{self.copies}x{body}"


def classify_structure(graph: GPGraph) -> StructureLabel:
    """First matching label in a fixed precedence order (deterministic reports)."""
    field = graph.field
    q, p, m, k = field.q, field.p, field.m, graph.k
    dec = components(graph)
    pa = p ** dec.a

    if k * (pa - 1) == q - 1:
        return StructureLabel(COMPLETE_UNION, copies=dec.count, part=pa)
    if k * (pa - 1) == 2 * (q - 1):
        return StructureLabel(PALEY_UNION, copies=dec.count, part=pa, directed=graph.directed)
    if q % 2 == 1 and k in (q - 1, (q - 1) // 2):
        return StructureLabel(CYCLE_UNION, copies=q // p, part=p, directed=graph.directed)
    if q % 2 == 0 and k == q - 1:
        return StructureLabel(K2_UNION, copies=q // 2)
    for b in divisors(m):
        if b < 2:
            continue
        q0 = p ** (m // b)
        if k * b * (q0 - 1) == q - 1 and (q - 1) % (q0 - 1) == 0 \
                and ((q - 1) // (q0 - 1)) % b == 0 and dec.count == 1:
            return StructureLabel(HAMMING, hamming_b=b, hamming_q=q0)
    if _is_semiprimitive(p, m, k, q):
        return StructureLabel(SEMIPRIMITIVE)
    return StructureLabel(GENERIC, copies=dec.count, part=pa, directed=graph.directed,
                          component_k=dec.component_k)


def _is_semiprimitive(p: int, m: int, k: int, q: int) -> bool:
    if k == 2:
        return q % 4 == 1
    if k > 2 and m % 2 == 0:
        if k == p ** (m // 2) + 1:
            return False
        return any((p ** t + 1) % k == 0 for t in divisors(m // 2))
    return False
