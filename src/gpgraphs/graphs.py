"""Power-residue Cayley graphs GP(k, q) on the additive group of GF(q).

The connection set is the subgroup of nonzero k-th powers, so there is an arc
u -> v exactly when v - u is a k-th power. A graph holds arithmetic facts only: k
reduced to gcd(k, q - 1), n = (q - 1)/k, and directedness by the valuation rule.
Components follow from a, the least divisor of m with n | p^a - 1, the period from
its law, and the structure label from the components; it holds its kind and the
text report prints, and no fact that components owns. g of a generic graph comes
from quotient_bfs, one BFS over the k coset classes (waring reads mu - 1 off any
other label), whose kernel, log_bfs, the witness search shares. build_graph returns the field's own
graph, one per gcd(k, q - 1), so a function marked kept (components, the label, quotient_bfs, spectra's
spectrum and mu) runs once per graph while its field stays cached; the graph keeps its result in one
dict. The witness search lists the set on first read; verify's nature check compares it with the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from .fields import FiniteField
from .numbertheory import divisors, v2


class GPGraph:
    """The graph GP(k, q): vertices GF(q), arcs u -> v iff v - u is a k-th power.

    build_graph checks k and gives the field's own; the constructor reads no table, builds nothing of size n.
    """

    def __init__(self, field: FiniteField, k: int):
        q = field.q
        self.field = field
        self.k = math.gcd(k, q - 1)
        self.n = (q - 1) // self.k
        # -1 = omega^((q-1)/2) is a k-th power unless k takes the whole 2-part of q - 1
        self.directed = q % 2 == 1 and v2(self.k) == v2(q - 1) > 0
        self.kept = {}  # the results of kept functions, each keyed by the function that computes it

    @cached_property
    def connection(self) -> np.ndarray:
        """The nonzero k-th powers omega^(jk) as ascending indices, a read-only int array."""
        connection = np.sort(self.field.exp[::self.k])
        connection.setflags(write=False)
        return connection

    def __repr__(self):
        shape = "directed" if self.directed else "undirected"
        return f"GPGraph(k={self.k}, q={self.field.q}, n={self.n}, {shape})"


def build_graph(field: FiniteField, k: int) -> GPGraph:
    """GP(k, q) as the one graph field.graphs holds for gcd(k, q - 1), made on first use."""
    if k < 1:
        raise ValueError(f"k = {k} must be positive")
    k = math.gcd(k, field.q - 1)
    if k not in field.graphs:
        field.graphs[k] = GPGraph(field, k)
    return field.graphs[k]


def kept(compute):
    """compute(graph), kept in graph.kept once it returns, None too; a raise keeps nothing."""
    @wraps(compute)
    def read(graph: GPGraph):
        if compute not in graph.kept:
            value = graph.kept[compute] = compute(graph)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)  # a kept array is read-only
        return graph.kept[compute]
    return read


# ---------------------------------------------------------------------------
# traversal

# A level with fewer arcs than this runs as a Python loop: per level, numpy's
# call overhead exceeds the loop's cost, and a directed cycle has q levels.
_PYTHON_LEVEL_ARCS = 256
# The largest block of arcs one numpy step expands, which bounds its memory.
_BLOCK_ARCS = 1 << 18


def log_bfs(zech: np.ndarray, steps: np.ndarray, modulus: int,
            goal: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FIFO BFS from 0 over the nonzero elements as logs mod modulus, a divisor of q - 1.

    Step j adds omega^b, b = steps[j]: omega^a + omega^b = omega^(a + zech[b - a]),
    or the root 0 where zech is -1. Level 1 is the first occurrence of each
    b mod modulus; a later vertex takes as parent the first (a, j), a over
    the level before in discovery order. It stops once goal, or every vertex, is reached.
    Returns (dist, parent, step) per vertex: -1 where unreached, parent -1 on level 1.
    """
    dist, parent, step = (np.full(modulus, -1, dtype=np.int32) for _ in range(3))
    first = _first_arrivals(steps % modulus, step).nonzero()[0]
    frontier = steps[first] % modulus
    dist[frontier], step[frontier] = 1, first
    unreached = modulus - frontier.size
    while frontier.size and unreached and (goal is None or dist[goal] < 0):
        kernel = _python_levels if frontier.size * steps.size < _PYTHON_LEVEL_ARCS else _numpy_level
        frontier, unreached = kernel(frontier, steps, zech, dist, parent, step, modulus, goal, unreached)
    return dist, parent, step


def _python_levels(frontier: np.ndarray, steps: np.ndarray, zech, dist, parent, step, modulus: int,
                   goal: int | None, unreached: int) -> tuple[np.ndarray, int]:
    """Expand levels of under _PYTHON_LEVEL_ARCS arcs one arc at a time; returns (next level, unreached)."""
    zech, dist, parent, step = map(memoryview, (zech, dist, parent, step))  # Python ints by index
    level, numbered_steps = frontier.tolist(), list(enumerate(steps.tolist()))
    while level and len(level) * len(numbered_steps) < _PYTHON_LEVEL_ARCS:
        d = dist[level[0]] + 1
        found = []
        for a in level:
            for j, b in numbered_steps:
                z = zech[b - a]  # a negative index wraps, which takes b - a mod q - 1
                if z >= 0:
                    v = (a + z) % modulus
                    if dist[v] < 0:
                        dist[v], parent[v], step[v] = d, a, j
                        found.append(v)
                        if len(found) == unreached or v == goal:
                            return np.empty(0, dtype=np.int64), unreached - len(found)
        unreached -= len(found)
        level = found
    return np.array(level, dtype=np.int64), unreached


def _numpy_level(frontier: np.ndarray, steps: np.ndarray, zech, dist, parent, step, modulus: int,
                 goal: int | None, unreached: int) -> tuple[np.ndarray, int]:
    """Expand one level in row blocks of up to _BLOCK_ARCS arcs; returns (next level, unreached).

    Row-major order is the FIFO order. With a goal the blocks double from
    one row. The level stops after the block that reaches the goal or the last unreached class.
    """
    found = []
    d = int(dist[frontier[0]]) + 1
    most = max(1, _BLOCK_ARCS // steps.size)
    rows = most if goal is None else 1
    i = 0
    while i < frontier.size and unreached and (goal is None or dist[goal] < 0):
        block = frontier[i:i + rows, None]
        z = zech[steps - block]  # a negative index wraps, which takes b - a mod q - 1
        v = block + z
        v %= modulus
        # where z = -1 the sum is 0, and v, though in range, is masked out
        hit = ((z >= 0) & (dist[v] < 0)).ravel().nonzero()[0]
        new = v.ravel()[hit]
        first = _first_arrivals(new, step)
        hit, new = hit[first], new[first]
        row, j = np.divmod(hit, steps.size)
        dist[new], parent[new], step[new] = d, block[row, 0], j
        found.append(new)
        unreached -= new.size
        i += rows
        rows = min(2 * rows, most)
    return np.concatenate(found), unreached


def _first_arrivals(new: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each vertex in new, all unreached.

    The first arc to a vertex has the largest rank; step, -1 on unreached
    vertices, holds the ranks until the caller sets it.
    """
    rank = np.arange(new.size, 0, -1, dtype=step.dtype)
    np.maximum.at(step, new, rank)
    return step[new] == rank


@kept
def quotient_bfs(graph: GPGraph) -> np.ndarray:
    """Distances from vertex 0 to the k classes log(x) mod k, -1 where unreached, kept on the graph.

    Multiplying by a k-th power is an automorphism fixing 0, so this is
    log_bfs mod k over the k-th powers, whose logs are 0, k, ..., q - 1 - k.
    """
    return log_bfs(graph.field.zech, np.arange(0, graph.field.q - 1, graph.k), graph.k)[0]


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components: `count` copies of GP(component_k, component_q)."""

    a: int               # the least divisor of m with n | p^a - 1; the graph is connected iff a = m
    count: int           # p^(m - a)
    component_k: int     # (p^a - 1) / n
    component_q: int     # p^a


@kept
def components(graph: GPGraph) -> ComponentDecomposition:
    """The component of 0 is the subfield of order p^a, a | m as n | p^m - 1; the rest translate it."""
    p, m, n = graph.field.p, graph.field.m, graph.n
    a = next(d for d in range(1, m + 1) if m % d == 0 and pow(p, d, n) == 1 % n)  # 1 % n = 0 when n = 1
    return ComponentDecomposition(
        a=a,
        count=p ** (m - a),
        component_k=(p ** a - 1) // n,
        component_q=p ** a,
    )


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
HAMMING = "hamming"
SEMIPRIMITIVE = "semiprimitive"
GENERIC = "generic"


@dataclass(frozen=True)
class StructureLabel:
    """A label's kind and the text report prints; the copies are components(graph).count."""

    kind: str
    text: str

    def render(self) -> str:
        return self.text


@kept
def classify_structure(graph: GPGraph) -> StructureLabel:
    """First matching label in a fixed order, kept on the graph; a union is `count` copies of a component."""
    field, k, dec = graph.field, graph.k, components(graph)
    p, m, d = field.p, field.m, "d" if graph.directed else ""

    def union(kind: str, body: str) -> StructureLabel:
        return StructureLabel(kind, body if dec.count == 1 else f"{dec.count}x{body}")

    if dec.component_k == 1:
        return union(COMPLETE_UNION, f"K({dec.component_q})")
    if dec.component_k == 2:
        return union(PALEY_UNION, f"{d}P({dec.component_q})")
    if dec.component_q == p and 2 * dec.component_k >= p - 1:  # GP(p - 1, p) or GP((p - 1)/2, p)
        return union(CYCLE_UNION, f"{d}C({dec.component_q})")
    if dec.count > 1:
        return union(GENERIC, f"GP({dec.component_k},{dec.component_q})")
    for b in divisors(m)[1:]:
        q0 = p ** (m // b)
        if k * b * (q0 - 1) == field.q - 1:  # then (q - 1)/(q0 - 1) = kb
            return StructureLabel(HAMMING, f"H({b},{q0})" + (f"=L({q0},{q0})" if b == 2 else ""))
    if m % 2 == 0 and any((p ** t + 1) % k == 0 for t in divisors(m // 2)):
        return StructureLabel(SEMIPRIMITIVE, SEMIPRIMITIVE)
    return StructureLabel(GENERIC, GENERIC)
