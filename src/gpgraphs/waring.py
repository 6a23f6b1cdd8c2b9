"""Waring-type numbers over finite fields, computed as graph diameters.

g(k, q), the least s with every field element a sum of s k-th powers, exists
exactly when GP(k, q) is connected, one component by graphs.components, and is
then its diameter, at most mu - 1 as an abelian Cayley digraph has a diagonalizable
adjacency matrix (Brouwer and Haemers, Spectra of Graphs, Prop. 1.3.3). Each label
kind of graphs.classify_structure meets the bound, as (mu, g): complete (2, 1);
Paley and oriented Paley (3, 2), three eigenvalues and a missing arc; semiprimitive
(3, 2), strongly regular; Hamming H(b, q0) (b + 1, b), eigenvalues b(q0 - 1) - i q0
for i = 0..b; the p-cycles GP(p - 1, p) and GP((p - 1)/2, p) (k + 1, k), p-th roots
of unity or 2 cos(2 pi j / p). So g is mu - 1 on a labelled graph, and on a generic
one the eccentricity of 0 in the BFS over the coset classes that
graphs.quotient_bfs keeps on the graph. The signed variant w(k, q) allows minus
signs on the terms and is the diameter of the symmetrized graph, so by the paper's
reduction it is g for undirected GP(k, q) and, for directed GP(k, q), g of GP(k/2, q),
the field's own graph, whose kept results answer it. A witness is a path of
graphs.log_bfs over all q - 1 logs (`signed_steps` for w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumberDoesNotExist, check
from .fields import FieldElement, FiniteField
from .graphs import GENERIC, GPGraph, build_graph, classify_structure, components, log_bfs, quotient_bfs
from .spectra import eigenvalue_count


@dataclass(frozen=True)
class WaringResult:
    exists: bool
    g: int | None
    w: int | None
    reason_if_absent: str | None


def waring_result(field: FiniteField, k: int) -> WaringResult:
    """g(k, q) and w(k, q) of GP(k, q), or why they do not exist."""
    return graph_waring(build_graph(field, k))


def graph_waring(graph: GPGraph) -> WaringResult:
    """g and w of one graph; a directed graph's w is the g of GP(k/2, q), which contains it."""
    field = graph.field
    if (count := components(graph).count) > 1:
        return WaringResult(False, None, None, f"GP({graph.k},{field.q}) splits into {count} components")
    generic = classify_structure(graph).kind == GENERIC  # the labelled graphs have g = mu - 1
    g_value = int(quotient_bfs(graph).max()) if generic else eigenvalue_count(graph) - 1  # all reached
    w_value = graph_waring(build_graph(field, graph.k // 2)).g if graph.directed else g_value
    return WaringResult(True, g_value, w_value, None)


def signed_steps(field: FiniteField, steps: np.ndarray) -> np.ndarray:
    """The step logs r, then those of -r = (-1) * r in the same order; -1 has index p - 1."""
    return np.concatenate([steps, (steps + field.log[field.p - 1]) % (field.q - 1)])


def witness(field: FiniteField, k: int, target, signed: bool) -> list[tuple[int, FieldElement]]:
    """A shortest representation of target as a (possibly signed) sum of k-th powers.

    Returns (sign, x) pairs with target = sum of sign * x^k; the length is
    the BFS distance of the target, so the longest witness over all targets
    has length g(k, q) (unsigned) or w(k, q) (signed).

    The path is the one graphs.log_bfs finds over all q - 1 logs, its steps the k-th
    powers ascending and then, for a signed directed graph, their negatives in the
    same order. An undirected graph contains every -r, so signing adds no step.
    """
    graph = build_graph(field, k)
    target_idx = field.element(target).index
    if target_idx == 0:
        return []
    step_logs = field.log[graph.connection].astype(np.int64)
    if signed and graph.directed:
        step_logs = signed_steps(field, step_logs)
    goal = int(field.log[target_idx])
    dist, parent, step = log_bfs(field.zech, step_logs, field.q - 1, goal)
    if dist[goal] < 0:
        name = "w" if signed else "g"
        raise NumberDoesNotExist(f"{name}({graph.k},{field.q}) does not exist: "
                                 f"target {target_idx} is unreachable")

    parent, step = memoryview(parent), memoryview(step)  # Python ints by index
    path, v = [], goal
    while v >= 0:
        path.append(step[v])
        v = parent[v]
    step_nos = np.array(path[::-1], dtype=np.int64)
    signs = np.where(step_nos < graph.n, 1, -1)
    e = step_logs[step_nos % graph.n]  # the term of a step -r is r
    check((e % graph.k == 0).all(), f"GP({graph.k},{field.q}): step elements are k-th powers")
    roots = field.exp[e // graph.k]
    return [(sign, FieldElement(field, x)) for sign, x in zip(signs.tolist(), roots.tolist())]
