"""Waring-type numbers over finite fields, computed as graph diameters.

g(k, q) is the least s with every field element a sum of s k-th powers;
it exists exactly when GP(k, q) is connected and then equals its diameter,
which by vertex-transitivity is the forward eccentricity of 0 in the BFS
over the coset classes that graphs.quotient_bfs keeps on the graph. The
signed variant w(k, q) allows minus signs on the terms and is the
diameter of the symmetrized graph, so by the paper's reduction it is g
for undirected GP(k, q) and g(k/2, q) for directed GP(k, q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPrime, NumberDoesNotExist, PreconditionViolated, check
from .fields import DEFAULT_SIZE_BUDGET, FieldElement, FiniteField, build_field
from .graphs import GPGraph, build_graph, components, quotient_bfs
from .numbertheory import is_prime


@dataclass(frozen=True)
class WaringResult:
    exists: bool
    g: int | None
    w: int | None
    reason_if_absent: str | None


def _diameter(graph: GPGraph) -> int | None:
    """Largest distance from 0; None if some vertex is unreached."""
    dist, _, _ = quotient_bfs(graph)
    if (dist < 0).any():
        return None
    return int(dist.max())


def waring_g(field: FiniteField, k: int) -> int | None:
    """g(k, q), or None when GP(k, q) is disconnected."""
    return _diameter(build_graph(field, k))


def waring_w(field: FiniteField, k: int) -> int | None:
    """w(k, q), or None when absent."""
    return waring_result(field, k).w


def waring_result(field: FiniteField, k: int) -> WaringResult:
    return graph_waring(build_graph(field, k))


def graph_waring(graph: GPGraph, half_g: int | None = None) -> WaringResult:
    """g and w of one graph; a directed graph's w = g(k/2, q) is half_g, or traversed here if None.

    GP(k/2, q) contains GP(k, q), so g(k/2, q) exists whenever w is read.
    """
    g_value = _diameter(graph)
    if g_value is None:
        dec = components(graph)
        return WaringResult(False, None, None,
                            f"GP({graph.k},{graph.field.q}) splits into {dec.count} components")
    if graph.directed and half_g is None:
        half_g = _diameter(build_graph(graph.field, graph.k // 2))
    return WaringResult(True, g_value, half_g if graph.directed else g_value, None)


# A level with fewer arcs than this runs as a Python loop: per level, numpy's
# call overhead exceeds the loop's cost, and a directed cycle has q levels.
_PYTHON_LEVEL_ARCS = 256
# The largest block of arcs one numpy step expands, which bounds its memory.
_BLOCK_ARCS = 1 << 18


def witness(field: FiniteField, k: int, target, signed: bool) -> list[tuple[int, FieldElement]]:
    """A shortest representation of target as a (possibly signed) sum of k-th powers.

    Returns (sign, x) pairs with target = sum of sign * x^k; the length is
    the BFS distance of the target, so the longest witness over all targets
    has length g(k, q) (unsigned) or w(k, q) (signed).

    The path is the one a vertex-level FIFO BFS from 0 finds: a vertex
    first reached at level d + 1 takes as parent the first pair (u, r),
    with u running over level d in discovery order and r over the steps,
    the k-th powers ascending and then, for a signed directed graph, their
    negatives in the same order. An undirected graph already contains
    every -r, so signing adds no step there.
    """
    graph = build_graph(field, k)
    target_idx = field.element(target).index
    if target_idx == 0:
        return []
    step_logs = field.log[list(graph.connection)].astype(np.int64)
    if signed and graph.directed:  # -r = omega^((q-1)/2) * r, as q is odd
        step_logs = np.concatenate([step_logs, (step_logs + (field.q - 1) // 2) % (field.q - 1)])
    path = _first_shortest_path(field, step_logs, int(field.log[target_idx]))
    if path is None:
        name = "w" if signed else "g"
        raise NumberDoesNotExist(f"{name}({graph.k},{field.q}) does not exist: "
                                 f"target {target_idx} is unreachable")

    step_nos = np.array(path, dtype=np.int64)
    signs = np.where(step_nos < graph.n, 1, -1)
    e = step_logs[step_nos % graph.n]  # the term of a step -r is r
    check((e % graph.k == 0).all(), f"GP({graph.k},{field.q}): step elements are k-th powers")
    roots = field.exp[e // graph.k]
    return [(sign, FieldElement(field, x)) for sign, x in zip(signs.tolist(), roots.tolist())]


def _first_shortest_path(field: FiniteField, step_logs: np.ndarray, goal: int) -> list[int] | None:
    """Step numbers of the FIFO BFS path from 0 to omega^goal, or None if it is unreachable.

    Vertices are nonzero and held as logs: omega^a + omega^b is
    omega^(a + zech[b - a]), or the root 0, which is never new, where zech
    is -1. Levels with fewer than _PYTHON_LEVEL_ARCS arcs run as a Python
    loop, larger ones in numpy blocks. Both record each new vertex with
    its parent and step number, and both stop once the goal is found,
    since every vertex on its path was found before it.
    """
    q1 = field.q - 1
    zech = field.zech
    seen = bytearray(q1)
    seen_view = np.frombuffer(seen, dtype=np.uint8)
    seen_view[step_logs] = 1
    # (vertices, their parents, their step numbers) per expansion; level 1
    # is the steps themselves, taken from the root, recorded as parent -1
    found = [(step_logs, np.full(step_logs.size, -1), np.arange(step_logs.size))]
    frontier = step_logs  # the last level found
    while frontier.size and not seen[goal]:
        if frontier.size * step_logs.size < _PYTHON_LEVEL_ARCS:
            *level, last = _python_levels(
                frontier.tolist(), step_logs.tolist(), memoryview(zech), seen, q1, goal)
        else:
            *level, last = _numpy_level(frontier, step_logs, zech, seen_view, q1, goal)
        found.append(level)
        frontier = level[0][level[0].size - last:]
    if not seen[goal]:
        return None

    vertices, parents, step_nos = map(np.concatenate, zip(*found))
    parent_of = np.empty(q1, dtype=field.log.dtype)
    step_of = np.empty_like(parent_of)
    parent_of[vertices], step_of[vertices] = parents, step_nos
    parent_of, step_of = memoryview(parent_of), memoryview(step_of)  # Python ints by index
    path = []
    v = goal
    while v >= 0:
        path.append(step_of[v])
        v = parent_of[v]
    path.reverse()
    return path


def _python_levels(frontier: list[int], steps: list[int], zech: memoryview,
                   seen: bytearray, q1: int, goal: int):
    """Expand vertices one at a time, in FIFO order, while levels have under _PYTHON_LEVEL_ARCS arcs.

    Returns the vertices found, their parents and step numbers, and the
    size of the last level found, which is left unexpanded.
    """
    queue, parents, step_nos = frontier, [], []
    level_end = first = len(queue)
    numbered_steps = list(enumerate(steps))
    for i, a in enumerate(queue):  # the queue grows while it is read
        if i == level_end:
            if (len(queue) - level_end) * len(steps) >= _PYTHON_LEVEL_ARCS:
                break
            level_end = len(queue)
        for j, b in numbered_steps:
            z = zech[b - a]  # a negative index wraps, which takes b - a mod q - 1
            if z >= 0:
                v = a + z
                if v >= q1:
                    v -= q1
                if not seen[v]:
                    seen[v] = 1
                    queue.append(v)
                    parents.append(a)
                    step_nos.append(j)
        if seen[goal]:
            break
    return (np.array(queue[first:], dtype=np.int64), np.array(parents, dtype=np.int64),
            np.array(step_nos, dtype=np.int64), len(queue) - level_end)


def _numpy_level(frontier: np.ndarray, steps: np.ndarray, zech: np.ndarray,
                 seen: np.ndarray, q1: int, goal: int):
    """Expand one level in row blocks that double from one row up to _BLOCK_ARCS arcs.

    Row-major order within a block is the FIFO order, so keeping the first
    occurrence of each vertex not yet seen keeps the FIFO parent. Stops
    after the block that reaches the goal. Returns what _python_levels does.
    """
    blocks = []
    rows, most = 1, max(1, _BLOCK_ARCS // steps.size)
    i = 0
    while i < frontier.size and not seen[goal]:
        block = frontier[i:i + rows, None]
        z = zech[steps - block]  # a negative index wraps, which takes b - a mod q - 1
        v = block + z
        np.subtract(v, q1, out=v, where=v >= q1)
        # where z = -1 the sum is 0, and v, though in range, is masked out
        hit = ((z >= 0) & (seen[v] == 0)).ravel().nonzero()[0]
        new = v.ravel()[hit]
        if len(block) > 1:  # the sums of one row are distinct, as its steps are
            _, first = np.unique(new, return_index=True)
            first.sort()
            hit, new = hit[first], new[first]
        seen[new] = 1
        row, step_no = np.divmod(hit, steps.size)
        blocks.append((new, block[row, 0], step_no))
        i += rows
        rows = min(2 * rows, most)
    found, parents, step_nos = map(np.concatenate, zip(*blocks))
    return found, parents, step_nos, found.size


def is_primitive_divisor(c: int, p: int, a: int) -> bool:
    """c divides p^a - 1 but no earlier p^t - 1."""
    if c < 1 or (p ** a - 1) % c != 0:
        return False
    return all((p ** t - 1) % c != 0 for t in range(1, a))


def verify_reduction(p: int, a: int, b: int, c: int,
                     size_budget: int = DEFAULT_SIZE_BUDGET) -> bool:
    """Check w((p^(ab)-1)/(bc), p^(ab)) = b * w((p^a-1)/c, p^a) by two BFS runs.

    Requires the primitive-divisor preconditions c | p^a - 1 (and no earlier
    p^t - 1) and bc | p^(ab) - 1 (likewise), which also guarantee both
    numbers exist.
    """
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if not is_primitive_divisor(c, p, a):
        raise PreconditionViolated(
            f"c = {c} is not a primitive divisor of {p}^{a} - 1 = {p ** a - 1}")
    if not is_primitive_divisor(b * c, p, a * b):
        raise PreconditionViolated(
            f"bc = {b * c} is not a primitive divisor of {p}^{a * b} - 1 = {p ** (a * b) - 1}")
    big = build_field(p, a * b, size_budget=size_budget)
    small = build_field(p, a, size_budget=size_budget)
    lhs = waring_w(big, (p ** (a * b) - 1) // (b * c))
    rhs = waring_w(small, (p ** a - 1) // c)
    check(lhs is not None and rhs is not None,
          f"w must exist on both sides for (p, a, b, c) = ({p}, {a}, {b}, {c})")
    return lhs == b * rhs
