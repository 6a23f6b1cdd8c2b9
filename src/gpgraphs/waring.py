"""Waring-type numbers over finite fields, computed as graph diameters.

g(k, q) is the least s with every field element a sum of s k-th powers;
it exists exactly when GP(k, q) is connected and then equals its diameter,
which by vertex-transitivity is the forward eccentricity of 0. The signed
variant w(k, q) allows minus signs on the terms and is the diameter of the
symmetrized graph; for directed GP(k, q) it collapses to g(k/2, q). Both
eccentricities come from one BFS over the coset classes of the k-th powers
(graphs.quotient_bfs).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NotPrime, NumberDoesNotExist, PreconditionViolated, check
from .fields import DEFAULT_SIZE_BUDGET, FieldElement, FiniteField, build_field
from .graphs import GPGraph, build_graph, component_structure, quotient_bfs
from .numbertheory import is_prime


@dataclass(frozen=True)
class WaringResult:
    exists: bool
    g: int | None
    w: int | None
    reason_if_absent: str | None


def _diameter(graph: GPGraph, signed: bool) -> int | None:
    """Largest distance from 0, over steps +r (and -r if signed); None if some vertex is unreached."""
    dist, _, _ = quotient_bfs(graph, signed)
    if (dist < 0).any():
        return None
    return int(dist.max())


def waring_g(field: FiniteField, k: int) -> int | None:
    """g(k, q), or None when GP(k, q) is disconnected."""
    return _diameter(build_graph(field, k), signed=False)


def waring_w(field: FiniteField, k: int) -> int | None:
    """w(k, q), or None when absent: the diameter of the symmetrized graph."""
    return _diameter(build_graph(field, k), signed=True)


def waring_result(field: FiniteField, k: int) -> WaringResult:
    graph = build_graph(field, k)
    g_value = _diameter(graph, signed=False)
    if g_value is None:
        dec = component_structure(graph)
        return WaringResult(False, None, None,
                            f"GP({graph.k},{field.q}) splits into {dec.count} components")
    return WaringResult(True, g_value, _diameter(graph, signed=True), None)


def witness(field: FiniteField, k: int, target, signed: bool) -> list[tuple[int, FieldElement]]:
    """A shortest representation of target as a (possibly signed) sum of k-th powers.

    Returns (sign, x) pairs with target = sum of sign * x^k; the length is
    the BFS distance of the target, so the longest witness over all targets
    has length g(k, q) (unsigned) or w(k, q) (signed).
    """
    graph = build_graph(field, k)
    target_idx = field.element(target).index
    steps = {r: 1 for r in graph.connection}
    if signed:
        for r in graph.connection:
            steps.setdefault(field.index_neg(r), -1)

    parents: dict[int, tuple[int, int]] = {0: (-1, 0)}  # vertex -> (previous, step element)
    queue = deque([0])
    while queue and target_idx not in parents:
        u = queue.popleft()
        for r in steps:
            v = field.index_add(u, r)
            if v not in parents:
                parents[v] = (u, r)
                queue.append(v)
    if target_idx not in parents:
        name = "w" if signed else "g"
        raise NumberDoesNotExist(f"{name}({graph.k},{field.q}) does not exist: "
                                 f"target {target_idx} is unreachable")

    out: list[tuple[int, FieldElement]] = []
    v = target_idx
    while v != 0:
        u, r = parents[v]
        sign = steps[r]
        residue = r if sign == 1 else field.index_neg(r)
        e = field.discrete_log(residue)
        check(e % graph.k == 0, f"GP({graph.k},{field.q}): step elements are k-th powers")
        out.append((sign, FieldElement(field, int(field.exp[e // graph.k]))))
        v = u
    out.reverse()
    return out


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
