"""Exact solvers and checkers for every domination/packing variant.

The checkers transcribe the defining conditions directly and are the ground
truth everything else is validated against.  The solvers reduce to the
bitmask branch-and-bound kernels: domination in all modes becomes a minimum
hitting set over per-vertex requirement sets, packing becomes a maximum
independent set in the distance-2 conflict graph.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import combinations

from . import solvers
from .graph import (
    Graph,
    Mode,
    XYInstance,
    closed_neighborhood,
    distances_from,
    power2_conflict_graph,
)

DEFAULT_MAX_N = 64


class OversizeError(ValueError):
    """Instance exceeds the desk-scale guardrail (override with max_n/DOMPACK_MAX_N)."""


class InfeasibleError(ValueError):
    """No set satisfies the mode's constraints.

    Unreachable for the shipped modes: the no-neighbor exemptions make every
    requirement set nonempty.  Kept as a defensive signal.
    """


def size_limit() -> int:
    env = os.environ.get("DOMPACK_MAX_N")
    if not env:
        return DEFAULT_MAX_N
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"DOMPACK_MAX_N must be an integer, got {env!r}") from None


def _guard(g: Graph, max_n) -> None:
    limit = max_n if max_n is not None else size_limit()
    if g.n > limit:
        raise OversizeError(f"n={g.n} exceeds limit {limit}")


@dataclass(frozen=True)
class ExactResult:
    value: int
    witness: frozenset[int]
    nodes_explored: int


# ---------------------------------------------------------------------------
# Checkers (definition transcriptions)
# ---------------------------------------------------------------------------


def check_xy_dominating(inst: XYInstance, d) -> bool:
    """True iff d is an (X,Y)-dominating set in the instance's mode."""
    g = inst.graph
    d = g.check_vertex_set(d)
    covered = closed_neighborhood(g, d | inst.x_set) | inst.y_set
    if len(covered) != g.n:
        return False
    if inst.mode is Mode.TOTAL:
        exempt = inst.x_set | inst.y_set
        for v in g.vertices():
            if v in exempt:
                continue
            if g.adj[v] and not (g.adj[v] & d):
                return False
    elif inst.mode is Mode.BLACK:
        for v in g.vertices():
            if v in inst.y_set:
                continue
            bn = g.black_neighbors(v)
            if bn and not (bn & d):
                return False
    return True


def check_xy_packing(inst: XYInstance, p) -> bool:
    """True iff p is an (X,Y)-packing: pairwise distance >= 3, disjoint from
    N[X] and from Y.  Edge colors play no role."""
    g = inst.graph
    p = g.check_vertex_set(p)
    if p & inst.y_set:
        return False
    if p & closed_neighborhood(g, inst.x_set):
        return False
    for u in p:
        dist = distances_from(g, u)
        for v in p:
            if v != u and dist.get(v, 3) < 3:
                return False
    return True


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _domination_requirements(inst: XYInstance) -> list[tuple[int, frozenset[int]]]:
    """Per-vertex requirement sets: D satisfies the mode iff it meets each one."""
    g = inst.graph
    reqs: list[tuple[int, frozenset[int]]] = []
    if inst.mode is Mode.BLACK:
        for v in g.vertices():
            if v in inst.y_set:
                continue
            bn = g.black_neighbors(v)
            reqs.append((v, bn if bn else g.adj[v] | {v}))
        return reqs
    free = closed_neighborhood(g, inst.x_set) | inst.y_set
    for v in g.vertices():
        if v not in free:
            reqs.append((v, g.adj[v] | {v}))
    if inst.mode is Mode.TOTAL:
        exempt = inst.x_set | inst.y_set
        for v in g.vertices():
            if v not in exempt and g.adj[v]:
                reqs.append((v, g.adj[v]))
    return reqs


def _mask(s) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def _unmask(m: int) -> frozenset[int]:
    out = set()
    v = 0
    while m:
        if m & 1:
            out.add(v)
        m >>= 1
        v += 1
    return frozenset(out)


def exact_domination(inst: XYInstance, max_n=None) -> ExactResult:
    """Minimum (X,Y)-dominating set for the instance's mode, by branch and bound."""
    _guard(inst.graph, max_n)
    owned = _domination_requirements(inst)
    reqs = [_mask(r) for _, r in owned]
    owners = [v for v, _ in owned]
    size, mask, nodes = solvers.min_hitting_set(reqs, owners, inst.graph.n)
    if size < 0:
        raise InfeasibleError("mode constraints cannot be met")
    return ExactResult(size, _unmask(mask), nodes)


def exact_packing(inst: XYInstance, max_n=None) -> ExactResult:
    """Maximum (X,Y)-packing via maximum independent set in the conflict graph."""
    g = inst.graph
    _guard(g, max_n)
    conflict = power2_conflict_graph(g)
    banned = closed_neighborhood(g, inst.x_set) | inst.y_set
    cand = _mask(v for v in g.vertices() if v not in banned)
    adj = [_mask(conflict.adj[v]) for v in g.vertices()]
    size, mask, nodes = solvers.max_independent_set(adj, cand, g.n)
    return ExactResult(size, _unmask(mask), nodes)


# ---------------------------------------------------------------------------
# Reference implementations (independent of the kernels; exponential)
# ---------------------------------------------------------------------------


def reference_domination_value(inst: XYInstance) -> int:
    verts = list(inst.graph.vertices())
    for size in range(len(verts) + 1):
        for d in combinations(verts, size):
            if check_xy_dominating(inst, d):
                return size
    raise InfeasibleError("no dominating set of any size")


def reference_packing_value(inst: XYInstance) -> int:
    verts = list(inst.graph.vertices())
    for size in range(len(verts), -1, -1):
        for p in combinations(verts, size):
            if check_xy_packing(inst, p):
                return size
    return 0


# ---------------------------------------------------------------------------
# Witness JSON
# ---------------------------------------------------------------------------


def exact_result_json(variant: str, inst: XYInstance, res: ExactResult) -> str:
    doc = {
        "variant": variant,
        "value": res.value,
        "witness": sorted(res.witness),
        "mode": inst.mode.value,
        "x": sorted(inst.x_set),
        "y": sorted(inst.y_set),
    }
    return json.dumps(doc, separators=(",", ":"))


def exact_result_from_json(s: str) -> dict:
    doc = json.loads(s)
    for key in ("variant", "value", "witness", "mode", "x", "y"):
        if key not in doc:
            raise ValueError(f"witness JSON missing key {key!r}")
    return doc
