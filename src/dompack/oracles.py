"""Exact solvers and checkers for every domination/packing variant.

The checkers transcribe the defining conditions directly and are the ground
truth everything else is validated against.  The solvers reduce to the
bitmask branch-and-bound kernels: domination in all modes becomes a minimum
hitting set over per-vertex requirement sets, packing becomes a maximum
independent set in the distance-2 conflict graph.  ``domination_kernel`` and
``packing_kernel`` build those kernel inputs straight from a graph's
neighbourhood bitmasks; ``exact_domination``, ``exact_packing`` and the CLI
scan all go through them.
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
    OversizeError,
    XYInstance,
    ball2,
    bits,
    closed_neighborhood,
)

DEFAULT_MAX_N = 64


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


def check_size(n: int, max_n=None) -> None:
    """Raise OversizeError when n exceeds the desk-scale guardrail max_n
    (default: ``size_limit()``, which DOMPACK_MAX_N overrides)."""
    limit = max_n if max_n is not None else size_limit()
    if n > limit:
        raise OversizeError(f"n={n} exceeds limit {limit}")


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
    # Some pair lies within distance 2 iff a member falls in the radius-2
    # ball of one taken before it.
    blocked: set[int] = set()
    for u in p:
        if u in blocked:
            return False
        blocked |= ball2(g, u)
    return True


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _closed_mask(masks, s: int) -> int:
    """N[s] for a vertex set given as a mask."""
    out = s
    while s:
        low = s & -s
        out |= masks[low.bit_length() - 1]
        s ^= low
    return out


def _domination_requirements(masks, x: int, y: int, mode: Mode, red) -> tuple[list, list]:
    """Per-vertex requirement masks and their owners: D satisfies the mode iff
    it meets each one.  Rows (v, N[v]) come first in vertex order, then the
    Total rows (v, N(v)); Black rows drop red edges."""
    n = len(masks)
    if mode is Mode.BLACK:
        rows = [v for v in range(n) if not (y >> v) & 1]
        reqs = []
        for v in rows:
            black = masks[v] & ~red[v] if red else masks[v]
            reqs.append(black if black else masks[v] | 1 << v)
        return reqs, rows
    free = _closed_mask(masks, x) | y
    rows = [v for v in range(n) if not (free >> v) & 1]
    reqs = [masks[v] | 1 << v for v in rows]
    if mode is Mode.TOTAL:
        exempt = x | y
        total = [v for v in range(n) if not (exempt >> v) & 1 and masks[v]]
        reqs += [masks[v] for v in total]
        rows += total
    return reqs, rows


def domination_kernel(masks, x: int = 0, y: int = 0, mode: Mode = Mode.PLAIN, red=None):
    """Minimum (X,Y)-dominating set of the graph with these neighbourhood
    bitmasks, as the kernel's (size, mask, nodes_explored).  X and Y are
    vertex masks; ``red`` gives each vertex's red-edge mask (Black mode)."""
    reqs, owners = _domination_requirements(masks, x, y, mode, red)
    return solvers.min_hitting_set(reqs, owners, len(masks))


def packing_kernel(masks, x: int = 0, y: int = 0):
    """Maximum (X,Y)-packing as the kernel's (size, mask, nodes_explored).

    A vertex conflicts with everything within distance two: N[N[v]] - v.
    """
    n = len(masks)
    conflict = [_closed_mask(masks, m) & ~(1 << v) for v, m in enumerate(masks)]
    cand = ((1 << n) - 1) & ~(_closed_mask(masks, x) | y)
    return solvers.max_independent_set(conflict, cand, n)


def _mask(s) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def _unmask(m: int) -> frozenset[int]:
    return frozenset(bits(m))


def _red_masks(g: Graph) -> list[int] | None:
    if not g.red:
        return None
    red = [0] * g.n
    for u, v in g.red:
        red[u] |= 1 << v
        red[v] |= 1 << u
    return red


def exact_domination(inst: XYInstance, max_n=None) -> ExactResult:
    """Minimum (X,Y)-dominating set for the instance's mode, by branch and bound."""
    g = inst.graph
    check_size(g.n, max_n)
    size, mask, nodes = domination_kernel(
        g.masks, _mask(inst.x_set), _mask(inst.y_set), inst.mode, _red_masks(g)
    )
    if size < 0:
        raise InfeasibleError("mode constraints cannot be met")
    return ExactResult(size, _unmask(mask), nodes)


def exact_packing(inst: XYInstance, max_n=None) -> ExactResult:
    """Maximum (X,Y)-packing via maximum independent set in the conflict graph."""
    g = inst.graph
    check_size(g.n, max_n)
    size, mask, nodes = packing_kernel(g.masks, _mask(inst.x_set), _mask(inst.y_set))
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
