"""Test-side reference code: what the tests read and the CLI never runs.

The brute-force certificate finders and the split and distance-hereditary
recognizers supply certificates and class membership for small test
graphs.  ``replay`` re-applies a driver trace's deltas, ``to_edge_json`` and
``convex_graph`` write test inputs, ``trace_json_obj`` builds the object
whose JSON text ``RuleApplication.to_json`` must write, and
``masks_to_graph6_one_int`` is the graph6 encoder the linear one replaced.
The scan's filter predicates, class flags and check chain are kept as
they were before the scan read them from flag tables.
"""

from __future__ import annotations

import json
from itertools import combinations

from dompack.constructions import ConvexEncoding, EncodingInvalid
from dompack.engine import RuleApplication, _State, validate_tw_certificate
from dompack.engine_twinwidth import ContractionSequence, validate_contraction_sequence
from dompack.families import OversizeFamilyError, at_free_masks
from dompack.graph import Graph, _g6_encode_n, masks_connected

FLAG_SUBCUBIC, FLAG_TREE, FLAG_CONNECTED, FLAG_ATFREE = 1, 2, 4, 8
ATFREE_FLAG_MAX_N = 12


# ---------------------------------------------------------------------------
# Recognizers
# ---------------------------------------------------------------------------


def recognize_split(g: Graph):
    """Degree-sequence split test; returns (clique, independent) or None."""
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    lhs = sum(degs[:m])
    rhs = m * (m - 1) + sum(degs[m:])
    if lhs != rhs:
        return None
    clique = set(order[:m])
    indep = set(order[m:])
    for a, b in combinations(sorted(clique), 2):
        if b not in g.adj[a]:
            return None
    for a, b in combinations(sorted(indep), 2):
        if b in g.adj[a]:
            return None
    return frozenset(clique), frozenset(indep)


def recognize_distance_hereditary(g: Graph) -> bool:
    """Iterated isolated/pendant/twin pruning down to nothing."""
    adj = {v: set(g.adj[v]) for v in g.vertices()}

    def drop(v):
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]

    while len(adj) > 1:
        victim = None
        for v in sorted(adj):
            if len(adj[v]) <= 1:
                victim = v
                break
        if victim is None:
            for u, v in combinations(sorted(adj), 2):
                if adj[u] == adj[v] or (v in adj[u] and adj[u] - {v} == adj[v] - {u}):
                    victim = u
                    break
        if victim is None:
            return False
        drop(victim)
    return True


# ---------------------------------------------------------------------------
# Brute-force certificate finders (desk scale)
# ---------------------------------------------------------------------------


def brute_force_tw_certificate(g: Graph, k: int):
    """Chordal completion of width <= k via elimination-order DP, or None."""
    if g.n > 10:
        raise OversizeFamilyError("treewidth finder capped at n = 10")
    if g.n == 0:
        return Graph.from_edges(0)
    n = g.n
    full = (1 << n) - 1

    def reach_degree(v: int, inside: int) -> int:
        # Neighbors of v outside `inside` plus those reachable through it.
        seen = 1 << v
        stack = [v]
        out = set()
        while stack:
            x = stack.pop()
            for y in g.adj[x]:
                bit = 1 << y
                if seen & bit:
                    continue
                seen |= bit
                if inside & bit:
                    stack.append(y)
                else:
                    out.add(y)
        return len(out)

    INF = n + 1
    width = [INF] * (1 << n)
    choice = [-1] * (1 << n)
    width[0] = 0
    for s in range(1, 1 << n):
        best = INF
        pick = -1
        t = s
        while t:
            v = (t & -t).bit_length() - 1
            t &= t - 1
            rest = s & ~(1 << v)
            cand = max(width[rest], reach_degree(v, rest))
            if cand < best:
                best = cand
                pick = v
        width[s] = best
        choice[s] = pick
    if width[full] > k:
        return None
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s &= ~(1 << v)
    order.reverse()  # elimination order: order[0] eliminated first
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    fill = set(g.edges())
    for v in order:
        nb = sorted(adj[v])
        for i, a in enumerate(nb):
            for b in nb[i + 1 :]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                fill.add((a, b) if a < b else (b, a))
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
    completion = Graph.from_edges(n, sorted(fill))
    assert validate_tw_certificate(g, completion, k)
    return completion


def brute_force_tww_sequence(g: Graph, k: int):
    """Width-k contraction sequence by DFS over partitions, or None."""
    if g.n > 8:
        raise OversizeFamilyError("twin-width finder capped at n = 8")
    if g.n <= 1:
        return ContractionSequence((), k)

    base_adj = g.adj
    base_red = g.red

    def relation(bag_a, bag_b):
        any_edge = False
        all_black = True
        for a in bag_a:
            for b in bag_b:
                if b in base_adj[a]:
                    any_edge = True
                    if (min(a, b), max(a, b)) in base_red:
                        all_black = False
                else:
                    all_black = False
        if not any_edge:
            return None
        return "black" if all_black else "red"

    def red_ok(bags):
        for x in bags:
            deg = sum(1 for y in bags if y != x and relation(x, y) == "red")
            if deg > k:
                return False
        return True

    start = tuple(frozenset((v,)) for v in range(g.n))
    if not red_ok(start):
        return None
    failed = set()

    def dfs(bags):
        if len(bags) == 1:
            return []
        key = frozenset(bags)
        if key in failed:
            return None
        for i, j in combinations(range(len(bags)), 2):
            merged = bags[i] | bags[j]
            nxt = tuple(b for t, b in enumerate(bags) if t not in (i, j)) + (merged,)
            if not red_ok(nxt):
                continue
            sub = dfs(nxt)
            if sub is not None:
                return [(bags[i], bags[j], merged)] + sub
        failed.add(key)
        return None

    plan = dfs(start)
    if plan is None:
        return None
    names = {frozenset((v,)): v for v in range(g.n)}
    fresh = g.n
    merges = []
    for a, b, c in plan:
        merges.append((names[a], names[b], fresh))
        names[c] = fresh
        fresh += 1
    seq = ContractionSequence(tuple(merges), k)
    assert validate_contraction_sequence(g, seq)
    return seq


# ---------------------------------------------------------------------------
# Driver traces and test inputs
# ---------------------------------------------------------------------------


def _snapshot(st: _State) -> tuple:
    edges = tuple(sorted((u, v) for u in st.adj for v in st.adj[u] if u < v))
    red = tuple(sorted((u, v) for u in st.red for v in st.red[u] if u < v))
    return (tuple(sorted(st.adj)), edges, tuple(sorted(st.x)), tuple(sorted(st.y)), red)


def replay(g: Graph, trace, x=(), y=()):
    """Re-apply a trace's deltas from the original instance; yields the state
    snapshot after every step (the first yield is the initial instance)."""
    st = _State.from_graph(g, x, y)
    yield _snapshot(st)
    for app in trace:
        st.apply(app)
        yield _snapshot(st)


def trace_json_obj(app: RuleApplication) -> dict:
    def clean(v):
        if isinstance(v, (set, frozenset)):
            return sorted(v)
        if isinstance(v, tuple):
            return list(v)
        if isinstance(v, dict):
            return {str(k): clean(x) for k, x in v.items()}
        return v

    return {"rule": app.rule_id, "payload": clean(dict(app.payload))}


def to_edge_json(g: Graph) -> str:
    doc = {
        "n": g.n,
        "edges": sorted(e for e in g.edges() if e not in g.red),
        "red_edges": sorted(g.red),
    }
    return json.dumps(doc, separators=(",", ":"))


def masks_to_graph6_one_int(masks) -> str:
    """graph6 from the whole stream ORed into one int, first bit lowest, then
    written out as one string of bits: the encoder before the linear one,
    whose every OR copies the growing int."""
    n = len(masks)
    total = n * (n - 1) // 2
    if not total:
        return _g6_encode_n(n)
    stream = 0
    for v in range(1, n):
        stream |= (masks[v] & ((1 << v) - 1)) << (v * (v - 1) // 2)
    col = format(stream, f"0{total}b")[::-1] + "0" * (-total % 6)
    return _g6_encode_n(n) + "".join(chr(int(col[i : i + 6], 2) + 63) for i in range(0, len(col), 6))


def convex_graph(enc: ConvexEncoding) -> Graph:
    n = len(enc.x_order) + len(enc.y_neighbors)
    ids = sorted(enc.x_order) + sorted(enc.y_neighbors)
    if sorted(ids) != list(range(n)):
        raise EncodingInvalid("vertex ids must be dense 0..n-1")
    edges = [(x, y) for y, ns in enc.y_neighbors.items() for x in ns]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Scan filters, class flags and checks, one predicate each
# ---------------------------------------------------------------------------


def _edge_count(masks) -> int:
    return sum(m.bit_count() for m in masks) // 2


def scan_subcubic(masks) -> bool:
    return all(m.bit_count() <= 3 for m in masks)


def scan_is_tree(masks) -> bool:
    return _edge_count(masks) == len(masks) - 1 and masks_connected(masks)


SCAN_FILTERS = {"all": lambda masks: True, "subcubic": scan_subcubic, "tree": scan_is_tree}


def scan_class_flags(masks, m: int, subcubic: bool) -> int:
    flags = 0
    if subcubic:
        flags |= FLAG_SUBCUBIC
    if masks_connected(masks):
        flags |= FLAG_CONNECTED
        if m == len(masks) - 1:
            flags |= FLAG_TREE
    if len(masks) <= ATFREE_FLAG_MAX_N and at_free_masks(masks):
        flags |= FLAG_ATFREE
    return flags


def scan_check(check: str, gamma: int, rho: int, flags: int) -> tuple[bool, bool, bool]:
    """(applicable, violation, equality) of a scan check."""
    violation = False
    equality = False
    applicable = True
    if check == "duality":
        violation = gamma < rho
        equality = gamma == rho
    elif check == "henning":
        applicable = bool(flags & FLAG_SUBCUBIC) and bool(flags & FLAG_CONNECTED)
        if applicable:
            violation = gamma > 2 * rho + 1
            equality = gamma == 2 * rho + 1
    else:  # treeeq
        applicable = bool(flags & FLAG_TREE)
        if applicable:
            violation = gamma != rho
            equality = gamma == rho
    return applicable, violation, equality
