"""Full-scan forms of the lookups that the package answers from an index.

The rewrite rules read the working state's degree buckets and the indexes
it keeps (``_State.index``); here each rule scans every live vertex (or
every pair, for twins), as the rule itself once did, and must return the
same RuleApplication, and each index has its recount.
``is_dominating_pair`` runs a BFS of G - N[z] for every z, and
``first_within`` walks every disk centre in exact rationals; they are the
references for ``find_dominating_pair`` and the unit-disk grid.  ``merge``
is the twin-width contraction built from w's edge lists, the reference for
``_State.merge``.
"""

from __future__ import annotations

from fractions import Fraction

from dompack.engine import RuleApplication


def rule_isolated(st) -> RuleApplication | None:
    a = min((v for v, nb in st.adj.items() if not nb), default=None)
    if a is None:
        return None
    if a in st.y:
        case = "in_y"
    elif a in st.x:
        case = "in_x"
    else:
        case = "free"
    return RuleApplication(
        "isolated", removed_vertices=(a,), payload={"vertex": a, "case": case}
    )


def rule_y_pendant(st) -> RuleApplication | None:
    a = min((a for a in st.y if len(st.adj[a]) <= 1 and a not in st.x), default=None)
    if a is None:
        return None
    return RuleApplication("y_pendant", removed_vertices=(a,), payload={"vertex": a})


def rule_low_degree(st, c: int) -> RuleApplication | None:
    assert not st.x, "low-degree rule requires X exhausted first"
    best = None
    for a in st.adj:
        d = st.deg(a)
        if a not in st.y and 1 <= d <= c:
            key = (d, a)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    a = best[1]
    nbrs = tuple(sorted(st.adj[a]))
    return RuleApplication(
        "low_degree",
        removed_vertices=(a,),
        x_added=nbrs,
        payload={"vertex": a, "neighbors": nbrs, "budget": c},
    )


def dh_pendant(st) -> RuleApplication | None:
    u = min((u for u, nb in st.adj.items() if len(nb) == 1 and u not in st.y), default=None)
    if u is None:
        return None
    v = next(iter(st.adj[u]))
    fresh_y = tuple(sorted((st.adj[v] - {u}) - st.y))
    return RuleApplication(
        "dh_pendant",
        removed_vertices=(u, v),
        y_added=fresh_y,
        payload={"pendant": u, "support": v},
    )


def rule_pendant_support(st) -> RuleApplication | None:
    x = st.x
    u = min(
        (u for u, nb in st.adj.items() if len(nb) == 1 and u not in x and x.isdisjoint(nb)),
        default=None,
    )
    if u is None:
        return None
    v = next(iter(st.adj[u]))
    return RuleApplication(
        "2deg_pendant_support",
        removed_vertices=(u,),
        x_added=(v,),
        payload={"vertex": u, "support": v},
    )


def rule_free_degree2(st) -> RuleApplication | None:
    x = st.x
    u = min(
        (u for u, nb in st.adj.items() if len(nb) == 2 and u not in x and x.isdisjoint(nb)),
        default=None,
    )
    if u is None:
        return None
    nbrs = tuple(sorted(st.adj[u]))
    return RuleApplication(
        "2deg_free_degree2",
        removed_vertices=(u,),
        x_added=nbrs,
        payload={"vertex": u, "neighbors": nbrs},
    )


def first_edge_within(st, s) -> tuple[int, int] | None:
    """The smallest edge (u, v), u < v, with both ends in s, or None."""
    return min(((u, v) for u in s for v in st.adj[u] & s if u < v), default=None)


def rule_y_edge(st) -> RuleApplication | None:
    edge = first_edge_within(st, st.y)
    if edge is None:
        return None
    return RuleApplication("y_edge", removed_edges=(edge,), payload={"edge": edge})


def dh_y_prune(st) -> RuleApplication | None:
    a = min((a for a in st.y if len(st.adj[a] - st.y) <= 1), default=None)
    if a is None:
        return None
    return RuleApplication("dh_y_prune", removed_vertices=(a,), payload={"vertex": a})


def dh_twins(st) -> RuleApplication | None:
    verts = sorted(st.adj)
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            open_twin = st.adj[u] == st.adj[v]
            closed_twin = (v in st.adj[u]) and (st.adj[u] - {v}) == (st.adj[v] - {u})
            if not (open_twin or closed_twin):
                continue
            victim = u if u in st.y else (v if v in st.y else u)
            return RuleApplication(
                "dh_twin",
                removed_vertices=(victim,),
                payload={"pair": (u, v), "victim": victim},
            )
    return None


def _nx_fringe(st) -> tuple[set[int], set[int]]:
    """N[X] and N[X] - X."""
    nx = set(st.x)
    for v in st.x:
        nx |= st.adj[v]
    return nx, nx - st.x


def rule_anchored_leaf(st) -> RuleApplication | None:
    _, near = _nx_fringe(st)
    u = min((u for u in near if len(st.adj[u] - st.x) <= 1), default=None)
    if u is None:
        return None
    return RuleApplication("2deg_anchored_leaf", removed_vertices=(u,), payload={"vertex": u})


def rule_dominated_fringe(st) -> RuleApplication | None:
    nx, near = _nx_fringe(st)
    u = min((u for u in near if len(st.adj[u] - nx) <= 1), default=None)
    if u is None:
        return None
    return RuleApplication("2deg_dominated_fringe", removed_vertices=(u,), payload={"vertex": u})


def rule_extra_x_edge(st) -> RuleApplication | None:
    _, near = _nx_fringe(st)
    u = min((u for u in near if len(st.adj[u] & st.x) >= 2), default=None)
    if u is None:
        return None
    a = min(st.adj[u] & st.x)
    return RuleApplication(
        "2deg_extra_x_edge", removed_edges=((u, a) if u < a else (a, u),),
        payload={"vertex": u, "x_neighbor": a},
    )


def rule_x_x_edge(st) -> RuleApplication | None:
    edge = first_edge_within(st, st.x)
    if edge is None:
        return None
    return RuleApplication("2deg_x_x_edge", removed_edges=(edge,), payload={"edge": edge})


def budget_terms(st) -> tuple[int, int]:
    """(|X2+|, |X1|), degrees recounted from the adjacency."""
    degs = [len(st.adj[v]) for v in st.x]
    return sum(d >= 2 for d in degs), degs.count(1)


def x_index(st) -> dict:
    """The fields of the 2-degenerate rules' X index, recounted."""
    x = st.x
    xdeg = {v: len(nb & x) for v, nb in st.adj.items()}
    nx, near = _nx_fringe(st)
    on = {v: len(nb - nx) for v, nb in st.adj.items()}
    return {
        "xdeg": xdeg,
        "outside": st.adj.keys() - nx,
        "on": on,
        "anchored": {v for v in near if len(st.adj[v]) - xdeg[v] <= 1},
        "fringe": {v for v in near if on[v] <= 1},
        "extra": {v for v in near if xdeg[v] >= 2},
        "xx": {v for v in x if xdeg[v]},
        "x0": {v for v in x if not st.adj[v]},
        "x1": {v for v in x if len(st.adj[v]) == 1},
    }


def y_out(st) -> tuple[dict[int, int], set[int]]:
    """|N(a) - Y| per a in Y, and the members of Y where it is at most 1."""
    out = {a: len(st.adj[a] - st.y) for a in st.y}
    return out, {a for a, k in out.items() if k <= 1}


def y_edge_ends(st) -> set[int]:
    """The smaller end of each edge within Y."""
    return {u for u in st.y for v in st.adj[u] & st.y if u < v}


def lowblack_step(st, k: int) -> RuleApplication | None:
    u = min(
        (v for v, nb in st.adj.items() if v not in st.y and len(nb) - len(st.red[v]) <= k),
        default=None,
    )
    if u is None:
        return None
    blacks = tuple(sorted(st.adj[u] - st.red[u]))
    reds = tuple(sorted(st.red[u]))
    ring = st.adj[u]
    second = set()
    for w in ring:
        second |= st.adj[w]
    second -= ring
    second.discard(u)
    s_black = []
    s_red = []
    for s in sorted(second):
        if any(t not in st.red[s] for t in st.adj[s] & ring):
            s_black.append(s)
        else:
            s_red.append(s)
    s_cover = []
    for s in s_red:
        bn = st.adj[s] - st.red[s]
        s_cover.append(min(bn) if bn else s)
    r_cover = []
    for r in reds:
        bn = st.adj[r] - st.red[r]
        if bn:
            r_cover.append(min(bn))
    return RuleApplication(
        "tww_lowblack",
        removed_vertices=(u,) + blacks + reds,
        y_added=tuple(sorted(second - st.y)),
        payload={
            "vertex": u,
            "blacks": blacks,
            "reds": reds,
            "s_black": tuple(s_black),
            "s_red": tuple(s_red),
            "s_cover": tuple(s_cover),
            "r_cover": tuple(r_cover),
        },
    )


def merge(st, a: int, b: int, w: int) -> None:
    """The contraction as the driver once made it: list w's edges, black to
    each common black neighbour of a and b and red to every other vertex of
    N(a) | N(b); ``apply`` deletes a and b edge by edge, moving buckets as
    it goes, and adds w with its black edges one by one; then the red edges,
    which move no bucket, go in.  w joins Y when a and b were both in it."""
    black_edges = []
    red_edges = []
    both_black = (st.adj[a] - st.red[a]) & (st.adj[b] - st.red[b])
    for x in sorted((st.adj[a] | st.adj[b]) - {a, b}):
        edge = (w, x) if w < x else (x, w)
        (black_edges if x in both_black else red_edges).append(edge)
    st.apply(RuleApplication(
        "tww_contract",
        removed_vertices=(a, b),
        added_vertices=(w,),
        added_edges=tuple(black_edges),
        y_added=(w,) if a in st.y and b in st.y else (),
    ))
    for u, v in red_edges:
        st.adj[u].add(v)
        st.adj[v].add(u)
        st.red[u].add(v)
        st.red[v].add(u)


def black_degree_buckets(st) -> dict[int, set[int]]:
    """The nonempty buckets of ``by_deg``, recounted from the adjacency and
    the red neighbour sets."""
    out: dict[int, set[int]] = {}
    for v, nb in st.adj.items():
        d = len(nb - st.red[v])
        out.setdefault(d, set()).add(v)
    return out


def is_dominating_pair(g, u: int, v: int) -> bool:
    """True iff every u-v path is a dominating set: whenever u and v both
    avoid N[z], removing N[z] must disconnect them."""
    for z in g.vertices():
        ball = g.adj[z] | {z}
        if u in ball or v in ball:
            continue
        reach = {u}
        stack = [u]
        while stack:
            a = stack.pop()
            for b in g.adj[a]:
                if b not in ball and b not in reach:
                    reach.add(b)
                    stack.append(b)
        if v in reach:
            return False
    return True


def first_dominating_pair(g):
    """The first pair (u, v), u < v, in id order that passes
    ``is_dominating_pair``, or None."""
    for u in g.vertices():
        for v in range(u + 1, g.n):
            if is_dominating_pair(g, u, v):
                return (u, v)
    return None


def first_within(centers, base, pair) -> int | None:
    """The first centre, in index order, within distance 1 of base + p(a, b),
    where p(a, b) = (sqrt(3) (2a + b) / 2, 3b / 2), decided in Fractions.

    With (dx, dy) the centre's offset from base + (0, 3b / 2) and
    s = (2a + b) / 2, the squared distance minus 1 is A - B sqrt(3) for
    rationals A and B.  It is evaluated at rationals lo < sqrt(3) < hi,
    halving the bracket until both ends have the same sign; as sqrt(3) is
    irrational, that happens unless B = 0, where both ends agree at once.
    A centre with |dy| > 1, or |dx| > 2|s| + 1 > sqrt(3) |s| + 1, is
    farther than 1 and skipped first.
    """
    (a, b), (bx, by) = pair, base
    s, t = Fraction(2 * a + b, 2), Fraction(3 * b, 2)
    for i, (x, y) in enumerate(centers):
        dx, dy = x - bx, y - by - t
        if abs(dy) > 1 or abs(dx) > 2 * abs(s) + 1:
            continue
        big_a, big_b = dx * dx + dy * dy + 3 * s * s - 1, 2 * s * dx
        lo, hi = Fraction(17, 10), Fraction(7, 4)
        while (big_a - big_b * lo > 0) != (big_a - big_b * hi > 0):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mid * mid < 3 else (lo, mid)
        if big_a - big_b * lo <= 0:
            return i
    return None
