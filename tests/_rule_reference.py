"""Full-scan forms of the lookups that the package answers from an index.

The degree-keyed rewrite rules read the working state's degree buckets;
here each one scans every live vertex, as the rule itself once did, and
must return the same RuleApplication.  ``is_dominating_pair`` runs a BFS of
G - N[z] for every z, and ``first_within`` walks every disk centre; they
are the references for ``find_dominating_pair`` and the unit-disk grid.
"""

from __future__ import annotations

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


def first_within(centers, tx: float, ty: float) -> int | None:
    """The first centre, in index order, that passes the cover test."""
    for i, (xi, yi) in enumerate(centers):
        if (xi - tx) ** 2 + (yi - ty) ** 2 <= 1.0 + 1e-12:
            return i
    return None
