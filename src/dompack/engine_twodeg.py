"""2-degenerate driver: X-only instances, budget 7|P| + 2|X2+| + |X1|.

Y is forbidden here; the induction instead tracks a free-dominator set X
whose cost enters the budget through the degree-split terms
X2+ = {x in X : deg >= 2} and X1 = {x in X : deg = 1}, both taken in the
current graph at every step (kept up to date from the vertices each step
touches).

The local rules delete low-degree vertices around X.  When they are
exhausted, layered peeling (A1 = degree <= 2, A2 and A3 the next two peels)
exposes a vertex u in A3 outside N[X] whose A2-neighbors z each look like
{anchor x_z in X, u, one more vertex t_z outside N[X]}.  Two main steps
reduce around u:

* low-out step (u has at most one neighbor outside N[X]): delete u and its
  A2-neighbors, pay u into D.  Every anchor loses an edge, which funds the
  step through the X-degree terms.

* pack step (u has exactly two neighbors w1, w2 outside N[X]): delete u and
  its A2-neighbors, move w1, w2 into X, and attach degree-<=2 gadget
  vertices (in X) to the t_z so the child cannot pack anything at distance
  two from u; unwind packs u and pays w1, w2 plus, per t_z that the child
  covered only through a gadget, the deleted z as a backstop dominator.

The budget inequality is asserted after every unwind step against the terms
of that step's parent instance.
"""

from __future__ import annotations

from .engine import (
    EngineError,
    GuaranteeViolated,
    RuleApplication,
    Stalled,
    WitnessPair,
    _first_edge_within,
    _State,
    certify,
    rule_isolated,
)
from .graph import Graph, degeneracy_ordering

TWODEG_CONSTANT = 7


def _budget_terms(st: _State, vs) -> tuple[int, int]:
    """(|X2+|, |X1|) counted over the members of X among vs."""
    x2p = x1 = 0
    for v in vs:
        if v in st.x:
            d = len(st.adj[v])
            if d >= 2:
                x2p += 1
            elif d == 1:
                x1 += 1
    return x2p, x1


def _touched(st: _State, app: RuleApplication) -> set[int]:
    """Vertices whose degree or X membership ``app`` can change."""
    out = set(app.removed_vertices)
    for v in app.removed_vertices:
        out |= st.adj[v]
    for e in app.removed_edges + app.added_edges:
        out.update(e)
    out.update(app.added_vertices, app.x_added)
    return out


def _nx_closed(st: _State) -> set[int]:
    out = set(st.x)
    for x in st.x:
        out |= st.adj[x]
    return out


def _free_in_bucket(st: _State, d: int) -> int | None:
    """The smallest vertex of degree d outside N[X], or None."""
    x, adj = st.x, st.adj
    bucket = st.by_deg.get(d)
    if not bucket:
        return None
    return min((u for u in bucket - x if x.isdisjoint(adj[u])), default=None)


# The anchored-leaf, dominated-fringe and extra-X-edge rules apply only at
# vertices outside X with a neighbour in X, so they scan just those.


def _rule_anchored_leaf(st: _State) -> RuleApplication | None:
    x = st.x
    u = min((u for u in _nx_closed(st) - x if len(st.adj[u] - x) <= 1), default=None)
    if u is None:
        return None
    return RuleApplication("2deg_anchored_leaf", removed_vertices=(u,), payload={"vertex": u})


def _rule_pendant_support(st: _State) -> RuleApplication | None:
    u = _free_in_bucket(st, 1)
    if u is None:
        return None
    v = next(iter(st.adj[u]))
    return RuleApplication(
        "2deg_pendant_support",
        removed_vertices=(u,),
        x_added=(v,),
        payload={"vertex": u, "support": v},
    )


def _rule_dominated_fringe(st: _State) -> RuleApplication | None:
    nx_ = _nx_closed(st)
    u = min((u for u in nx_ - st.x if len(st.adj[u] - nx_) <= 1), default=None)
    if u is None:
        return None
    return RuleApplication("2deg_dominated_fringe", removed_vertices=(u,), payload={"vertex": u})


def _rule_extra_x_edge(st: _State) -> RuleApplication | None:
    x = st.x
    u = min((u for u in _nx_closed(st) - x if len(st.adj[u] & x) >= 2), default=None)
    if u is None:
        return None
    a = min(st.adj[u] & x)
    return RuleApplication(
        "2deg_extra_x_edge", removed_edges=((u, a) if u < a else (a, u),),
        payload={"vertex": u, "x_neighbor": a},
    )


def _rule_x_x_edge(st: _State) -> RuleApplication | None:
    edge = _first_edge_within(st, st.x)
    if edge is None:
        return None
    return RuleApplication("2deg_x_x_edge", removed_edges=(edge,), payload={"edge": edge})


def _rule_free_degree2(st: _State) -> RuleApplication | None:
    u = _free_in_bucket(st, 2)
    if u is None:
        return None
    nbrs = tuple(sorted(st.adj[u]))
    return RuleApplication(
        "2deg_free_degree2",
        removed_vertices=(u,),
        x_added=nbrs,
        payload={"vertex": u, "neighbors": nbrs},
    )


def _peel_layers(st: _State) -> tuple[set[int], set[int], set[int]]:
    a1 = {v for v in st.adj if st.deg(v) <= 2}
    rest1 = {v for v in st.adj if v not in a1}
    a2 = {v for v in rest1 if len(st.adj[v] & rest1) <= 2}
    rest2 = rest1 - a2
    a3 = {v for v in rest2 if len(st.adj[v] & rest2) <= 2}
    return a1, a2, a3


def _a2_profile(st: _State, z: int, nx_: set[int], trace) -> tuple[int, int]:
    """A second-layer vertex is a degree-3 vertex with one X anchor of degree
    at most 2 and two neighbors outside N[X]; returns (anchor, other)."""
    nbrs = st.adj[z]
    anchors = sorted(nbrs & st.x)
    outside = sorted(nbrs - nx_)
    if st.deg(z) != 3 or len(anchors) != 1 or len(outside) != 2 or st.deg(anchors[0]) > 2:
        raise Stalled(f"second-layer vertex {z} lacks the expected shape", trace)
    return anchors[0], outside


def _main_step(st: _State, fresh: int, terms, trace) -> RuleApplication:
    a1, a2, a3 = _peel_layers(st)
    bad = sorted(a1 - st.x)
    if bad:
        raise Stalled(f"low-degree vertices {bad} escaped the local rules", trace)
    if not a3:
        raise Stalled("third peel empty on a nonempty instance (not 2-degenerate?)", trace)
    nx_ = _nx_closed(st)
    profiles = {}
    choices = []
    for u in sorted(a3):
        if u in nx_:
            raise Stalled(f"third-layer vertex {u} inside N[X]", trace)
        z_nbrs = tuple(sorted(st.adj[u] & a2))
        w = st.adj[u] - a1 - a2
        if not z_nbrs or len(w) > 2:
            raise Stalled(f"third-layer vertex {u} lacks the expected shape", trace)
        w_out = tuple(sorted(w - nx_))
        profiles[u] = (z_nbrs, w_out)
        choices.append((len(w_out), len(z_nbrs), u))
    choices.sort()
    _, _, u = choices[0]
    z_nbrs, w_out = profiles[u]
    anchors = []
    others = []
    for z in z_nbrs:
        anchor, outside = _a2_profile(st, z, nx_, trace)
        if u not in outside:
            raise Stalled(f"vertex {u} not among the outside pair of {z}", trace)
        anchors.append(anchor)
        others.append(next(t for t in outside if t != u))
    if len(w_out) <= 1:
        return RuleApplication(
            "2deg_low_out",
            removed_vertices=(u,) + z_nbrs,
            payload={
                "vertex": u,
                "layer2": z_nbrs,
                "anchors": tuple(anchors),
                "budget_terms": terms,
            },
        )

    w1, w2 = w_out
    wired = sorted({t for t in others if t not in (w1, w2)})
    gadgets = []
    gadget_edges = []
    gid = fresh
    for i in range(0, len(wired), 2):
        chunk = wired[i : i + 2]
        gadgets.append(gid)
        gadget_edges.extend((gid, t) if gid < t else (t, gid) for t in chunk)
        gid += 1
    cover_nbrs = {t: tuple(sorted(st.adj[t])) for t in wired}
    backstop = {}
    for z, t in zip(z_nbrs, others):
        if t in wired and t not in backstop:
            backstop[t] = z
    return RuleApplication(
        "2deg_pack",
        removed_vertices=(u,) + z_nbrs,
        added_vertices=tuple(gadgets),
        added_edges=tuple(gadget_edges),
        x_added=(w1, w2) + tuple(gadgets),
        payload={
            "vertex": u,
            "layer2": z_nbrs,
            "anchors": tuple(anchors),
            "others": tuple(others),
            "w_out": (w1, w2),
            "wired": tuple(wired),
            "gadgets": tuple(gadgets),
            "cover_nbrs": {t: cover_nbrs[t] for t in wired},
            "backstop": backstop,
            "x_at_step": tuple(sorted(st.x)),
            "budget_terms": terms,
        },
    )


def _check_twodeg_budget(d, p, terms, trace):
    x2p, x1 = terms
    bound = TWODEG_CONSTANT * len(p) + 2 * x2p + x1
    if len(d) > bound:
        raise GuaranteeViolated(
            f"2-degenerate: |D|={len(d)} exceeds 7|P|+2|X2+|+|X1|={bound}", trace
        )


def run_twodeg(g: Graph) -> WitnessPair:
    """Certified gamma <= 7*rho for 2-degenerate graphs."""
    if not g.is_plain():
        raise EngineError("2-degenerate driver expects a plain graph")
    _, degen = degeneracy_ordering(g)
    if degen > 2:
        raise Stalled(f"input has degeneracy {degen} > 2")
    st = _State.from_graph(g)
    fresh = g.n
    trace: list[RuleApplication] = []
    terms_per_step: list[tuple[int, int]] = []
    terms = _budget_terms(st, st.x)
    while st.adj:
        app = (
            rule_isolated(st)
            or _rule_anchored_leaf(st)
            or _rule_pendant_support(st)
            or _rule_dominated_fringe(st)
            or _rule_extra_x_edge(st)
            or _rule_x_x_edge(st)
            or _rule_free_degree2(st)
            or _main_step(st, fresh, terms, trace)
        )
        fresh += len(app.added_vertices)
        touched = _touched(st, app)
        x2p, x1 = _budget_terms(st, touched)
        st.apply(app)
        trace.append(app)
        terms_per_step.append(terms)
        new_x2p, new_x1 = _budget_terms(st, touched)
        terms = (terms[0] - x2p + new_x2p, terms[1] - x1 + new_x1)

    d: set[int] = set()
    p: set[int] = set()
    for app, terms in zip(reversed(trace), reversed(terms_per_step)):
        rid = app.rule_id
        pay = app.payload
        if rid == "isolated":
            if pay["case"] == "in_y":
                raise EngineError("Y is forbidden in the 2-degenerate driver")
            if pay["case"] == "free":
                d.add(pay["vertex"])
                p.add(pay["vertex"])
        elif rid in ("2deg_anchored_leaf", "2deg_dominated_fringe", "2deg_extra_x_edge", "2deg_x_x_edge"):
            pass
        elif rid == "2deg_pendant_support":
            d.add(pay["support"])
            p.add(pay["vertex"])
        elif rid == "2deg_free_degree2":
            d.update(pay["neighbors"])
            p.add(pay["vertex"])
        elif rid == "2deg_low_out":
            d.add(pay["vertex"])
        elif rid == "2deg_pack":
            p.add(pay["vertex"])
            w1, w2 = pay["w_out"]
            d.add(w1)
            d.add(w2)
            x_then = set(pay["x_at_step"])
            for t in pay["wired"]:
                reach = set(pay["cover_nbrs"][t]) | {t}
                if not (reach & (d | x_then)):
                    d.add(pay["backstop"][t])
        else:
            raise EngineError(f"unknown rule {rid}", trace)
        _check_twodeg_budget(d, p, terms, trace)

    gadget_ids = {v for app in trace for v in app.added_vertices}
    if (d | p) & gadget_ids:
        raise GuaranteeViolated("gadget vertex leaked into the witness", trace)
    return certify(g, d, p, "2-degenerate", TWODEG_CONSTANT, trace)
