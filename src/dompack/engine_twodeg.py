"""2-degenerate driver: X-only instances, budget 7|P| + 2|X2+| + |X1|.

Y is forbidden here; the induction instead tracks a free-dominator set X
whose cost enters the budget through the degree-split terms
X2+ = {x in X : deg >= 2} and X1 = {x in X : deg = 1}, both taken in the
current graph at every step (read from the X index, ``_XIndex``, which
the local rules read too).

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

from itertools import count

from .engine import (
    RuleApplication,
    Stalled,
    WitnessPair,
    _Index,
    _State,
    _unwind_isolated,
    _unwind_low_degree,
    _unwind_nothing,
    rule_isolated,
    run,
)
from .graph import Graph, XYInstance, closed_neighborhood, three_core

TWODEG_CONSTANT = 7


class _XIndex(_Index):
    """What the local rules ask about X, kept per vertex.

    Three counters: ``xdeg[v]`` = |N(v) & X| and ``on[v]`` = |N(v) - N[X]|
    for every live v, and ``outside`` = V - N[X].  The candidate sets are
    exact: ``anchored`` (v in N[X] - X with at most one neighbour outside X),
    ``fringe`` (v in N[X] - X with ``on[v]`` <= 1), ``extra`` (v in N[X] - X
    with two X neighbours or more), ``xx`` (v in X with an X neighbour), and
    ``x0``/``x1``, the members of X of degree 0 and 1.  ``_place`` states
    each set's rule once and reads a vertex's sets off its counters; the
    hooks only move the counters of the vertices their change touched
    (edge changes and merges recount them) and hand those to ``_touch``,
    which places them.
    """

    def __init__(self, st: _State):
        adj, x = self.adj, self.x = st.adj, st.x
        outside = self.outside = adj.keys() - closed_neighborhood(st, x)
        self.xdeg = {v: len(nb & x) for v, nb in adj.items()}
        self.on = {v: len(nb & outside) for v, nb in adj.items()}
        self.anchored, self.fringe, self.extra, self.xx, self.x0, self.x1 = (
            set() for _ in range(6))
        self.sets = (outside, self.anchored, self.fringe, self.extra, self.xx, self.x0, self.x1)
        for v in adj.keys() - outside:
            self._place(v)

    def _place(self, v) -> bool:
        """Put v in the sets its counters call for and take it out of the
        others, one line per set; True when v entered or left ``outside``."""
        xd, d, inx = self.xdeg[v], len(self.adj[v]), v in self.x
        out = not xd and not inx
        outside, anchored, fringe, extra, xx, x0, x1 = self.sets
        moved = out != (v in outside)
        if out and not moved:
            return False  # a vertex outside N[X] is in no other set
        near = not out and not inx
        outside.add(v) if out else outside.discard(v)
        anchored.add(v) if near and d - xd <= 1 else anchored.discard(v)
        fringe.add(v) if near and self.on[v] <= 1 else fringe.discard(v)
        extra.add(v) if near and xd >= 2 else extra.discard(v)
        xx.add(v) if inx and xd else xx.discard(v)
        x0.add(v) if inx and d == 0 else x0.discard(v)
        x1.add(v) if inx and d == 1 else x1.discard(v)
        return moved

    def _touch(self, vs) -> None:
        """Place the vertices of vs, whose counters moved; each that entered
        or left ``outside`` moves the ``on`` count of its neighbours, and
        those in N[X] - X, the only ones whose sets read it, are placed
        again."""
        place = self._place
        moved = list(filter(place, vs))
        if not moved:
            return
        adj, x, on, outside = self.adj, self.x, self.on, self.outside
        nearby = set()
        for v in moved:
            step = 1 if v in outside else -1
            for w in adj[v]:
                on[w] += step
            nearby |= adj[v]
        for w in nearby:
            if w not in outside and w not in x:
                place(w)

    def _recount(self, vs) -> None:
        """Recount the counters of the vertices of vs, whose edges changed,
        and place them."""
        adj, x, outside = self.adj, self.x, self.outside
        for v in vs:
            self.xdeg[v] = len(adj[v] & x)
            self.on[v] = len(adj[v] & outside)
        self._touch(vs)

    def _forget(self, v) -> None:
        del self.xdeg[v], self.on[v]
        for members in self.sets:
            members.discard(v)

    def vertex_gone(self, v, nbrs) -> None:
        if v in self.x:
            xdeg = self.xdeg
            for w in nbrs:
                xdeg[w] -= 1
        elif v in self.outside:
            on = self.on
            for w in nbrs:
                on[w] -= 1
        self._forget(v)
        self._touch(nbrs)

    def x_joined(self, v) -> None:
        xdeg = self.xdeg
        nbrs = self.adj[v]
        for w in nbrs:
            xdeg[w] += 1
        self._touch([v, *nbrs])

    def vertex_added(self, v) -> None:
        self.xdeg[v] = self.on[v] = 0
        self._touch((v,))

    def edge_changed(self, u, v) -> None:
        self._recount((u, v))

    def merged(self, a, b, w) -> None:
        self._forget(a)
        self._forget(b)
        self._recount([w, *self.adj[w]])


def _budget_terms(st: _State) -> tuple[int, int]:
    """(|X2+|, |X1|) in the current graph."""
    ix = st.index(_XIndex)
    x1 = len(ix.x1)
    return len(st.x) - len(ix.x0) - x1, x1


def _rule_anchored_leaf(st: _State) -> RuleApplication | None:
    u = min(st.index(_XIndex).anchored, default=None)
    if u is None:
        return None
    return RuleApplication("2deg_anchored_leaf", removed_vertices=(u,), payload={"vertex": u})


def _rule_pendant_support(st: _State) -> RuleApplication | None:
    u = min(st.index(_XIndex).outside.intersection(st.by_deg.get(1, ())), default=None)
    if u is None:
        return None
    v = next(iter(st.adj[u]))
    return RuleApplication(
        "2deg_pendant_support",
        removed_vertices=(u,),
        x_added=(v,),
        payload={"vertex": u, "support": v},
    )


def _unwind_pendant_support(app: RuleApplication, d: set, p: set) -> None:
    d.add(app.payload["support"])
    p.add(app.payload["vertex"])


def _rule_dominated_fringe(st: _State) -> RuleApplication | None:
    u = min(st.index(_XIndex).fringe, default=None)
    if u is None:
        return None
    return RuleApplication("2deg_dominated_fringe", removed_vertices=(u,), payload={"vertex": u})


def _rule_extra_x_edge(st: _State) -> RuleApplication | None:
    u = min(st.index(_XIndex).extra, default=None)
    if u is None:
        return None
    a = min(st.adj[u] & st.x)
    return RuleApplication(
        "2deg_extra_x_edge", removed_edges=((u, a) if u < a else (a, u),),
        payload={"vertex": u, "x_neighbor": a},
    )


def _rule_x_x_edge(st: _State) -> RuleApplication | None:
    # The smallest member of X with a neighbour in X; that neighbour is
    # larger, else it would be the smaller one.
    u = min(st.index(_XIndex).xx, default=None)
    if u is None:
        return None
    edge = (u, min(st.adj[u] & st.x))
    return RuleApplication("2deg_x_x_edge", removed_edges=(edge,), payload={"edge": edge})


def _rule_free_degree2(st: _State) -> RuleApplication | None:
    u = min(st.index(_XIndex).outside.intersection(st.by_deg.get(2, ())), default=None)
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


def _a2_profile(st: _State, z: int, outside: set[int]) -> tuple[int, list[int]]:
    """A second-layer vertex is a degree-3 vertex with one X anchor of degree
    at most 2 and two neighbors in ``outside`` (V - N[X]); returns the
    anchor and those two."""
    nbrs = st.adj[z]
    anchors = sorted(nbrs & st.x)
    pair = sorted(nbrs & outside)
    if st.deg(z) != 3 or len(anchors) != 1 or len(pair) != 2 or st.deg(anchors[0]) > 2:
        raise Stalled(f"second-layer vertex {z} lacks the expected shape")
    return anchors[0], pair


def _main_step(st: _State, ids) -> RuleApplication:
    """The low-out or pack step; gadgets take their ids from ``ids``."""
    a1, a2, a3 = _peel_layers(st)
    bad = sorted(a1 - st.x)
    if bad:
        raise Stalled(f"low-degree vertices {bad} escaped the local rules")
    if not a3:
        raise Stalled("third peel empty on a nonempty instance (not 2-degenerate?)")
    outside = st.index(_XIndex).outside
    profiles = {}
    choices = []
    for u in sorted(a3):
        if u not in outside:
            raise Stalled(f"third-layer vertex {u} inside N[X]")
        z_nbrs = tuple(sorted(st.adj[u] & a2))
        w = st.adj[u] - a1 - a2
        if not z_nbrs or len(w) > 2:
            raise Stalled(f"third-layer vertex {u} lacks the expected shape")
        w_out = tuple(sorted(w & outside))
        profiles[u] = (z_nbrs, w_out)
        choices.append((len(w_out), len(z_nbrs), u))
    choices.sort()
    _, _, u = choices[0]
    z_nbrs, w_out = profiles[u]
    anchors = []
    others = []
    for z in z_nbrs:
        anchor, pair = _a2_profile(st, z, outside)
        if u not in pair:
            raise Stalled(f"vertex {u} not among the outside pair of {z}")
        anchors.append(anchor)
        others.append(next(t for t in pair if t != u))
    if len(w_out) <= 1:
        return RuleApplication(
            "2deg_low_out",
            removed_vertices=(u,) + z_nbrs,
            payload={
                "vertex": u,
                "layer2": z_nbrs,
                "anchors": tuple(anchors),
                "budget_terms": _budget_terms(st),
            },
        )

    w1, w2 = w_out
    wired = sorted({t for t in others if t not in (w1, w2)})
    gadgets = []
    gadget_edges = []
    for i in range(0, len(wired), 2):
        gid = next(ids)
        gadgets.append(gid)
        gadget_edges.extend((gid, t) if gid < t else (t, gid) for t in wired[i : i + 2])
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
            "budget_terms": _budget_terms(st),
        },
    )


def _unwind_main_step(app: RuleApplication, d: set, p: set) -> None:
    pay = app.payload
    if app.rule_id == "2deg_low_out":
        d.add(pay["vertex"])
        return
    p.add(pay["vertex"])
    d.update(pay["w_out"])
    x_then = set(pay["x_at_step"])
    for t in pay["wired"]:
        reach = set(pay["cover_nbrs"][t]) | {t}
        if not (reach & (d | x_then)):
            d.add(pay["backstop"][t])


def run_twodeg(g: Graph) -> WitnessPair:
    """Certified gamma <= 7*rho for 2-degenerate graphs."""
    XYInstance(g)  # the input check of ``run``, before the class test
    core = three_core(g)
    if core:
        raise Stalled(f"input is not 2-degenerate: its 3-core has {core} vertices")
    ids = count(g.n)  # gadget ids, above every input vertex

    def slack(st):
        x2p, x1 = _budget_terms(st)
        return 2 * x2p + x1

    rules = (
        (rule_isolated, _unwind_isolated),
        (_rule_anchored_leaf, _unwind_nothing),
        (_rule_pendant_support, _unwind_pendant_support),
        (_rule_dominated_fringe, _unwind_nothing),
        (_rule_extra_x_edge, _unwind_nothing),
        (_rule_x_x_edge, _unwind_nothing),
        (_rule_free_degree2, _unwind_low_degree),
        (lambda st: _main_step(st, ids), _unwind_main_step),
    )
    return run(g, rules, "2-degenerate", TWODEG_CONSTANT, slack=slack,
               formula="7|P|+2|X2+|+|X1|")
