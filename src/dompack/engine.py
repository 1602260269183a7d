"""Certified reduction engine.

A driver runs a rewrite loop on a working (X,Y)-instance, recording one
RuleApplication per step (the exact deltas plus unwind data), then unwinds
the trace backwards to assemble a dominating set D and packing P for the
original instance.  Every unwind step re-asserts the driver's budget
inequality; the final pair is validated against the definitional checkers.
Vertex ids are stable throughout: deletions shrink an alive-set, they never
reindex, so witnesses refer to original ids directly.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import (
    Graph,
    GraphError,
    Mode,
    XYInstance,
    ball2,
    chordal_width,
    components,
    vertex_ids,
)
from .oracles import check_xy_dominating, check_xy_packing


class EngineError(Exception):
    """A construction failed; ``trace`` holds the rule applications made
    before it stopped, when the driver passes them."""

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class Stalled(EngineError):
    """No rule applies to a nonempty instance: the input is outside the
    driver's class (or a rule-coverage bug)."""


class GuaranteeViolated(EngineError):
    """An unwind step would break the driver's budget inequality."""


class CertificateInvalid(EngineError):
    pass


class SequenceInvalid(CertificateInvalid):
    pass


def _sorted_set(v):
    if isinstance(v, (set, frozenset)):
        return sorted(v)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


# One encoder for witnesses and trace lines: tuples come out as lists, int
# keys as strings, sets sorted.
_TRACE_JSON = json.JSONEncoder(separators=(",", ":"), default=_sorted_set)


@dataclass(frozen=True)
class RuleApplication:
    """One rewrite step: deltas that turn the parent instance into the child,
    plus whatever the unwind needs to lift (D', P') back to the parent."""

    rule_id: str
    removed_vertices: tuple = ()
    removed_edges: tuple = ()
    added_vertices: tuple = ()
    added_edges: tuple = ()
    added_red_edges: tuple = ()
    x_added: tuple = ()
    y_added: tuple = ()
    payload: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """The rule and its payload as one trace line."""
        return _TRACE_JSON.encode({"rule": self.rule_id, "payload": self.payload})


@dataclass(frozen=True)
class WitnessPair:
    """A concrete (D, P) with a certified budget, plus the trace proving it."""

    d_set: frozenset[int]
    p_set: frozenset[int]
    class_tag: str
    certified_constant: Fraction
    trace: tuple[RuleApplication, ...]
    achieved_ratio: Fraction | None

    def to_json(self) -> str:
        c = self.certified_constant
        r = self.achieved_ratio
        doc = {
            "class": self.class_tag,
            "constant": f"{c.numerator}/{c.denominator}",
            "D": sorted(self.d_set),
            "P": sorted(self.p_set),
            "ratio": f"{r.numerator}/{r.denominator}" if r is not None else None,
            "trace": [{"rule": app.rule_id, "payload": app.payload} for app in self.trace],
        }
        return _TRACE_JSON.encode(doc)


# The paper's bound per witness class: the domination mode D is checked in
# and the additive slack in |D| <= c|P| + slack.  A tag not listed here is
# checked in plain mode with no slack.
WITNESS_CLASSES = {
    "planar": (Mode.PLAIN, 0),
    "treewidth": (Mode.PLAIN, 0),
    "distance-hereditary": (Mode.TOTAL, 0),
    "2-degenerate": (Mode.PLAIN, 0),
    "twin-width": (Mode.BLACK, 0),
    "at-free": (Mode.PLAIN, 2),
    "convex": (Mode.PLAIN, 0),
    "unit-disk": (Mode.PLAIN, 0),
    "generic": (Mode.PLAIN, 0),
}


def witness_problem(g: Graph, d, p, tag: str, constant, y=()) -> str | None:
    """Why (D, P) is not a witness of class ``tag`` on g with Y pre-dominated,
    or None: D must dominate and P pack in the class's mode, and |D| stay
    within c|P| plus the class's slack (a nonempty D needs a nonempty P)."""
    mode, slack = WITNESS_CLASSES.get(tag, (Mode.PLAIN, 0))
    inst = XYInstance(g, y_set=frozenset(y), mode=mode)
    if not check_xy_dominating(inst, d):
        return "D fails the dominating checker"
    if not check_xy_packing(inst, p):
        return "P fails the packing checker"
    if d and not p:
        return "nonempty D with empty P"
    if len(d) > constant * len(p) + slack:
        return "size of D exceeds the certified budget"
    return None


def certify(g: Graph, d, p, tag: str, constant, trace=(), y=()) -> WitnessPair:
    """The witness pair for (D, P), once ``witness_problem`` finds nothing
    wrong with it; raises EngineError otherwise."""
    problem = witness_problem(g, d, p, tag, constant, y)
    if problem is not None:
        raise EngineError(f"{tag}: {problem}")
    return WitnessPair(
        frozenset(d), frozenset(p), tag, Fraction(constant), tuple(trace),
        Fraction(len(d), len(p)) if p else None,
    )


# ---------------------------------------------------------------------------
# Working state
# ---------------------------------------------------------------------------


class _State:
    """Mutable sub-instance over original vertex ids (plus gadget ids).

    ``red[v]`` is the set of v's red neighbours, a subset of ``adj[v]``; on
    plain graphs every such set is empty.  ``by_deg`` maps each black degree
    (``len(adj[v]) - len(red[v])``) to the live vertices that have it (a
    bucket may be empty).  ``apply`` moves each vertex whose black degree a
    step changes, so the degree-keyed rules read one bucket instead of
    scanning every vertex.
    """

    __slots__ = ("adj", "red", "x", "y", "by_deg")

    def __init__(self, adj, red, x, y):
        self.adj = adj
        self.red = red
        self.x = x
        self.y = y
        self.by_deg: defaultdict[int, set[int]] = defaultdict(set)
        for v in adj:
            self.by_deg[self._black_deg(v)].add(v)

    @classmethod
    def from_graph(cls, g: Graph, x=(), y=()):
        adj = {v: set(g.adj[v]) for v in g.vertices()}
        red = {v: set() for v in adj}
        for u, v in g.red:
            red[u].add(v)
            red[v].add(u)
        return cls(adj, red, set(x), set(y))

    def deg(self, v) -> int:
        return len(self.adj[v])

    def _black_deg(self, v) -> int:
        return len(self.adj[v]) - len(self.red[v])

    def _shift(self, v, delta: int) -> None:
        """Move v from the bucket of its black degree to the one ``delta``
        above it; called just before the change."""
        d = self._black_deg(v)
        self.by_deg[d].discard(v)
        self.by_deg[d + delta].add(v)

    def apply(self, app: RuleApplication) -> None:
        # Each change to a black degree moves the vertex to its new bucket
        # at once (a red edge coming or going leaves it unchanged).
        adj, red, by_deg = self.adj, self.red, self.by_deg
        for u, v in app.removed_edges:
            if v in red[u]:
                red[u].remove(v)
                red[v].remove(u)
            else:
                self._shift(u, -1)
                self._shift(v, -1)
            adj[u].discard(v)
            adj[v].discard(u)
        for v in app.removed_vertices:
            nbrs = adj.pop(v)
            reds = red.pop(v)
            by_deg[len(nbrs) - len(reds)].discard(v)
            for w in nbrs:
                if w in reds:
                    red[w].remove(v)
                else:
                    d = len(adj[w]) - len(red[w])
                    by_deg[d].discard(w)
                    by_deg[d - 1].add(w)
                adj[w].discard(v)
            self.x.discard(v)
            self.y.discard(v)
        # Added vertices take their bucket once their edges are in.
        fresh = app.added_vertices
        for v in fresh:
            adj[v] = set()
            red[v] = set()
        for u, v in app.added_edges:
            if u not in fresh:
                self._shift(u, 1)
            if v not in fresh:
                self._shift(v, 1)
            adj[u].add(v)
            adj[v].add(u)
        for u, v in app.added_red_edges:
            adj[u].add(v)
            adj[v].add(u)
            red[u].add(v)
            red[v].add(u)
        for v in fresh:
            by_deg[self._black_deg(v)].add(v)
        self.x.update(app.x_added)
        self.y.update(app.y_added)


# ---------------------------------------------------------------------------
# Shared rules.  Each rule applies at the smallest id it fits (the smallest
# edge, for edge rules); the priority order (cost-free rules before
# cost-paying ones) is fixed by each driver.
# ---------------------------------------------------------------------------


def _first_edge_within(st: _State, s) -> tuple[int, int] | None:
    """The smallest edge (u, v), u < v, with both ends in s, or None.

    u is the smallest member of s with a neighbour in s: every such
    neighbour of it is larger, else that neighbour would be smaller."""
    u = min((u for u in s if not s.isdisjoint(st.adj[u])), default=None)
    if u is None:
        return None
    return u, min(st.adj[u] & s)


def rule_isolated(st: _State) -> RuleApplication | None:
    # On plain graphs bucket 0 holds exactly the isolated vertices.
    a = min(st.by_deg.get(0, ()), default=None)
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


def _min_in_buckets(st: _State, degrees, skip, within=None) -> int | None:
    """The smallest vertex outside ``skip`` (and inside ``within``, when
    given) whose black degree is in ``degrees``, or None."""
    best = None
    for d in degrees:
        bucket = st.by_deg.get(d)
        if bucket:
            rest = (bucket if within is None else bucket & within) - skip
            if rest:
                a = min(rest)
                if best is None or a < best:
                    best = a
    return best


def rule_y_pendant(st: _State) -> RuleApplication | None:
    # Members of X are excluded: deleting one must route through x_elim so
    # its neighborhood is compensated into Y.
    a = _min_in_buckets(st, (0, 1), st.x, st.y)
    if a is None:
        return None
    return RuleApplication("y_pendant", removed_vertices=(a,), payload={"vertex": a})


def rule_y_edge(st: _State) -> RuleApplication | None:
    edge = _first_edge_within(st, st.y)
    if edge is None:
        return None
    return RuleApplication("y_edge", removed_edges=(edge,), payload={"edge": edge})


def rule_x_elim(st: _State) -> RuleApplication | None:
    if not st.x:
        return None
    a = min(st.x)
    fresh_y = tuple(sorted(st.adj[a] - st.y))
    return RuleApplication(
        "x_elim", removed_vertices=(a,), y_added=fresh_y, payload={"vertex": a}
    )


def rule_low_degree(st: _State, c: int) -> RuleApplication | None:
    """Delete a non-Y vertex of degree 1..c; its neighborhood becomes X and is
    paid into D while the vertex itself joins P."""
    assert not st.x, "low-degree rule requires X exhausted first"
    for d in range(1, c + 1):
        a = _min_in_buckets(st, (d,), st.y)
        if a is not None:
            break
    else:
        return None
    nbrs = tuple(sorted(st.adj[a]))
    return RuleApplication(
        "low_degree",
        removed_vertices=(a,),
        x_added=nbrs,
        payload={"vertex": a, "neighbors": nbrs, "budget": c},
    )


def _unwind_shared(app: RuleApplication, d: set, p: set) -> bool:
    """Unwind for the shared rules; returns False if the rule is unknown."""
    rid = app.rule_id
    if rid == "isolated":
        if app.payload["case"] == "free":
            v = app.payload["vertex"]
            d.add(v)
            p.add(v)
        return True
    if rid in ("y_pendant", "y_edge", "x_elim"):
        return True
    if rid == "low_degree":
        d.update(app.payload["neighbors"])
        p.add(app.payload["vertex"])
        return True
    return False


def _check_budget(d, p, constant, trace, label):
    bound = constant * len(p)
    if len(d) > bound:
        raise GuaranteeViolated(f"{label}: |D|={len(d)} exceeds {constant}*|P|={bound}", trace)


# ---------------------------------------------------------------------------
# Planar driver
# ---------------------------------------------------------------------------

PLANAR_CONSTANT = 10


@dataclass(frozen=True)
class RotationSystem:
    """Per-vertex cyclic order of neighbors (a combinatorial embedding)."""

    rotations: dict[int, tuple[int, ...]]

    def to_json(self) -> str:
        return json.dumps(
            {"rotations": {str(v): list(r) for v, r in sorted(self.rotations.items())}},
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(s: str) -> "RotationSystem":
        try:
            doc = json.loads(s)
            return RotationSystem({int(v): vertex_ids(r) for v, r in doc["rotations"].items()})
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad rotation-system JSON: {exc}") from exc


def validate_rotation_planarity(g: Graph, rs: RotationSystem) -> bool:
    """Face-trace the embedding; genus 0 means V - E + F = 2 per component."""
    if set(rs.rotations) != set(g.vertices()):
        return False
    for v, rot in rs.rotations.items():
        if sorted(rot) != sorted(g.adj[v]):
            return False
    succ = {}
    for v, rot in rs.rotations.items():
        for i, u in enumerate(rot):
            succ[(v, u)] = rot[(i + 1) % len(rot)]
    for comp in components(g):
        darts = [(u, v) for u in comp for v in g.adj[u]]
        faces = 0
        unseen = set(darts)
        while unseen:
            dart = min(unseen)
            faces += 1
            u, v = dart
            while (u, v) in unseen:
                unseen.discard((u, v))
                u, v = v, succ[(v, u)]
        if not darts:
            faces = 1
        e = sum(len(g.adj[u]) for u in comp) // 2
        if len(comp) - e + faces != 2:
            return False
    return True


def run_planar(g: Graph, embedding=None) -> WitnessPair:
    """Reduce with the generic rules, paying at most 10 per packed vertex.

    Planarity guarantees the loop never stalls; on non-planar input the loop
    either still succeeds (the witness is sound regardless) or raises Stalled.
    An embedding, when supplied, is validated up front.
    """
    if not g.is_plain():
        raise EngineError("planar driver expects a plain graph")
    if embedding is not None and not validate_rotation_planarity(g, embedding):
        raise CertificateInvalid("rotation system fails the genus-0 face count")
    st = _State.from_graph(g)
    trace: list[RuleApplication] = []
    while st.adj:
        app = (
            rule_isolated(st)
            or rule_y_pendant(st)
            or rule_y_edge(st)
            or rule_x_elim(st)
            or rule_low_degree(st, PLANAR_CONSTANT)
        )
        if app is None:
            raise Stalled("planar rules stalled (non-planar input?)", trace)
        st.apply(app)
        trace.append(app)
    d: set[int] = set()
    p: set[int] = set()
    for app in reversed(trace):
        if not _unwind_shared(app, d, p):
            raise EngineError(f"unknown rule {app.rule_id}")
        _check_budget(d, p, PLANAR_CONSTANT, trace, "planar")
    return certify(g, d, p, "planar", PLANAR_CONSTANT, trace)


# ---------------------------------------------------------------------------
# Treewidth driver
# ---------------------------------------------------------------------------


def completion_width(g: Graph, completion: Graph) -> int | None:
    """The width (clique number minus one) of ``completion`` when it is a
    chordal supergraph of g on the same vertices, else None."""
    if completion.n != g.n or not completion.is_plain():
        return None
    if any(not nb <= big for nb, big in zip(g.adj, completion.adj)):
        return None
    return chordal_width(completion)


def _simplicial(compl_adj: dict[int, set[int]], within=None) -> list[int]:
    """Vertices whose (restricted) completion neighborhood induces a clique."""
    verts = within if within is not None else compl_adj.keys()
    out = []
    for v in sorted(verts):
        nb = [u for u in compl_adj[v] if within is None or u in verts]
        if all(b in compl_adj[a] for i, a in enumerate(nb) for b in nb[i + 1 :]):
            out.append(v)
    return out


def _dist2_set(st: _State, v: int, targets) -> set[int]:
    """Targets at graph distance exactly 2 from v in the working graph."""
    ring2 = ball2(st, v) - st.adj[v]
    ring2.discard(v)
    return ring2.intersection(targets)


def _tw_class_step(st: _State, compl: dict[int, set[int]], k: int, trace) -> RuleApplication:
    a1 = _simplicial(compl)
    bad = [v for v in a1 if v not in st.y]
    if bad:
        raise Stalled(f"simplicial vertices {bad} escaped Y", trace)
    rest = set(compl) - set(a1)
    if not rest:
        raise Stalled("completion exhausted with instance nonempty", trace)
    a2 = _simplicial(compl, rest)
    if not a2:
        raise Stalled("no second-layer simplicial vertex", trace)
    v = a2[0]
    b = compl[v] & set(a1)
    if not b:
        raise Stalled(f"class-step vertex {v} has no first-layer neighbor", trace)
    c = compl[v] - set(a1)
    c1 = tuple(sorted(c & st.adj[v]))
    c2 = tuple(sorted(_dist2_set(st, v, c - st.adj[v])))
    c2_cover = tuple(
        sorted(min(st.adj[v] & st.adj[cv]) for cv in c2)
    )
    return RuleApplication(
        "tw_class_step",
        removed_vertices=(v,),
        x_added=c1,
        y_added=tuple(sorted(set(c2) - st.y)),
        payload={"vertex": v, "c1": c1, "c2": c2, "c2_cover": c2_cover, "k": k},
    )


def run_treewidth(g: Graph, chordal_completion: Graph) -> WitnessPair:
    """Certified gamma <= k*rho, k the width of a validated chordal completion
    lifted to at least 1 (an isolated vertex pays one for one)."""
    if not g.is_plain():
        raise EngineError("treewidth driver expects a plain graph")
    width = completion_width(g, chordal_completion)
    if width is None:
        raise CertificateInvalid("completion is not a chordal supergraph on the same vertices")
    k = max(1, width)
    st = _State.from_graph(g)
    compl = {v: set(chordal_completion.adj[v]) for v in chordal_completion.vertices()}
    trace: list[RuleApplication] = []
    while st.adj:
        app = (
            rule_isolated(st)
            or rule_y_pendant(st)
            or rule_y_edge(st)
            or rule_x_elim(st)
            or rule_low_degree(st, k)
            or _tw_class_step(st, compl, k, trace)
        )
        st.apply(app)
        for v in app.removed_vertices:
            for w in compl[v]:
                compl[w].discard(v)
            del compl[v]
        trace.append(app)
    d: set[int] = set()
    p: set[int] = set()
    for app in reversed(trace):
        if app.rule_id == "tw_class_step":
            pay = app.payload
            if pay["c1"] or pay["c2"]:
                addition = set(pay["c1"]) | set(pay["c2_cover"])
                if len(addition) > k:
                    raise GuaranteeViolated(
                        f"class step at {pay['vertex']} pays {len(addition)} > k={k}", trace
                    )
                d.update(addition)
            else:
                d.add(pay["vertex"])
            p.add(pay["vertex"])
        elif not _unwind_shared(app, d, p):
            raise EngineError(f"unknown rule {app.rule_id}")
        _check_budget(d, p, k, trace, "treewidth")
    return certify(g, d, p, "treewidth", k, trace)


# ---------------------------------------------------------------------------
# Distance-hereditary driver (total domination, budget 2)
# ---------------------------------------------------------------------------

DH_CONSTANT = 2


def _dh_y_prune(st: _State) -> RuleApplication | None:
    # A sorted scan that stops at the first hit: the test builds a set per
    # vertex, and a hit tends to come early, so this beats a min() over all Y.
    for a in sorted(st.y):
        if len(st.adj[a] - st.y) <= 1:
            return RuleApplication("dh_y_prune", removed_vertices=(a,), payload={"vertex": a})
    return None


def _dh_pendant(st: _State) -> RuleApplication | None:
    u = _min_in_buckets(st, (1,), st.y)
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


def _dh_twins(st: _State) -> RuleApplication | None:
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


def run_distance_hereditary(g: Graph, y=()) -> WitnessPair:
    """Total-domination witness with |D| <= 2|P| via pendant/twin pruning.

    On distance-hereditary input it does not stall (checked on every labelled
    graph with n <= 6).  A stall is therefore a sign the input is outside the
    class, but finishing is no proof it is inside: a pendant step deletes the
    support with the pendant, which can break every cycle of a graph that is
    not distance-hereditary.  Each witness is certified either way.
    """
    if not g.is_plain():
        raise EngineError("distance-hereditary driver expects a plain graph")
    y0 = g.check_vertex_set(y)
    st = _State.from_graph(g, y=y0)
    trace: list[RuleApplication] = []
    while st.adj:
        # Pendants go first: pruning a Y-vertex whose only free neighbor is a
        # pendant would isolate that pendant in the child and lose its
        # total-domination obligation.
        app = rule_isolated(st) or _dh_pendant(st) or _dh_y_prune(st) or _dh_twins(st)
        if app is None:
            raise Stalled("pruning stalled (not distance-hereditary?)", trace)
        st.apply(app)
        trace.append(app)
    d: set[int] = set()
    p: set[int] = set()
    for app in reversed(trace):
        if app.rule_id == "dh_pendant":
            d.add(app.payload["pendant"])
            d.add(app.payload["support"])
            p.add(app.payload["pendant"])
        elif app.rule_id in ("dh_y_prune", "dh_twin"):
            pass
        elif not _unwind_shared(app, d, p):
            raise EngineError(f"unknown rule {app.rule_id}")
        _check_budget(d, p, DH_CONSTANT, trace, "distance-hereditary")
    return certify(g, d, p, "distance-hereditary", DH_CONSTANT, trace, y0)
