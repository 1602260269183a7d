"""Certified reduction engine.

Every driver proves its bound by one induction: a rule shrinks the working
(X,Y)-instance, and a witness of the smaller instance lifts to one of the
larger within the budget.  A rule is a pair (find, unwind).  ``find(st)``
returns the step as a RuleApplication (the exact deltas plus whatever the
unwind needs) or None; ``unwind(app, d, p)`` lifts the child's (D, P) to the
parent.  ``run`` holds the one rewrite loop: it applies the first rule in the
driver's priority order that finds a step until no vertex is left (or the
driver's stop test holds), then unwinds the trace in reverse, checks the
step's budget after every unwind, checks that D and P lie within the input,
and validates the pair against the definitional checkers (``certify``).  A
driver is its input checks plus its rules, tag, constant and a few hooks.
Vertex ids are stable throughout: deletions shrink an alive-set, they never
reindex, so witnesses refer to original ids directly.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain

from .graph import Graph, Mode, XYInstance, chordal_width
from .oracles import check_xy_dominating, check_xy_packing


class EngineError(Exception):
    """A construction failed; ``trace`` holds the rule applications made
    before it stopped, which ``run`` attaches."""

    trace: tuple = ()


class Stalled(EngineError):
    """No rule applies to a nonempty instance: the input is outside the
    driver's class (or a rule-coverage bug)."""


class GuaranteeViolated(EngineError):
    """An unwind step would break the driver's budget inequality."""


class CertificateInvalid(EngineError):
    pass


class SequenceInvalid(CertificateInvalid):
    pass


# One encoder for witnesses and trace lines: tuples come out as lists, int
# keys as strings.  No payload holds a set, and each document is a fresh tree,
# so the encoder neither converts sets nor checks for cycles.
_TRACE_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)


@dataclass(slots=True)
class RuleApplication:
    """One rewrite step: deltas that turn the parent instance into the child,
    plus whatever the unwind needs to lift (D', P') back to the parent.
    Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, four times the cost of a plain one, and a
    construct run makes thousands of steps.  Nothing hashes a step, whose
    payload is a dict."""

    rule_id: str
    removed_vertices: tuple = ()
    removed_edges: tuple = ()
    added_vertices: tuple = ()
    added_edges: tuple = ()
    merged: tuple = ()  # (a, b, w): a and b contracted into w, see _State.merge
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


class _Index:
    """An index a rule reads, kept by ``_State`` once the rule has built it
    (``_State.index``).  ``apply`` and ``merge`` report each change through
    these hooks, which do nothing here, every one after its change:
    ``vertex_gone(v, nbrs)`` once v's edges are gone, with its old neighbour
    set, while X and Y still hold it; ``edge_changed(u, v)`` once uv is added
    or removed; ``vertex_added`` for a fresh vertex with no edges yet;
    ``x_joined`` and ``y_joined`` as X and Y grow one vertex at a time; and
    ``merged(a, b, w)`` once a and b are contracted into w and dropped from
    X and Y."""

    def vertex_gone(self, v, nbrs) -> None:
        pass

    def edge_changed(self, u, v) -> None:
        pass

    def vertex_added(self, v) -> None:
        pass

    def x_joined(self, v) -> None:
        pass

    def y_joined(self, v) -> None:
        pass

    def merged(self, a, b, w) -> None:
        pass


class _State:
    """Mutable sub-instance over original vertex ids (plus gadget ids).

    ``red[v]`` is the set of v's red neighbours, a subset of ``adj[v]``; on
    plain graphs every such set is empty.  ``by_deg`` maps each black degree
    (``len(adj[v]) - len(red[v])``) to the live vertices that have it (a
    bucket may be empty).  ``apply`` and ``merge`` move each vertex whose
    black degree a step changes, so the degree-keyed rules read one bucket
    instead of scanning every vertex.  ``indexes`` holds the other indexes
    (``_Index``), each built by the first rule that reads it, so a run
    keeps only those its rules read.
    """

    __slots__ = ("adj", "red", "x", "y", "by_deg", "indexes")

    def __init__(self, adj, red, x, y):
        self.adj = adj
        self.red = red
        self.x = x
        self.y = y
        self.by_deg: defaultdict[int, set[int]] = defaultdict(set)
        for v in adj:
            self.by_deg[self._black_deg(v)].add(v)
        self.indexes: dict[type, _Index] = {}

    @classmethod
    def from_graph(cls, g: Graph, x=(), y=()):
        adj = {v: set(g.adj[v]) for v in g.vertices()}
        red = {v: set(g.red[v]) for v in g.vertices()}
        return cls(adj, red, set(x), set(y))

    def index(self, kind):
        """The state's ``kind`` index, built from the state on the first
        call and kept up to date from then on."""
        ix = self.indexes.get(kind)
        if ix is None:
            ix = self.indexes[kind] = kind(self)
        return ix

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
        # at once (a red edge coming or going leaves it unchanged).  Only
        # the drivers for plain graphs remove edges, so a removed edge is
        # black.
        adj, red, by_deg, x, y = self.adj, self.red, self.by_deg, self.x, self.y
        ixs = self.indexes.values()
        for u, v in app.removed_edges:
            self._shift(u, -1)
            self._shift(v, -1)
            adj[u].discard(v)
            adj[v].discard(u)
            for ix in ixs:
                ix.edge_changed(u, v)
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
            for ix in ixs:
                ix.vertex_gone(v, nbrs)
            x.discard(v)
            y.discard(v)
        if app.merged:
            self.merge(*app.merged)
        # Added vertices take their bucket once their edges are in.
        fresh = app.added_vertices
        for v in fresh:
            adj[v] = set()
            red[v] = set()
            for ix in ixs:
                ix.vertex_added(v)
        for u, v in app.added_edges:
            if u not in fresh:
                self._shift(u, 1)
            if v not in fresh:
                self._shift(v, 1)
            adj[u].add(v)
            adj[v].add(u)
            for ix in ixs:
                ix.edge_changed(u, v)
        for v in fresh:
            by_deg[self._black_deg(v)].add(v)
        for v in app.x_added:
            if v not in x:
                x.add(v)
                for ix in ixs:
                    ix.x_joined(v)
        for v in app.y_added:
            if v not in y:
                y.add(v)
                for ix in ixs:
                    ix.y_joined(v)

    def merge(self, a, b, w) -> None:
        """Contract a and b into the fresh vertex w, in place: w keeps the
        larger of their neighbour sets, grown by the other, and each vertex x
        of N(a) | N(b) sees a and b renamed to w.  The edge wx is black when
        x is a black neighbour of both, else red, so a common black
        neighbour loses one black degree and x changes bucket only when its
        black degree changed."""
        adj, red, by_deg = self.adj, self.red, self.by_deg
        na, nb = adj.pop(a), adj.pop(b)
        ra, rb = red.pop(a), red.pop(b)
        by_deg[len(na) - len(ra)].discard(a)
        by_deg[len(nb) - len(rb)].discard(b)
        both = na & nb
        both -= ra
        both -= rb
        if len(na) < len(nb):
            na, nb = nb, na
        na |= nb
        na.discard(a)
        na.discard(b)
        for x in na:
            ax, rx = adj[x], red[x]
            old = len(ax) - len(rx)
            ax.discard(a)
            ax.discard(b)
            ax.add(w)
            if rx:
                rx.discard(a)
                rx.discard(b)
            if x not in both:
                rx.add(w)
            new = len(ax) - len(rx)
            if new != old:
                by_deg[old].discard(x)
                by_deg[new].add(x)
        adj[w] = na
        red[w] = na - both
        by_deg[len(both)].add(w)
        self.x.difference_update((a, b))
        self.y.difference_update((a, b))
        for ix in self.indexes.values():
            ix.merged(a, b, w)


# ---------------------------------------------------------------------------
# Shared rules.  Each rule applies at the smallest id it fits (the smallest
# edge, for edge rules); the priority order (cost-free rules before
# cost-paying ones) is fixed by each driver.
# ---------------------------------------------------------------------------


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


class _YEdges(_Index):
    """A heap that holds the smaller end of every edge within Y: the edge's
    end pushes it when the edge comes to lie in Y.  A popped vertex has no
    neighbour in Y, and the next edge within Y at it pushes its smaller end
    again, so the first entry that is in Y and has a neighbour there is the
    smallest such vertex."""

    def __init__(self, st: _State):
        self.adj, self.y = st.adj, st.y
        self.heap = [v for v in st.y if not st.y.isdisjoint(st.adj[v])]
        heapify(self.heap)

    def first_edge(self) -> tuple[int, int] | None:
        """The smallest edge (u, v), u < v, within Y, or None: every
        neighbour of u in Y is larger, else it would be the smaller one."""
        adj, y, heap = self.adj, self.y, self.heap
        while heap:
            u = heap[0]
            if u in y and not y.isdisjoint(adj[u]):
                return u, min(adj[u] & y)
            heappop(heap)
        return None

    def edge_changed(self, u, v) -> None:
        if v in self.adj[u] and u in self.y and v in self.y:
            heappush(self.heap, min(u, v))

    def y_joined(self, v) -> None:
        for a in self.adj[v] & self.y:
            heappush(self.heap, min(a, v))


def rule_y_edge(st: _State) -> RuleApplication | None:
    edge = st.index(_YEdges).first_edge()
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


def _unwind_isolated(app: RuleApplication, d: set, p: set) -> None:
    if app.payload["case"] == "free":
        v = app.payload["vertex"]
        d.add(v)
        p.add(v)


def _unwind_nothing(app: RuleApplication, d: set, p: set) -> None:
    """The child's witness serves the parent as it is."""


def _unwind_low_degree(app: RuleApplication, d: set, p: set) -> None:
    """Pack the deleted vertex and pay its neighbours."""
    d.update(app.payload["neighbors"])
    p.add(app.payload["vertex"])


def _shared_rules(c: int) -> tuple:
    """The shared rules in priority order, low degree paying at most c."""
    return (
        (rule_isolated, _unwind_isolated),
        (rule_y_pendant, _unwind_nothing),
        (rule_y_edge, _unwind_nothing),
        (rule_x_elim, _unwind_nothing),
        (lambda st: rule_low_degree(st, c), _unwind_low_degree),
    )


def _check_budget(d, p, constant, slack, tag, formula):
    """The check after every unwind step: |D| <= constant*|P| + slack, the
    step's bound, which ``formula`` names."""
    bound = constant * len(p) + slack
    if len(d) > bound:
        raise GuaranteeViolated(f"{tag}: |D|={len(d)} exceeds {formula}={bound}")


# ---------------------------------------------------------------------------
# The rewrite loop
# ---------------------------------------------------------------------------


def run(g: Graph, rules, tag: str, constant, y=(), *, stalled="no rule applies",
        done=None, slack=None, formula=None) -> WitnessPair:
    """Reduce g, with Y pre-dominated, by ``rules``; unwind; certify.

    ``rules`` holds (find, unwind) pairs in priority order.  Each step
    applies the first find that returns a step, until no vertex is left or
    ``done(st)`` holds; Stalled(``stalled``) if no rule finds one.
    ``slack(st)``, read on the parent before each step is applied, gives
    that step's additive slack on the bound ``constant*|P|`` (``formula``
    names the bound).  Any EngineError raised in the loop, the unwind or
    ``certify`` carries the trace so far.  ``certify``'s input check runs
    first (GraphError): Y in range, red edges only in black mode.
    """
    y = XYInstance(g, y_set=y, mode=WITNESS_CLASSES.get(tag, (Mode.PLAIN, 0))[0]).y_set
    st = _State.from_graph(g, y=y)
    trace: list[RuleApplication] = []
    steps = []  # (unwind, slack) per step of the trace
    try:
        while st.adj and not (done and done(st)):
            for find, unwind in rules:
                app = find(st)
                if app is not None:
                    break
            else:
                raise Stalled(stalled)
            steps.append((unwind, slack(st) if slack else 0))
            st.apply(app)
            trace.append(app)
        d: set[int] = set()
        p: set[int] = set()
        formula = formula or f"{constant}*|P|"
        for app, (unwind, extra) in zip(reversed(trace), reversed(steps)):
            unwind(app, d, p)
            _check_budget(d, p, constant, extra, tag, formula)
        # Before certify, which would read a foreign id as malformed input.
        leaked = (d | p).difference(g.vertices())
        if leaked:
            raise GuaranteeViolated(f"{tag}: vertex {min(leaked)} leaked into the witness")
        return certify(g, d, p, tag, constant, trace, y)
    except EngineError as exc:
        exc.trace = tuple(trace)
        raise


# ---------------------------------------------------------------------------
# Planar driver
# ---------------------------------------------------------------------------

PLANAR_CONSTANT = 10


def run_planar(g: Graph) -> WitnessPair:
    """Reduce with the generic rules, paying at most 10 per packed vertex.

    Planarity guarantees the loop never stalls; on non-planar input the loop
    either still succeeds (the witness is sound regardless) or raises Stalled.
    The rules read only degrees, so no embedding is needed.
    """
    return run(g, _shared_rules(PLANAR_CONSTANT), "planar", PLANAR_CONSTANT,
               stalled="planar rules stalled (non-planar input?)")


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


def _simplicial(compl, within) -> list[int]:
    """The members of ``within`` whose completion neighbours in ``within``
    form a clique, in id order."""
    out = []
    for v in sorted(within):
        nb = [u for u in compl[v] if u in within]
        if all(b in compl[a] for i, a in enumerate(nb) for b in nb[i + 1 :]):
            out.append(v)
    return out


def _tw_class_step(st: _State, compl, k: int) -> RuleApplication:
    """The class step on the completion ``compl`` (``compl[v]`` is v's
    neighbour set in it), read on the live vertices only."""
    a1 = _simplicial(compl, st.adj.keys())
    bad = [v for v in a1 if v not in st.y]
    if bad:
        raise Stalled(f"simplicial vertices {bad} escaped Y")
    rest = st.adj.keys() - set(a1)
    if not rest:
        raise Stalled("completion exhausted with instance nonempty")
    a2 = _simplicial(compl, rest)
    if not a2:
        raise Stalled("no second-layer simplicial vertex")
    v = a2[0]
    if compl[v].isdisjoint(a1):
        raise Stalled(f"class-step vertex {v} has no first-layer neighbor")
    c = compl[v] & rest
    nv = st.adj[v]
    c1 = tuple(sorted(c & nv))
    # The members of c at distance 2 from v, each with its least common
    # neighbour of v.
    c2 = tuple(sorted(u for u in c - nv if not nv.isdisjoint(st.adj[u])))
    c2_cover = tuple(sorted(min(nv & st.adj[u]) for u in c2))
    return RuleApplication(
        "tw_class_step",
        removed_vertices=(v,),
        x_added=c1,
        y_added=tuple(sorted(set(c2) - st.y)),
        payload={"vertex": v, "c1": c1, "c2": c2, "c2_cover": c2_cover, "k": k},
    )


def _unwind_tw_class_step(app: RuleApplication, d: set, p: set) -> None:
    pay = app.payload
    if pay["c1"] or pay["c2"]:
        addition = set(pay["c1"]) | set(pay["c2_cover"])
        if len(addition) > pay["k"]:
            raise GuaranteeViolated(
                f"class step at {pay['vertex']} pays {len(addition)} > k={pay['k']}"
            )
        d.update(addition)
    else:
        d.add(pay["vertex"])
    p.add(pay["vertex"])


def run_treewidth(g: Graph, chordal_completion: Graph) -> WitnessPair:
    """Certified gamma <= k*rho, k the width of a validated chordal completion
    lifted to at least 1 (an isolated vertex pays one for one)."""
    width = completion_width(g, chordal_completion)
    if width is None:
        raise CertificateInvalid("completion is not a chordal supergraph on the same vertices")
    k = max(1, width)
    class_step = (lambda st: _tw_class_step(st, chordal_completion.adj, k), _unwind_tw_class_step)
    return run(g, _shared_rules(k) + (class_step,), "treewidth", k)


# ---------------------------------------------------------------------------
# Distance-hereditary driver (total domination, budget 2)
# ---------------------------------------------------------------------------

DH_CONSTANT = 2


class _YOut(_Index):
    """``out[a]`` = |N(a) - Y| for each a in Y, and ``low``, the members of Y
    with at most one neighbour outside it.  The hooks move the counts, and
    ``_set`` places each count's vertex in ``low``."""

    def __init__(self, st: _State):
        self.adj, self.y = st.adj, st.y
        self.out: dict[int, int] = {}
        self.low: set[int] = set()
        for a in st.y:
            self._recount(a)

    def _set(self, a, k) -> None:
        self.out[a] = k
        if k <= 1:
            self.low.add(a)
        else:
            self.low.discard(a)

    def _recount(self, a) -> None:
        self._set(a, len(self.adj[a] - self.y))

    def vertex_gone(self, v, nbrs) -> None:
        out = self.out
        if v in self.y:
            del out[v]
            self.low.discard(v)
        else:
            for a in nbrs & self.y:
                self._set(a, out[a] - 1)

    def edge_changed(self, u, v) -> None:
        for a in (u, v):
            if a in self.y:
                self._recount(a)

    def y_joined(self, v) -> None:
        out = self.out
        self._recount(v)
        for a in self.adj[v] & self.y:
            self._set(a, out[a] - 1)

    def merged(self, a, b, w) -> None:
        for v in (a, b):
            self.out.pop(v, None)
            self.low.discard(v)
        for v in self.adj[w] & self.y:
            self._recount(v)


def _dh_y_prune(st: _State) -> RuleApplication | None:
    a = min(st.index(_YOut).low, default=None)
    if a is None:
        return None
    return RuleApplication("dh_y_prune", removed_vertices=(a,), payload={"vertex": a})


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
    """The twins u < v, u smallest and then v, as a scan of all pairs finds
    them.  Twins have equal degrees, one bucket (the graph is plain, so
    black degree is degree).  A closed twin of u is a neighbour, and an open
    twin a neighbour of each neighbour z of u; with no neighbour, u's twins
    are the other isolated vertices.  A closed twin v has N(v) within N[u]."""
    adj, by_deg = st.adj, st.by_deg
    for u in sorted(chain.from_iterable(b for b in by_deg.values() if len(b) > 1)):
        nu = adj[u]
        peers = by_deg[len(nu)]
        if nu:
            near = peers.intersection(adj[next(iter(nu))])
            near |= peers.intersection(nu)
            closed = nu | {u}
            v = min(
                (v for v in near if v > u and (adj[v] == nu or (v in nu and adj[v] <= closed))),
                default=None,
            )
        else:
            v = min((v for v in peers if v > u), default=None)
        if v is not None:
            victim = u if u in st.y else (v if v in st.y else u)
            return RuleApplication(
                "dh_twin",
                removed_vertices=(victim,),
                payload={"pair": (u, v), "victim": victim},
            )
    return None


def _unwind_dh_pendant(app: RuleApplication, d: set, p: set) -> None:
    d.add(app.payload["pendant"])
    d.add(app.payload["support"])
    p.add(app.payload["pendant"])


def run_distance_hereditary(g: Graph, y=()) -> WitnessPair:
    """Total-domination witness with |D| <= 2|P| via pendant/twin pruning.

    On distance-hereditary input it does not stall (checked on every labelled
    graph with n <= 6).  A stall is therefore a sign the input is outside the
    class, but finishing is no proof it is inside: a pendant step deletes the
    support with the pendant, which can break every cycle of a graph that is
    not distance-hereditary.  Each witness is certified either way.
    """
    # Pendants go first: pruning a Y-vertex whose only free neighbor is a
    # pendant would isolate that pendant in the child and lose its
    # total-domination obligation.
    rules = (
        (rule_isolated, _unwind_isolated),
        (_dh_pendant, _unwind_dh_pendant),
        (_dh_y_prune, _unwind_nothing),
        (_dh_twins, _unwind_nothing),
    )
    return run(g, rules, "distance-hereditary", DH_CONSTANT, y,
               stalled="pruning stalled (not distance-hereditary?)")
