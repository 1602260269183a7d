"""Twin-width driver: black-domination witnesses with budget 4k^2 per packed
vertex, guided by a validated contraction sequence.

Two alternating steps.  While some non-Y vertex u has at most k black
neighbors, the low-black step deletes N[u] wholesale, pushes the entire
second neighborhood of u into Y, and on unwind packs u while paying its
neighborhood, one black contact per red neighbor, and one black contact (or
the vertex itself) per second-ring vertex that had only red edges into the
ring.  Otherwise every non-Y vertex has more than k black neighbors and the
next contraction of the sequence is performed; its unwind merely renames the
merged vertex back.  Deleting vertices keeps the remaining sequence valid,
so merges whose endpoints died become aliases instead of contractions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import (
    EngineError,
    RuleApplication,
    SequenceInvalid,
    WitnessPair,
    _check_budget,
    _min_in_buckets,
    _State,
    certify,
)
from .graph import Graph, GraphError, ball2, vertex_ids


@dataclass(frozen=True)
class ContractionSequence:
    """Ordered merges (u, v, w) with fresh ids w, ending at a single vertex,
    keeping red degree at most declared_width throughout."""

    merges: tuple[tuple[int, int, int], ...]
    declared_width: int

    def to_json(self) -> str:
        return json.dumps(
            {"width": self.declared_width, "merges": [list(m) for m in self.merges]},
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(s: str) -> "ContractionSequence":
        try:
            doc = json.loads(s)
            merges = tuple((a, b, c) for a, b, c in map(vertex_ids, doc["merges"]))
            (width,) = vertex_ids([doc["width"]])
            return ContractionSequence(merges, width)
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad contraction-sequence JSON: {exc}") from exc


def _black_neighbors(st: _State, v: int) -> set[int]:
    return st.adj[v] - st.red[v]


def _lowblack_step(st: _State, k: int) -> RuleApplication | None:
    # No black degree reaches the number of live vertices, so a declared
    # width beyond it reads no more buckets.
    u = _min_in_buckets(st, range(min(k, len(st.adj)) + 1), st.y)
    if u is None:
        return None
    blacks = tuple(sorted(_black_neighbors(st, u)))
    reds = tuple(sorted(st.red[u]))
    ring = st.adj[u]
    second = ball2(st, u) - ring - {u}
    s_black = []
    s_red = []
    for s in sorted(second):
        if (st.adj[s] & ring) - st.red[s]:
            s_black.append(s)
        else:
            s_red.append(s)
    s_cover = []
    for s in s_red:
        bn = _black_neighbors(st, s)
        s_cover.append(min(bn) if bn else s)
    r_cover = []
    for r in reds:
        bn = _black_neighbors(st, r)
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


def _contraction_step(st: _State, a: int, b: int, w: int) -> RuleApplication:
    black_edges = []
    red_edges = []
    both_black = _black_neighbors(st, a) & _black_neighbors(st, b)
    for x in sorted((st.adj[a] | st.adj[b]) - {a, b}):
        if x in both_black:
            black_edges.append((w, x) if w < x else (x, w))
        else:
            red_edges.append((w, x) if w < x else (x, w))
    both_y = a in st.y and b in st.y
    if both_y:
        rep = a
    else:
        rep = a if a not in st.y else b
    return RuleApplication(
        "tww_contract",
        removed_vertices=(a, b),
        added_vertices=(w,),
        added_edges=tuple(black_edges),
        added_red_edges=tuple(red_edges),
        y_added=(w,) if both_y else (),
        payload={"merged": (a, b), "into": w, "rep": rep, "both_y": both_y},
    )


def validate_contraction_sequence(g: Graph, seq: ContractionSequence, width=None) -> bool:
    """Replay the merges on the driver's working state, each one through the
    driver's own contraction step (and so its recolouring rule); red degree
    must stay within the width at every step and the trigraph must shrink to
    one vertex.

    A merge only lowers red degrees, except at the merged vertex and its red
    neighbours, so only those are re-checked."""
    w = seq.declared_width if width is None else width
    st = _State.from_graph(g)
    red = st.red
    if any(len(r) > w for r in red.values()):
        return False
    used = set(st.adj)
    for a, b, c in seq.merges:
        if a not in st.adj or b not in st.adj or a == b or c in used:
            return False
        used.add(c)
        st.apply(_contraction_step(st, a, b, c))
        if len(red[c]) > w or any(len(red[x]) > w for x in red[c]):
            return False
    return len(st.adj) <= 1


def run_twinwidth(g: Graph, seq: ContractionSequence, k: int, y=()) -> WitnessPair:
    """Certified black-domination within 4k^2 of the packing, k >= 2."""
    if k < 2:
        raise SequenceInvalid("twin-width driver requires k >= 2")
    if not validate_contraction_sequence(g, seq, width=k):
        raise SequenceInvalid("contraction sequence is not valid at width k")
    y0 = g.check_vertex_set(y)
    st = _State.from_graph(g, y=y0)
    trace: list[RuleApplication] = []
    alias: dict[int, int] = {}
    merge_idx = 0
    constant = 4 * k * k

    def resolve(v: int) -> int:
        while v in alias:
            v = alias[v]
        return v

    while not st.y.issuperset(st.adj):
        app = _lowblack_step(st, k)
        if app is None:
            while True:
                if merge_idx >= len(seq.merges):
                    raise SequenceInvalid(
                        "sequence exhausted with undominated vertices remaining"
                    )
                a, b, w = seq.merges[merge_idx]
                merge_idx += 1
                ra, rb = resolve(a), resolve(b)
                la, lb = ra in st.adj, rb in st.adj
                if la and lb:
                    app = _contraction_step(st, ra, rb, w)
                    break
                alias[w] = ra if la else rb
        st.apply(app)
        trace.append(app)

    d: set[int] = set()
    p: set[int] = set()
    for app in reversed(trace):
        pay = app.payload
        if app.rule_id == "tww_lowblack":
            p.add(pay["vertex"])
            d.add(pay["vertex"])
            d.update(pay["blacks"])
            d.update(pay["reds"])
            d.update(pay["s_cover"])
            d.update(pay["r_cover"])
        elif app.rule_id == "tww_contract":
            w, rep = pay["into"], pay["rep"]
            if w in d:
                d.discard(w)
                d.add(rep)
            if w in p:
                p.discard(w)
                p.add(rep)
        else:
            raise EngineError(f"unknown rule {app.rule_id}")
        _check_budget(d, p, constant, trace, "twin-width")

    if not (d | p) <= set(g.vertices()):
        raise EngineError("merged vertex leaked into the witness")
    return certify(g, d, p, "twin-width", constant, trace, y0)
