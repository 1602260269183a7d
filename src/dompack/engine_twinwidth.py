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
    RuleApplication,
    SequenceInvalid,
    WitnessPair,
    _min_in_buckets,
    _State,
    run,
)
from .graph import Graph, GraphError, ball2, black_neighbors, vertex_ids


@dataclass(frozen=True)
class ContractionSequence:
    """Ordered merges (u, v, w) with fresh ids w, ending at a single vertex,
    keeping red degree at most declared_width throughout."""

    merges: tuple[tuple[int, int, int], ...]
    declared_width: int

    @staticmethod
    def from_json(s: str) -> "ContractionSequence":
        try:
            doc = json.loads(s)
            merges = tuple((a, b, c) for a, b, c in map(vertex_ids, doc["merges"]))
            (width,) = vertex_ids([doc["width"]])
            return ContractionSequence(merges, width)
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad contraction-sequence JSON: {exc}") from exc


def _lowblack_step(st: _State, k: int) -> RuleApplication | None:
    # No black degree reaches the number of live vertices, so a declared
    # width beyond it reads no more buckets.
    u = _min_in_buckets(st, range(min(k, len(st.adj)) + 1), st.y)
    if u is None:
        return None
    blacks = tuple(sorted(black_neighbors(st, u)))
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
    s_cover = [min(black_neighbors(st, s), default=s) for s in s_red]
    r_cover = [min(bn) for bn in (black_neighbors(st, r) for r in reds) if bn]
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
    """Merge a and b into w (``_State.merge``); the unwind renames w back to
    a, or to b when only a is in Y.  w joins Y when both ends were in it."""
    both_y = a in st.y and b in st.y
    rep = b if a in st.y and not both_y else a
    return RuleApplication(
        "tww_contract",
        merged=(a, b, w),
        y_added=(w,) if both_y else (),
        payload={"merged": (a, b), "into": w, "rep": rep, "both_y": both_y},
    )


def validate_contraction_sequence(g: Graph, seq: ContractionSequence, width=None) -> bool:
    """Replay the merges on the whole graph with the driver's own merge
    (``_State.merge``, and so its recolouring rule); red degree must stay
    within the width at every step and the trigraph must shrink to one
    vertex.

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
        st.merge(a, b, c)
        if len(red[c]) > w or any(len(red[x]) > w for x in red[c]):
            return False
    return len(st.adj) <= 1


def _unwind_lowblack(app: RuleApplication, d: set, p: set) -> None:
    pay = app.payload
    p.add(pay["vertex"])
    d.add(pay["vertex"])
    d.update(pay["blacks"], pay["reds"], pay["s_cover"], pay["r_cover"])


def _unwind_contract(app: RuleApplication, d: set, p: set) -> None:
    """Rename the merged vertex back to its representative."""
    w, rep = app.payload["into"], app.payload["rep"]
    if w in d:
        d.discard(w)
        d.add(rep)
    if w in p:
        p.discard(w)
        p.add(rep)


def run_twinwidth(g: Graph, seq: ContractionSequence, y=()) -> WitnessPair:
    """Certified black-domination within 4k^2 of the packing, k the
    sequence's declared width lifted to at least 2."""
    k = max(2, seq.declared_width)
    if not validate_contraction_sequence(g, seq, width=k):
        raise SequenceInvalid("contraction sequence is not valid at width k")
    alias: dict[int, int] = {}
    merges = iter(seq.merges)

    def resolve(v: int) -> int:
        while v in alias:
            v = alias[v]
        return v

    def contract(st: _State) -> RuleApplication:
        # The next merge whose endpoints both live; a merge that lost an
        # endpoint makes its new id an alias of the survivor.
        for a, b, w in merges:
            ra, rb = resolve(a), resolve(b)
            la, lb = ra in st.adj, rb in st.adj
            if la and lb:
                return _contraction_step(st, ra, rb, w)
            alias[w] = ra if la else rb
        raise SequenceInvalid("sequence exhausted with undominated vertices remaining")

    rules = ((lambda st: _lowblack_step(st, k), _unwind_lowblack), (contract, _unwind_contract))
    return run(g, rules, "twin-width", 4 * k * k, y, done=lambda st: st.y.issuperset(st.adj))
