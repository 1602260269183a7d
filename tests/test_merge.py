"""The twin-width merge, made in place by ``_State.merge``, against the
contraction built from w's edge lists (``_rule_reference.merge``).

After every merge of a sequence the state that ``merge`` left, the state
that the driver's contraction step left through ``apply``, and the
reference state must hold the same adjacency, red neighbour sets and
non-empty black-degree buckets.
"""

from __future__ import annotations

import itertools
import random

import pytest

import _rule_reference as ref
from conftest import random_cograph
from dompack.engine import _State
from dompack.engine_twinwidth import _contraction_step
from dompack.graph import Graph


def _buckets(st: _State) -> dict[int, set[int]]:
    return {d: vs for d, vs in st.by_deg.items() if vs}


def _replay_three_ways(g: Graph, merges, y=()) -> int:
    """Replays the merges on three states built from g with Y = y; returns
    the number of red edges seen along the way."""
    merged, stepped, reference = (_State.from_graph(g, y=y) for _ in range(3))
    red_seen = 0
    for a, b, w in merges:
        app = _contraction_step(stepped, a, b, w)
        assert app.merged == (a, b, w) and not app.added_edges
        merged.merge(a, b, w)
        stepped.apply(app)
        ref.merge(reference, a, b, w)
        for st in (merged, stepped):
            assert st.adj == reference.adj, (a, b, w)
            assert st.red == reference.red, (a, b, w)
            assert _buckets(st) == _buckets(reference) == ref.black_degree_buckets(reference)
        # Y is the step's to grow (fresh ids are g.n and up): merge only
        # drops the merged ends from it.
        assert stepped.y == reference.y
        assert merged.y == {v for v in reference.y if v < g.n}
        red_seen += sum(map(len, reference.red.values())) // 2
    return red_seen


@pytest.mark.parametrize("n", [10, 40, 120])
def test_merge_matches_reference_on_cographs(n):
    red_seen = 0
    for seed in range(3):
        g, seq = random_cograph(n, 900 + seed, flip=0.2)
        rng = random.Random(seed)
        red_seen += _replay_three_ways(g, seq.merges)
        y = {v for v in g.vertices() if rng.random() < 0.3}
        red_seen += _replay_three_ways(g, seq.merges, y)
    assert red_seen


def _random_trigraph(n: int, rng: random.Random) -> Graph:
    pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    red = [e for e in pairs if rng.random() < 0.3]
    return Graph.from_edges(n, [e for e in pairs if e not in red], red_edges=red)


def test_merge_matches_reference_on_trigraphs():
    # Red input edges, merged ends joined by a black, a red or no edge, and
    # neighbours black to one end and red to the other.
    for seed in range(120):
        rng = random.Random(seed)
        n = 2 + seed % 11
        g = _random_trigraph(n, rng)
        alive = list(range(n))
        merges = []
        for fresh in range(n, 2 * n - 1):
            a, b = rng.sample(alive, 2)
            merges.append((a, b, fresh))
            alive = [v for v in alive if v not in (a, b)] + [fresh]
        y = {v for v in range(n) if rng.random() < 0.4}
        _replay_three_ways(g, merges, y)


def test_merge_colours_by_the_common_black_neighbours():
    # 2 is a black neighbour of both ends, 3 of one end only, 4 red to one
    # end and black to the other, 5 red to both; 0 and 1 share a red edge.
    g = Graph.from_edges(
        6, [(0, 2), (1, 2), (0, 3), (0, 4)], red_edges=[(0, 1), (1, 4), (0, 5), (1, 5)]
    )
    st = _State.from_graph(g)
    st.merge(0, 1, 6)
    assert st.adj[6] == {2, 3, 4, 5} and st.red[6] == {3, 4, 5}
    assert _buckets(st) == {0: {3, 4, 5}, 1: {2, 6}}

