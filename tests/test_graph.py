import random
import tracemalloc
from math import inf

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from dompack.graph import (
    Graph,
    GraphError,
    Graph6Error,
    ball2,
    closed_neighborhood,
    components,
    degeneracy_ordering,
    distances_from,
    from_edge_json,
    from_graph6,
    graph6_to_masks,
    masks_to_graph6,
    to_graph6,
)
from _reference import masks_to_graph6_one_int, to_edge_json
from conftest import complete, named

from dompack import families


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, picks) if keep])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    def test_adjacency_symmetric(self):
        g = named("c5")
        for u in g.vertices():
            for v in g.adj[u]:
                assert u in g.adj[v]

    def test_red_edges(self):
        g = Graph.from_edges(3, [(0, 1)], red_edges=[(1, 2)])
        assert g.red == {(1, 2)}
        assert g.black_neighbors(1) == {0}
        assert not g.is_plain()


class TestClosedNeighborhood:
    def test_petersen_singleton(self, petersen):
        assert len(closed_neighborhood(petersen, {0})) == 4

    def test_empty(self):
        assert closed_neighborhood(named("c5"), ()) == frozenset()

    def test_c5_pair(self):
        assert closed_neighborhood(named("c5"), {0, 2}) == frozenset(range(5))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_union_homomorphism(self, g):
        verts = list(g.vertices())
        s1 = frozenset(verts[::2])
        s2 = frozenset(verts[1::3])
        assert closed_neighborhood(g, s1 | s2) == closed_neighborhood(
            g, s1
        ) | closed_neighborhood(g, s2)


class TestDistance:
    def test_c5(self):
        assert distances_from(named("c5"), 0)[2] == 2

    def test_disconnected_infinite(self):
        # An unreachable vertex has no entry: its distance is infinite.
        assert distances_from(Graph.from_edges(2), 0) == {0: 0}

    def test_chained_blocks_chaining_edge(self):
        # Chaining joins the first block's outer vertex to the next block's
        # level-one vertex, so they sit at distance 1.
        g = families.gen_chained_blocks(2)
        assert 8 in g.adj[0]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_triangle(self, g):
        dist = [distances_from(g, u) for u in g.vertices()]

        def d(u, v):
            return dist[u].get(v, inf)

        for u in g.vertices():
            for v in g.vertices():
                assert d(u, v) == d(v, u)
        for u in g.vertices():
            for v in g.vertices():
                for w in g.vertices():
                    assert d(u, w) <= d(u, v) + d(v, w)


def reference_degeneracy_ordering(g):
    """The quadratic min-over-all-remaining loop that the lazy heap replaced."""
    deg = {v: g.degree(v) for v in range(g.n)}
    live_adj = {v: set(g.adj[v]) for v in range(g.n)}
    order = []
    degeneracy = 0
    remaining = set(range(g.n))
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        degeneracy = max(degeneracy, deg[v])
        order.append(v)
        remaining.discard(v)
        for w in live_adj[v]:
            live_adj[w].discard(v)
            deg[w] -= 1
        del live_adj[v], deg[v]
    return order, degeneracy


class TestDegeneracy:
    @given(graphs(max_n=14))
    @settings(max_examples=150, deadline=None)
    def test_order_matches_reference(self, g):
        assert degeneracy_ordering(g) == reference_degeneracy_ordering(g)

    def test_tree(self):
        assert degeneracy_ordering(families.gen_random_tree(5, 1))[1] == 1

    def test_k4(self):
        assert degeneracy_ordering(complete(4))[1] == 3

    def test_threedeg_family(self):
        # Exhaustive reference: degeneracy = max over subgraphs of min degree.
        g = families.gen_threedeg(2)
        assert degeneracy_ordering(g)[1] == 3

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_back_degree_bound(self, g):
        order, d = degeneracy_ordering(g)
        seen = set()
        realized = 0
        for v in order:
            back = len(g.adj[v] - seen)
            assert back <= d
            realized = max(realized, back)
            seen.add(v)
        assert realized == d

    @given(graphs(max_n=7))
    @settings(max_examples=25, deadline=None)
    def test_some_subgraph_realizes(self, g):
        if g.n == 0:
            return
        _, d = degeneracy_ordering(g)
        best = 0
        for mask in range(1, 1 << g.n):
            verts = [v for v in g.vertices() if (mask >> v) & 1]
            vs = set(verts)
            mind = min(len(g.adj[v] & vs) for v in verts)
            best = max(best, mind)
        assert best == d


class TestBall2:
    @given(graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_matches_bfs(self, g):
        for v in g.vertices():
            ball = {u for u, d in distances_from(g, v).items() if d <= 2}
            assert ball2(g, v) == ball

    def test_isolated_vertex_is_its_own_ball(self):
        assert ball2(Graph.from_edges(3, [(1, 2)]), 0) == {0}

    def test_returns_a_fresh_set(self):
        g = named("p5")
        ball = ball2(g, 2)
        ball.clear()
        assert ball2(g, 2) == {0, 1, 2, 3, 4}
        assert g.adj[2] == {1, 3}


def conflict_edges(g):
    """The packing conflicts: pairs at distance 1 or 2, read off ``ball2``
    rows as ``packing_kernel`` builds them (each ball less its centre)."""
    return {(u, v) for u in g.vertices() for v in ball2(g, u) - {u} if u < v}


class TestConflictGraph:
    def test_c6(self):
        expect = set(named("c6").edges()) | {(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)}
        assert conflict_edges(named("c6")) == expect

    def test_edgeless(self):
        assert conflict_edges(Graph.from_edges(4)) == set()

    def test_star_becomes_clique(self):
        assert len(conflict_edges(named("star3"))) == 6

    @given(graphs(max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_edge_addition(self, g):
        if g.n < 2:
            return
        non_edges = [
            (u, v)
            for u in g.vertices()
            for v in range(u + 1, g.n)
            if v not in g.adj[u]
        ]
        if not non_edges:
            return
        before = conflict_edges(g)
        bigger = Graph.from_edges(g.n, g.edges() + non_edges[:1])
        after = conflict_edges(bigger)
        assert before <= after


class TestBuilders:
    def test_components(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert components(g) == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]



class TestGraph6:
    def test_roundtrip_named(self):
        for name in ("k1", "k2", "c4", "c5", "petersen", "star3"):
            g = named(name)
            assert from_graph6(to_graph6(g)).adj == g.adj

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_networkx(self, g):
        s = to_graph6(g)
        h = nx.from_graph6_bytes(s.encode())
        assert set(h.nodes()) == set(g.vertices())
        assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges())
        back = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert back == s

    def test_header_accepted(self):
        assert from_graph6(">>graph6<<A_").edge_count == 1

    def test_malformed(self):
        with pytest.raises(Graph6Error):
            from_graph6("B")  # truncated body
        with pytest.raises(Graph6Error):
            from_graph6("A" + chr(200))
        with pytest.raises(Graph6Error):
            from_graph6(">?")  # order byte below '?' with a body of matching length
        for s in (
            ">",
            chr(127) + "?" * 336,  # one-byte order above '}', read as n = 64
            "~?" + chr(200) + "?",  # read as n = 8768
            "~??" + chr(127) + "?" * 336,  # three-byte order, last byte above '~'
        ):
            with pytest.raises(Graph6Error):
                from_graph6(s)

    @pytest.mark.parametrize("n", [0, 1, 62, 63, 64])
    def test_mask_codec_roundtrip(self, n):
        # Orders 62/63 switch between the one- and four-byte order prefix.
        rng = random.Random(n)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        )
        s = masks_to_graph6(g.masks)
        assert graph6_to_masks(s) == g.masks
        h = nx.Graph()
        h.add_nodes_from(g.vertices())
        h.add_edges_from(g.edges())
        assert nx.to_graph6_bytes(h, header=False).decode().strip() == s

    def test_encoder_matches_the_one_int_encoder(self):
        # Seeded orders up to 200, past the encoder's flush size (n = 92),
        # at densities from empty to complete.
        rng = random.Random(2026)
        for n in [*range(40), *(rng.randint(40, 200) for _ in range(60)), 199, 200]:
            p = rng.choice((0.0, 0.05, 0.5, 0.95, 1.0, rng.random()))
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            assert masks_to_graph6(g.masks) == masks_to_graph6_one_int(g.masks), n

    def test_decoder_memory_stays_near_the_input(self):
        # The 6000-vertex path: 3 MB of graph6 text, a stream of 18 million
        # bits.  Expanding it to one character per bit took 45 MB.
        s = to_graph6(families.gen_path(6000))
        tracemalloc.start()
        try:
            g = from_graph6(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count == 5999 and g.adj[0] == {1}
        assert peak < 15 * 10**6

    def test_large_order_prefix(self):
        g = Graph.from_edges(63, [(0, 62)])
        assert from_graph6(to_graph6(g)).edges() == [(0, 62)]


class TestEdgeJson:
    def test_roundtrip_with_colors(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)], red_edges=[(2, 3)])
        h = from_edge_json(to_edge_json(g))
        assert h.adj == g.adj and h.red == g.red

    def test_bad_json(self):
        with pytest.raises(GraphError):
            from_edge_json("{}")
