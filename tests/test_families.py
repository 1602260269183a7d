import itertools

import networkx as nx
import pytest

from dompack import families, oracles
from dompack.families import (
    ContractionSequence,
    OversizeFamilyError,
    RotationSystem,
    at_free_masks,
    brute_force_tw_certificate,
    brute_force_tww_sequence,
    enumerate_connected_bounded_degree,
    enumerate_labeled_graphs,
    enumerate_labeled_masks,
    gen_chained_blocks,
    gen_cycle,
    gen_petersen,
    gen_random_tree,
    gen_rook,
    gen_split,
    gen_threedeg,
    recognize_at_free,
    recognize_chordal,
    recognize_distance_hereditary,
    recognize_split,
    validate_contraction_sequence,
    validate_rotation_planarity,
    validate_tw_certificate,
)
from dompack.graph import Graph, XYInstance, is_connected, masks_connected, to_graph6
from conftest import complete, named, random_graph


def gamma_rho(g):
    inst = XYInstance(g)
    return oracles.exact_domination(inst).value, oracles.exact_packing(inst).value


class TestChainedBlocks:
    @pytest.mark.parametrize("i,n", [(1, 8), (2, 14), (3, 20)])
    def test_structure(self, i, n):
        g = gen_chained_blocks(i)
        assert g.n == n
        assert g.max_degree() == 3
        assert is_connected(g)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_values(self, i):
        gamma, rho = gamma_rho(gen_chained_blocks(i))
        assert gamma == 2 * i + 1
        assert rho == i


class TestSplit:
    def test_k1(self):
        g = gen_split(1)
        assert g.n == 2 and g.edge_count == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_values(self, k):
        gamma, rho = gamma_rho(gen_split(k))
        assert gamma == k and rho == 1

    def test_recognized(self):
        assert recognize_split(gen_split(2)) is not None
        assert recognize_chordal(gen_split(2)) is not None

    def test_guardrail(self):
        with pytest.raises(OversizeFamilyError):
            gen_split(6)


class TestThreedeg:
    def test_k1(self):
        g = gen_threedeg(1)
        assert g.n == 4

    @pytest.mark.parametrize("k", [2, 3])
    def test_values(self, k):
        g = gen_threedeg(k)
        gamma, rho = gamma_rho(g)
        assert rho == 2
        assert gamma >= k

    def test_degeneracy(self):
        assert families.degeneracy(gen_threedeg(2)) == 3

    def test_guardrail(self):
        with pytest.raises(OversizeFamilyError):
            gen_threedeg(5)


class TestSmallFamilies:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rook_values(self, n):
        g = gen_rook(n)
        assert g.n == n * n
        gamma, rho = gamma_rho(g)
        assert gamma == n and rho == 1

    def test_cycle_law(self):
        for n in range(3, 16):
            gamma, rho = gamma_rho(gen_cycle(n))
            assert gamma <= rho + 1
            assert (gamma == rho + 1) == (n % 3 in (1, 2))

    def test_petersen(self):
        g = gen_petersen()
        assert g.n == 10 and g.max_degree() == 3 and g.edge_count == 15
        # girth 5: no triangles or 4-cycles
        h = nx.Graph(g.edges())
        assert nx.girth(h) == 5
        gamma, rho = gamma_rho(g)
        assert gamma == 3 and rho == 1 and gamma == 2 * rho + 1

    def test_random_tree_deterministic(self):
        a = gen_random_tree(9, 42)
        b = gen_random_tree(9, 42)
        assert to_graph6(a) == to_graph6(b)
        assert a.edge_count == 8 and is_connected(a)

    def test_random_generators_seeded(self):
        assert families.gen_random_unitdisk(5, 4.0, 1) == families.gen_random_unitdisk(5, 4.0, 1)
        e1 = families.gen_random_convex(4, 3, 5)
        e2 = families.gen_random_convex(4, 3, 5)
        assert e1.to_json() == e2.to_json()


class TestRecognizers:
    def test_at_free(self):
        # Cycles of length >= 6 carry the classic asteroidal triple of
        # alternating vertices; shorter cycles have no independent triple.
        assert recognize_at_free(named("c5"))
        assert recognize_at_free(families.gen_path(8))
        assert not recognize_at_free(named("c6"))
        assert not recognize_at_free(gen_cycle(7))

    def test_at_free_c6_triple_explicit(self):
        g = named("c6")
        # {0,2,4} is independent and each pair is joined by the short arc,
        # which avoids the third vertex's neighborhood.
        for a, b, z in ((0, 2, 4), (2, 4, 0), (0, 4, 2)):
            assert b not in g.adj[a]
            ball = g.adj[z] | {z}
            reach = {a}
            stack = [a]
            while stack:
                x = stack.pop()
                for w in g.adj[x]:
                    if w not in ball and w not in reach:
                        reach.add(w)
                        stack.append(w)
            assert b in reach

    def test_distance_hereditary(self):
        assert recognize_distance_hereditary(named("c4"))
        assert not recognize_distance_hereditary(named("c5"))

    def test_chordal(self):
        assert recognize_chordal(named("c4")) is None
        peo = recognize_chordal(complete(4))
        assert peo is not None and len(peo) == 4

    def test_split_rejects(self):
        assert recognize_split(named("c4")) is None
        assert recognize_split(named("c5")) is None

    def test_split_matches_brute_force(self):
        for seed in range(120):
            g = random_graph(6, 0.45, seed)
            got = recognize_split(g) is not None
            expect = False
            verts = list(g.vertices())
            for mask in range(1 << g.n):
                cl = [v for v in verts if (mask >> v) & 1]
                ind = [v for v in verts if not (mask >> v) & 1]
                if all(b in g.adj[a] for a, b in itertools.combinations(cl, 2)) and all(
                    b not in g.adj[a] for a, b in itertools.combinations(ind, 2)
                ):
                    expect = True
                    break
            assert got == expect, to_graph6(g)

    def test_dh_matches_networkx_distances(self):
        # Cross-check the pruning recognizer against the definition on small
        # connected graphs: all connected induced subgraphs preserve distances.
        for seed in range(60):
            g = random_graph(6, 0.5, seed)
            if not is_connected(g):
                continue
            got = recognize_distance_hereditary(g)
            h = nx.Graph(g.edges())
            h.add_nodes_from(g.vertices())
            expect = True
            base = dict(nx.all_pairs_shortest_path_length(h))
            for r in range(2, g.n + 1):
                for sub in itertools.combinations(g.vertices(), r):
                    hs = h.subgraph(sub)
                    if not nx.is_connected(hs):
                        continue
                    for u, v in itertools.combinations(sub, 2):
                        if nx.shortest_path_length(hs, u, v) != base[u][v]:
                            expect = False
                            break
                    if not expect:
                        break
                if not expect:
                    break
            assert got == expect, to_graph6(g)


class TestValidators:
    def test_tw_certificate(self):
        c4 = named("c4")
        chordal = Graph.from_edges(4, c4.edges() + [(0, 2)])
        assert validate_tw_certificate(c4, chordal, 2)
        assert not validate_tw_certificate(c4, c4, 2)          # not chordal
        assert not validate_tw_certificate(c4, chordal, 1)     # clique too big
        assert not validate_tw_certificate(complete(3), Graph.from_edges(3), 2)  # not a supergraph

    def test_tww_sequence(self):
        g = families.gen_path(4)
        seq = brute_force_tww_sequence(g, 1)
        assert seq is not None
        assert validate_contraction_sequence(g, seq)
        bad = ContractionSequence(seq.merges, 0)
        assert not validate_contraction_sequence(g, bad)

    def test_tww_rejects_reused_id(self):
        g = families.gen_path(3)
        bad = ContractionSequence(((0, 1, 2), (2, 2, 3)), 2)
        assert not validate_contraction_sequence(g, bad)

    def test_rotation_cycle_valid(self):
        g = named("c6")
        rs = RotationSystem({v: tuple(sorted(g.adj[v])) for v in g.vertices()})
        assert validate_rotation_planarity(g, rs)

    def test_rotation_k5_invalid(self):
        g = complete(5)
        rs = RotationSystem({v: tuple(sorted(g.adj[v])) for v in g.vertices()})
        assert not validate_rotation_planarity(g, rs)

    def test_rotation_k4_both_ways(self):
        g = complete(4)
        planar_rot = RotationSystem(
            {0: (1, 2, 3), 1: (2, 0, 3), 2: (0, 1, 3), 3: (0, 2, 1)}
        )
        assert validate_rotation_planarity(g, planar_rot)

    def test_rotation_requires_matching_neighbors(self):
        g = named("c4")
        rs = RotationSystem({0: (1,), 1: (0, 2), 2: (1, 3), 3: (2, 0)})
        assert not validate_rotation_planarity(g, rs)


class TestBruteForceFinders:
    def test_tw_on_cycles(self):
        for n in range(3, 9):
            compl = brute_force_tw_certificate(gen_cycle(n), 2)
            assert compl is not None
            assert validate_tw_certificate(gen_cycle(n), compl, 2)
        assert brute_force_tw_certificate(gen_cycle(5), 1) is None

    def test_tw_on_cliques(self):
        assert brute_force_tw_certificate(complete(5), 3) is None
        compl = brute_force_tw_certificate(complete(5), 4)
        assert compl is not None

    def test_tw_matches_networkx_bound(self):
        # networkx heuristics give an upper bound; our exact value is <= it.
        for seed in range(25):
            g = random_graph(7, 0.4, seed)
            h = nx.Graph(g.edges())
            h.add_nodes_from(g.vertices())
            ub, _ = nx.algorithms.approximation.treewidth_min_fill_in(h)
            exact = next(
                k for k in range(g.n + 1) if brute_force_tw_certificate(g, k) is not None
            )
            assert exact <= ub

    def test_tww_paths(self):
        seq = brute_force_tww_sequence(families.gen_path(6), 1)
        assert seq is not None
        assert validate_contraction_sequence(families.gen_path(6), seq)

    def test_tww_needs_width(self):
        # The 7-vertex paw-free graph C7 has twin-width 2 but not 1.
        assert brute_force_tww_sequence(gen_cycle(7), 1) is None
        assert brute_force_tww_sequence(gen_cycle(7), 2) is not None

    def test_oversize(self):
        with pytest.raises(OversizeFamilyError):
            brute_force_tw_certificate(Graph.from_edges(11), 2)
        with pytest.raises(OversizeFamilyError):
            brute_force_tww_sequence(Graph.from_edges(9), 2)


class TestEnumeration:
    def test_labeled_counts(self):
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
        assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64

    def test_labeled_cap(self):
        with pytest.raises(OversizeFamilyError):
            list(enumerate_labeled_graphs(8))

    def test_masks_on_all_six_vertex_graphs(self):
        # Set-based references: graph k is built from the edges named by the
        # bits of k; AT-free is the triple test with a set BFS per pair.
        def at_free(g):
            def linked_avoiding(a, b, z):
                ball = g.adj[z] | {z}
                reach, stack = {a}, [a]
                while stack:
                    for w in g.adj[stack.pop()]:
                        if w not in ball and w not in reach:
                            reach.add(w)
                            stack.append(w)
                return b in reach

            return not any(
                linked_avoiding(u, v, w) and linked_avoiding(u, w, v) and linked_avoiding(v, w, u)
                for u, v, w in itertools.combinations(range(g.n), 3)
                if not (v in g.adj[u] or w in g.adj[u] or w in g.adj[v])
            )

        pairs = list(itertools.combinations(range(6), 2))
        count = 0
        for k, masks in enumerate(enumerate_labeled_masks(6)):
            g = Graph.from_edges(6, [e for i, e in enumerate(pairs) if (k >> i) & 1])
            assert g.masks == masks
            assert masks_connected(masks) == is_connected(g)
            assert at_free_masks(masks) == at_free(g)
            count += 1
        assert count == 1 << 15

    def test_bounded_degree_counts_match_networkx(self):
        # Independent count: dedupe the labeled enumeration with networkx
        # isomorphism, per order.
        ours = {}
        for g in enumerate_connected_bounded_degree(6, 3):
            ours[g.n] = ours.get(g.n, 0) + 1
        for n in range(1, 7):
            reps = []
            for g in enumerate_labeled_graphs(n):
                if g.max_degree() > 3 or not is_connected(g):
                    continue
                h = nx.Graph(g.edges())
                h.add_nodes_from(g.vertices())
                if not any(nx.is_isomorphic(h, r) for r in reps):
                    reps.append(h)
            assert ours.get(n, 0) == len(reps), f"n={n}"

    def test_bounded_degree_members_valid(self):
        for g in enumerate_connected_bounded_degree(6, 3):
            assert is_connected(g)
            assert g.max_degree() <= 3
