import itertools
import math
import random
from collections import Counter

import networkx as nx
import pytest

from dompack import families, oracles
from dompack.engine import completion_width
from dompack.engine_twinwidth import ContractionSequence, validate_contraction_sequence
from dompack.families import (
    at_free_masks,
    gen_chained_blocks,
    gen_cycle,
    gen_petersen,
    gen_random_tree,
    gen_rook,
    gen_split,
    gen_threedeg,
    labeled_masks,
    labeled_orbit_ids,
)
from dompack.graph import (
    Graph,
    GraphError,
    OversizeError,
    XYInstance,
    chordal_width,
    masks_connected,
    masks_to_graph6,
    three_core,
    to_graph6,
)
from _reference import (
    at_free_per_triple,
    brute_force_tw_certificate,
    brute_force_tww_sequence,
    code_tables_by_sum,
    edges,
    enumerate_connected_bounded_degree,
    enumerate_labeled_graphs,
    enumerate_labeled_masks,
    labeled_graph6_encoder,
    labeled_orbit_ids_by_closure,
    recognize_distance_hereditary,
    recognize_split,
    transposition_images,
)
from conftest import (
    complete,
    named,
    random_cograph,
    random_graph,
    random_partial_ktree,
    random_twodeg,
)


def gamma_rho(g):
    inst = XYInstance(g)
    return oracles.exact_domination(inst).value, oracles.exact_packing(inst).value


class TestChainedBlocks:
    @pytest.mark.parametrize("i,n", [(1, 8), (2, 14), (3, 20)])
    def test_structure(self, i, n):
        g = gen_chained_blocks(i)
        assert g.n == n
        assert g.max_degree() == 3
        assert masks_connected(g.masks)

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
        assert chordal_width(gen_split(2)) is not None

    def test_guardrail(self):
        with pytest.raises(OversizeError):
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
        assert _degeneracy(gen_threedeg(2)) == 3

    def test_guardrail(self):
        with pytest.raises(OversizeError):
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
        h = nx.Graph(edges(g))
        assert nx.girth(h) == 5
        gamma, rho = gamma_rho(g)
        assert gamma == 3 and rho == 1 and gamma == 2 * rho + 1

    def test_random_tree_deterministic(self):
        a = gen_random_tree(9, 42)
        b = gen_random_tree(9, 42)
        assert to_graph6(a) == to_graph6(b)
        assert a.edge_count == 8 and masks_connected(a.masks)

    def test_random_tree_matches_scan_decode(self):
        # The heap decode gives the trees of the decode that scans for the
        # smallest leaf at every step.
        def scan_decode(n, seed):
            rng = random.Random(seed)
            seq = [rng.randrange(n) for _ in range(n - 2)]
            deg = [1] * n
            for v in seq:
                deg[v] += 1
            edges = []
            for v in seq:
                leaf = min(u for u in range(n) if deg[u] == 1)
                edges.append((leaf, v))
                deg[leaf] -= 1
                deg[v] -= 1
            last = [u for u in range(n) if deg[u] == 1]
            edges.append((last[0], last[1]))
            return Graph.from_edges(n, edges)

        cases = [(n, seed) for n in range(3, 120) for seed in range(3)]
        for n, seed in cases + [(500, 0), (1000, 1)]:
            assert gen_random_tree(n, seed) == scan_decode(n, seed), (n, seed)

    def test_random_generators_seeded(self):
        assert families.gen_random_unitdisk(5, 4.0, 1) == families.gen_random_unitdisk(5, 4.0, 1)
        e1 = families.gen_random_convex(4, 3, 5)
        e2 = families.gen_random_convex(4, 3, 5)
        assert e1.to_json() == e2.to_json()


class TestRecognizers:
    def test_at_free(self):
        # Cycles of length >= 6 carry the classic asteroidal triple of
        # alternating vertices; shorter cycles have no independent triple.
        assert at_free_masks(named("c5").masks)
        assert at_free_masks(families.gen_path(8).masks)
        assert not at_free_masks(named("c6").masks)
        assert not at_free_masks(gen_cycle(7).masks)

    def test_at_free_matches_the_per_triple_search(self):
        # The component table against one BFS per pair of each independent
        # triple: every labelled graph with n <= 6, C5-C7, and seeded graphs
        # with n <= 12 from sparse to dense.
        graphs = [m for n in range(7) for m in enumerate_labeled_masks(n)]
        graphs += [gen_cycle(n).masks for n in (5, 6, 7)]
        rng = random.Random(16)
        for _ in range(400):
            n = rng.randint(7, 12)
            p = rng.choice((0.1, 0.2, 0.25, 0.35, 0.5, 0.7))
            graphs.append(random_graph(n, p, rng.randrange(1 << 30)).masks)
        flags = [at_free_masks(masks) for masks in graphs]
        assert flags == [at_free_per_triple(masks) for masks in graphs]
        assert True in flags[-400:] and False in flags[-400:]

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
        assert chordal_width(named("c4")) is None
        assert chordal_width(complete(4)) == 3

    def test_chordal_matches_simplicial_removal(self):
        cases = [0, 0]
        for g in _chordal_corpus():
            ref = _reference_peo(g)
            assert chordal_width(g) == _reference_width(g, ref)
            cases[ref is None] += 1
        assert min(cases) > 40

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
            if not masks_connected(g.masks):
                continue
            got = recognize_distance_hereditary(g)
            h = nx.Graph(edges(g))
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


def _degeneracy(g):
    """The degeneracy of g, from networkx's core numbers."""
    h = nx.Graph(edges(g))
    h.add_nodes_from(g.vertices())
    return max(nx.core_number(h).values(), default=0)


def _reference_peo(g):
    """Repeated removal of the smallest simplicial vertex: the quadratic
    algorithm that maximum cardinality search replaced, kept as the oracle."""
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    peo = []
    while adj:
        pick = None
        for v in sorted(adj):
            nb = sorted(adj[v])
            if all(b in adj[a] for i, a in enumerate(nb) for b in nb[i + 1 :]):
                pick = v
                break
        if pick is None:
            return None
        peo.append(pick)
        for w in adj[pick]:
            adj[w].discard(pick)
        del adj[pick]
    return peo


def _reference_width(g, peo):
    if peo is None:
        return None
    seen = set()
    omega = 0
    for v in peo:
        omega = max(omega, 1 + len(g.adj[v] - seen))
        seen.add(v)
    return omega - 1


def _filled(g, seed):
    """g made chordal by the fill edges of a random elimination order."""
    order = list(g.vertices())
    random.Random(seed).shuffle(order)
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    fill = set(edges(g))
    for v in order:
        for a, b in itertools.combinations(sorted(adj[v]), 2):
            adj[a].add(b)
            adj[b].add(a)
            fill.add((a, b))
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
    return Graph.from_edges(g.n, fill)


def _disjoint_union(a, b):
    return Graph.from_edges(a.n + b.n, edges(a) + [(u + a.n, v + a.n) for u, v in edges(b)])


def _chordal_corpus():
    yield Graph.from_edges(0)
    yield Graph.from_edges(1)
    yield Graph.from_edges(5)
    for n in range(4, 8):
        yield gen_cycle(n)
    for seed in range(80):
        g = random_graph(2 + seed % 13, 0.1 + 0.05 * (seed % 9), seed)
        yield g
        yield _filled(g, seed)
    for seed in range(30):
        _, tree = random_partial_ktree(3 + seed % 20, 1 + seed % 4, seed)
        yield tree
        yield _disjoint_union(tree, _filled(random_graph(6, 0.4, seed), seed))
        yield _disjoint_union(tree, gen_cycle(4 + seed % 3))


def _reference_validate_sequence(g, seq, w):
    """The contraction-sequence check that recounted every red edge after
    each merge, kept as the oracle for the per-vertex red degrees."""
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    red = {frozenset((u, v)) for u in g.vertices() for v in g.red[u]}

    def red_deg_ok():
        count = {v: 0 for v in adj}
        for e in red:
            for v in e:
                count[v] += 1
        return all(c <= w for c in count.values())

    if not red_deg_ok():
        return False
    used = set(adj)
    for a, b, c in seq.merges:
        if a not in adj or b not in adj or a == b or c in used:
            return False
        used.add(c)
        nbrs = {}
        for x in (adj[a] | adj[b]) - {a, b}:
            black_a = x in adj[a] and frozenset((x, a)) not in red
            black_b = x in adj[b] and frozenset((x, b)) not in red
            nbrs[x] = "black" if (black_a and black_b) else "red"
        for v in (a, b):
            for x in adj[v]:
                adj[x].discard(v)
                red.discard(frozenset((v, x)))
            del adj[v]
        adj[c] = set(nbrs)
        for x, color in nbrs.items():
            adj[x].add(c)
            if color == "red":
                red.add(frozenset((c, x)))
        if not red_deg_ok():
            return False
    return len(adj) <= 1


class TestValidators:
    def test_tww_sequence_matches_recount(self):
        verdicts = set()
        for seed in range(150):
            rng = random.Random(seed)
            n = 2 + seed % 9
            pairs = list(itertools.combinations(range(n), 2))
            kept = [e for e in pairs if rng.random() < 0.5]
            red = [e for e in kept if rng.random() < 0.2]
            g = Graph.from_edges(n, [e for e in kept if e not in red], red_edges=red)
            alive = list(range(n))
            merges = []
            for fresh in range(n, 2 * n - 1 - seed % 2):
                a, b = rng.sample(alive, 2)
                if rng.random() < 0.03:
                    b = a if rng.random() < 0.5 else fresh + 5  # malformed merge
                merges.append((a, b, fresh))
                alive = [v for v in alive if v not in (a, b)] + [fresh]
            seq = ContractionSequence(tuple(merges), 0)
            for w in range(5):
                want = _reference_validate_sequence(g, seq, w)
                assert validate_contraction_sequence(g, seq, width=w) == want
                verdicts.add(want)
        assert verdicts == {True, False}

        # Cographs with flipped edges, each with its valid sequence and with
        # one merge mutated: two merges swapped, a fresh id reused, or a
        # merge moved earlier.  The declared width is the smallest valid one.
        mutated = []
        for n in range(40, 97, 8):
            rng = random.Random(n)
            g, seq = random_cograph(n, n, flip=0.2)
            d = seq.declared_width
            merges = list(seq.merges)
            i = rng.randrange(1, len(merges))
            swapped = merges[:]
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            reused = merges[:]
            reused[i] = merges[i][:2] + (merges[i - 1][2],)
            earlier = merges[:]
            earlier.insert(rng.randrange(i), earlier.pop(i))
            for ms in (merges, swapped, reused, earlier):
                cand = ContractionSequence(tuple(ms), d)
                got = []
                for w in (d - 1, d, d + 1):
                    want = _reference_validate_sequence(g, cand, w)
                    assert validate_contraction_sequence(g, cand, width=w) == want
                    got.append(want)
                if ms is merges:
                    assert got == [False, True, True]
                else:
                    mutated.append(got[1])
        assert True in mutated and False in mutated

    def test_tw_certificate(self):
        c4 = named("c4")
        chordal = Graph.from_edges(4, edges(c4) + [(0, 2)])
        assert completion_width(c4, chordal) == 2
        assert completion_width(c4, c4) is None                # not chordal
        assert completion_width(complete(3), Graph.from_edges(3)) is None  # not a supergraph

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


class TestBruteForceFinders:
    def test_tw_on_cycles(self):
        for n in range(3, 9):
            compl = brute_force_tw_certificate(gen_cycle(n), 2)
            assert compl is not None
            assert completion_width(gen_cycle(n), compl) <= 2
        assert brute_force_tw_certificate(gen_cycle(5), 1) is None

    def test_tw_on_cliques(self):
        assert brute_force_tw_certificate(complete(5), 3) is None
        compl = brute_force_tw_certificate(complete(5), 4)
        assert compl is not None

    def test_tw_matches_networkx_bound(self):
        # networkx heuristics give an upper bound; our exact value is <= it.
        for seed in range(25):
            g = random_graph(7, 0.4, seed)
            h = nx.Graph(edges(g))
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

    def test_tww_reads_red_input_edges(self):
        # A star of red edges starts at red degree 3.
        g = Graph.from_edges(4, red_edges=[(0, 1), (0, 2), (0, 3)])
        assert brute_force_tww_sequence(g, 2) is None
        assert validate_contraction_sequence(g, brute_force_tww_sequence(g, 3))

    def test_oversize(self):
        with pytest.raises(OversizeError):
            brute_force_tw_certificate(Graph.from_edges(11), 2)
        with pytest.raises(OversizeError):
            brute_force_tww_sequence(Graph.from_edges(9), 2)


class TestEnumeration:
    def test_labeled_counts(self):
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
        assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64

    def test_labeled_cap(self):
        with pytest.raises(OversizeError):
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
            h = nx.Graph(edges(g))
            h.add_nodes_from(g.vertices())
            assert masks_connected(masks) == nx.is_connected(h)
            assert at_free_masks(masks) == at_free(g)
            count += 1
        assert count == 1 << 15

    # Graphs on n unlabelled vertices, n = 0..6 (OEIS A000088).
    @pytest.mark.parametrize("n, classes", enumerate([1, 1, 2, 4, 11, 34, 156]))
    def test_orbit_class_counts(self, n, classes):
        ids = labeled_orbit_ids(n)
        assert len(ids) == 1 << (n * (n - 1) // 2)
        assert max(ids) + 1 == classes

    @pytest.mark.slow
    def test_orbit_class_count_seven(self):
        assert max(labeled_orbit_ids(7)) + 1 == 1044

    @pytest.mark.parametrize("n", range(7))
    def test_orbit_ids_match_the_closure_walk(self, n):
        assert labeled_orbit_ids(n) == labeled_orbit_ids_by_closure(n)

    @pytest.mark.slow
    def test_orbit_ids_match_the_closure_walk_seven(self):
        assert labeled_orbit_ids(7) == labeled_orbit_ids_by_closure(7)

    @pytest.mark.parametrize("n", range(7))
    def test_orbit_sizes_divide_the_group_order(self, n):
        # Orbit-stabilizer: each class has n! / |Aut| codes, and the classes
        # partition all 2^(n(n-1)/2) codes.
        sizes = Counter(labeled_orbit_ids(n)).values()
        assert all(math.factorial(n) % size == 0 for size in sizes)
        assert sum(sizes) == 1 << (n * (n - 1) // 2)

    @pytest.mark.parametrize("n", range(8))
    def test_byte_tables_match_the_sums(self, n):
        for image in transposition_images(n).values():
            assert families._code_tables(image) == code_tables_by_sum(image)

    @pytest.mark.parametrize("n", range(8))
    def test_code_tables_map_each_code_to_its_image(self, n):
        # The image of a code is the sum of the images of its set bits:
        # every code up to n = 6, and a sample of the 2^21 at n = 7.
        m = n * (n - 1) // 2
        codes = range(1 << m) if n <= 6 else random.Random(7).sample(range(1 << m), 3000)
        for image in transposition_images(n).values():
            lo, hi = families._code_tables(image)
            for k in codes:
                assert lo[k & 255] | hi[k >> 8] == sum(1 << image[i] for i in range(m) if k >> i & 1)

    @pytest.mark.parametrize("n", range(7))
    def test_labeled_masks_follow_the_codes(self, n):
        assert [labeled_masks(n, k) for k in range(1 << (n * (n - 1) // 2))] == list(
            enumerate_labeled_masks(n)
        )

    def test_orbit_cap(self):
        with pytest.raises(OversizeError):
            labeled_orbit_ids(8)

    @pytest.mark.parametrize("n", range(7))
    def test_graph6_encoder_matches_the_mask_encoder(self, n):
        encode = labeled_graph6_encoder(n)
        want = [masks_to_graph6(masks) for masks in enumerate_labeled_masks(n)]
        got = [encode(k) for k in range(len(want))]
        assert got == want
        # graph6 bytes run over 63..126, so some graphs from n = 4 up carry
        # a backslash, which a JSON line must escape.
        assert any("\\" in s for s in got) == (n >= 4)

    @pytest.mark.slow
    def test_graph6_encoder_matches_the_mask_encoder_seven(self):
        encode = labeled_graph6_encoder(7)
        backslashes = 0
        for k, masks in enumerate(enumerate_labeled_masks(7)):
            s = encode(k)
            assert s == masks_to_graph6(masks), k
            backslashes += "\\" in s
        assert backslashes

    def test_graph6_encoder_cap(self):
        with pytest.raises(OversizeError):
            labeled_graph6_encoder(8)
        with pytest.raises(GraphError):
            labeled_graph6_encoder(-1)

    @pytest.mark.parametrize("n", range(6))
    def test_orbit_ids_match_brute_force_isomorphism(self, n):
        # Two codes share an id iff some vertex permutation maps one onto the
        # other: each code against the smallest code of its image under all n!
        # permutations.
        pairs = list(itertools.combinations(range(n), 2))
        index = {pair: i for i, pair in enumerate(pairs)}
        perms = list(itertools.permutations(range(n)))
        smallest = []
        for k in range(1 << len(pairs)):
            edges = [pair for i, pair in enumerate(pairs) if k >> i & 1]
            smallest.append(min(
                sum(1 << index[tuple(sorted((p[u], p[v])))] for u, v in edges) for p in perms
            ))
        ids = labeled_orbit_ids(n)
        assert len(set(zip(ids, smallest))) == len(set(ids)) == len(set(smallest))
        # Numbered by first appearance: in the order of their smallest codes.
        assert [ids[k] for k in sorted(set(smallest))] == list(range(len(set(smallest))))

    def test_bounded_degree_counts_match_networkx(self):
        # Independent count: dedupe the labeled enumeration with networkx
        # isomorphism, per order.
        ours = {}
        for g in enumerate_connected_bounded_degree(6, 3):
            ours[g.n] = ours.get(g.n, 0) + 1
        for n in range(1, 7):
            reps = []
            for g in enumerate_labeled_graphs(n):
                if g.max_degree() > 3 or not masks_connected(g.masks):
                    continue
                h = nx.Graph(edges(g))
                h.add_nodes_from(g.vertices())
                if not any(nx.is_isomorphic(h, r) for r in reps):
                    reps.append(h)
            assert ours.get(n, 0) == len(reps), f"n={n}"

    def test_bounded_degree_members_valid(self):
        for g in enumerate_connected_bounded_degree(6, 3):
            assert masks_connected(g.masks)
            assert g.max_degree() <= 3


@pytest.mark.slow
def test_chordal_and_degeneracy_reach_1e5_vertices():
    _, three_tree = random_partial_ktree(100_000, 3, 1)
    assert chordal_width(three_tree) == 3
    twodeg = random_twodeg(100_000, 1)
    assert _degeneracy(twodeg) == 2 and three_core(twodeg) == 0
