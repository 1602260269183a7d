import random
from fractions import Fraction

import pytest

from dompack import constructions, families, oracles
from dompack.constructions import (
    ConvexEncoding,
    DiskConfiguration,
    EncodingInvalid,
    NotFoundError,
    _check_encoding,
    check_covering,
    construct_atfree,
    construct_convex,
    construct_generic,
    construct_unitdisk,
    covering_constant,
    covering_points,
    find_dominating_pair,
)
from dompack.engine import EngineError
from dompack.graph import Graph, XYInstance, distances_from
from _geometry_reference import intersection_edges, verify_covering
from _reference import convex_graph
from _rule_reference import is_dominating_pair
from conftest import complete, named, random_graph, random_interval_graph, random_planar


def check_plain(g, w):
    inst = XYInstance(g)
    assert oracles.check_xy_dominating(inst, w.d_set)
    assert oracles.check_xy_packing(inst, w.p_set)


def bfs_greedy(g, order, p=()):
    """Reference greedy packing: take v when a whole-graph BFS from v finds
    no member within distance 2."""
    p = set(p)
    for v in order:
        dist = distances_from(g, v)
        if all(dist.get(u, 3) >= 3 for u in p):
            p.add(v)
    return p


def bfs_convex_packing(g, enc):
    """construct_convex's packing with every test a whole-graph BFS: the
    id-order greedy, then swaps of a packed interval for a strictly shorter
    one followed by a re-extension, to a fixed point."""
    intervals = {}
    for y, ns in enc.y_neighbors.items():
        ps = sorted(enc.x_order.index(x) for x in ns)
        intervals[y] = (ps[0], ps[-1])

    def near(u, members):
        dist = distances_from(g, u)
        return any(dist.get(v, 3) < 3 for v in members)

    p = bfs_greedy(g, g.vertices())
    seen = set()
    while frozenset(p) not in seen:
        seen.add(frozenset(p))
        swap = next(
            (
                (y, y2)
                for y in sorted(v for v in p if v in intervals)
                for y2 in sorted(intervals)
                if y2 not in p
                and intervals[y2][1] - intervals[y2][0] < intervals[y][1] - intervals[y][0]
                and not near(y2, p - {y})
            ),
            None,
        )
        if swap is None:
            break
        y, y2 = swap
        p = bfs_greedy(g, g.vertices(), (p - {y}) | {y2})
    return p


class TestDominatingPair:
    def test_p5_endpoints_qualify(self):
        g = families.gen_path(5)
        assert is_dominating_pair(g, 0, 4)
        u, v = find_dominating_pair(g)
        assert is_dominating_pair(g, u, v)

    def test_c4_antipodal(self):
        g = named("c4")
        assert is_dominating_pair(g, 0, 2)
        u, v = find_dominating_pair(g)
        assert is_dominating_pair(g, u, v)

    def test_c6_has_pair(self):
        u, v = find_dominating_pair(named("c6"))
        assert is_dominating_pair(named("c6"), u, v)

    def test_disconnected_rejected(self):
        with pytest.raises(NotFoundError):
            find_dominating_pair(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_pair_property_holds(self):
        from dompack.graph import is_connected

        for seed in range(15):
            g = random_interval_graph(8, seed)
            if not is_connected(g):
                continue
            u, v = find_dominating_pair(g)
            assert is_dominating_pair(g, u, v)


class TestAtFree:
    def test_p7(self):
        w = construct_atfree(families.gen_path(7))
        check_plain(families.gen_path(7), w)
        assert len(w.p_set) == 2
        assert len(w.d_set) <= 3 * len(w.p_set) + 2

    def test_complete(self):
        w = construct_atfree(complete(5))
        assert len(w.d_set) == 2 and len(w.p_set) == 1

    def test_c5(self):
        w = construct_atfree(named("c5"))
        check_plain(named("c5"), w)
        assert len(w.d_set) == 3 and len(w.p_set) == 1

    def test_interval_corpus(self):
        from dompack.graph import is_connected

        for seed in range(60):
            g = random_interval_graph(4 + seed % 10, seed)
            if not is_connected(g):
                continue
            assert families.at_free_masks(g.masks)
            w = construct_atfree(g)
            check_plain(g, w)
            assert len(w.d_set) <= 3 * len(w.p_set) + 2


def _reference_intervals(g, enc):
    """``_check_encoding`` from its definition: the intervals, or the
    message of the first check that fails."""
    xs, ys = list(enc.x_order), enc.y_neighbors
    not_convex = "encoding does not match the graph or is not convex"
    if len(set(xs)) != len(xs) or set(xs) & set(ys) or set(xs) | set(ys) != set(g.vertices()):
        return not_convex
    edges, out = set(), {}
    for y, ns in ys.items():
        if len(set(ns)) != len(ns) or not set(ns) <= set(xs):
            return not_convex
        edges |= {(min(x, y), max(x, y)) for x in ns}
        ps = sorted(xs.index(x) for x in ns)
        if ps and ps != list(range(ps[0], ps[-1] + 1)):
            return not_convex
        if ps:
            out[y] = (ps[0], ps[-1])
    if edges != set(g.edges()):
        return not_convex
    if any(not g.adj[v] for v in g.vertices()):
        return "convex construction requires no isolated vertices"
    return out


def _mutate_encoding(enc, g, rng):
    """The encoding and its graph with up to two defects, each in one place."""
    xs, ys = list(enc.x_order), {y: list(ns) for y, ns in enc.y_neighbors.items()}
    n, edges = g.n, set(g.edges())
    for _ in range(rng.randrange(3)):
        listed = [y for y in sorted(ys) if ys[y]]
        if not listed:
            break
        y = rng.choice(listed)
        kind = rng.randrange(9)
        if kind == 0:
            ys[y].append(rng.choice(ys[y]))  # a duplicate entry
        elif kind == 1:
            ys[y][0] = n + 3  # an unknown id
        elif kind == 2:
            rng.shuffle(xs)  # possibly no longer convex
        elif kind == 3 and len(set(xs)) > 1:
            edges.add(tuple(sorted(rng.sample(sorted(set(xs)), 2))))  # an edge inside the left side
        elif kind == 4:
            ys[y].pop(rng.randrange(len(ys[y])))  # a graph edge the encoding lacks
        elif kind == 5:
            ys[n] = []  # an isolated right vertex
            n += 1
        elif kind == 6:
            xs.append(xs[0])  # a left vertex listed twice
        elif kind == 7:
            ys[xs[0]] = [xs[-1]]  # an id on both sides
        elif len(ys) > 1:
            other = rng.choice([v for v in sorted(ys) if v != y])
            ys[y].append(other)  # an edge between two right vertices
            edges.add((min(y, other), max(y, other)))
    return ConvexEncoding(tuple(xs), ys), Graph.from_edges(n, edges)


class TestConvex:
    def test_k23(self):
        enc = ConvexEncoding((0, 1), {2: (0, 1), 3: (0, 1), 4: (0, 1)})
        g = convex_graph(enc)
        w = construct_convex(g, enc)
        check_plain(g, w)
        assert len(w.d_set) <= 3 * len(w.p_set)
        inst = XYInstance(g)
        assert oracles.exact_domination(inst).value <= 3 * oracles.exact_packing(inst).value

    def test_single_edge(self):
        enc = ConvexEncoding((0,), {1: (0,)})
        w = construct_convex(convex_graph(enc), enc)
        assert len(w.d_set) <= 2

    def test_improvement_loop_fires(self):
        # Vertex 0 carries the long interval spanning everything and has the
        # smallest id, so the id-order greedy seeds it and blocks every other
        # candidate; only the shorter-interval swap can open the packing up.
        enc = ConvexEncoding(
            (5, 6, 7, 8, 9, 10),
            {
                0: (5, 6, 7, 8, 9, 10),  # the long interval
                1: (6, 7),               # strictly inside it
                2: (8, 9),
                3: (5,),
                4: (10,),
            },
        )
        g = convex_graph(enc)
        w = construct_convex(g, enc)
        check_plain(g, w)
        assert 0 not in w.p_set
        assert len(w.p_set) >= 3
        assert len(w.d_set) <= 3 * len(w.p_set)

    def test_rejects_isolated(self):
        enc = ConvexEncoding((0, 1), {2: (0,)})
        with pytest.raises(EncodingInvalid):
            construct_convex(convex_graph(enc), enc)

    def test_rejects_mismatched_encoding(self):
        enc = ConvexEncoding((0, 1), {2: (0, 1)})
        other = Graph.from_edges(3, [(0, 2)])
        with pytest.raises(EncodingInvalid):
            construct_convex(other, enc)

    def test_rejects_duplicate_that_hides_a_gap(self):
        # Vertex 3 sees positions 0 and 2, not 1: listing 0 twice made the
        # count fill the span, and the check once took it for an interval.
        enc = ConvexEncoding((0, 1, 2), {3: (0, 0, 2), 4: (1,)})
        g = Graph.from_edges(5, [(0, 3), (2, 3), (1, 4)])
        with pytest.raises(EncodingInvalid, match="not convex"):
            construct_convex(g, enc)
        # With an edge inside the left side as well, the edges still add up.
        g = Graph.from_edges(5, [(0, 3), (2, 3), (1, 4), (0, 1)])
        with pytest.raises(EncodingInvalid, match="not convex"):
            construct_convex(g, enc)

    def test_check_matches_the_definition(self):
        verdicts = set()
        for seed in range(400):
            rng = random.Random(seed)
            enc = families.gen_random_convex(2 + seed % 7, 1 + seed % 5, seed)
            g = convex_graph(enc)
            enc, g = _mutate_encoding(enc, g, rng)
            want = _reference_intervals(g, enc)
            try:
                got = _check_encoding(g, enc)
            except EncodingInvalid as exc:
                got = str(exc)
            assert got == want, (seed, enc, g.edges())
            verdicts.add(want if isinstance(want, str) else "ok")
        assert verdicts == {
            "ok",
            "encoding does not match the graph or is not convex",
            "convex construction requires no isolated vertices",
        }

    def test_random_corpus(self):
        for seed in range(60):
            enc = families.gen_random_convex(3 + seed % 6, 2 + seed % 5, seed)
            g = convex_graph(enc)
            w = construct_convex(g, enc)
            check_plain(g, w)
            assert len(w.d_set) <= 3 * len(w.p_set)

    def test_packing_matches_bfs_greedy(self):
        for seed in range(40):
            enc = families.gen_random_convex(4 + seed % 17, 3 + seed % 13, seed)
            g = convex_graph(enc)
            assert construct_convex(g, enc).p_set == bfs_convex_packing(g, enc)
        enc = ConvexEncoding(
            (5, 6, 7, 8, 9, 10),
            {0: (5, 6, 7, 8, 9, 10), 1: (6, 7), 2: (8, 9), 3: (5,), 4: (10,)},
        )
        g = convex_graph(enc)
        assert construct_convex(g, enc).p_set == bfs_convex_packing(g, enc)

    def test_intervals_use_the_order(self):
        enc = families.gen_random_convex(12, 9, 4)
        intervals = _check_encoding(convex_graph(enc), enc)
        assert intervals.keys() == enc.y_neighbors.keys()
        for y, ns in enc.y_neighbors.items():
            ps = sorted(enc.x_order.index(x) for x in ns)
            assert intervals[y] == (ps[0], ps[-1])

    def test_encoding_json_roundtrip(self):
        enc = families.gen_random_convex(5, 4, 9)
        back = ConvexEncoding.from_json(enc.to_json())
        assert back.x_order == enc.x_order
        assert {y: tuple(sorted(ns)) for y, ns in back.y_neighbors.items()} == {
            y: tuple(sorted(ns)) for y, ns in enc.y_neighbors.items()
        }


# The radii of the covering tests: whole radii 0 to 12 and fractional ones.
RADII = list(range(13)) + [0.1, 0.5, 1.25, 2.5, 5.0]


def float_filter_points(radius):
    """The lattice points kept by a float distance test with 1e-12 slack,
    over a window of about (radius + 1) / sqrt(3) (wide enough up to
    radius 20, not beyond)."""
    sqrt3 = 1.7320508075688772
    pts = []
    reach = radius + 1.0
    span = int(reach / sqrt3) + 2
    for a in range(-span, span + 1):
        for b in range(-2 * span, 2 * span + 1):
            x = sqrt3 * a + (sqrt3 / 2.0) * b
            y = 1.5 * b
            if x * x + y * y <= reach * reach + 1e-12:
                pts.append((x, y))
    pts.sort()
    return pts


class TestCovering:
    def test_radius_zero(self):
        assert len(covering_points(0)) == 1

    def test_radius_one(self):
        pts = covering_points(1)
        assert len(pts) <= 7
        assert verify_covering(pts, 1)

    def test_radius_five_verified(self):
        pts = covering_points(5)
        assert verify_covering(pts, 5)
        assert len(pts) >= 32
        assert covering_constant() == len(pts)

    def test_broken_covering_detected(self):
        pts = [p for p in covering_points(2) if p != (0.0, 0.0)]
        assert not verify_covering(pts, 2)
        assert not check_covering(pts, 2)

    def test_points_match_the_float_filter(self):
        for r in RADII + [20]:
            assert covering_points(r) == float_filter_points(r), r

    def test_exact_check_agrees_with_the_sampler(self):
        # A coarser grid than the acceptance test's 0.01, which runs at R = 5.
        for r in RADII:
            pts = covering_points(r)
            assert check_covering(pts, r), r
            assert verify_covering(pts, r, step=0.05), r

    def test_exact_check_rejects_mutations(self):
        def moved(pts, i, dx, dy):
            return pts[:i] + [(pts[i][0] + dx, pts[i][1] + dy)] + pts[i + 1 :]

        cases = []
        for r in (1, 2, 5, 2.5):
            pts = covering_points(r)
            cases += [(pts[:i] + pts[i + 1 :], r) for i in range(len(pts))]
            cases += [(moved(pts, i, d, 0), r) for i in range(len(pts)) for d in (1e-6, -1e-6)]
            cases += [(moved(pts, i, 0, d), r) for i in range(len(pts)) for d in (1e-6, -1e-6)]
            cases += [
                ([(1.01 * x, 1.01 * y) for x, y in pts], r),
                (pts + [(0.5, 0.5)], r),
                (pts + [pts[0]], r),  # a repeat would inflate c_cov
                (covering_points(r + 2), r),
            ]
        cases.append((covering_points(4), 5))
        for pts, r in cases:
            assert not check_covering(pts, r)
        # The only passing cases are the canonical sets, which the sampler
        # accepts too.
        for r in (1, 2, 5, 2.5):
            pts = covering_points(r)
            assert check_covering(pts, r) and verify_covering(pts, r)

    def test_failed_check_raises(self, monkeypatch):
        monkeypatch.setattr(constructions, "_VERIFIED_COVERINGS", {})
        monkeypatch.setattr(constructions, "covering_points", lambda r: [(0.0, 0.0)])
        with pytest.raises(EngineError):
            covering_constant()


def border_heavy_centres(n, seed):
    """Centres in [-12, 12]^2 that stress side-2 cells: negative
    coordinates, centres on cell borders (even integers), centres exactly 2
    (and just over 2) from an earlier one, across a border or not, and
    mixed denominators."""
    rng = random.Random(seed)
    offsets = [(2, 0), (0, 2), (-2, 0), (0, -2), (Fraction(6, 5), Fraction(8, 5)),
               (Fraction(-8, 5), Fraction(6, 5)), (Fraction(2000001, 1000000), 0)]
    pts = []
    while len(pts) < n:
        kind = rng.randrange(4)
        if kind == 0:
            p = (Fraction(2 * rng.randint(-6, 6)), Fraction(rng.randint(-24, 24), 2))
        elif kind == 1 and pts:
            (x, y), (dx, dy) = rng.choice(pts), rng.choice(offsets)
            p = (x + dx, y + dy)
        elif kind == 2:
            p = (Fraction(2 * rng.randint(-6, 5) + 1), Fraction(rng.randint(-12, 12)))
            pts.append(p)
            p = (p[0] + 2, p[1])  # the pair straddles the border between them
        else:
            den = rng.choice([1, 3, 7, 10, 1000])
            p = (Fraction(rng.randint(-12 * den, 12 * den), den),
                 Fraction(rng.randint(-12 * den, 12 * den), den))
        pts.append(p)
    return pts[:n]


class TestUnitDisk:
    def test_single_disk(self):
        cfg = DiskConfiguration(((Fraction(0), Fraction(0)),))
        w = construct_unitdisk(cfg)
        assert w.d_set == {0} and w.p_set == {0}

    def test_three_mutual(self):
        cfg = DiskConfiguration.from_csv("0,0\n1,0\n0.5,1\n")
        w = construct_unitdisk(cfg)
        assert len(w.p_set) == 1
        assert len(w.d_set) <= covering_constant()
        check_plain(cfg.intersection_graph(), w)

    def test_random_boxes(self):
        for seed in range(25):
            cfg = families.gen_random_unitdisk(18, 12.0, seed)
            w = construct_unitdisk(cfg)
            g = cfg.intersection_graph()
            check_plain(g, w)
            assert len(w.d_set) <= covering_constant() * len(w.p_set)

    def test_packing_matches_bfs_greedy(self):
        for seed in range(25):
            cfg = families.gen_random_unitdisk(10 + seed, 4.0 + seed % 9, seed)
            g = cfg.intersection_graph()
            assert construct_unitdisk(cfg).p_set == bfs_greedy(g, g.vertices())

    def test_intersection_graph_exact(self):
        # Pairs at distance exactly 2 meet; denominators differ per centre.
        text = "0,0\n2,0\n6/5,8/5\n1/3,-5/3\n-1/7,2\n2,2\n0,1999999/1000000\n"
        cfg = DiskConfiguration.from_csv(text)
        for c in [cfg] + [families.gen_random_unitdisk(30, 7.0, s) for s in range(10)]:
            pts = c.centers
            expected = [
                (i, j)
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
                if (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2 <= 4
            ]
            assert sorted(c.intersection_graph().edges()) == expected
        edges = set(cfg.intersection_graph().edges())
        assert {(0, 1), (0, 2), (1, 2), (1, 5), (0, 6)} <= edges
        assert (5, 6) not in edges

    def test_cell_grid_matches_all_pairs(self):
        for n, seed in ((0, 0), (1, 1), (13, 2), (60, 3), (200, 4), (600, 5)):
            cfg = DiskConfiguration(tuple(border_heavy_centres(n, seed)))
            g = cfg.intersection_graph()
            ref = Graph.from_edges(n, intersection_edges(cfg.centers))
            assert g == ref, (n, seed)
            # Same edge order, so the same neighbour-set iteration order.
            assert [list(s) for s in g.adj] == [list(s) for s in ref.adj]

    def test_csv_roundtrip(self):
        cfg = families.gen_random_unitdisk(6, 5.0, 2)
        assert DiskConfiguration.from_csv(cfg.to_csv()) == cfg

    def test_csv_rejects_garbage(self):
        from dompack.graph import GraphError

        with pytest.raises(GraphError):
            DiskConfiguration.from_csv("1,2\nnope\n")


class TestGeneric:
    def test_c6_ratio(self):
        w = construct_generic(named("c6"))
        assert len(w.p_set) == 2 and len(w.d_set) == 6
        assert w.achieved_ratio == 3
        assert w.certified_constant == 3

    def test_clique_tight(self):
        w = construct_generic(complete(5))
        assert len(w.d_set) == 5 and len(w.p_set) == 1

    def test_petersen(self, petersen):
        w = construct_generic(petersen)
        assert len(w.d_set) == 4
        inst = XYInstance(petersen)
        assert oracles.exact_domination(inst).value <= len(w.d_set)

    def test_packing_matches_bfs_greedy(self):
        graphs = [random_planar(30 + 7 * s, s) for s in range(12)]
        graphs += [random_graph(25 + s, 0.06 + 0.02 * (s % 5), s) for s in range(12)]
        graphs.append(Graph.from_edges(9, [(0, 1), (1, 2), (4, 5)]))
        for g in graphs:
            order = sorted(g.vertices(), key=lambda v: (g.degree(v), v))
            assert construct_generic(g).p_set == bfs_greedy(g, order)

    def test_empty(self):
        w = construct_generic(Graph.from_edges(0))
        assert w.d_set == frozenset() and w.achieved_ratio is None
