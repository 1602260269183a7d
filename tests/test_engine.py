"""Rule-level unit tests plus the planar and treewidth drivers."""

import hashlib
import itertools
import random

import pytest

from dompack import families, oracles
from dompack.engine import (
    CertificateInvalid,
    RuleApplication,
    Stalled,
    _State,
    _tw_class_step,
    rule_isolated,
    rule_low_degree,
    rule_x_elim,
    rule_y_edge,
    rule_y_pendant,
    run_planar,
    run_treewidth,
)
from dompack.graph import Graph, XYInstance, distances_from
from _reference import brute_force_tw_certificate, edges, replay, trace_json_obj
from conftest import complete, named, random_partial_ktree, random_planar


def status(g, x=(), y=()):
    return _State.from_graph(g, x, y)


class TestSharedRules:
    def test_isolated_cases(self):
        st = status(Graph.from_edges(3), y=[1])
        app = rule_isolated(st)
        assert app.payload == {"vertex": 0, "case": "free"}
        st.apply(app)
        app = rule_isolated(st)
        assert app.payload["case"] == "in_y"

    def test_isolated_in_x_identity(self):
        st = status(Graph.from_edges(1), x=[0])
        assert rule_isolated(st).payload["case"] == "in_x"

    def test_x_elim_deltas(self):
        # Removing the star center from X pre-dominates all its leaves.
        st = status(named("star3"), x=[0])
        app = rule_x_elim(st)
        assert app.removed_vertices == (0,)
        assert app.y_added == (1, 2, 3)
        st.apply(app)
        assert st.x == set() and st.y == {1, 2, 3}

    def test_x_elim_k2(self):
        st = status(named("k2"), x=[0])
        app = rule_x_elim(st)
        st.apply(app)
        assert set(st.adj) == {1} and st.y == {1}

    def test_y_edge(self):
        st = status(named("k2"), y=[0, 1])
        app = rule_y_edge(st)
        assert app.removed_edges == ((0, 1),)
        st.apply(app)
        assert st.deg(0) == 0

    def test_y_edge_skips_stable_y(self):
        st = status(named("c4"), y=[0, 2])
        assert rule_y_edge(st) is None

    def test_y_pendant(self):
        st = status(named("k2"), y=[0])
        app = rule_y_pendant(st)
        assert app.removed_vertices == (0,)

    def test_y_pendant_needs_low_degree(self):
        st = status(named("c4"), y=[0])
        assert rule_y_pendant(st) is None

    def test_low_degree_unwind_payload(self):
        st = status(named("c4"))
        app = rule_low_degree(st, 10)
        assert app.payload["vertex"] == 0
        assert app.payload["neighbors"] == (1, 3)

    def test_low_degree_respects_cap(self):
        st = status(complete(5))
        assert rule_low_degree(st, 3) is None
        assert rule_low_degree(st, 4) is not None


class TestPlanarDriver:
    def test_c4(self):
        w = run_planar(named("c4"))
        inst = XYInstance(named("c4"))
        assert oracles.check_xy_dominating(inst, w.d_set)
        assert oracles.check_xy_packing(inst, w.p_set)
        assert len(w.d_set) <= 10 * len(w.p_set)
        assert oracles.exact_domination(inst).value <= 10 * oracles.exact_packing(inst).value

    def test_k1(self):
        w = run_planar(named("k1"))
        assert w.d_set == w.p_set == frozenset({0})
        assert w.achieved_ratio == 1

    def test_dodecahedron(self):
        ring = lambda vs: [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
        outer = list(range(5))
        mid1 = list(range(5, 10))
        mid2 = list(range(10, 15))
        inner = list(range(15, 20))
        edges = ring(outer) + ring(inner)
        edges += [(outer[i], mid1[i]) for i in range(5)]
        edges += [(inner[i], mid2[i]) for i in range(5)]
        for i in range(5):
            edges += [(mid1[i], mid2[i]), (mid1[(i + 1) % 5], mid2[i])]
        g = Graph.from_edges(20, edges)
        assert g.max_degree() == 3 and g.edge_count == 30
        w = run_planar(g)
        inst = XYInstance(g)
        assert oracles.check_xy_dominating(inst, w.d_set)
        assert oracles.check_xy_packing(inst, w.p_set)
        assert w.achieved_ratio is not None and w.achieved_ratio <= 10

    def test_min_degree_eleven_stalls(self):
        with pytest.raises(Stalled):
            run_planar(complete(12))

    def test_random_planar_soundness(self):
        for seed in range(120):
            g = random_planar(4 + seed % 18, seed)
            w = run_planar(g)
            inst = XYInstance(g)
            assert oracles.check_xy_dominating(inst, w.d_set)
            assert oracles.check_xy_packing(inst, w.p_set)
            if w.p_set:
                assert len(w.d_set) <= 10 * len(w.p_set)
            else:
                assert not w.d_set

    def test_determinism_and_replay(self):
        g = random_planar(14, 3)
        w1 = run_planar(g)
        w2 = run_planar(g)
        assert w1 == w2
        states = list(replay(g, w1.trace))
        assert states[-1][0] == ()  # all vertices consumed
        assert len(states) == len(w1.trace) + 1


class TestTreewidthDriver:
    def test_tree_constant_one(self):
        g = families.gen_random_tree(9, 4)
        w = run_treewidth(g, g)
        inst = XYInstance(g)
        assert oracles.check_xy_dominating(inst, w.d_set)
        assert oracles.check_xy_packing(inst, w.p_set)
        assert len(w.d_set) <= len(w.p_set)
        assert oracles.exact_domination(inst).value == oracles.exact_packing(inst).value

    def test_c4_with_chord(self):
        g = named("c4")
        compl = Graph.from_edges(4, edges(g) + [(0, 2)])
        w = run_treewidth(g, compl)
        assert len(w.d_set) <= 2 * len(w.p_set)
        inst = XYInstance(g)
        assert oracles.exact_domination(inst).value == 2
        assert oracles.exact_packing(inst).value == 1

    def test_clique(self):
        g = complete(4)
        w = run_treewidth(g, g)
        assert len(w.p_set) >= 1
        assert w.achieved_ratio <= 3

    def test_certificate_rejected(self):
        with pytest.raises(CertificateInvalid):
            run_treewidth(named("c4"), named("c4"))  # C4 itself is not chordal
        with pytest.raises(CertificateInvalid):
            run_treewidth(complete(4), named("star3"))  # not a supergraph

    def test_random_partial_ktrees(self):
        for seed in range(90):
            k = 2 + seed % 3
            g, compl = random_partial_ktree(6 + seed % 14, k, seed)
            w = run_treewidth(g, compl)
            inst = XYInstance(g)
            assert oracles.check_xy_dominating(inst, w.d_set)
            assert oracles.check_xy_packing(inst, w.p_set)
            if w.p_set:
                assert len(w.d_set) <= k * len(w.p_set)
            else:
                assert not w.d_set

    # When the class step comes, every vertex outside Y has degree above k = 3.
    CLASS_STEP_GRAPH = Graph.from_edges(7, [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6),
        (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
    ])

    def test_driver_takes_the_class_step(self):
        g = self.CLASS_STEP_GRAPH
        w = run_treewidth(g, brute_force_tw_certificate(g, 3))
        steps = [app.payload for app in w.trace if app.rule_id == "tw_class_step"]
        assert steps == [{"vertex": 5, "c1": (6,), "c2": (), "c2_cover": (), "k": 3}]
        # The unwind packs the vertex and pays its graph neighbours in C.
        assert 5 in w.p_set and 6 in w.d_set
        assert len(w.d_set) <= 3 * len(w.p_set)

    def _class_step_unions(self):
        """Relabelled disjoint unions of 2-5 copies of the graph above, each
        with its width-3 completion and the treewidth witness on the two."""
        g = self.CLASS_STEP_GRAPH
        completion = brute_force_tw_certificate(g, 3)
        for seed in range(30):
            rng = random.Random(seed)
            copies = rng.randint(2, 5)
            n = 7 * copies
            name = list(range(n))
            rng.shuffle(name)

            def union(h):
                return Graph.from_edges(n, [
                    (name[7 * i + u], name[7 * i + v])
                    for i in range(copies) for u, v in edges(h)
                ])

            compl = union(completion)
            yield union(g), compl, run_treewidth(union(g), compl)

    def test_class_step_golden(self):
        # Every class step comes after vertices of other copies are gone, so
        # the step must read the completion on the live vertices only.
        # sha256 of the witness documents.
        docs = [w.to_json() for _, _, w in self._class_step_unions()]
        digest = hashlib.sha256("\n".join(docs).encode()).hexdigest()
        assert digest == "11e9a63912b1cbd10471c38da092a03a3678a3ad23e6231e2a52c385389f1568"

    def test_dist2_set_reads_the_working_graph(self):
        # Each class step's c1 and c2 are checked against a BFS in the
        # working graph that a replay of the trace rebuilds.
        steps = 0
        for g, compl, w in self._class_step_unions():
            for (live, working, *_), app in zip(replay(g, w.trace), w.trace):
                if app.rule_id == "tw_class_step":
                    steps += 1
                    _check_class_step_ring(app.payload, set(live), working, compl)
        assert steps == 104

    def test_class_step_covers_distance_two(self):
        # C4 1-0-2-3 with 0 and 3 in Y; the completion adds the chord 12.
        # 0 and 3 are the simplicial layer, 1 is first in the second layer,
        # and its completion neighbour 2 lies at distance 2, through 0 or 3.
        st = status(Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]), y=[0, 3])
        compl = {0: {1, 2}, 1: {0, 2, 3}, 2: {0, 1, 3}, 3: {1, 2}}
        app = _tw_class_step(st, compl, 2)
        assert app.removed_vertices == (1,)
        assert app.x_added == () and app.y_added == (2,)
        assert app.payload == {"vertex": 1, "c1": (), "c2": (2,), "c2_cover": (0,), "k": 2}

    def test_trace_replay_matches(self):
        g, compl = random_partial_ktree(12, 2, 5)
        w = run_treewidth(g, compl)
        assert list(replay(g, w.trace))[-1][0] == ()


def _check_class_step_ring(pay, live, working, compl):
    """c1 and c2 of a class step are the members of c at distance 1 and 2
    from its vertex v in the working graph (given by its live vertices and
    edge list), c being v's completion neighbours outside the first
    simplicial layer."""
    v = pay["vertex"]
    first = {u for u in live if all(
        b in compl.adj[a]
        for a, b in itertools.combinations(sorted(compl.adj[u] & live), 2)
    )}
    c = (compl.adj[v] & live) - first
    dist = distances_from(Graph.from_edges(compl.n, working), v)
    assert set(pay["c1"]) == {u for u in c if dist.get(u) == 1}
    assert set(pay["c2"]) == {u for u in c if dist.get(u) == 2}


class TestRuleApplicationJson:
    def test_payload_serializes(self):
        app = RuleApplication("demo", payload={"set": {3, 1}, "pair": (2, 4)})
        obj = trace_json_obj(app)
        assert obj == {"rule": "demo", "payload": {"set": [1, 3], "pair": [2, 4]}}

    def test_json_text_matches_json_obj(self):
        # Every rule's payload, twin-width and the 2-degenerate pack step
        # (int-keyed dicts) included, encodes to the text of trace_json_obj.
        import json

        from dompack.engine import run_distance_hereditary
        from dompack.engine_twinwidth import run_twinwidth
        from dompack.engine_twodeg import run_twodeg
        from conftest import random_cograph, random_dh, twodeg_wall_graph_m3

        g, seq = random_cograph(30, 4, 0.3)
        traces = [
            run_planar(random_planar(40, 1)).trace,
            run_treewidth(*random_partial_ktree(30, 3, 2)).trace,
            run_distance_hereditary(random_dh(30, 3)).trace,
            run_twodeg(twodeg_wall_graph_m3()).trace,
            run_twinwidth(g, seq).trace,
        ]
        apps = [app for trace in traces for app in trace]
        apps.append(RuleApplication("demo", payload={"pair": (3, 1), 7: {2: (1,)}}))
        assert "2deg_pack" in {app.rule_id for app in apps}
        for app in apps:
            assert app.to_json() == json.dumps(trace_json_obj(app), separators=(",", ":"))
        # No rule puts a set in a payload, so the encoder takes none.
        with pytest.raises(TypeError):
            RuleApplication("demo", payload={"set": {3, 1}}).to_json()
