"""Drivers for 2-degenerate, twin-width, and distance-hereditary classes."""

import pytest

from dompack import engine, engine_twinwidth, engine_twodeg, families, oracles
from dompack.engine import EngineError, GuaranteeViolated, Stalled, SequenceInvalid, _State
from dompack.engine_twodeg import run_twodeg
from dompack.engine_twinwidth import ContractionSequence, run_twinwidth
from dompack.graph import Graph, Mode, XYInstance
from _reference import (
    brute_force_tww_sequence,
    edges,
    enumerate_labeled_graphs,
    recognize_distance_hereditary,
    replay,
)
from conftest import (
    complete,
    named,
    random_cograph,
    random_dh,
    random_graph,
    random_twodeg,
    twodeg_wall_graph,
    twodeg_wall_graph_m3,
)


def check_plain(g, w):
    inst = XYInstance(g)
    assert oracles.check_xy_dominating(inst, w.d_set)
    assert oracles.check_xy_packing(inst, w.p_set)


# Per driver: the module and name of an unwind it looks up at call time, and
# a run on the edgeless graph on three vertices, where that unwind's rule
# fires once per vertex.
UNWIND_RUNS = {
    "twodeg": (engine_twodeg, "_unwind_isolated", run_twodeg),
    "planar": (engine, "_unwind_isolated", engine.run_planar),
    "treewidth": (engine, "_unwind_isolated", lambda g: engine.run_treewidth(g, g)),
    "dh": (engine, "_unwind_isolated", engine.run_distance_hereditary),
    "twinwidth": (engine_twinwidth, "_unwind_lowblack",
                  lambda g: run_twinwidth(g, brute_force_tww_sequence(g, 2))),
}


@pytest.mark.parametrize("driver", UNWIND_RUNS)
def test_unwind_that_pays_nothing_fails_with_the_trace(driver, monkeypatch):
    # The loop records each step with its rule's unwind.  An unwind that
    # pays nothing leaves D empty, so certify fails the construction; the
    # command line maps that to exit 4 and prints the whole trace.
    module, name, run = UNWIND_RUNS[driver]
    g = Graph.from_edges(3)
    trace = run(g).trace
    monkeypatch.setattr(module, name, lambda app, d, p: None)
    with pytest.raises(EngineError, match="D fails the dominating checker") as exc:
        run(g)
    assert exc.value.trace == trace and len(trace) == 3


def test_leaked_vertex_is_a_violation(monkeypatch):
    # K5 contracts along twins; an unwind that keeps the merged vertex
    # instead of renaming it back leaves an id outside the input in (D, P).
    g = complete(5)
    seq = ContractionSequence(((0, 1, 5), (5, 2, 6), (6, 3, 7), (7, 4, 8)), 2)
    trace = run_twinwidth(g, seq).trace
    assert "tww_contract" in [app.rule_id for app in trace]
    monkeypatch.setattr(engine_twinwidth, "_unwind_contract", lambda app, d, p: None)
    with pytest.raises(GuaranteeViolated, match="leaked into the witness") as exc:
        run_twinwidth(g, seq)
    assert exc.value.trace == trace


def test_overpaying_unwind_breaks_the_step_bound(monkeypatch):
    # A path is its own chordal completion at width 1, so the bound is
    # 1*|P|; an unwind that also pays the packed vertex breaks it at once.
    g = families.gen_path(3)
    trace = engine.run_treewidth(g, g).trace
    pay = engine._unwind_low_degree

    def overpay(app, d, p):
        pay(app, d, p)
        d.add(app.payload["vertex"])

    monkeypatch.setattr(engine, "_unwind_low_degree", overpay)
    with pytest.raises(GuaranteeViolated, match=r"^treewidth: \|D\|=2 exceeds 1\*\|P\|=1$") as exc:
        engine.run_treewidth(g, g)
    assert exc.value.trace == trace


class TestTwodeg:
    def test_c5(self):
        w = run_twodeg(named("c5"))
        check_plain(named("c5"), w)
        assert len(w.d_set) <= 7 * len(w.p_set)
        inst = XYInstance(named("c5"))
        assert oracles.exact_domination(inst).value == 2
        assert oracles.exact_packing(inst).value == 1

    def test_k2(self):
        w = run_twodeg(named("k2"))
        check_plain(named("k2"), w)
        assert len(w.d_set) <= 7 * len(w.p_set)

    def test_apexless_threedeg_family(self):
        # The 3-degenerate family minus its apex is the canonical
        # 2-degenerate stress input.
        for k in (2, 3):
            t = families.gen_threedeg(k)
            apex = t.n - 1
            g = Graph.from_edges(t.n - 1, [e for e in edges(t) if apex not in e])
            w = run_twodeg(g)
            check_plain(g, w)
            assert len(w.d_set) <= 7 * len(w.p_set)
            if g.n <= 22:
                inst = XYInstance(g)
                assert (
                    oracles.exact_domination(inst).value
                    <= 7 * oracles.exact_packing(inst).value
                )

    def test_wall_graph_forces_pack_step(self):
        g = twodeg_wall_graph()
        w = run_twodeg(g)
        check_plain(g, w)
        rules = [app.rule_id for app in w.trace]
        assert "2deg_pack" in rules
        assert len(w.d_set) <= 7 * len(w.p_set)

    def test_wall_graph_m3_multi_gadget(self):
        g = twodeg_wall_graph_m3()
        w = run_twodeg(g)
        check_plain(g, w)
        packs = [app for app in w.trace if app.rule_id == "2deg_pack"]
        assert packs
        assert max(len(app.payload["wired"]) for app in packs) == 3
        assert sum(len(app.payload["gadgets"]) for app in packs) >= 2
        assert len(w.d_set) <= 7 * len(w.p_set)

    def test_rejects_dense(self):
        with pytest.raises(Stalled):
            run_twodeg(complete(4))

    def test_random_corpus(self):
        fired = set()
        for seed in range(150):
            g = random_twodeg(5 + seed % 20, seed)
            w = run_twodeg(g)
            check_plain(g, w)
            fired.update(app.rule_id for app in w.trace)
            if w.p_set:
                assert len(w.d_set) <= 7 * len(w.p_set)
            else:
                assert not w.d_set
        # The corpus must exercise the local rules; main steps are covered by
        # the wall fixture above.
        assert {"2deg_anchored_leaf", "2deg_pendant_support", "2deg_free_degree2"} <= fired

    def test_determinism_and_replay(self):
        g = random_twodeg(18, 11)
        w1, w2 = run_twodeg(g), run_twodeg(g)
        assert w1 == w2
        assert list(replay(g, w1.trace))[-1][0] == ()

    def test_gadgets_never_leak(self):
        g = twodeg_wall_graph()
        w = run_twodeg(g)
        assert max(w.d_set | w.p_set) < g.n

    def test_budget_terms_match_a_recount(self, monkeypatch):
        # The driver reads (|X2+|, |X1|) from the degree buckets; every
        # unwind check must see the slack 2|X2+| + |X1| recounted on the
        # replayed parent, and every main step must record the terms.
        seen = []
        check = engine._check_budget

        def spy(d, p, constant, slack, tag, formula):
            seen.append(slack)
            check(d, p, constant, slack, tag, formula)

        monkeypatch.setattr(engine, "_check_budget", spy)
        graphs = [twodeg_wall_graph(), twodeg_wall_graph_m3()]
        graphs += [random_twodeg(40 + seed, seed) for seed in range(12)]
        nonzero = main_steps = 0
        for g in graphs:
            seen.clear()
            w = run_twodeg(g)
            expect = []
            for (alive, edges, x, _, _), app in zip(replay(g, w.trace), w.trace):
                deg = dict.fromkeys(alive, 0)
                for u, v in edges:
                    deg[u] += 1
                    deg[v] += 1
                terms = (sum(deg[v] >= 2 for v in x), sum(deg[v] == 1 for v in x))
                expect.append(2 * terms[0] + terms[1])
                if "budget_terms" in app.payload:
                    assert app.payload["budget_terms"] == terms
                    main_steps += 1
            assert seen[::-1] == expect
            nonzero += sum(t != 0 for t in expect)
        assert nonzero and main_steps

class TestTwinwidth:
    def test_p4_width_sequence(self):
        g = families.gen_path(4)
        seq = brute_force_tww_sequence(g, 2)
        w = run_twinwidth(g, seq)
        check_blk = XYInstance(g, mode=Mode.BLACK)
        assert oracles.check_xy_dominating(check_blk, w.d_set)
        assert oracles.check_xy_packing(check_blk, w.p_set)
        assert len(w.d_set) <= 16 * len(w.p_set)

    def test_clique_twins(self):
        g = complete(5)
        seq = ContractionSequence(
            tuple((i, i + 1 if i == 0 else 4 + i, 5 + i) for i in range(4)), 0
        )
        # K5 contracts along twins with no red edges at all.
        merges = []
        cur = 0
        fresh = 5
        for v in range(1, 5):
            merges.append((cur, v, fresh))
            cur = fresh
            fresh += 1
        seq = ContractionSequence(tuple(merges), 2)
        w = run_twinwidth(g, seq)
        inst = XYInstance(g, mode=Mode.BLACK)
        assert oracles.check_xy_dominating(inst, w.d_set)
        gamma_b = oracles.exact_domination(inst).value
        rho = oracles.exact_packing(inst).value
        assert gamma_b <= 16 * rho

    def test_edgeless_all_predominated(self):
        g = Graph.from_edges(4)
        seq = brute_force_tww_sequence(g, 2)
        w = run_twinwidth(g, seq, y=range(4))
        assert w.d_set == frozenset() and w.p_set == frozenset()
        assert w.achieved_ratio is None

    def test_wide_declared_width_reads_few_buckets(self, monkeypatch):
        # The low-black step reads the buckets of black degrees 0..k, and no
        # more than the live vertices allow: at width 10**8 it once read that
        # many buckets per step (12 s for K2 on a 2-core host), and 10**18
        # never finished.
        real = engine_twinwidth._min_in_buckets

        def bounded(st, degrees, *rest):
            assert len(degrees) <= len(st.adj) + 1
            return real(st, degrees, *rest)

        monkeypatch.setattr(engine_twinwidth, "_min_in_buckets", bounded)
        g = families.gen_path(4)
        seq = brute_force_tww_sequence(g, 2)
        w = run_twinwidth(g, ContractionSequence(seq.merges, 10**18))
        assert w.certified_constant == 4 * 10**36
        narrow = run_twinwidth(g, ContractionSequence(seq.merges, 5))
        assert (w.d_set, w.p_set) == (narrow.d_set, narrow.p_set)

    def test_rejects_bad_sequence(self):
        g = families.gen_path(4)
        seq = ContractionSequence(((0, 9, 10),), 2)
        with pytest.raises(SequenceInvalid):
            run_twinwidth(g, seq)

    def test_red_input_graph(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], red_edges=[(1, 2)])
        seq = brute_force_tww_sequence(g, 2)
        assert seq is not None
        w = run_twinwidth(g, seq)
        inst = XYInstance(g, mode=Mode.BLACK)
        assert oracles.check_xy_dominating(inst, w.d_set)
        assert oracles.check_xy_packing(inst, w.p_set)

    def test_red_degrees_match_a_recount(self):
        # After every step the red neighbour sets are symmetric, lie within
        # adj, and hold the red edges of a replay of the trace's deltas that
        # keys each edge by its frozenset.  A ``merged`` delta (a, b, w) is
        # replayed by its definition: w takes every neighbour of a or b, by
        # a black edge when both edges to it were black, else by a red one.
        cases = [random_cograph(40, seed, flip=0.2) for seed in range(4)]
        g = Graph.from_edges(4, [(0, 1), (2, 3)], red_edges=[(1, 2)])
        cases.append((g, brute_force_tww_sequence(g, 2)))
        red_seen = 0

        def nbrs(pairs, v):
            return {x for e in pairs if v in e for x in e - {v}}

        for g, seq in cases:
            w = run_twinwidth(g, seq)
            st = _State.from_graph(g)
            pairs = {frozenset(e) for e in edges(g)}
            red = {frozenset((u, v)) for u in g.vertices() for v in g.red[u]}
            for app in w.trace:
                st.apply(app)
                gone = {frozenset(e) for e in app.removed_edges}
                dead = set(app.removed_vertices)
                added, added_red = set(), set()
                if app.merged:
                    a, b, c = app.merged
                    dead |= {a, b}
                    black = pairs - red
                    both = nbrs(black, a) & nbrs(black, b)
                    for x in (nbrs(pairs, a) | nbrs(pairs, b)) - {a, b}:
                        added.add(frozenset((c, x)))
                        if x not in both:
                            added_red.add(frozenset((c, x)))
                pairs = {e for e in pairs if e not in gone and dead.isdisjoint(e)}
                red = {e for e in red if e not in gone and dead.isdisjoint(e)}
                pairs |= {frozenset(e) for e in app.added_edges} | added
                red |= added_red
                assert st.red.keys() == st.adj.keys()
                for v, reds in st.red.items():
                    assert reds <= st.adj[v]
                    assert all(v in st.red[u] for u in reds)
                assert {frozenset((u, v)) for u in st.adj for v in st.adj[u]} == pairs
                assert {frozenset((u, v)) for u in st.red for v in st.red[u]} == red
                red_seen += len(red)
        assert red_seen

    def test_random_small_graphs(self):
        done = 0
        for seed in range(200):
            if done >= 60:
                break
            g = random_graph(4 + seed % 5, 0.45, seed)
            seq = brute_force_tww_sequence(g, 2)
            if seq is None:
                continue
            done += 1
            w = run_twinwidth(g, seq)
            inst = XYInstance(g, mode=Mode.BLACK)
            assert oracles.check_xy_dominating(inst, w.d_set)
            assert oracles.check_xy_packing(inst, w.p_set)
            if w.p_set:
                assert len(w.d_set) <= 16 * len(w.p_set)
            else:
                assert not w.d_set
        assert done >= 60

    def test_determinism(self):
        g = random_graph(7, 0.4, 3)
        seq = brute_force_tww_sequence(g, 2)
        assert run_twinwidth(g, seq) == run_twinwidth(g, seq)


class TestDistanceHereditary:
    def test_trees(self):
        for seed in range(10):
            g = families.gen_random_tree(3 + seed, seed)
            w = engine.run_distance_hereditary(g)
            inst = XYInstance(g, mode=Mode.TOTAL)
            assert oracles.check_xy_dominating(inst, w.d_set)
            assert oracles.check_xy_packing(inst, w.p_set)
            assert len(w.d_set) <= 2 * len(w.p_set)

    def test_c4_tight(self):
        g = named("c4")
        w = engine.run_distance_hereditary(g)
        inst = XYInstance(g, mode=Mode.TOTAL)
        assert oracles.exact_domination(inst).value == 2
        assert oracles.exact_packing(inst).value == 1
        assert len(w.d_set) <= 2 * len(w.p_set)

    def test_k1_base_cases(self):
        w = engine.run_distance_hereditary(named("k1"))
        assert w.d_set == {0} and w.p_set == {0}
        w = engine.run_distance_hereditary(named("k1"), y=[0])
        assert w.d_set == frozenset() and w.p_set == frozenset()

    def test_c5_stalls(self):
        with pytest.raises(Stalled):
            engine.run_distance_hereditary(named("c5"))

    def test_never_stalls_on_distance_hereditary_graphs(self):
        # Every labelled graph with n <= 6: the recognizer's yes means the
        # driver finishes.  It finishes on some others too (see below).
        accepted = 0
        for n in range(1, 7):
            for g in enumerate_labeled_graphs(n):
                if recognize_distance_hereditary(g):
                    accepted += 1
                    engine.run_distance_hereditary(g)
        assert accepted == 19311

    def test_finishes_on_c5_plus_pendant(self):
        # The pendant step at 5 deletes its support 0 too, which breaks the
        # C5 0-3-2-1-4; the witness is still certified.
        g = Graph.from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3)])
        assert not recognize_distance_hereditary(g)
        w = engine.run_distance_hereditary(g)
        assert w.trace[0].payload == {"pendant": 5, "support": 0}
        inst = XYInstance(g, mode=Mode.TOTAL)
        assert oracles.check_xy_dominating(inst, w.d_set)
        assert oracles.check_xy_packing(inst, w.p_set)

    def test_random_corpus(self):
        for seed in range(120):
            g = random_dh(4 + seed % 16, seed)
            w = engine.run_distance_hereditary(g)
            inst = XYInstance(g, mode=Mode.TOTAL)
            assert oracles.check_xy_dominating(inst, w.d_set)
            assert oracles.check_xy_packing(inst, w.p_set)
            if w.p_set:
                assert len(w.d_set) <= 2 * len(w.p_set)
            else:
                assert not w.d_set

    def test_total_mode_matters(self):
        # K2 needs both endpoints under total domination.
        w = engine.run_distance_hereditary(named("k2"))
        assert w.d_set == {0, 1} and len(w.p_set) == 1


class TestOptimalitySandwich:
    def test_witness_sizes_bracket_the_optima(self):
        # For every emitted pair: oracle gamma <= |D| and |P| <= oracle rho,
        # hence gamma <= c * rho through the witness.
        from conftest import random_planar, random_twodeg

        for seed in range(40):
            g = random_planar(5 + seed % 8, seed)
            w = engine.run_planar(g)
            inst = XYInstance(g)
            gamma = oracles.exact_domination(inst).value
            rho = oracles.exact_packing(inst).value
            assert gamma <= len(w.d_set)
            assert len(w.p_set) <= rho
            if rho:
                assert gamma <= 10 * rho
        for seed in range(40):
            g = random_twodeg(5 + seed % 8, seed)
            w = run_twodeg(g)
            inst = XYInstance(g)
            gamma = oracles.exact_domination(inst).value
            rho = oracles.exact_packing(inst).value
            assert gamma <= len(w.d_set)
            assert len(w.p_set) <= rho
            if rho:
                assert gamma <= 7 * rho
