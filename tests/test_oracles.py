import hashlib
import importlib.util
import inspect
import itertools
import json
import os
import random
import shutil
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dompack import families, oracles, solvers
from dompack.graph import (
    Graph,
    GraphError,
    Mode,
    XYInstance,
    ball2,
    closed_neighborhood,
    distances_from,
)
from dompack import _bb_py
from _kernel_reference import min_hitting_set as reference_min_hitting_set
from _reference import edges, enumerate_labeled_graphs
from conftest import complete, named, random_graph, random_xy


def plain(g, x=(), y=()):
    return XYInstance(g, frozenset(x), frozenset(y), Mode.PLAIN)


class TestCheckers:
    def test_c4_dominating(self):
        inst = plain(named("c4"))
        assert oracles.check_xy_dominating(inst, {0, 2})
        assert not oracles.check_xy_dominating(inst, {0})

    def test_black_mode_exemption(self):
        g = Graph.from_edges(2, red_edges=[(0, 1)])
        inst = XYInstance(g, mode=Mode.BLACK)
        # Vertex 1 has no black neighbor, so membership in N[D] suffices.
        assert oracles.check_xy_dominating(inst, {0})

    def test_packing_properties(self):
        g = families.gen_path(5)
        assert oracles.check_xy_packing(plain(g), {0, 3})
        assert not oracles.check_xy_packing(plain(g, x={1}), {0, 3})
        assert not oracles.check_xy_packing(plain(g, y={3}), {0, 3})

    def test_total_needs_neighbor(self):
        g = named("k2")
        inst = XYInstance(g, mode=Mode.TOTAL)
        assert not oracles.check_xy_dominating(inst, {0})
        assert oracles.check_xy_dominating(inst, {0, 1})


def _reference_is_packing(inst, p):
    """The packing definition with one whole-graph BFS per member."""
    g = inst.graph
    p = g.check_vertex_set(p)
    if p & inst.y_set or p & closed_neighborhood(g, inst.x_set):
        return False
    return all(distances_from(g, u).get(v, 3) >= 3 for u in p for v in p if v != u)


@st.composite
def packing_cases(draw):
    """A sparse graph (often disconnected, with isolated vertices), X and Y
    in any mode, and a candidate P."""
    n = draw(st.integers(min_value=0, max_value=12))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = st.lists(st.tuples(vertex, vertex), max_size=2 * n) if n > 1 else st.just([])
    edges = {(min(e), max(e)) for e in draw(pairs) if e[0] != e[1]}
    mode = draw(st.sampled_from(list(Mode)))
    subset = st.frozensets(vertex, max_size=n // 3) if n else st.just(frozenset())
    red = {e for e in edges if draw(st.booleans())} if mode is Mode.BLACK else set()
    g = Graph.from_edges(n, sorted(edges - red), sorted(red))
    x = frozenset() if mode is Mode.BLACK else draw(subset)
    inst = XYInstance(g, x, draw(subset), mode)
    return inst, draw(st.frozensets(vertex, max_size=5) if n else st.just(frozenset()))


class TestPackingChecker:
    """check_xy_packing against the definition, checked pair by pair."""

    @given(packing_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_bfs(self, case):
        inst, p = case
        assert oracles.check_xy_packing(inst, p) == _reference_is_packing(inst, p)

    def test_seeded_disconnected_graphs(self):
        verdicts = set()
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 14)
            g = random_graph(n, rng.choice((0.05, 0.12, 0.25)), seed)
            for mode in Mode:
                x, y = random_xy(g, seed, px=0 if mode is Mode.BLACK else 0.1, py=0.1)
                inst = XYInstance(g, x, y, mode)
                p = {v for v in g.vertices() if rng.random() < 0.3}
                verdict = oracles.check_xy_packing(inst, p)
                assert verdict == _reference_is_packing(inst, p)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_isolated_vertices_pack_together(self):
        g = Graph.from_edges(5, [(0, 1)])
        assert oracles.check_xy_packing(plain(g), {0, 2, 3, 4})
        assert not oracles.check_xy_packing(plain(g), {0, 1, 2})
        assert not oracles.check_xy_packing(plain(g, y={4}), {0, 4})

    @pytest.mark.parametrize("bad", [-1, 5, 99])
    def test_out_of_range_ids_raise(self, bad):
        inst = plain(families.gen_path(5))
        with pytest.raises(GraphError):
            oracles.check_xy_packing(inst, {0, bad})
        with pytest.raises(GraphError):
            oracles.check_xy_packing(inst, {bad})


class TestExactValues:
    def test_c4(self):
        inst = plain(named("c4"))
        assert oracles.exact_domination(inst).value == 2
        assert oracles.exact_packing(inst).value == 1

    def test_petersen(self, petersen):
        inst = plain(petersen)
        assert oracles.exact_domination(inst).value == 3
        assert oracles.exact_packing(inst).value == 1

    def test_everything_predominated(self):
        g = complete(5)
        inst = plain(g, y=range(5))
        assert oracles.exact_domination(inst).value == 0
        assert oracles.exact_packing(inst).value == 0

    def test_c7_packing(self):
        inst = plain(families.gen_cycle(7))
        assert oracles.exact_packing(inst).value == 2
        assert oracles.exact_domination(inst).value == 3

    def test_rook_3(self):
        inst = plain(families.gen_rook(3))
        assert oracles.exact_packing(inst).value == 1
        assert oracles.exact_domination(inst).value == 3

    def test_witness_sizes_match(self):
        for seed in range(5):
            g = random_graph(8, 0.3, seed)
            inst = plain(g)
            for solve, check in (
                (oracles.exact_domination, oracles.check_xy_dominating),
                (oracles.exact_packing, oracles.check_xy_packing),
            ):
                res = solve(inst)
                assert len(res.witness) == res.value
                assert check(inst, res.witness)

    def test_total_c4(self):
        assert oracles.exact_domination(XYInstance(named("c4"), mode=Mode.TOTAL)).value == 2

    def test_oversize_guardrail(self):
        g = Graph.from_edges(65)
        with pytest.raises(oracles.OversizeError):
            oracles.exact_domination(plain(g))
        assert oracles.exact_domination(plain(g), max_n=65).value == 65

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DOMPACK_MAX_N", "70")
        g = Graph.from_edges(65)
        assert oracles.exact_packing(plain(g)).value == 65


class TestAgainstReference:
    def test_small_exhaustive(self):
        for n in range(5):
            for g in enumerate_labeled_graphs(n):
                inst = plain(g)
                assert oracles.exact_domination(inst).value == oracles.reference_domination_value(inst)
                assert oracles.exact_packing(inst).value == oracles.reference_packing_value(inst)

    @pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.TOTAL])
    def test_random_xy_instances(self, mode):
        # 100 instances per mode: 200 random (X, Y) pairs overall.
        for seed in range(100):
            g = random_graph(6, 0.35, seed)
            x, y = random_xy(g, seed + 1000)
            inst = XYInstance(g, x, y, mode)
            assert oracles.exact_domination(inst).value == oracles.reference_domination_value(inst)
            assert oracles.exact_packing(inst).value == oracles.reference_packing_value(inst)

    def test_black_mode_random(self):
        import random as _r

        for seed in range(40):
            rng = _r.Random(seed)
            n = rng.randint(1, 6)
            edges = []
            reds = []
            for u in range(n):
                for v in range(u + 1, n):
                    roll = rng.random()
                    if roll < 0.25:
                        edges.append((u, v))
                    elif roll < 0.45:
                        reds.append((u, v))
            g = Graph.from_edges(n, edges, reds)
            y = frozenset(v for v in range(n) if rng.random() < 0.2)
            inst = XYInstance(g, y_set=y, mode=Mode.BLACK)
            assert oracles.exact_domination(inst).value == oracles.reference_domination_value(inst)


def _mask(s):
    return sum(1 << v for v in s)


def _set_based_rows(inst, closed_rows=False):
    """The requirement rows as (owner, vertex set) pairs, read off the mode's
    definition vertex by vertex: N[v] unless v is free, then in Total mode
    N(v); Black rows keep only black edges.  With ``closed_rows`` false, a
    Total row N[v] is left out where v also owns N(v): the kernels' superset
    reduction drops it."""
    g = inst.graph
    if inst.mode is Mode.BLACK:
        return [
            (v, (g.adj[v] - g.red[v]) or g.adj[v] | {v})
            for v in g.vertices()
            if v not in inst.y_set
        ]
    free = closed_neighborhood(g, inst.x_set) | inst.y_set
    exempt = inst.x_set | inst.y_set
    total = inst.mode is Mode.TOTAL
    rows = []
    for v in g.vertices():
        open_row = total and v not in exempt and g.adj[v]
        if v not in free and (closed_rows or not open_row):
            rows.append((v, g.adj[v] | {v}))
        if open_row:
            rows.append((v, g.adj[v]))
    return rows


def _set_based_results(inst):
    """exact_domination and exact_packing computed the set-based way:
    frozenset requirement rows turned into masks, and the packing conflicts
    read off ball2 (each vertex's ball less itself)."""
    g = inst.graph
    size, chosen, nodes = solvers.min_hitting_set([_mask(r) for _, r in _set_based_rows(inst)])
    gamma = oracles.ExactResult(size, oracles._unmask(chosen), nodes)
    banned = closed_neighborhood(g, inst.x_set) | inst.y_set
    size, chosen, nodes = solvers.max_independent_set(
        [_mask(ball2(g, v) - {v}) for v in g.vertices()],
        _mask(v for v in g.vertices() if v not in banned),
    )
    return gamma, oracles.ExactResult(size, oracles._unmask(chosen), nodes)


def _requirements(inst):
    g = inst.graph
    x, y = _mask(inst.x_set), _mask(inst.y_set)
    return oracles._domination_requirements(g.masks, x, y, inst.mode, oracles._red_masks(g))


def assert_rows_follow_their_vertex(inst):
    """The rows are the definition's, in vertex order; returns their owners."""
    rows = _set_based_rows(inst)
    assert _requirements(inst) == [_mask(r) for _, r in rows]
    return [v for v, _ in rows]


def _random_black(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    edges, reds = [], []
    for u in range(n):
        for v in range(u + 1, n):
            roll = rng.random()
            if roll < 0.25:
                edges.append((u, v))
            elif roll < 0.45:
                reds.append((u, v))
    y = frozenset(v for v in range(n) if rng.random() < 0.2)
    return XYInstance(Graph.from_edges(n, edges, reds), y_set=y, mode=Mode.BLACK)


class TestMaskLayer:
    """The mask-level setup hands the kernels exactly what the set-based one
    did, so value, witness and node count all agree."""

    @staticmethod
    def assert_same(inst):
        assert_rows_follow_their_vertex(inst)
        assert (oracles.exact_domination(inst), oracles.exact_packing(inst)) == (
            _set_based_results(inst)
        )

    def test_all_small_labeled_graphs(self):
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                self.assert_same(plain(g))

    @pytest.mark.parametrize("mode", [Mode.PLAIN, Mode.TOTAL])
    def test_random_xy(self, mode):
        for seed in range(60):
            g = random_graph(9, 0.35, seed)
            x, y = random_xy(g, seed + 2000)
            self.assert_same(XYInstance(g, x, y, mode))

    def test_random_black_with_red_edges(self):
        for seed in range(60):
            self.assert_same(_random_black(seed))

    def test_total_mode_leaves_out_the_closed_rows_the_reduction_drops(self):
        # Sparse Total instances, isolated vertices included: with every
        # non-free N[v] added back, the kernel searches the same rows and
        # returns the same triple, from about twice as many rows.
        emitted = with_closed = isolated = 0
        for seed in range(40):
            g = random_graph(24, 0.1, seed)
            y = random_xy(g, seed + 300, py=0.1)[1]
            inst = XYInstance(g, y_set=y, mode=Mode.TOTAL)
            reqs = _requirements(inst)
            everything = [_mask(r) for _, r in _set_based_rows(inst, closed_rows=True)]
            assert _bb_py._prepare(reqs)[0] == _bb_py._prepare(everything)[0]
            assert _bb_py.min_hitting_set(reqs) == _bb_py.min_hitting_set(everything)
            emitted += len(reqs)
            with_closed += len(everything)
            isolated += sum(not g.adj[v] and v not in y for v in g.vertices())
        assert isolated and 0.45 < emitted / with_closed < 0.55

    def test_packing_rows_are_the_ball2_rows(self, monkeypatch):
        # The rows themselves, not only the kernel's answer: a row that kept
        # its own vertex gave the same results on the graphs above.
        seen = []
        monkeypatch.setattr(
            solvers, "max_independent_set", lambda rows, cand: seen.append(rows) or (0, 0, 0)
        )
        graphs = [g for n in range(6) for g in enumerate_labeled_graphs(n)]
        graphs += [random_graph(12, p, seed) for seed, p in enumerate((0.1, 0.3, 0.6))]
        for g in graphs:
            oracles.packing_kernel(g.masks)
            assert seen.pop() == [sum(1 << u for u in ball2(g, v) - {v}) for v in g.vertices()]


KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "dompack" / "_bbkernel.c"


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The C kernel built from source into a temporary directory.

    Never built into the checkout: anything importable from src/ would be
    picked up by every later run there.
    """
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip(f"cannot build the C kernel: no Python.h in {include}")
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"cannot build the C kernel: no C compiler ({cc}) on PATH")
    from setuptools import Distribution, Extension

    out = tmp_path_factory.mktemp("bbkernel")
    # With gcc and clang any warning fails the build, so an edit that
    # leaves, say, an unused variable fails the tests.
    strict = any(name in os.path.basename(cc) for name in ("gcc", "clang"))
    ext = Extension(
        "dompack._bbkernel",
        [str(KERNEL_SOURCE)],
        extra_compile_args=["-Wall", "-Werror"] if strict else [],
    )
    cmd = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "dompack._bbkernel", cmd.get_ext_fullpath("dompack._bbkernel")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def use_compiled(compiled_kernel, monkeypatch):
    """Route solvers through the freshly built kernel."""
    monkeypatch.delenv("DOMPACK_FORCE_PY", raising=False)
    monkeypatch.setattr(solvers, "_compiled", compiled_kernel)
    assert solvers.backend_name() == "compiled"
    return compiled_kernel


def test_backend_reads_the_environment_only_with_a_compiled_kernel(monkeypatch):
    reads = []
    environ = {"DOMPACK_FORCE_PY": "1"}

    def get(key, default=None):
        reads.append(key)
        return environ.get(key, default)

    monkeypatch.setattr(solvers, "os", SimpleNamespace(environ=SimpleNamespace(get=get)))
    monkeypatch.setattr(solvers, "_compiled", None)
    assert solvers.backend_name() == "python"
    assert solvers.min_hitting_set([0b11, 0b110]) == _bb_py.min_hitting_set([0b11, 0b110])
    assert reads == []
    monkeypatch.setattr(solvers, "_compiled", object())
    assert solvers.backend_name() == "python"
    environ.clear()
    assert solvers.backend_name() == "compiled"
    assert reads == ["DOMPACK_FORCE_PY"] * 2


def on_both_backends(monkeypatch, solve):
    fast = solve()
    monkeypatch.setenv("DOMPACK_FORCE_PY", "1")
    slow = solve()
    monkeypatch.delenv("DOMPACK_FORCE_PY")
    return fast, slow


# Every width from 1 to 64, with extra draws at the 63- and 64-bit edges.
WIDTHS = [*range(1, 65), 63, 64, 63, 64]


class TestBackendParity:
    def test_hitting_set_matches_pure(self, compiled_kernel):
        rng = random.Random(7)
        for n in WIDTHS:
            for _ in range(4):
                reqs = []
                for _ in range(rng.randint(1, min(2 * n, 24))):
                    size = rng.randint(1, min(n, rng.choice((2, 3, 4, n))))
                    reqs.append(sum(1 << v for v in rng.sample(range(n), size)))
                reqs[0] |= 1 << (n - 1)
                assert compiled_kernel.min_hitting_set(reqs) == _bb_py.min_hitting_set(reqs)

    def test_hitting_set_edge_cases(self, compiled_kernel):
        for reqs in ([], [3, 0], [1 << 63]):
            assert compiled_kernel.min_hitting_set(reqs) == _bb_py.min_hitting_set(reqs)

    def test_hitting_set_at_64_rows(self, compiled_kernel):
        # 64 rows fill the row mask.  With singletons all of them stay
        # unsatisfied at the root, so the kernel must not shift 1 by 64 to
        # build the mask of all rows.
        singletons = [1 << v for v in range(64)]
        cycle = [1 << v | 1 << (v + 1) % 64 for v in range(64)]
        for reqs in (singletons, cycle):
            assert compiled_kernel.min_hitting_set(reqs) == _bb_py.min_hitting_set(reqs)
        assert compiled_kernel.min_hitting_set(singletons)[:2] == (64, (1 << 64) - 1)

    def test_more_than_64_rows_route_to_pure(self, use_compiled):
        # No pair of 12 vertices is a superset of another, so all 66 rows
        # stay after reduction: too many for the compiled row mask.
        pairs = [1 << u | 1 << v for u, v in itertools.combinations(range(12), 2)]
        with pytest.raises(OverflowError):
            use_compiled.min_hitting_set(pairs)
        assert solvers.min_hitting_set(pairs) == _bb_py.min_hitting_set(pairs)

    def test_signatures_match_pure(self, compiled_kernel):
        # The compiled parameters come from each docstring's signature line.
        for name in ("min_hitting_set", "max_independent_set"):
            compiled = getattr(compiled_kernel, name)
            assert compiled.__text_signature__ is not None
            assert list(inspect.signature(compiled).parameters) == (
                list(inspect.signature(getattr(_bb_py, name)).parameters)
            )

    def test_mis_matches_pure(self, compiled_kernel):
        rng = random.Random(11)
        for n in WIDTHS:
            for _ in range(4):
                p = rng.choice((0.05, 0.15, 0.4, 0.7))
                adj = [0] * n
                for u in range(n):
                    for v in range(u + 1, n):
                        if rng.random() < p:
                            adj[u] |= 1 << v
                            adj[v] |= 1 << u
                cand = rng.getrandbits(n) | 1 << (n - 1)
                if n > 40:
                    cand &= rng.getrandbits(n) | 1 << (n - 1)
                assert compiled_kernel.max_independent_set(adj, cand) == (
                    _bb_py.max_independent_set(adj, cand)
                )

    def test_total_rows_follow_their_vertex(self, use_compiled, monkeypatch):
        for seed in range(10):
            g = random_graph(14, 0.3, seed)
            _, y = random_xy(g, seed + 100)
            inst = XYInstance(g, y_set=y, mode=Mode.TOTAL)
            owners = assert_rows_follow_their_vertex(inst)
            assert len(set(owners)) == len(owners)
            fast, slow = on_both_backends(monkeypatch, lambda: oracles.exact_domination(inst))
            assert fast == slow

    def test_block_chain(self, use_compiled, monkeypatch):
        inst = plain(families.gen_chained_blocks(4))
        for solve, value in ((oracles.exact_domination, 9), (oracles.exact_packing, 4)):
            fast, slow = on_both_backends(monkeypatch, lambda: solve(inst))
            assert fast == slow and fast.value == value

    def test_overflow_routing(self, use_compiled, monkeypatch):
        def path(n):
            return [(1 << v >> 1) | (1 << v + 1 if v + 1 < n else 0) for v in range(n)]

        # 65 bits do not fit the compiled kernel, so only the pure path can
        # answer masks that reach bit 64.
        wide = [(1 << 64) | 1, 1 << 63]
        full = (1 << 65) - 1
        with pytest.raises(OverflowError):
            use_compiled.min_hitting_set(wide)
        with pytest.raises(OverflowError):
            use_compiled.max_independent_set(path(65), full)
        assert solvers.min_hitting_set(wide) == _bb_py.min_hitting_set(wide)
        assert solvers.max_independent_set(path(65), full) == (
            _bb_py.max_independent_set(path(65), full)
        )
        # With the pure kernel gone, 64-bit masks must still be answered.
        reqs = [(1 << 63) | 1, 1 << 62]
        full = (1 << 64) - 1
        expected = (
            _bb_py.min_hitting_set(reqs),
            _bb_py.max_independent_set(path(64), full),
        )
        monkeypatch.setattr(solvers, "_bb_py", None)
        assert (
            solvers.min_hitting_set(reqs),
            solvers.max_independent_set(path(64), full),
        ) == expected

    @pytest.mark.parametrize("mode", list(Mode))
    def test_isolated_y_vertices_past_64_stay_compiled(self, use_compiled, monkeypatch, mode):
        # Vertices 64-69 are isolated and in Y: no row and no candidate
        # reaches bit 64, so the 70-vertex instance fits the compiled kernel.
        pairs = edges(random_graph(64, 0.3, 5))
        red = pairs[::4] if mode is Mode.BLACK else []
        g = Graph.from_edges(70, [e for e in pairs if e not in red], red)
        x = frozenset() if mode is Mode.BLACK else frozenset({3, 40})
        inst = XYInstance(g, x, frozenset(range(60, 70)), mode)
        answered = []

        def spy(name):
            def call(*args):
                answered.append(name)
                return getattr(use_compiled, name)(*args)
            return call

        monkeypatch.setattr(solvers, "_compiled", SimpleNamespace(
            min_hitting_set=spy("min_hitting_set"),
            max_independent_set=spy("max_independent_set"),
        ))
        fast, slow = on_both_backends(
            monkeypatch,
            lambda: (oracles.exact_domination(inst, 70), oracles.exact_packing(inst, 70)),
        )
        assert answered == ["min_hitting_set", "max_independent_set"]
        assert fast == slow


def _golden_instances():
    """Seeded kernel inputs: a random graph for every n from 1 to 64 in each
    mode, with random X and Y, and red edges in Black mode."""
    rng = random.Random(20)
    for n in range(1, 65):
        for mode in (Mode.PLAIN, Mode.TOTAL, Mode.BLACK):
            p = rng.choice((0.15, 0.3, 0.5)) if n <= 24 else rng.choice((0.3, 0.5))
            edges, reds = [], []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        red = mode is Mode.BLACK and rng.random() < 0.3
                        (reds if red else edges).append((u, v))
            g = Graph.from_edges(n, edges, reds)
            x = sum(1 << v for v in range(n) if rng.random() < 0.15)
            y = sum(1 << v for v in range(n) if rng.random() < 0.15)
            yield g, x, y, mode


def _golden_digest():
    triples = []
    for g, x, y, mode in _golden_instances():
        triples.append(oracles.domination_kernel(g.masks, x, y, mode, oracles._red_masks(g)))
        triples.append(oracles.packing_kernel(g.masks, x, y))
    return hashlib.sha256(repr(triples).encode()).hexdigest()


class TestKernelGolden:
    """The (size, mask, nodes) triple of every seeded instance, hashed.

    Row order steers the branch order and the disjoint bound, so a change to
    how the requirement rows are built or sorted shows up in the node
    counts even when every size and witness stays the same.
    """

    DIGEST = "ab8f511be4b0a166a2886bda189e846091e685b25da0eceb008ed2b5dfe2e86f"

    def test_pure(self, monkeypatch):
        monkeypatch.setenv("DOMPACK_FORCE_PY", "1")
        assert _golden_digest() == self.DIGEST

    def test_compiled(self, use_compiled, monkeypatch):
        # Without the pure kernel to fall back on, every triple is the
        # compiled kernel's.
        monkeypatch.setattr(solvers, "_bb_py", None)
        assert _golden_digest() == self.DIGEST


class TestWideHittingSet:
    """The row-mask pure kernel against a list-based reference past 64 bits.

    The compiled kernel stops at 64-bit masks, so at these widths and row
    counts the only check is the list-based search in _kernel_reference.
    """

    def test_random_rows(self):
        rng = random.Random(2024)
        searched = 0
        for _ in range(16):
            n = rng.randint(65, 128)
            reqs = []
            for _ in range(rng.randint(65, 130)):
                size = rng.randint(1, rng.choice((2, 3, 4, 6)))
                reqs.append(sum(1 << v for v in rng.sample(range(n), size)))
            reqs[0] |= 1 << (n - 1)
            got = _bb_py.min_hitting_set(reqs)
            assert got == reference_min_hitting_set(reqs)
            searched += got[2] > 1
        assert searched >= 3

    def test_total_rows_follow_their_vertex(self):
        for seed in range(6):
            # One row per vertex outside Y with a neighbour: a small Y keeps
            # more than 64 of them.
            n = 72 + 8 * seed
            g = random_graph(n, 3.0 / n, seed)
            _, y = random_xy(g, seed + 100, py=0.05)
            inst = XYInstance(g, y_set=y, mode=Mode.TOTAL)
            owners = assert_rows_follow_their_vertex(inst)
            assert len(set(owners)) == len(owners) > 64
            reqs = _requirements(inst)
            assert _bb_py.min_hitting_set(reqs) == reference_min_hitting_set(reqs)


class TestInvariants:
    def test_duality_small(self):
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                inst = plain(g)
                assert oracles.exact_packing(inst).value <= oracles.exact_domination(inst).value

    @pytest.mark.slow
    def test_duality_full_seven_vertex_enumeration(self):
        count = 0
        for g in enumerate_labeled_graphs(7):
            inst = plain(g)
            rho = oracles.exact_packing(inst).value
            gamma = oracles.exact_domination(inst).value
            assert rho <= gamma
            # The max-degree bound needs an edge somewhere: on edgeless
            # graphs gamma = rho = n while the degree is zero.
            if rho and g.max_degree() >= 1:
                assert gamma <= g.max_degree() * rho
            count += 1
        assert count == 1 << 21

    def test_mode_monotonicity(self):
        for seed in range(30):
            g = random_graph(7, 0.3, seed)
            x, y = random_xy(g, seed + 500)
            base = oracles.exact_domination(XYInstance(g, x, y, Mode.PLAIN)).value
            total = oracles.exact_domination(XYInstance(g, x, y, Mode.TOTAL)).value
            assert base <= total
            black = oracles.exact_domination(XYInstance(g, y_set=y, mode=Mode.BLACK)).value
            plain_y = oracles.exact_domination(XYInstance(g, y_set=y, mode=Mode.PLAIN)).value
            assert plain_y <= black

    def test_trees_equality(self):
        for n in range(1, 11):
            for seed in range(20):
                g = families.gen_random_tree(n, seed)
                inst = plain(g)
                assert oracles.exact_domination(inst).value == oracles.exact_packing(inst).value

    def test_max_degree_bound(self):
        for seed in range(40):
            g = random_graph(8, 0.3, seed)
            inst = plain(g)
            gamma = oracles.exact_domination(inst).value
            rho = oracles.exact_packing(inst).value
            if rho and g.max_degree() >= 1:
                assert gamma <= g.max_degree() * rho

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, seed):
        g = random_graph(7, 0.35, seed)
        inst = plain(g)
        a = oracles.exact_domination(inst)
        b = oracles.exact_domination(inst)
        assert a.witness == b.witness and a.nodes_explored == b.nodes_explored


def _gamma_rho(g):
    inst = plain(g)
    return oracles.exact_domination(inst).value, oracles.exact_packing(inst).value


def _sparse_graph(n, rng):
    return random_graph(n, rng.uniform(0.5, 8.0) / n, rng.randrange(1 << 30))


class TestMetamorphic:
    """Oracle properties that need no brute-force reference, so they reach
    the widths of the compiled kernel: gamma and rho do not change when the
    vertices are relabelled (``scan --enumerate-n`` evaluates one labelled
    graph per isomorphism class on this), and both add up over disjoint
    unions."""

    @staticmethod
    def check_relabelling(n_max, seed):
        rng = random.Random(seed)
        for _ in range(30):
            g = _sparse_graph(rng.randint(n_max // 2, n_max), rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in edges(g)])
            assert _gamma_rho(h) == _gamma_rho(g)

    @staticmethod
    def check_disjoint_unions(n_max, seed):
        rng = random.Random(seed)
        for _ in range(30):
            g = _sparse_graph(rng.randint(1, n_max - 1), rng)
            h = _sparse_graph(rng.randint(1, n_max - g.n), rng)
            union = Graph.from_edges(
                g.n + h.n, edges(g) + [(u + g.n, v + g.n) for u, v in edges(h)]
            )
            (gamma_g, rho_g), (gamma_h, rho_h) = _gamma_rho(g), _gamma_rho(h)
            assert _gamma_rho(union) == (gamma_g + gamma_h, rho_g + rho_h)

    def test_pure_kernel(self, monkeypatch):
        monkeypatch.setenv("DOMPACK_FORCE_PY", "1")
        assert solvers.backend_name() == "python"
        self.check_relabelling(20, 1)
        self.check_disjoint_unions(20, 2)

    def test_compiled_kernel(self, use_compiled):
        self.check_relabelling(64, 3)
        self.check_disjoint_unions(64, 4)


class TestWitnessJson:
    def test_roundtrip(self):
        inst = plain(named("c4"))
        res = oracles.exact_domination(inst)
        doc = json.loads(oracles.exact_result_json("gamma", inst, res))
        assert doc["value"] == 2 and doc["variant"] == "gamma"
        assert doc["mode"] == "plain"
