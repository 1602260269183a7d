"""The indexed lookups on the construct path against their full scans.

* Degree buckets and state indexes: every driver's working state keeps
  ``by_deg`` and each index a rule has built (``_State.index``) equal to a
  recount, and each rule that reads them returns what its full-scan form in
  ``_rule_reference`` returns, at every step of seeded runs.  Every index
  is built at the first step of every run, whether or not the driver reads
  it, so each is kept through every kind of step.
* AT-free: ``find_dominating_pair`` is the first pair of the exhaustive
  ``is_dominating_pair`` search.
* Unit disks: the grid's cover lookup is the exact first-match scan.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import _rule_reference as ref
from conftest import (
    fan,
    k2n,
    random_cograph,
    random_dh,
    random_graph,
    random_interval_graph,
    random_partial_ktree,
    random_planar,
    random_twodeg,
)
from dompack import engine, engine_twinwidth, engine_twodeg, families
from dompack.constructions import (
    DiskConfiguration,
    NotFoundError,
    covering_pairs,
    find_dominating_pair,
)
from dompack.engine import _State
from dompack.graph import Graph, masks_connected

# ---------------------------------------------------------------------------
# Degree buckets and state indexes
# ---------------------------------------------------------------------------

# Rules that read only the adjacency and Y, so they apply to trigraphs too.
Y_RULES = [
    (engine.rule_y_edge, ref.rule_y_edge),
    (engine._dh_y_prune, ref.dh_y_prune),
]

PLAIN_RULES = Y_RULES + [
    (engine.rule_isolated, ref.rule_isolated),
    (engine.rule_y_pendant, ref.rule_y_pendant),
    (engine._dh_pendant, ref.dh_pendant),
    (engine_twodeg._rule_pendant_support, ref.rule_pendant_support),
    (engine_twodeg._rule_free_degree2, ref.rule_free_degree2),
    (engine_twodeg._rule_anchored_leaf, ref.rule_anchored_leaf),
    (engine_twodeg._rule_dominated_fringe, ref.rule_dominated_fringe),
    (engine_twodeg._rule_extra_x_edge, ref.rule_extra_x_edge),
    (engine_twodeg._rule_x_x_edge, ref.rule_x_x_edge),
]

# The twin scan compares every pair, so on graphs with few twins it runs on
# small states only; the distance-hereditary runs check it at every step.
TWIN_SCAN_LIMIT = 150


def _nonempty_buckets(st: _State) -> dict[int, set[int]]:
    return {d: vs for d, vs in st.by_deg.items() if vs}


def _check_indexes(st: _State) -> None:
    """Each index equals its recount (each is built on the first call)."""
    assert _nonempty_buckets(st) == ref.black_degree_buckets(st)
    assert ref.y_edge_ends(st) <= set(st.index(engine._YEdges).heap)
    yout = st.index(engine._YOut)
    assert (yout.out, yout.low) == ref.y_out(st)
    xi = st.index(engine_twodeg._XIndex)
    assert {name: getattr(xi, name) for name in ref.x_index(st)} == ref.x_index(st)


def _check_plain_rules(st: _State, twins=False) -> None:
    for rule, reference in PLAIN_RULES:
        assert rule(st) == reference(st), rule.__name__
    assert engine_twodeg._budget_terms(st) == ref.budget_terms(st)
    if twins or len(st.adj) <= TWIN_SCAN_LIMIT:
        assert engine._dh_twins(st) == ref.dh_twins(st)
    if not st.x:
        for c in (1, 2, 3, 10):
            assert engine.rule_low_degree(st, c) == ref.rule_low_degree(st, c)


def _check_tww_rules(st: _State) -> None:
    for rule, reference in Y_RULES:
        assert rule(st) == reference(st), rule.__name__
    for k in (0, 1, 2, 3):
        assert engine_twinwidth._lowblack_step(st, k) == ref.lowblack_step(st, k)


def _checked(monkeypatch, check_rules):
    """Checks the indexes and the rules before, and the indexes after,
    every ``_State.apply``, and the indexes around every ``_State.merge``
    (which the twin-width validator calls directly); returns a list that
    counts the steps checked, a merge as "merge"."""
    steps = []
    apply, merge = _State.apply, _State.merge

    def checked_merge(st, a, b, w):
        _check_indexes(st)
        merge(st, a, b, w)
        _check_indexes(st)
        steps.append("merge")

    def checked_apply(st, app):
        _check_indexes(st)
        check_rules(st)
        apply(st, app)
        _check_indexes(st)
        steps.append(app.rule_id)

    monkeypatch.setattr(_State, "apply", checked_apply)
    monkeypatch.setattr(_State, "merge", checked_merge)
    return steps


@pytest.fixture
def checked_steps(monkeypatch):
    return _checked(monkeypatch, _check_plain_rules)


@pytest.fixture
def checked_dh_steps(monkeypatch):
    return _checked(monkeypatch, lambda st: _check_plain_rules(st, twins=True))


@pytest.fixture
def checked_tww_steps(monkeypatch):
    return _checked(monkeypatch, _check_tww_rules)


# Each step rescans the whole state, so the 2000-vertex runs take seconds
# apiece; they run with ``-m slow``.
SIZES = (12, 90, 700, pytest.param(2000, marks=pytest.mark.slow))


@pytest.mark.parametrize("n", SIZES)
def test_planar_buckets(checked_steps, n):
    for seed in range(3 if n < 700 else 1):
        engine.run_planar(random_planar(n, 100 + seed))
    assert "low_degree" in checked_steps and "x_elim" in checked_steps
    assert "y_edge" in checked_steps


@pytest.mark.parametrize("n", SIZES)
def test_treewidth_buckets(checked_steps, n):
    for seed in range(3 if n < 700 else 1):
        g, completion = random_partial_ktree(n, 3, 200 + seed)
        engine.run_treewidth(g, completion)
    assert "low_degree" in checked_steps and "y_pendant" in checked_steps


@pytest.mark.parametrize("n", SIZES)
def test_twodeg_buckets(checked_steps, n):
    for seed in range(3 if n < 700 else 1):
        engine_twodeg.run_twodeg(random_twodeg(n, 300 + seed))
    if n < 700:
        # A hub's counters move at almost every step.
        engine_twodeg.run_twodeg(k2n(n))
        engine_twodeg.run_twodeg(fan(n))
    for rule in ("pendant_support", "free_degree2", "anchored_leaf", "dominated_fringe",
                 "extra_x_edge", "x_x_edge"):
        assert f"2deg_{rule}" in checked_steps


def test_twodeg_gadget_buckets(checked_steps):
    from conftest import twodeg_wall_graph, twodeg_wall_graph_m3

    engine_twodeg.run_twodeg(twodeg_wall_graph())
    engine_twodeg.run_twodeg(twodeg_wall_graph_m3())
    assert "2deg_pack" in checked_steps


@pytest.mark.parametrize("n", SIZES)
def test_dh_buckets(checked_dh_steps, n):
    for seed in range(3 if n < 700 else 1):
        g = random_dh(n, 400 + seed)
        rng = random.Random(seed)
        engine.run_distance_hereditary(g)
        engine.run_distance_hereditary(g, {v for v in g.vertices() if rng.random() < 0.2})
    assert "dh_pendant" in checked_dh_steps and "dh_y_prune" in checked_dh_steps
    assert "dh_twin" in checked_dh_steps


@pytest.mark.parametrize("n,flip", [(10, 0.0), (40, 0.3), (120, 0.15)])
def test_twinwidth_buckets(checked_tww_steps, n, flip):
    for seed in range(3):
        g, seq = random_cograph(n, 500 + seed, flip)
        rng = random.Random(seed)
        y = {v for v in g.vertices() if rng.random() < 0.2}
        engine_twinwidth.run_twinwidth(g, seq, y)
    assert "tww_lowblack" in checked_tww_steps and "tww_contract" in checked_tww_steps
    # Each driver contraction is one checked "tww_contract" step and one
    # checked merge; the validator's merges are the rest, and it replays
    # every merge of the sequence, the driver only those whose ends both live.
    driver = checked_tww_steps.count("tww_contract")
    assert checked_tww_steps.count("merge") - driver >= driver


def test_buckets_track_isolated_additions():
    # An added vertex with no edges is still bucketed, and a removal that
    # isolates a neighbour moves it to bucket 0.
    st = _State.from_graph(Graph.from_edges(3, [(0, 1), (1, 2)]))
    st.apply(engine.RuleApplication("t", removed_vertices=(1,), added_vertices=(7,)))
    assert _nonempty_buckets(st) == {0: {0, 2, 7}}
    assert engine.rule_isolated(st).payload["vertex"] == 0


def test_indexes_follow_any_change():
    # Random single changes the drivers never make in these shapes: an edge
    # between two old vertices added, any black edge removed (``apply``
    # removes black edges only), any vertex removed, any vertex joining X or
    # Y, a fresh vertex with or without edges (in place of a removed one, so
    # that the state shrinks), and a merge of two live vertices.  A merge
    # adds red edges, and the plain rules are checked on plain states only.
    rng = random.Random(5)
    fresh = iter(range(100, 10**6))
    for seed in range(30):
        g = random_graph(16, 0.25, 800 + seed)
        st = _State.from_graph(g, x={v for v in g.vertices() if rng.random() < 0.3})
        st.y.update(v for v in g.vertices() if v not in st.x and rng.random() < 0.3)
        while len(st.adj) > 2:
            _check_indexes(st)
            if not any(st.red.values()):
                _check_plain_rules(st, twins=True)
            u, v, w = rng.sample(sorted(st.adj), 3)
            edge = (min(u, v), max(u, v))
            f = next(fresh)
            app = rng.choice([
                engine.RuleApplication("t", removed_edges=(edge,) if v in st.adj[u] else (),
                                       added_edges=() if v in st.adj[u] else (edge,))
                if v not in st.red[u] else engine.RuleApplication("t", removed_vertices=(v,)),
                engine.RuleApplication("t", removed_vertices=(u,)),
                engine.RuleApplication("t", x_added=(u,)),
                engine.RuleApplication("t", y_added=(u,)),
                engine.RuleApplication("t", removed_vertices=(u,), added_vertices=(f,)),
                engine.RuleApplication("t", removed_vertices=(u,), added_vertices=(f,),
                                       added_edges=((v, f), (w, f))[:rng.randint(1, 2)]),
                engine.RuleApplication("t", merged=(u, v, f)),
            ])
            st.apply(app)
        _check_indexes(st)


def test_merge_of_x_vertices():
    # The X index once forgot a merged vertex by asking X, which the merge
    # had already left: with X = {0, 1} on the path 0-1-2-3, merging 1 and 2
    # raised KeyError.
    st = _State.from_graph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), x={0, 1})
    _check_indexes(st)
    st.merge(1, 2, 9)
    _check_indexes(st)
    assert st.x == {0} and st.adj[9] == {0, 3}


# ---------------------------------------------------------------------------
# AT-free dominating pairs
# ---------------------------------------------------------------------------


def _assert_same_pair(g):
    expected = ref.first_dominating_pair(g)
    if expected is None:
        with pytest.raises(NotFoundError):
            find_dominating_pair(g)
    else:
        assert find_dominating_pair(g) == expected


def test_pair_matches_exhaustive_search_on_interval_graphs():
    checked = 0
    for seed in range(80):
        g = random_interval_graph(4 + seed % 25, 600 + seed)
        if masks_connected(g.masks):
            _assert_same_pair(g)
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("n", [5, 6, 7])
def test_pair_matches_exhaustive_search_on_cycles(n):
    _assert_same_pair(families.gen_cycle(n))


def test_pair_matches_exhaustive_search_on_random_graphs():
    for seed in range(60):
        g = random_graph(5 + seed % 6, 0.35, 700 + seed)
        if masks_connected(g.masks):
            _assert_same_pair(g)


@pytest.mark.parametrize("n", [8, 9, 12])
def test_no_pair_raises(n):
    g = families.gen_cycle(n)
    assert ref.first_dominating_pair(g) is None
    with pytest.raises(NotFoundError):
        find_dominating_pair(g)


# ---------------------------------------------------------------------------
# Unit-disk cover lookups
# ---------------------------------------------------------------------------


def _assert_grid_matches(centers, queries):
    """For each query (base, pairs), the grid's lookup from base with each
    of the covering pairs is the exact scan's.  Bases are rounded to the
    grid's scale, where its integers lie."""
    centers = [(Fraction(x), Fraction(y)) for x, y in centers]
    grid = DiskConfiguration(tuple(centers))._grid
    u = grid.u
    for base, pairs in queries:
        bx, by = (Fraction(round(Fraction(q) * u), u) for q in base)
        for pair, lookup in zip(pairs, grid.lookups(pairs)):
            got = grid.first_within(int(bx * u), int(by * u), lookup)
            assert got == ref.first_within(centers, (bx, by), pair), (bx, by, pair)


def _from_centres(centers):
    """Every covering pair from each centre, as construct_unitdisk asks."""
    return [(c, covering_pairs()) for c in centers]


# The six lattice neighbours of the origin, and the covering pairs with
# 2a + b = 0, whose points lie on the vertical through the base.
FEW_PAIRS = ((0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, -2), (-1, 2))


def test_grid_matches_scan_on_seeded_disks():
    rng = random.Random(11)
    for _ in range(20):
        span = rng.choice((3, 10, 40))
        centers = [(Fraction(rng.randint(-100 * span, 100 * span), 100),
                    Fraction(rng.randint(-100 * span, 100 * span), 100)) for _ in range(60)]
        bases = [(rng.uniform(-span - 2, span + 2), rng.uniform(-span - 2, span + 2))
                 for _ in range(40)]
        # Bases at distance exactly 1 along an axis, and in general position.
        near = []
        for x, y in centers[:20]:
            near += [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1),
                     (x + Fraction(3, 5), y + Fraction(4, 5)),
                     (x - Fraction(4, 5), y - Fraction(3, 5))]
        _assert_grid_matches(centers, _from_centres(centers[:3])
                             + [(b, FEW_PAIRS[:1]) for b in bases + near]
                             + [(b, FEW_PAIRS) for b in bases[:8]])


def test_grid_matches_scan_on_cell_borders():
    # Centres on even coordinates sit on cell borders; bases one unit off
    # them sit on odd coordinates, halfway through a neighbouring cell.
    centers = [(2 * a, 2 * b) for a in range(-3, 4) for b in range(-3, 4)]
    centers += [(-2, -1), (-1, -2), (Fraction(-1, 10**9), 2), (4, Fraction(-1, 10**9))]
    near = []
    for x, y in centers:
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1 + Fraction(1, 10**9), 0),
                       (0, -1 - Fraction(1, 10**9)), (Fraction(1, 2), Fraction(1, 2))):
            near.append((x + dx, y + dy))
    grid = [(a, b) for a in range(-9, 10) for b in range(-9, 10)]
    queries = [(b, FEW_PAIRS[:1]) for b in near + grid] + [(b, FEW_PAIRS) for b in near[::7]]
    _assert_grid_matches(centers, queries + _from_centres(centers[::4]))
    _assert_grid_matches(centers[::-1], queries)


def test_grid_on_far_coordinates():
    centers = [(10**12, -10**12), (10**12 + 1, -10**12), (-5 * 10**149, 5 * 10**149)]
    bases = [(10**12 + Fraction(1, 2), -10**12), (10**12 + 2, -10**12),
             (-5 * 10**149, 5 * 10**149), (0, 0)]
    _assert_grid_matches(centers, _from_centres(centers) + [(b, FEW_PAIRS) for b in bases])
    # Beyond 2**53 a float centre loses the quarters that tell these apart.
    centers = [(Fraction(36028797018963973, 2), Fraction(5, 2)),
               (Fraction(36028797018963971, 2), Fraction(27, 4)),
               (Fraction(72057594037927971, 4), 0),
               (Fraction(72057594037927961, 4), 0)]
    _assert_grid_matches(centers, _from_centres(centers))
