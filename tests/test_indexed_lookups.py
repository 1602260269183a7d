"""The indexed lookups on the construct path against their full scans.

* Degree buckets: every driver's working state keeps ``by_deg`` equal to a
  recount, and each bucket-reading rule returns what its full-scan form in
  ``_rule_reference`` returns, at every step of seeded runs.
* AT-free: ``find_dominating_pair`` is the first pair of the exhaustive
  ``is_dominating_pair`` search.
* Unit disks: the grid lookup is the linear first-match scan.
"""

from __future__ import annotations

import random

import pytest

import _rule_reference as ref
from conftest import (
    random_cograph,
    random_dh,
    random_graph,
    random_interval_graph,
    random_partial_ktree,
    random_planar,
    random_twodeg,
)
from dompack import engine, engine_twinwidth, engine_twodeg, families
from dompack.constructions import NotFoundError, _CentreGrid, find_dominating_pair
from dompack.engine import _State
from dompack.graph import Graph, is_connected

# ---------------------------------------------------------------------------
# Degree buckets
# ---------------------------------------------------------------------------

PLAIN_RULES = [
    (engine.rule_isolated, ref.rule_isolated),
    (engine.rule_y_pendant, ref.rule_y_pendant),
    (engine._dh_pendant, ref.dh_pendant),
    (engine_twodeg._rule_pendant_support, ref.rule_pendant_support),
    (engine_twodeg._rule_free_degree2, ref.rule_free_degree2),
]


def _nonempty_buckets(st: _State) -> dict[int, set[int]]:
    return {d: vs for d, vs in st.by_deg.items() if vs}


def _check_plain_rules(st: _State) -> None:
    for rule, reference in PLAIN_RULES:
        assert rule(st) == reference(st), rule.__name__
    if not st.x:
        for c in (1, 2, 3, 10):
            assert engine.rule_low_degree(st, c) == ref.rule_low_degree(st, c)


def _check_lowblack(st: _State) -> None:
    for k in (0, 1, 2, 3):
        assert engine_twinwidth._lowblack_step(st, k) == ref.lowblack_step(st, k)


def _checked(monkeypatch, check_rules):
    """Checks the rules before, and the buckets before and after, every
    ``_State.apply``; returns a list that counts the steps checked."""
    steps = []
    apply = _State.apply

    def checked_apply(st, app):
        assert _nonempty_buckets(st) == ref.black_degree_buckets(st)
        check_rules(st)
        apply(st, app)
        assert _nonempty_buckets(st) == ref.black_degree_buckets(st)
        steps.append(app.rule_id)

    monkeypatch.setattr(_State, "apply", checked_apply)
    return steps


@pytest.fixture
def checked_steps(monkeypatch):
    return _checked(monkeypatch, _check_plain_rules)


@pytest.fixture
def checked_tww_steps(monkeypatch):
    return _checked(monkeypatch, _check_lowblack)


# Each step rescans the whole state, so the 2000-vertex runs take seconds
# apiece; they run with ``-m slow``.
SIZES = (12, 90, 700, pytest.param(2000, marks=pytest.mark.slow))


@pytest.mark.parametrize("n", SIZES)
def test_planar_buckets(checked_steps, n):
    for seed in range(3 if n < 700 else 1):
        engine.run_planar(random_planar(n, 100 + seed))
    assert "low_degree" in checked_steps and "x_elim" in checked_steps


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
    assert "2deg_pendant_support" in checked_steps
    assert "2deg_free_degree2" in checked_steps


def test_twodeg_gadget_buckets(checked_steps):
    from conftest import twodeg_wall_graph, twodeg_wall_graph_m3

    engine_twodeg.run_twodeg(twodeg_wall_graph())
    engine_twodeg.run_twodeg(twodeg_wall_graph_m3())
    assert "2deg_pack" in checked_steps


@pytest.mark.parametrize("n", SIZES)
def test_dh_buckets(checked_steps, n):
    for seed in range(3 if n < 700 else 1):
        g = random_dh(n, 400 + seed)
        rng = random.Random(seed)
        engine.run_distance_hereditary(g)
        engine.run_distance_hereditary(g, {v for v in g.vertices() if rng.random() < 0.2})
    assert "dh_pendant" in checked_steps and "dh_y_prune" in checked_steps


@pytest.mark.parametrize("n,flip", [(10, 0.0), (40, 0.3), (120, 0.15)])
def test_twinwidth_buckets(checked_tww_steps, n, flip):
    for seed in range(3):
        g, seq = random_cograph(n, 500 + seed, flip)
        rng = random.Random(seed)
        y = {v for v in g.vertices() if rng.random() < 0.2}
        engine_twinwidth.run_twinwidth(g, seq, max(2, seq.declared_width), y)
    assert "tww_lowblack" in checked_tww_steps and "tww_contract" in checked_tww_steps


def test_buckets_track_isolated_additions():
    # An added vertex with no edges is still bucketed, and a removal that
    # isolates a neighbour moves it to bucket 0.
    st = _State.from_graph(Graph.from_edges(3, [(0, 1), (1, 2)]))
    st.apply(engine.RuleApplication("t", removed_vertices=(1,), added_vertices=(7,)))
    assert _nonempty_buckets(st) == {0: {0, 2, 7}}
    assert engine.rule_isolated(st).payload["vertex"] == 0


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
        if is_connected(g):
            _assert_same_pair(g)
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("n", [5, 6, 7])
def test_pair_matches_exhaustive_search_on_cycles(n):
    _assert_same_pair(families.gen_cycle(n))


def test_pair_matches_exhaustive_search_on_random_graphs():
    for seed in range(60):
        g = random_graph(5 + seed % 6, 0.35, 700 + seed)
        if is_connected(g):
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


def _assert_grid_matches(centers, targets):
    grid = _CentreGrid(centers)
    for tx, ty in targets:
        assert grid.first_within(tx, ty) == ref.first_within(centers, tx, ty), (tx, ty)


def test_grid_matches_scan_on_seeded_disks():
    rng = random.Random(11)
    for _ in range(20):
        span = rng.choice((3.0, 10.0, 40.0))
        centers = [(rng.uniform(-span, span), rng.uniform(-span, span)) for _ in range(60)]
        targets = [(rng.uniform(-span - 2, span + 2), rng.uniform(-span - 2, span + 2))
                   for _ in range(200)]
        # Targets at distance exactly 1 along an axis, and in general position.
        for x, y in centers[:20]:
            targets += [(x + 1.0, y), (x - 1.0, y), (x, y + 1.0), (x, y - 1.0),
                        (x + 0.6, y + 0.8), (x - 0.8, y - 0.6)]
        _assert_grid_matches(centers, targets)


def test_grid_matches_scan_on_cell_borders():
    # Centres on even coordinates sit on cell borders; targets one unit off
    # them sit on odd coordinates, halfway through a neighbouring cell.
    centers = [(float(2 * a), float(2 * b)) for a in range(-3, 4) for b in range(-3, 4)]
    centers += [(-2.0, -1.0), (-1.0, -2.0), (-1e-9, 2.0), (4.0, -1e-9)]
    targets = []
    for x, y in centers:
        for dx, dy in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                       (1.0 + 1e-9, 0.0), (0.0, -1.0 - 1e-13), (0.5, 0.5)):
            targets.append((x + dx, y + dy))
    targets += [(float(a), float(b)) for a in range(-9, 10) for b in range(-9, 10)]
    _assert_grid_matches(centers, targets)
    _assert_grid_matches(centers[::-1], targets)


def test_grid_on_far_coordinates():
    centers = [(1e12, -1e12), (1e12 + 1.0, -1e12), (-5e149, 5e149)]
    targets = [(1e12 + 0.5, -1e12), (1e12 + 2.0, -1e12), (-5e149, 5e149), (0.0, 0.0)]
    _assert_grid_matches(centers, targets)
