"""The red-edge form: ``Graph.red[v]`` is v's set of red neighbours.

Every check runs against a reference built straight from the ``red_edges``
pairs of a seeded trigraph whose lists hold a red pair twice (once
reversed) and a pair listed as both black and red.  The ``solve --mode
black`` digests were recorded with ``Graph.red`` as a set of pairs, so they
pin that stdout across the change of form.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

import pytest

from dompack.cli import main
from dompack.engine import _State
from dompack.graph import Graph, black_neighbors, from_edge_json

SEEDS = range(12)


def trigraph_pairs(seed: int):
    """(n, black pairs, red pairs), the red list with a repeated pair, a
    reversed pair and its first pair also among the black ones."""
    rng = random.Random(seed)
    n = 5 + seed % 12
    pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.4] or [(0, 1)]
    red = [e for e in pairs if rng.random() < 0.3] or pairs[:1]
    black = [e for e in pairs if e not in red] + [red[0]]
    red += [red[0][::-1], red[-1]]
    rng.shuffle(red)
    return n, black, red


def edge_json(n, black, red) -> str:
    return json.dumps({"n": n, "edges": black, "red_edges": red})


def reference_sets(n, black, red):
    """Per-vertex red and black neighbour sets from the pairs: a pair
    listed as red is red, whatever else lists it."""
    reds = [set() for _ in range(n)]
    blacks = [set() for _ in range(n)]
    for u, v in red:
        reds[u].add(v)
        reds[v].add(u)
    for u, v in black:
        if v not in reds[u]:
            blacks[u].add(v)
            blacks[v].add(u)
    return reds, blacks


@pytest.fixture(params=SEEDS)
def case(request):
    n, black, red = trigraph_pairs(request.param)
    return from_edge_json(edge_json(n, black, red)), reference_sets(n, black, red)


def test_red_is_symmetric_and_within_adj(case):
    g, (reds, _) = case
    assert len(g.red) == g.n and not g.is_plain()
    for v in g.vertices():
        assert g.red[v] == reds[v]
        assert g.red[v] <= g.adj[v]
        assert all(v in g.red[u] for u in g.red[v])


def test_black_neighbors_on_a_graph_and_its_state(case):
    g, (_, blacks) = case
    st = _State.from_graph(g)
    for v in g.vertices():
        assert black_neighbors(g, v) == blacks[v]
        assert black_neighbors(st, v) == blacks[v]


def test_state_copies_the_red_sets(case):
    g, _ = case
    st = _State.from_graph(g)
    for v in g.vertices():
        assert st.red[v] == set(g.red[v]) and type(st.red[v]) is set


def test_plain_graphs_have_empty_red_sets():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.red == (frozenset(),) * 3 and g.is_plain()
    assert black_neighbors(g, 1) == {0, 2}


SOLVE_BLACK_DIGESTS = {
    "gamma": "bb71e8a2f2ae4ef003344e3da2cf5b32b76c2f2c914a8a4648e2ad9253a066fc",
    "rho": "8e25844666eb908a1b325f91b161958ec7843ef0315b2e37c2d9d28a5300de85",
}


def black_solve_stdout(variant: str, tmp_path, capsys) -> str:
    """The stdout of ``solve --mode black`` over every seed, with Y given
    on odd seeds."""
    out = []
    for seed in SEEDS:
        n, black, red = trigraph_pairs(seed)
        path = tmp_path / f"t{seed}.json"
        path.write_text(edge_json(n, black, red))
        argv = ["solve", str(path), "--variant", variant, "--mode", "black"]
        if seed % 2:
            argv += ["--y", ",".join(map(str, range(0, n, 3)))]
        assert main(argv) == 0
        out.append(capsys.readouterr().out)
    return "".join(out)


@pytest.mark.parametrize("variant", sorted(SOLVE_BLACK_DIGESTS))
def test_solve_black_stdout(variant, tmp_path, capsys):
    text = black_solve_stdout(variant, tmp_path, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == SOLVE_BLACK_DIGESTS[variant]
