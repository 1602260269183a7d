"""Shared fixtures: named small graphs and random in-class instance corpora."""

from __future__ import annotations

import random

import pytest

from dompack import families
from dompack.engine_twinwidth import ContractionSequence, validate_contraction_sequence
from dompack.graph import Graph


def named(name: str) -> Graph:
    if name == "k1":
        return Graph.from_edges(1)
    if name == "k2":
        return Graph.from_edges(2, [(0, 1)])
    if name == "c4":
        return families.gen_cycle(4)
    if name == "c5":
        return families.gen_cycle(5)
    if name == "c6":
        return families.gen_cycle(6)
    if name == "p5":
        return families.gen_path(5)
    if name == "petersen":
        return families.gen_petersen()
    if name == "k4":
        return complete(4)
    if name == "star3":
        return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    raise KeyError(name)


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_planar(n: int, seed: int) -> Graph:
    """Random stacked triangulation with random edge deletions: planar by
    construction, no embedding needed."""
    rng = random.Random(seed)
    if n <= 2:
        return families.gen_path(max(n, 1))
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        fi = rng.randrange(len(faces))
        a, b, c = faces.pop(fi)
        edges |= {(min(a, v), max(a, v)), (min(b, v), max(b, v)), (min(c, v), max(c, v))}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    keep = [e for e in sorted(edges) if rng.random() > 0.3]
    return Graph.from_edges(n, keep)


def random_partial_ktree(n: int, k: int, seed: int) -> tuple[Graph, Graph]:
    """A k-tree (the certificate) and a random partial graph of it."""
    rng = random.Random(seed)
    base = min(k + 1, n)
    edges = {(u, v) for u in range(base) for v in range(u + 1, base)}
    cliques = [tuple(range(base))] if n > k + 1 else []
    for v in range(base, n):
        q = list(rng.choice(cliques))
        if len(q) > k:
            q = rng.sample(q, k)
        for u in q:
            edges.add((min(u, v), max(u, v)))
        for drop in range(len(q)):
            cliques.append(tuple(sorted(set(q) - {q[drop]} | {v})))
        cliques.append(tuple(sorted(q)))
    completion = Graph.from_edges(n, sorted(edges))
    keep = [e for e in sorted(edges) if rng.random() > 0.35]
    return Graph.from_edges(n, keep), completion


def random_twodeg(n: int, seed: int) -> Graph:
    """Random construction sequence: every vertex arrives with degree <= 2."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        arity = rng.choice((0, 1, 1, 2, 2, 2))
        for u in rng.sample(range(v), min(arity, v)):
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_dh(n: int, seed: int) -> Graph:
    """Grow by pendants and twins, which preserves distance-heredity."""
    rng = random.Random(seed)
    adj = {0: set()}
    for v in range(1, n):
        anchor = rng.randrange(v)
        op = rng.choice(("pendant", "false_twin", "true_twin"))
        if op == "pendant":
            nbrs = {anchor}
        elif op == "false_twin":
            nbrs = set(adj[anchor])
        else:
            nbrs = set(adj[anchor]) | {anchor}
        adj[v] = set()
        for u in nbrs:
            adj[v].add(u)
            adj[u].add(v)
    return Graph.from_edges(n, [(u, v) for u in adj for v in adj[u] if u < v])


def random_interval_graph(n: int, seed: int) -> Graph:
    """Intersection graph of random integer intervals (interval graphs are
    AT-free)."""
    rng = random.Random(seed)
    spans = []
    for _ in range(n):
        a = rng.randrange(3 * n)
        spans.append((a, a + rng.randrange(1, n + 2)))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    ]
    return Graph.from_edges(n, edges)


def random_cograph(
    n: int, seed: int, flip: float = 0.0
) -> tuple[Graph, ContractionSequence]:
    """A cograph grown by adding twins, and the contraction sequence that
    undoes the growth: merging a vertex into its twin makes no red edge.

    With ``flip`` > 0, each new vertex after the second, with that
    probability, toggles its edge to one random older vertex other than its
    anchor, so undoing it makes a red edge; the sequence then declares the
    smallest width at which it is valid."""
    rng = random.Random(seed)
    adj = {0: set()}
    anchors = []
    for v in range(1, n):
        a = rng.randrange(v)
        nbrs = set(adj[a]) if rng.random() < 0.5 else adj[a] | {a}
        if flip and v > 1 and rng.random() < flip:
            nbrs ^= {rng.choice([u for u in range(v) if u != a])}
        adj[v] = set(nbrs)
        for u in nbrs:
            adj[u].add(v)
        anchors.append(a)
    current = list(range(n))
    merges = []
    for fresh, v in enumerate(range(n - 1, 0, -1), start=n):
        a = anchors[v - 1]
        merges.append((current[a], current[v], fresh))
        current[a] = fresh
    g = Graph.from_edges(n, [(u, v) for u in adj for v in adj[u] if u < v])
    width = 0
    while not validate_contraction_sequence(g, ContractionSequence(tuple(merges), width)):
        width += 1
    return g, ContractionSequence(tuple(merges), width)


def random_xy(g: Graph, seed: int, px=0.2, py=0.2):
    rng = random.Random(seed)
    x = frozenset(v for v in g.vertices() if rng.random() < px)
    y = frozenset(v for v in g.vertices() if rng.random() < py)
    return x, y


def twodeg_wall_graph() -> Graph:
    """2-degenerate fixture that forces the pack step with two second-layer
    neighbors per third-layer vertex: a triangle of cores joined through
    anchored joints plus two hubs, with pendant spurs seeding X."""
    edges = [
        (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4),   # cores to hubs
        (5, 0), (5, 1), (6, 1), (6, 2), (7, 2), (7, 0),   # joints between cores
        (8, 5), (9, 6), (10, 7),                          # anchors
        (11, 8), (12, 9), (13, 10),                       # spurs
    ]
    return Graph.from_edges(14, edges)


def twodeg_wall_graph_m3() -> Graph:
    """Wall variant with three joints per core (joint links form a K4), so
    the pack step must wire three partners through two gadget vertices."""
    cores = [0, 1, 2, 3]
    hubs = [4, 5]
    edges = [(c, h) for c in cores for h in hubs]
    pairs = [(a, b) for i, a in enumerate(cores) for b in cores[i + 1 :]]
    anchor0 = 6 + len(pairs)
    spur0 = anchor0 + len(pairs)
    for i, (a, b) in enumerate(pairs):
        z = 6 + i
        edges += [(z, a), (z, b), (anchor0 + i, z), (spur0 + i, anchor0 + i)]
    return Graph.from_edges(spur0 + len(pairs), edges)


@pytest.fixture(scope="session")
def petersen() -> Graph:
    return families.gen_petersen()
