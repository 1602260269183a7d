"""Seeded input corpora for the three workloads.

Everything here is plain Python and imports nothing from dompack: the
generators are modelled on tests/conftest.py and on the dompack family
generators but kept as separate copies, so that a change to the program can
never change what the benchmark feeds it.  The program only ever sees the
files written by ``build_corpus``.

A request is a dict with ``argv`` (the CLI arguments, without the program
name) plus what the output checks need.  ``fixed`` marks requests whose input
does not depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from itertools import combinations

WORKLOADS = ("scan-enum6", "solve-hard", "construct-scale")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def graph6(n: int, edges) -> str:
    """graph6 encoding: order byte(s), then the upper triangle column by
    column, six bits per byte, offset 63."""
    adj = set()
    for u, v in edges:
        adj.add((min(u, v), max(u, v)))
    bits = [1 if (u, v) in adj else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    body = []
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = (word << 1) | b
        body.append(chr(word + 63))
    return head + "".join(body)


def edge_json(n: int, edges, red_edges=()) -> str:
    return json.dumps(
        {"n": n, "edges": sorted(edges), "red_edges": sorted(red_edges)},
        separators=(",", ":"),
    )


class _Writer:
    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def put(self, suffix: str, text: str) -> str:
        self.count += 1
        path = os.path.join(self.root, f"in{self.count:04d}{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def graph(self, n: int, edges, red_edges=()) -> str:
        if red_edges:
            return self.put(".json", edge_json(n, edges, red_edges))
        return self.put(".g6", graph6(n, edges) + "\n")


# ---------------------------------------------------------------------------
# Families with known gamma/rho
# ---------------------------------------------------------------------------


def chained_blocks(i: int):
    """3-regular chain of i six-vertex blocks on 6i+2 vertices:
    gamma = 2i+1, rho = i."""
    edges = []
    blocks = []
    for j in range(i):
        vs = list(range(6 * j, 6 * j + 6))
        blocks.append(vs)
        edges += [(vs[t], vs[t + 1]) for t in range(5)]
        edges += [(vs[0], vs[4]), (vs[1], vs[5])]
    for j in range(i - 1):
        a, b = blocks[j], blocks[j + 1]
        edges += [(a[0], b[2]), (a[5], b[3])]
    u1, u2 = 6 * i, 6 * i + 1
    edges += [(u1, u2), (u1, blocks[0][2]), (u2, blocks[0][3])]
    edges += [(u1, blocks[-1][0]), (u2, blocks[-1][5])]
    return 6 * i + 2, edges


def rook(k: int):
    """K_k x K_k: gamma = k, rho = 1."""
    vid = lambda r, c: r * k + c
    edges = [(vid(r, a), vid(r, b)) for r in range(k) for a, b in combinations(range(k), 2)]
    edges += [(vid(a, c), vid(b, c)) for c in range(k) for a, b in combinations(range(k), 2)]
    return k * k, edges


def petersen():
    """gamma = 3, rho = 1."""
    edges = [(v, (v + 1) % 5) for v in range(5)]
    edges += [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    edges += [(v, 5 + v) for v in range(5)]
    return 10, edges


def grid(a: int, b: int):
    edges = []
    for r in range(a):
        for c in range(b):
            v = r * b + c
            if c + 1 < b:
                edges.append((v, v + 1))
            if r + 1 < a:
                edges.append((v, v + b))
    return a * b, edges


def random_tree(n: int, rng: random.Random):
    """Uniform labelled tree from a Pruefer sequence (gamma = rho on trees)."""
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
    return n, edges


def random_graph(n: int, p: float, rng: random.Random):
    return n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]


# ---------------------------------------------------------------------------
# In-class generators for the construct drivers
# ---------------------------------------------------------------------------


def random_planar(n: int, rng: random.Random):
    """Stacked triangulation with random edge deletions: planar by
    construction."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return n, [e for e in sorted(edges) if rng.random() > 0.3]


def random_partial_ktree(n: int, k: int, rng: random.Random):
    """A random partial k-tree and the k-tree it came from (the chordal
    completion certificate)."""
    base = k + 1
    edges = {(u, v) for u, v in combinations(range(base), 2)}
    cliques = [tuple(range(base))]
    for v in range(base, n):
        q = list(rng.choice(cliques))
        if len(q) > k:
            q = rng.sample(q, k)
        for u in q:
            edges.add((min(u, v), max(u, v)))
        for drop in range(len(q)):
            cliques.append(tuple(sorted(set(q) - {q[drop]} | {v})))
        cliques.append(tuple(sorted(q)))
    completion = sorted(edges)
    return n, [e for e in completion if rng.random() > 0.35], completion


def random_twodeg(n: int, rng: random.Random):
    """Every vertex arrives with at most two earlier neighbours."""
    edges = []
    for v in range(1, n):
        arity = rng.choice((0, 1, 1, 2, 2, 2))
        edges += [(u, v) for u in rng.sample(range(v), min(arity, v))]
    return n, edges


def random_dh(n: int, rng: random.Random):
    """Grown by pendants and twins, which keeps it distance-hereditary."""
    adj = {0: set()}
    for v in range(1, n):
        anchor = rng.randrange(v)
        op = rng.choice(("pendant", "false_twin", "true_twin"))
        if op == "pendant":
            nbrs = {anchor}
        elif op == "false_twin":
            nbrs = set(adj[anchor])
        else:
            nbrs = adj[anchor] | {anchor}
        adj[v] = set(nbrs)
        for u in nbrs:
            adj[u].add(v)
    return n, [(u, v) for u in adj for v in adj[u] if u < v]


def random_interval(n: int, rng: random.Random):
    """Connected intersection graph of random integer intervals, in random
    vertex order (interval graphs are AT-free)."""
    starts = sorted(rng.randrange(3 * n) for _ in range(n))
    spans = []
    for i, a in enumerate(starts):
        # Reaching the next start keeps the graph connected, which the
        # dominating-pair construction requires.
        reach = starts[i + 1] if i + 1 < n else a
        spans.append((a, max(reach, a + rng.randrange(1, n // 4 + 2))))
    rng.shuffle(spans)
    edges = [
        (i, j)
        for i, j in combinations(range(n), 2)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    ]
    return n, edges


def random_cograph(n: int, rng: random.Random):
    """A cograph grown by adding twins, with the contraction sequence that
    undoes the growth: merging a vertex into its twin creates no red edge,
    so the sequence has width 0."""
    adj = {0: set()}
    anchors = []
    for v in range(1, n):
        a = rng.randrange(v)
        nbrs = set(adj[a]) if rng.random() < 0.5 else adj[a] | {a}
        adj[v] = set(nbrs)
        for u in nbrs:
            adj[u].add(v)
        anchors.append(a)
    current = list(range(n))
    merges = []
    fresh = n
    for v in range(n - 1, 0, -1):
        a = anchors[v - 1]
        merges.append((current[a], current[v], fresh))
        current[a] = fresh
        fresh += 1
    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    seq = json.dumps({"width": 0, "merges": [list(m) for m in merges]}, separators=(",", ":"))
    return n, edges, seq


def random_convex(nx: int, ny: int, rng: random.Random):
    """Convex bipartite graph: every right vertex sees an interval of the
    shuffled left order; uncovered left positions get a singleton each."""
    x_order = list(range(nx))
    rng.shuffle(x_order)
    y_neighbors = {}
    covered = set()
    for j in range(ny):
        lo = rng.randrange(nx)
        hi = min(nx - 1, lo + rng.randrange(1 + nx // 8))
        y_neighbors[nx + j] = [x_order[q] for q in range(lo, hi + 1)]
        covered.update(range(lo, hi + 1))
    nid = nx + ny
    for q in range(nx):
        if q not in covered:
            y_neighbors[nid] = [x_order[q]]
            nid += 1
    edges = [(x, y) for y, ns in y_neighbors.items() for x in ns]
    enc = json.dumps(
        {"x_order": x_order, "y_neighbors": {str(y): sorted(ns) for y, ns in y_neighbors.items()}},
        separators=(",", ":"),
    )
    return nid, edges, enc


def random_unitdisk(n: int, rng: random.Random):
    """n disk centres on a hundredth grid in a square sized for an average
    degree of about six (disks meet when centres are within 2)."""
    grid_n = int(150 * math.sqrt(n))
    return "".join(
        f"{rng.randrange(grid_n + 1) / 100:.2f},{rng.randrange(grid_n + 1) / 100:.2f}\n"
        for _ in range(n)
    )


# ---------------------------------------------------------------------------
# Workload corpora
# ---------------------------------------------------------------------------


def _solve_pair(w: _Writer, out: list, family: str, n: int, edges, *, red=(),
                mode="plain", x=(), y=(), expect=None, equal=False, fixed=False):
    """One instance, asked for both gamma and rho so gamma >= rho (and
    gamma = rho where ``equal``) can be checked per instance."""
    path = w.graph(n, edges, red)
    for variant in ("gamma", "rho"):
        argv = ["solve", path, "--variant", variant, "--mode", mode]
        if x:
            argv += ["--x", ",".join(map(str, sorted(x)))]
        if y:
            argv += ["--y", ",".join(map(str, sorted(y)))]
        out.append({
            "argv": argv, "graph": path, "family": family, "n": n,
            "variant": variant, "mode": mode, "x": sorted(x), "y": sorted(y),
            "expect": None if expect is None else expect[variant],
            "equal": equal, "instance": len(out) // 2, "fixed": fixed,
        })


def _pick(rng, n, share):
    return sorted(v for v in range(n) if rng.random() < share)


def solve_corpus(w: _Writer, seed: int) -> list:
    """158 requests in three cost bands, measured with the pure-Python
    kernel: a fixed tail of about ten requests over 50 ms (block chains,
    rook, grids, 64-vertex 2-degenerate graphs), a fixed plateau of about a
    dozen at 15-30 ms, and a seeded light body under 10 ms (trees, small
    2-degenerate graphs, random graphs with X/Y in every mode).  p90 then
    falls inside the plateau whatever the seed, and p50 inside the body.
    Block chains stop at i=4: i=5 is a single request of about 2.5 s, and
    wall_s would then hang on the host's speed during that one request."""
    out: list = []
    for i in range(1, 5):
        n, e = chained_blocks(i)
        _solve_pair(w, out, f"blocks{i}", n, e, expect={"gamma": 2 * i + 1, "rho": i}, fixed=True)
    for k in range(3, 7):
        n, e = rook(k)
        _solve_pair(w, out, f"rook{k}", n, e, expect={"gamma": k, "rho": 1}, fixed=True)
    n, e = rook(5)
    _solve_pair(w, out, "rook5", n, e, mode="total", fixed=True)
    n, e = petersen()
    _solve_pair(w, out, "petersen", n, e, expect={"gamma": 3, "rho": 1}, fixed=True)
    _solve_pair(w, out, "petersen", n, e, mode="total", fixed=True)
    _solve_pair(w, out, "petersen", n, e[5:], red=e[:5], mode="black", fixed=True)
    for a, b in ((5, 8), (5, 9), (7, 8), (8, 8)):
        n, e = grid(a, b)
        _solve_pair(w, out, f"grid{a}x{b}", n, e, fixed=True)
    for n, s in ((64, 0), (64, 1), (64, 2), (64, 3), (64, 4), (64, 9), (64, 15), (56, 2)):
        n, e = random_twodeg(n, random.Random(s))
        _solve_pair(w, out, f"twodeg{n}", n, e, fixed=True)

    rng = random.Random(seed)
    for _ in range(20):
        n, e = random_tree(rng.randrange(10, 41), rng)
        _solve_pair(w, out, "tree", n, e, equal=True)
    for _ in range(12):
        n, e = random_twodeg(rng.randrange(16, 41), rng)
        _solve_pair(w, out, "twodeg", n, e)
    for _ in range(8):
        n, e = grid(rng.randrange(3, 6), rng.randrange(3, 7))
        _solve_pair(w, out, "grid", n, e, x=_pick(rng, n, 0.1), y=_pick(rng, n, 0.15))
    for mode in ("plain", "total") * 5:
        n, e = random_graph(rng.randrange(10, 21), 0.25, rng)
        _solve_pair(w, out, "gnp", n, e, mode=mode, x=_pick(rng, n, 0.15), y=_pick(rng, n, 0.15))
    for _ in range(5):
        n, e = random_graph(rng.randrange(10, 19), 0.3, rng)
        red = [f for f in e if rng.random() < 0.3]
        black = [f for f in e if f not in red]
        _solve_pair(w, out, "gnp-black", n, black, red=red, mode="black", y=_pick(rng, n, 0.15))
    return out


# Largest size per class; every class also runs at 1/2, 1/4 and 1/8 of it.
# No size is 60: a graph6 file of order 60 starts with "{", and the CLI
# reads such a file as edge JSON and rejects it.  Convex inputs, whose order
# is random, are written as edge JSON for the same reason.
CONSTRUCT_TOP_N = {
    "planar": 448,
    "generic": 416,
    "treewidth": 256,
    "twodeg": 448,
    "dh": 448,
    "twinwidth": 96,
    "atfree": 56,
    "convex": 320,
    "unitdisk": 104,
}
CONSTRUCT_SEEDS_PER_SIZE = 3


def construct_corpus(w: _Writer, seed: int) -> list:
    """Every class at four sizes a factor of 8 apart, three graphs per
    size; the largest graphs take most of the time."""
    rng = random.Random(seed)
    out = []
    for cls, top in CONSTRUCT_TOP_N.items():
        for div in (8, 4, 2, 1):
            for _ in range(CONSTRUCT_SEEDS_PER_SIZE):
                n = top // div
                cert = None
                if cls in ("planar", "generic"):
                    g = w.graph(*random_planar(n, rng))
                elif cls == "treewidth":
                    n, e, completion = random_partial_ktree(n, 3, rng)
                    g = w.graph(n, e)
                    cert = w.graph(n, completion)
                elif cls == "twodeg":
                    g = w.graph(*random_twodeg(n, rng))
                elif cls == "dh":
                    g = w.graph(*random_dh(n, rng))
                elif cls == "twinwidth":
                    n, e, seq = random_cograph(n, rng)
                    g = w.graph(n, e)
                    cert = w.put(".json", seq)
                elif cls == "atfree":
                    g = w.graph(*random_interval(n, rng))
                elif cls == "convex":
                    n, e, enc = random_convex(n // 2, n // 2, rng)
                    g = w.put(".json", edge_json(n, e))
                    cert = w.put(".json", enc)
                else:  # unitdisk: the CSV is both the input and the graph
                    g = w.put(".csv", random_unitdisk(n, rng))
                argv = ["construct", g, "--class", cls]
                if cert:
                    argv += ["--certificate", cert]
                out.append({"argv": argv, "cls": cls, "graph": g, "n": n, "top": div == 1})
    return out


def scan_corpus(_w: _Writer, _seed: int) -> list:
    # The enumeration is built into the program; the seed only picks which
    # records the checks compare against brute force.
    return [{"argv": ["scan", "--enumerate-n", "6", "--check", "duality", "--jobs", "1"]}]


def build_corpus(workload: str, seed: int, root: str) -> list:
    w = _Writer(root)
    build = {"scan-enum6": scan_corpus, "solve-hard": solve_corpus,
             "construct-scale": construct_corpus}[workload]
    return build(w, seed)
