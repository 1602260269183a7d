"""Named graph families, the AT-free test, and labeled graph enumeration."""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .constructions import MAX_COORDINATE, ConvexEncoding, DiskConfiguration
from .graph import Graph, GraphError, OversizeError, bits, check_max_order, nonneighbour_components


# ---------------------------------------------------------------------------
# Extremal families
# ---------------------------------------------------------------------------


def gen_chained_blocks(i: int) -> Graph:
    """The subcubic chain of i blocks closed by an extra edge {u1, u2}.

    A block is a six-vertex path with two extra long edges; the chain with
    its closing edge is 3-regular on 6i + 2 vertices and achieves
    gamma = 2i + 1 against rho = i.
    """
    if i < 1:
        raise ValueError("need at least one block")
    check_max_order(6 * i + 2)

    def block(base):
        vs = list(range(base, base + 6))
        edges = [(vs[j], vs[j + 1]) for j in range(5)]
        edges += [(vs[0], vs[4]), (vs[1], vs[5])]
        return vs, edges

    edges = []
    blocks = []
    for j in range(i):
        vs, es = block(6 * j)
        blocks.append(vs)
        edges += es
    for j in range(i - 1):
        a, b = blocks[j], blocks[j + 1]
        edges += [(a[0], b[2]), (a[5], b[3])]
    u1, u2 = 6 * i, 6 * i + 1
    edges += [(u1, u2)]
    edges += [(u1, blocks[0][2]), (u2, blocks[0][3])]
    edges += [(u1, blocks[i - 1][0]), (u2, blocks[i - 1][5])]
    return Graph.from_edges(6 * i + 2, edges)


def gen_split(k: int) -> Graph:
    """Split graph with a (2k-1)-clique and one independent vertex per
    k-subset of the clique; gamma = k while rho = 1."""
    if k < 1:
        raise ValueError("k >= 1")
    if k > 5:
        raise OversizeError("split family grows as C(2k-1,k); capped at k=5")
    c = 2 * k - 1
    subsets = list(combinations(range(c), k))
    n = c + len(subsets)
    edges = [(a, b) for a in range(c) for b in range(a + 1, c)]
    for idx, sub in enumerate(subsets):
        v = c + idx
        edges += [(a, v) for a in sub]
    return Graph.from_edges(n, edges)


def gen_threedeg(k: int) -> Graph:
    """3-degenerate family: 2k spine vertices, one joint vertex per spine
    pair, and an apex over all joints; rho <= 2 while gamma >= k."""
    if k < 1:
        raise ValueError("k >= 1")
    if k > 4:
        raise OversizeError("family grows as C(2k,2); capped at k=4")
    a = 2 * k
    pairs = list(combinations(range(a), 2))
    n = a + len(pairs) + 1
    apex = n - 1
    edges = []
    for idx, (x, y) in enumerate(pairs):
        b = a + idx
        edges += [(x, b), (y, b), (b, apex)]
    return Graph.from_edges(n, edges)


def gen_rook(n: int) -> Graph:
    """Cartesian product of two n-cliques."""
    if n < 1:
        raise ValueError("n >= 1")
    check_max_order(n * n)
    if n > 64:
        raise OversizeError("rook family has n^2 (n-1) edges; capped at n=64")
    vid = lambda r, c: r * n + c
    edges = []
    for r in range(n):
        for c1 in range(n):
            for c2 in range(c1 + 1, n):
                edges.append((vid(r, c1), vid(r, c2)))
    for c in range(n):
        for r1 in range(n):
            for r2 in range(r1 + 1, n):
                edges.append((vid(r1, c), vid(r2, c)))
    return Graph.from_edges(n * n, edges)


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need n >= 3")
    check_max_order(n)
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("n >= 1")
    check_max_order(n)
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def gen_petersen() -> Graph:
    edges = [(v, (v + 1) % 5) for v in range(5)]
    edges += [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    edges += [(v, 5 + v) for v in range(5)]
    return Graph.from_edges(10, edges)


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree from a random Pruefer sequence, decoded with
    the current leaves in a heap: each step joins the smallest leaf to the
    next entry, which becomes a leaf once its last entry is used."""
    if n < 1:
        raise ValueError("n >= 1")
    check_max_order(n)
    if n == 1:
        return Graph.from_edges(1)
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    leaves = [u for u in range(n) if deg[u] == 1]
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        deg[leaf] -= 1
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    last = [u for u in range(n) if deg[u] == 1]
    edges.append((last[0], last[1]))
    return Graph.from_edges(n, edges)


def gen_random_unitdisk(n: int, box: float, seed: int) -> DiskConfiguration:
    """n centers uniform in a box x box square, on a hundredth grid.  The box
    may reach no further than the disk CSV reader's coordinate bound."""
    if n < 0 or box < 0:
        raise ValueError("need n >= 0, box >= 0")
    check_max_order(n)
    grid = max(1, int(box * 100))
    if grid > 100 * MAX_COORDINATE:
        raise ValueError(f"box beyond the coordinate bound {MAX_COORDINATE:.0e}")
    rng = random.Random(seed)
    pts = tuple(
        (Fraction(rng.randrange(grid + 1), 100), Fraction(rng.randrange(grid + 1), 100))
        for _ in range(n)
    )
    return DiskConfiguration(pts)


def gen_random_convex(nx: int, ny: int, seed: int) -> ConvexEncoding:
    """Random convex bipartite encoding: each right vertex gets a random
    interval over the left ordering, consecutive by construction.  Left
    positions missed by every interval get one singleton interval each so
    the encoding never carries isolated vertices.  The order is checked
    before anything is drawn, and again with those singletons."""
    if nx < 1 or ny < 0:
        raise ValueError("need nx >= 1, ny >= 0")
    check_max_order(nx + ny)
    rng = random.Random(seed)
    x_order = list(range(nx))
    rng.shuffle(x_order)
    y_neighbors = {}
    covered = set()
    for j in range(ny):
        lo = rng.randrange(nx)
        hi = min(nx - 1, lo + rng.randrange(1 + nx // 2))
        y_neighbors[nx + j] = tuple(x_order[q] for q in range(lo, hi + 1))
        covered.update(range(lo, hi + 1))
    missed = [x_order[q] for q in range(nx) if q not in covered]
    check_max_order(nx + ny + len(missed))
    for nid, x in enumerate(missed, nx + ny):
        y_neighbors[nid] = (x,)
    return ConvexEncoding(tuple(x_order), y_neighbors)


# ---------------------------------------------------------------------------
# AT-free recognition
# ---------------------------------------------------------------------------


def at_free_masks(adj) -> bool:
    """No asteroidal triple in the graph with these open-neighbourhood
    bitmasks: no three vertices each two of which lie in one component of
    G - N[third].  Such a triple is independent, since a vertex of N[z] lies
    in no component of G - N[z].

    ``comp[z][u]`` is the component of G - N[z] holding u (0 for u in N[z]).
    """
    n = len(adj)
    comp = [[0] * n for _ in range(n)]
    for z, c in nonneighbour_components(adj):
        row = comp[z]
        for u in bits(c):
            row[u] = c
    for u in range(n):
        for v in range(u + 1, n):
            # Third vertices w > v, with v and w together off N[u], u and w
            # together off N[v].
            for w in bits(comp[u][v] & comp[v][u] & -(2 << v)):
                if comp[w][u] >> v & 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# Enumeration of labeled graphs and their isomorphism classes
# ---------------------------------------------------------------------------


def _check_labeled_order(n: int) -> None:
    """Refuse orders outside 0..7: an n = 8 code has 28 bits, more than the
    24-bit graph6 word of ``labeled_graph6_tables`` holds, and its high
    table of ``_code_tables`` would have 2^20 entries."""
    if n > 7:
        raise OversizeError("labeled enumeration capped at n = 7")
    if n < 0:
        raise GraphError("vertex count must be non-negative")


def _code_tables(image: list[int]) -> tuple[list[int], list[int]]:
    """Two tables that move bit i of a labelled code to bit ``image[i]`` (an
    injective map): the image of code k is ``lo[k & 255] | hi[k >> 8]``,
    ``lo`` over the code's low byte and ``hi`` over its bits 8 and up
    (128 entries at n = 6, 8,192 at n = 7).

    Each table doubles once per bit: the table of its first b + 1 bits is
    that of its first b bits, then the same entries with the image of bit
    b set."""
    tables = []
    for part in (image[:8], image[8:]):
        table = [0]
        for i in part:
            bit = 1 << i
            table += [entry | bit for entry in table]
        tables.append(table)
    return tables[0], tables[1]


# ``labeled_orbit_ids`` marks a code not yet reached with this id; the
# largest class count it meets is 1,044 (n = 7).
_UNSEEN = 0xFFFF


def labeled_orbit_ids(n: int) -> "array":
    """The isomorphism class of each labelled graph on n vertices: entry k
    is the index of the class of code k (see ``labeled_masks``), classes
    numbered by first appearance, so a class's first graph is its smallest
    code.

    The smallest code k not yet reached starts a class, and its orbit is
    grown one vertex at a time along the chain S_1 < S_2 < ... < S_n, where
    S_{j+1} permutes the vertices 0..j.  The transpositions (i j), i < j,
    with the identity, are a transversal of S_j in S_{j+1}: S_{j+1} is the
    union of the cosets (i j)·S_j and S_j (a stabiliser chain as in Seress,
    "Permutation Group Algorithms", 2003).  So S_{j+1}·k is S_j·k together
    with its images under each (i j), and after the last vertex it is the
    orbit.  The last level's images go straight into the table, duplicates
    and all.  A transposition permutes the edge bits; it is applied to a
    code through the two tables of ``_code_tables``.
    """
    # Imported here, not at start-up: only the scan needs it.
    from array import array

    _check_labeled_order(n)
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    levels = []
    for j in range(1, n):
        level = []
        for i in range(j):
            swap = {i: j, j: i}
            level.append(_code_tables(
                [index[tuple(sorted((swap.get(u, u), swap.get(v, v))))] for u, v in pairs]
            ))
        levels.append(level)
    last = levels.pop() if levels else []
    ids = array("H", [_UNSEEN]) * (1 << len(pairs))
    classes = k = 0
    while True:
        try:
            k = ids.index(_UNSEEN, k)
        except ValueError:
            return ids
        orbit = {k}
        for level in levels:
            grown = set(orbit)
            for lo, hi in level:
                grown.update([lo[c & 255] | hi[c >> 8] for c in orbit])
            orbit = grown
        for c in orbit:
            ids[c] = classes
        for lo, hi in last:
            for c in orbit:
                ids[lo[c & 255] | hi[c >> 8]] = classes
        classes += 1


def labeled_masks(n: int, k: int) -> tuple[int, ...]:
    """The open-neighbourhood bitmasks of labelled graph k on n vertices:
    graph k has edge i of ``combinations(range(n), 2)`` iff bit i of k is
    set."""
    masks = [0] * n
    for i, (u, v) in enumerate(combinations(range(n), 2)):
        if k >> i & 1:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return tuple(masks)


def labeled_graph6_tables(
    n: int, digits: list[str]
) -> tuple[list[int], list[int], list[str], list[str]]:
    """(lo, hi, high, low): the graph6 of labelled graph k on n vertices
    (see ``labeled_masks``), n <= 7, is ``high[w >> 12] + low[w & 4095]``
    with w = ``lo[k & 255] | hi[k >> 8]``, each graph6 digit of value x
    written as ``digits[x]``.

    graph6 writes the code's pairs in column order (0,1), (0,2), (1,2),
    (0,3), ..., six to a digit, first bit highest.  ``lo`` and ``hi`` are
    the ``_code_tables`` that move the code's bits to a 24-bit word holding
    that stream from its top bit down, and each 12-bit half of the word is
    two digits.  ``high`` holds the order digit and the first two, ``low``
    the other two, the four cut to the ``ceil(m / 6)`` that the m pairs
    fill.
    """
    _check_labeled_order(n)
    pairs = list(combinations(range(n), 2))
    position = {pair: p for p, pair in enumerate(sorted(pairs, key=lambda e: (e[1], e[0])))}
    lo, hi = _code_tables([23 - position[pair] for pair in pairs])
    chars = -(-len(pairs) // 6)

    blank = [""] * 64

    def half(first: str, count: int) -> list[str]:
        # Each 12-bit value as ``first`` and the first ``count`` of its two
        # digits.
        return [first + a + b for a in (digits if count > 0 else blank)
                for b in (digits if count > 1 else blank)]

    return lo, hi, half(digits[n], chars), half("", chars - 2)


# ---------------------------------------------------------------------------
# The family table behind `generate` and `list-families`
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A named generator.  ``parameters`` maps each argument of ``generate``,
    in order, to its description and default; a default of None makes the
    parameter required.  Values are read as floats where the default is a
    float and as integers otherwise."""

    generate: Callable
    parameters: dict[str, tuple[str, object]]
    guarantees: str


FAMILIES = {
    "chained-blocks": Family(
        gen_chained_blocks,
        {"i": ("number of blocks, >= 1", None)},
        "max degree 3, connected; gamma = 2i+1, rho = i",
    ),
    "split": Family(gen_split, {"k": ("1..5", None)}, "split graph; gamma = k, rho = 1"),
    "threedeg": Family(gen_threedeg, {"k": ("1..4", None)}, "3-degenerate; rho <= 2, gamma >= k"),
    "rook": Family(
        gen_rook, {"n": ("1..64", None)}, "product of two n-cliques; gamma = n, rho = 1"
    ),
    "cycle": Family(gen_cycle, {"n": (">= 3", None)}, "gamma <= rho + 1"),
    "path": Family(gen_path, {"n": (">= 1", None)}, "tree: gamma = rho"),
    "petersen": Family(gen_petersen, {}, "gamma = 3 = 2*rho + 1"),
    "random-tree": Family(
        gen_random_tree,
        {"n": (">= 1", None), "seed": ("int", 0)},
        "uniform labeled tree; gamma = rho",
    ),
    "random-unitdisk": Family(
        gen_random_unitdisk,
        {"n": (">= 0", None), "box": ("side length", 10.0), "seed": ("int", 0)},
        "unit-disk configuration (CSV output)",
    ),
    "random-convex": Family(
        gen_random_convex,
        {"nx": (">= 1", None), "ny": (">= 0", None), "seed": ("int", 0)},
        "convex bipartite encoding (JSON output)",
    ),
}
