"""Non-recursive certified constructions: dominating-pair paths, convex
interval sweeps, unit-disk coverings, and the max-degree fallback."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from math import floor, isqrt, lcm

from .engine import EngineError, WitnessPair, certify
from .graph import (
    Graph,
    GraphError,
    OversizeError,
    ball2,
    bits,
    closed_neighborhood,
    distances_from,
    masks_connected,
    nonneighbour_components,
    vertex_ids,
)


class NotFoundError(EngineError):
    """No dominating pair: the input is disconnected or not AT-free."""


class EncodingInvalid(EngineError):
    pass


# ---------------------------------------------------------------------------
# Greedy packings
# ---------------------------------------------------------------------------


def _extend_packing(ball, order, p: set[int]) -> set[int]:
    """Greedy packing: add, in ``order``, each vertex at distance >= 3 from
    every member so far; ``ball(v)`` is v's radius-2 ball (``ball2``), which
    is read and never changed.  ``p`` must already be a packing; it is
    extended in place and returned."""
    blocked: set[int] = set()
    for u in p:
        blocked |= ball(u)
    for v in order:
        if v not in blocked:
            p.add(v)
            blocked |= ball(v)
    return p


# ---------------------------------------------------------------------------
# AT-free graphs: dominating pair + shortest path
# ---------------------------------------------------------------------------


def find_dominating_pair(g: Graph):
    """First pair (by id order) whose every connecting path dominates.

    (u, v) is such a pair iff no z has u and v both outside N[z] and in one
    component of G - N[z].  The components of each G - N[z] are found once,
    as vertex masks; ``together[u]`` collects every component u lies in, so
    (u, v) is a dominating pair iff v is not in it.  Any valid pair serves
    the construction.
    """
    if g.n == 0 or not masks_connected(g.masks):
        raise NotFoundError("dominating pair requires a connected nonempty graph")
    if g.n == 1:
        return (0, 0)
    full = (1 << g.n) - 1
    together = [0] * g.n
    for _, comp in nonneighbour_components(g.masks):
        for u in bits(comp):
            together[u] |= comp
    for u in g.vertices():
        free = full & ~together[u] & ~((2 << u) - 1)
        if free:
            return (u, (free & -free).bit_length() - 1)
    raise NotFoundError("no dominating pair (input not AT-free?)")


def _shortest_path(g: Graph, u: int, v: int) -> list[int]:
    # BFS parents with minimum-id tie-breaking for a deterministic path.
    dist = distances_from(g, u)
    path = [v]
    cur = v
    while cur != u:
        cur = min(w for w in g.adj[cur] if dist.get(w, -1) == dist[cur] - 1)
        path.append(cur)
    path.reverse()
    return path


def construct_atfree(g: Graph) -> WitnessPair:
    """D = a shortest path between a dominating pair, P = every third vertex.

    |D| <= 3|P| + 2; a degenerate two-vertex path still packs one vertex.
    """
    u, v = find_dominating_pair(g)
    path = _shortest_path(g, u, v)
    d = set(path)
    k = len(path) // 3
    p = {path[3 * i] for i in range(k)} if k >= 1 else {path[0]}
    return certify(g, d, p, "at-free", 3)


# ---------------------------------------------------------------------------
# Convex bipartite graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexEncoding:
    """One side ordered so that every opposite vertex sees an interval.

    x_order is the ordering of the interval-side vertex ids; y_neighbors maps
    each other-side vertex to its neighbor list.
    """

    x_order: tuple[int, ...]
    y_neighbors: dict[int, tuple[int, ...]]

    def to_json(self) -> str:
        return json.dumps(
            {
                "x_order": list(self.x_order),
                "y_neighbors": {str(y): sorted(ns) for y, ns in sorted(self.y_neighbors.items())},
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(s: str) -> "ConvexEncoding":
        try:
            doc = json.loads(s)
            return ConvexEncoding(
                vertex_ids(doc["x_order"]),
                {int(y): vertex_ids(ns) for y, ns in doc["y_neighbors"].items()},
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad convex encoding JSON: {exc}") from exc

    @cached_property
    def positions(self) -> dict[int, int]:
        """Index of each interval-side vertex in ``x_order``."""
        return {x: i for i, x in enumerate(self.x_order)}


def _check_encoding(g: Graph, enc: ConvexEncoding) -> dict[int, tuple[int, int]]:
    """Each right vertex's interval (lo, hi) of positions in ``x_order``, once
    the encoding is known to be exactly the graph with no isolated vertex:
    the sides split the vertices, and each right vertex lists all its
    neighbours, each once, on the left side at consecutive positions.

    Two vertices then lie within distance 2 iff two intervals overlap, a
    point lies in an interval, or two points share an interval, so radius-2
    balls of the graph decide packings."""
    pos = enc.positions
    ys = enc.y_neighbors
    not_convex = EncodingInvalid("encoding does not match the graph or is not convex")
    if (
        len(pos) != len(enc.x_order)
        or not pos.keys().isdisjoint(ys)
        or pos.keys() | ys.keys() != set(g.vertices())
        or sum(map(len, ys.values())) != g.edge_count  # no edge inside the left side
    ):
        raise not_convex
    intervals = {}
    for y, ns in ys.items():
        nb = g.adj[y]
        if len(ns) != len(nb) or nb != set(ns) or not nb <= pos.keys():
            raise not_convex
        if ns:
            ps = [pos[x] for x in ns]
            intervals[y] = lo, hi = min(ps), max(ps)
            if hi - lo + 1 != len(ns):
                raise not_convex
    if any(not g.adj[v] for v in g.vertices()):
        raise EncodingInvalid("convex construction requires no isolated vertices")
    return intervals


def construct_convex(g: Graph, enc: ConvexEncoding) -> WitnessPair:
    """Interval sweep: maximal packing with short intervals, endpoints and
    extremal intervals as the dominating complement; |D| <= 3|P|."""
    intervals = _check_encoding(g, enc)
    pos = enc.positions
    # The swaps test and re-extend the same few balls many times over, so
    # each vertex's ball is built once, on first use.
    ball = cache(partial(ball2, g))
    p = _extend_packing(ball, g.vertices(), set())
    # Improvement loop: swap a packed interval for a strictly shorter one,
    # re-extend, repeat to a fixed point.  No p repeats: the new p contains
    # rest | {y2}, which is as large as the old p, so either |p| grows or p
    # is rest | {y2}, whose intervals are narrower in total; the pair
    # (|p|, -total width) rises strictly at every swap.  p is maximal, so
    # the ball of each y2 outside p meets p; it misses rest only if it holds
    # y, that is, only if y2 lies in the ball of y.  Scanning that ball in id
    # order finds the y2 a scan of every interval would.
    for _ in range(1 + len(intervals) * (len(enc.x_order) + 1)):
        swapped = False
        for y in sorted(v for v in p if v in intervals):
            lo, hi = intervals[y]
            width = hi - lo
            rest = p - {y}
            for y2 in sorted(ball(y)):
                if y2 in p or y2 not in intervals:
                    continue
                lo2, hi2 = intervals[y2]
                if hi2 - lo2 >= width:
                    continue
                if ball(y2).isdisjoint(rest):
                    p = _extend_packing(ball, g.vertices(), rest | {y2})
                    swapped = True
                    break
            if swapped:
                break
        if not swapped:
            break

    d = set(p)
    for y in sorted(v for v in p if v in intervals):
        lo, hi = intervals[y]
        d.add(enc.x_order[lo])
        d.add(enc.x_order[hi])
    for x in sorted(v for v in p if v in pos):
        q = pos[x]
        containing = [y for y, (lo, hi) in intervals.items() if lo <= q <= hi]
        if containing:
            d.add(min(containing, key=lambda y: (intervals[y][0], y)))
            d.add(max(containing, key=lambda y: (intervals[y][1], -y)))

    # The encoding matches the graph, so the two covering properties (every
    # free point lies in an interval of D, every interval outside D holds a
    # point of D) are plain domination, which certify checks.
    return certify(g, d, p, "convex", 3)


# ---------------------------------------------------------------------------
# Unit-disk graphs
# ---------------------------------------------------------------------------


# Distances are decided exactly, on integers, so nothing overflows; the cap
# bounds each of the grid's integers by 10**150 times its scale (_DiskGrid).
MAX_COORDINATE = 10**150

# The scale is the lcm of the denominators, which many distinct ones make
# huge: the first 3,000 primes above 1,000 give it 40,399 bits, and every
# distance test then works on integers that long.  One coordinate carries a
# denominator up to 10**8600 (4300 decimals, exponent -4300), so the cap
# still runs every configuration whose coordinates share one denominator.
MAX_SCALE = 10**8600

# Fraction computes 10**exponent, so a short line could ask for billions of
# digits: an exponent reaches no further than int() reads digits (4300).
_MAX_EXPONENT = 4300


def _coordinate(text: str) -> Fraction:
    exponent = text.lower().partition("e")[2]
    digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    if digits.isdecimal() and int(digits) > _MAX_EXPONENT:
        raise ValueError(f"exponent beyond {_MAX_EXPONENT}")
    return Fraction(text)


class _DiskGrid:
    """The centres scaled to integers by u = 2 lcm(denominators), so that
    the covering's constants are integers too, and bucketed in cells of
    side 2 (2u scaled).  Each cell lists its indices in increasing order."""

    def __init__(self, centers):
        scale = 1
        for d in {q.denominator for c in centers for q in c}:
            scale = lcm(scale, d)
            if scale > MAX_SCALE:
                raise OversizeError("coordinate denominators have a common multiple above 10^8600")
        self.u = u = 2 * scale
        self.pts = [(x.numerator * (u // x.denominator), y.numerator * (u // y.denominator))
                    for x, y in centers]
        self.cells: dict[tuple[int, int], list[int]] = {}
        for i, (x, y) in enumerate(self.pts):
            self.cells.setdefault((x // (2 * u), y // (2 * u)), []).append(i)

    def lookups(self, pairs) -> list[tuple[int, int, int, int]]:
        """Per lattice pair (a, b), the integers ``first_within`` reads: t,
        floor(sqrt(3) s), 2s and 3 s**2 - u**2."""
        u = self.u
        out = []
        for a, b in pairs:
            s, t = (2 * a + b) * u // 2, 3 * b * u // 2
            root = isqrt(3 * s * s)
            out.append((t, root if s >= 0 else -root - 1, 2 * s, 3 * s * s - u * u))
        return out

    def first_within(self, x: int, y: int, lookup) -> int | None:
        """The smallest index whose centre lies within 1 of the scaled point
        (x, y) + p(a, b), exactly; ``lookup`` is the pair's ``lookups`` entry.

        Scaled, p(a, b) = (sqrt(3) s, t) with s = (2a + b) u / 2 and
        t = 3bu / 2.  For a centre at offset (dx, dy) from (x, y + t), the
        squared distance is u**2 + L - sqrt(3) R, with L = dx**2 + dy**2 +
        3 s**2 - u**2 and R = 2s dx.  L <= sqrt(3) R holds iff R >= 0 and
        (L <= 0 or L**2 <= 3 R**2), or R < 0 and L <= 0 and L**2 >= 3 R**2.
        The centre's cell is the target's or next to it, and the target's
        cell follows from floor(sqrt(3) s), as x is an integer: for s < 0 it
        is -isqrt(3 s**2) - 1, as 3 s**2 is a square only when s = 0.
        """
        t, root, s2, c = lookup
        pts, cells, u = self.pts, self.cells, self.u
        side = 2 * u
        y += t
        cx, cy = (x + root) // side, y // side
        best = None
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for i in cells.get((gx, gy), ()):
                    if best is not None and i > best:
                        break
                    xi, yi = pts[i]
                    dy = yi - y
                    if dy > u or dy < -u:  # farther than 1, and most centres are
                        continue
                    dx = xi - x
                    ell, r = dx * dx + dy * dy + c, s2 * dx
                    # As sqrt(3) < 2, L >= 2R rules out the rest before squaring.
                    if (0 < ell < 2 * r and ell * ell <= 3 * r * r
                            or ell <= 0 and (r >= 0 or ell * ell >= 3 * r * r)):
                        best = i
                        break
        return best


@dataclass(frozen=True)
class DiskConfiguration:
    """Unit-disk centers; disks i and j intersect iff |c_i - c_j| <= 2."""

    centers: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def from_csv(text: str) -> "DiskConfiguration":
        pts = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                xs, ys = line.split(",")
                pt = (_coordinate(xs.strip()), _coordinate(ys.strip()))
                if max(abs(pt[0]), abs(pt[1])) > MAX_COORDINATE:
                    raise ValueError(f"coordinate beyond {MAX_COORDINATE:.0e}")
                pts.append(pt)
            except (ValueError, ZeroDivisionError) as exc:
                raise GraphError(f"disk CSV line {lineno}: {exc}") from exc
        return DiskConfiguration(tuple(pts))

    def to_csv(self) -> str:
        def fmt(q: Fraction) -> str:
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

        return "\n".join(f"{fmt(x)},{fmt(y)}" for x, y in self.centers) + ("\n" if self.centers else "")

    @cached_property
    def _grid(self) -> _DiskGrid:
        return _DiskGrid(self.centers)

    def intersection_graph(self) -> Graph:
        # |c_i - c_j| <= 2 puts the two centres in one cell or next to each
        # other.  Each vertex's later neighbours are sorted, so the edges
        # come in the order of the all-pairs loop.
        grid = self._grid
        pts, cells, side = grid.pts, grid.cells, 2 * grid.u
        bound, edges = side * side, []
        for i, (xi, yi) in enumerate(pts):
            cx, cy = xi // side, yi // side
            near = []
            for gx in (cx - 1, cx, cx + 1):
                for gy in (cy - 1, cy, cy + 1):
                    for j in cells.get((gx, gy), ()):
                        if j > i:
                            xj, yj = pts[j]
                            if (xi - xj) ** 2 + (yi - yj) ** 2 <= bound:
                                near.append(j)
            near.sort()
            edges.extend((i, j) for j in near)
        return Graph.from_edges(len(pts), edges)


# The covering lattice: p(a, b) = (sqrt(3) a + (sqrt(3)/2) b, 3b/2) over
# integer pairs (a, b), nearest-neighbour spacing sqrt(3).  |p(a, b)|**2 is
# exactly 3(a**2 + ab + b**2), so every test on it runs on integers.


def _lattice_pairs(radius: float) -> set[tuple[int, int]]:
    """Every pair (a, b) with |p(a, b)| <= radius + 1, exactly.

    a**2 + ab + b**2 >= 3/4 max(a**2, b**2), so both |a| and |b| are at
    most 2/3 (radius + 1), inside the box |a|, |b| <= floor(radius) + 2.
    """
    reach2 = (Fraction(radius) + 1) ** 2
    num, den = reach2.numerator, reach2.denominator
    k = floor(radius) + 2
    return {
        (a, b)
        for a in range(-k, k + 1)
        for b in range(-k, k + 1)
        if 3 * (a * a + a * b + b * b) * den <= num
    }


# The six lattice neighbours of the origin, in angular order.
_NEIGHBOURS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _uy(a: int, b: int) -> tuple[Fraction, Fraction]:
    """p(a, b) with x scaled to u = x / sqrt(3): rational, squared length
    3 u**2 + y**2."""
    return Fraction(2 * a + b, 2), Fraction(3 * b, 2)


def _cell_circumradius_is_one() -> bool:
    """Each vertex of the origin's Voronoi hexagon lies at distance exactly 1
    from the origin and from the two neighbours it separates it from.

    The vertex between consecutive neighbours n1, n2 is the centre
    (n1 + n2) / 3 of the equilateral triangle (0, n1, n2).  Lying on both
    bisectors, these six points are the corners of the hexagon cut out by
    the six half-planes nearer the origin, which contains the cell; so
    every point of the cell lies within 1 of the origin.
    """
    def sq(u, y):
        return 3 * u * u + y * y

    for i, pair in enumerate(_NEIGHBOURS):
        (u1, y1), (u2, y2) = _uy(*pair), _uy(*_NEIGHBOURS[(i + 1) % 6])
        u, y = (u1 + u2) / 3, (y1 + y2) / 3
        if not sq(u, y) == sq(u - u1, y - y1) == sq(u - u2, y - y2) == 1:
            return False
    return True


@cache
def covering_pairs() -> tuple[tuple[int, int], ...]:
    """Every pair (a, b) with |p(a, b)| <= 6, sorted: their unit disks cover
    the radius-5 disk at the origin.  Any q in it lies in the cell of some
    lattice point p; the cell's circumradius is 1, checked here, so
    |q - p| <= 1 and |p| <= 6."""
    if not _cell_circumradius_is_one():
        raise EngineError("lattice covering failed its exact check at radius 5")
    return tuple(sorted(_lattice_pairs(5)))


def covering_constant() -> int:
    """Cardinality of the verified radius-5 covering used by construct_unitdisk."""
    return len(covering_pairs())


def construct_unitdisk(cfg: DiskConfiguration) -> WitnessPair:
    """Greedy maximal packing; each packed disk's double neighborhood is
    dominated by one input disk per covering point.  |D| <= c_cov * |P|."""
    g = cfg.intersection_graph()
    p = _extend_packing(partial(ball2, g), g.vertices(), set())
    grid = cfg._grid
    lookups = grid.lookups(covering_pairs())
    d: set[int] = set()
    for v in sorted(p):
        x, y = grid.pts[v]
        for lookup in lookups:
            best = grid.first_within(x, y, lookup)
            if best is not None:
                d.add(best)
    return certify(g, d, p, "unit-disk", covering_constant())


# ---------------------------------------------------------------------------
# Generic max-degree fallback
# ---------------------------------------------------------------------------


def construct_generic(g: Graph) -> WitnessPair:
    """Greedy maximal packing P and D = N[P]; |D| <= (max degree + 1)|P|."""
    order = sorted(g.vertices(), key=lambda v: (g.degree(v), v))
    p = _extend_packing(partial(ball2, g), order, set())
    d = closed_neighborhood(g, p)
    return certify(g, d, p, "generic", g.max_degree() + 1)
