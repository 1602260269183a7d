"""Non-recursive certified constructions: dominating-pair paths, convex
interval sweeps, unit-disk coverings, and the max-degree fallback."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, lcm

from .engine import EngineError, WitnessPair, certify
from .graph import (
    Graph,
    GraphError,
    ball2,
    bits,
    closed_neighborhood,
    distances_from,
    is_connected,
    reach_mask,
)


class NotFoundError(EngineError):
    """No dominating pair: the input is disconnected or not AT-free."""


class EncodingInvalid(EngineError):
    pass


# ---------------------------------------------------------------------------
# Greedy packings
# ---------------------------------------------------------------------------


def _extend_packing(g: Graph, order, p: set[int]) -> set[int]:
    """Greedy packing: add, in ``order``, each vertex at distance >= 3 from
    every member so far.  ``p`` must already be a packing; it is extended in
    place and returned."""
    blocked: set[int] = set()
    for u in p:
        blocked |= ball2(g, u)
    for v in order:
        if v not in blocked:
            p.add(v)
            blocked |= ball2(g, v)
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
    if not is_connected(g) or g.n == 0:
        raise NotFoundError("dominating pair requires a connected nonempty graph")
    if g.n == 1:
        return (0, 0)
    masks = g.masks
    full = (1 << g.n) - 1
    together = [0] * g.n
    for z in g.vertices():
        rest = full & ~(masks[z] | 1 << z)
        while rest:
            comp = reach_mask(masks, rest & -rest, rest)
            rest &= ~comp
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


def _int_ids(xs) -> tuple[int, ...]:
    """A JSON list of vertex ids as a tuple; TypeError unless all are ints."""
    xs = tuple(xs)
    if not all(isinstance(x, int) for x in xs):
        raise TypeError("vertex ids must be integers")
    return xs


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
                _int_ids(doc["x_order"]),
                {int(y): _int_ids(ns) for y, ns in doc["y_neighbors"].items()},
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"bad convex encoding JSON: {exc}") from exc

    def to_graph(self) -> Graph:
        n = len(self.x_order) + len(self.y_neighbors)
        ids = sorted(self.x_order) + sorted(self.y_neighbors)
        if sorted(ids) != list(range(n)):
            raise EncodingInvalid("vertex ids must be dense 0..n-1")
        edges = [(x, y) for y, ns in self.y_neighbors.items() for x in ns]
        return Graph.from_edges(n, edges)

    @cached_property
    def positions(self) -> dict[int, int]:
        """Index of each interval-side vertex in ``x_order``."""
        return {x: i for i, x in enumerate(self.x_order)}

    def interval(self, y: int) -> tuple[int, int] | None:
        ns = self.y_neighbors[y]
        if not ns:
            return None
        pos = self.positions
        ps = sorted(pos[x] for x in ns)
        return ps[0], ps[-1]


def _check_encoding(g: Graph, enc: ConvexEncoding) -> dict[int, tuple[int, int]]:
    """Each right vertex's interval, once the encoding is known to be exactly
    the graph with no isolated vertex.  Two vertices then lie within distance
    2 iff two intervals overlap, a point lies in an interval, or two points
    share an interval, so radius-2 balls of the graph decide packings."""
    from .families import is_convex_order

    if not is_convex_order(g, enc):
        raise EncodingInvalid("encoding does not match the graph or is not convex")
    if any(not g.adj[v] for v in g.vertices()):
        raise EncodingInvalid("convex construction requires no isolated vertices")
    return {y: enc.interval(y) for y in enc.y_neighbors}


def construct_convex(g: Graph, enc: ConvexEncoding) -> WitnessPair:
    """Interval sweep: maximal packing with short intervals, endpoints and
    extremal intervals as the dominating complement; |D| <= 3|P|."""
    intervals = _check_encoding(g, enc)
    pos = enc.positions
    p = _extend_packing(g, g.vertices(), set())
    # Improvement loop: swap a packed interval for a strictly shorter one,
    # re-extend, repeat to a fixed point (guarded against cycling).
    seen = set()
    for _ in range(1 + len(intervals) * (len(enc.x_order) + 1)):
        key = frozenset(p)
        if key in seen:
            break
        seen.add(key)
        swapped = False
        for y in sorted(v for v in p if v in intervals):
            lo, hi = intervals[y]
            width = hi - lo
            rest = p - {y}
            for y2 in sorted(intervals):
                if y2 in p or intervals[y2] is None:
                    continue
                lo2, hi2 = intervals[y2]
                if hi2 - lo2 >= width:
                    continue
                if ball2(g, y2).isdisjoint(rest):
                    p = _extend_packing(g, g.vertices(), rest | {y2})
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
        containing = [y for y, iv in intervals.items() if iv and iv[0] <= q <= iv[1]]
        if containing:
            d.add(min(containing, key=lambda y: (intervals[y][0], y)))
            d.add(max(containing, key=lambda y: (intervals[y][1], -y)))

    # Direct checks of the two covering properties, then the plain checker.
    x_not_d = [pos[x] for x in pos if x not in d]
    covered = set()
    for y in intervals:
        if y in d and intervals[y]:
            lo, hi = intervals[y]
            covered.update(range(lo, hi + 1))
    if any(q not in covered for q in x_not_d):
        raise EngineError("convex property (interval cover of free points) violated")
    d_points = sorted(pos[x] for x in pos if x in d)
    for y, iv in intervals.items():
        if y in d or iv is None:
            continue
        lo, hi = iv
        if not any(lo <= q <= hi for q in d_points):
            raise EngineError("convex property (points hit uncovered intervals) violated")
    return certify(g, d, p, "convex", 3)


# ---------------------------------------------------------------------------
# Unit-disk graphs
# ---------------------------------------------------------------------------


# The cover search squares float differences of centres, which overflows
# once a coordinate passes about 6.7e153.
_MAX_COORDINATE = 10**150


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
                pt = (Fraction(xs.strip()), Fraction(ys.strip()))
                if max(abs(pt[0]), abs(pt[1])) > _MAX_COORDINATE:
                    raise ValueError(f"coordinate beyond {_MAX_COORDINATE:.0e}")
                pts.append(pt)
            except (ValueError, ZeroDivisionError) as exc:
                raise GraphError(f"disk CSV line {lineno}: {exc}") from exc
        return DiskConfiguration(tuple(pts))

    def to_csv(self) -> str:
        def fmt(q: Fraction) -> str:
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

        return "\n".join(f"{fmt(x)},{fmt(y)}" for x, y in self.centers) + ("\n" if self.centers else "")

    def intersection_graph(self) -> Graph:
        # Exact test on integers: every centre scaled by the lcm of the
        # denominators, so |c_i - c_j| <= 2 becomes a bound of 4 * den**2.
        n = len(self.centers)
        den = lcm(*(q.denominator for c in self.centers for q in c))
        pts = [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
               for x, y in self.centers]
        bound = 4 * den * den
        edges = []
        for i in range(n):
            xi, yi = pts[i]
            for j in range(i + 1, n):
                xj, yj = pts[j]
                if (xi - xj) ** 2 + (yi - yj) ** 2 <= bound:
                    edges.append((i, j))
        return Graph.from_edges(n, edges)


_SQRT3 = 1.7320508075688772


def covering_points(radius: float) -> list[tuple[float, float]]:
    """Centers of unit disks covering the radius-`radius` disk at the origin.

    Hexagonal lattice with nearest-neighbor spacing sqrt(3): each Voronoi
    cell has circumradius 1, so the cells of the returned points cover the
    target disk.  Points whose cell cannot meet the target are dropped.
    """
    pts = []
    reach = radius + 1.0
    span = int(reach / _SQRT3) + 2
    for a in range(-span, span + 1):
        for b in range(-2 * span, 2 * span + 1):
            x = _SQRT3 * a + (_SQRT3 / 2.0) * b
            y = 1.5 * b
            if x * x + y * y <= reach * reach + 1e-12:
                pts.append((x, y))
    pts.sort()
    return pts


def verify_covering(points, radius: float, step: float = 0.01, tol: float = 1e-9) -> bool:
    """Dense-grid check that every sampled point of the target disk lies
    within distance 1 of some covering point (squared-distance tolerance)."""
    import numpy as np

    if radius == 0:
        px = np.array([p[0] for p in points])
        py = np.array([p[1] for p in points])
        return bool(np.min(px * px + py * py) <= 1.0 + tol)
    xs = np.arange(-radius, radius + step / 2, step)
    pts = np.array(points)
    for x in xs:
        span = (radius * radius - x * x)
        if span < 0:
            continue
        h = span ** 0.5
        ys = np.arange(-h, h + step / 2, step)
        dx = x - pts[:, 0]
        d2 = dx[None, :] * dx[None, :] + (ys[:, None] - pts[None, :, 1]) ** 2
        if not np.all(d2.min(axis=1) <= 1.0 + tol):
            return False
    return True


_VERIFIED_COVERINGS: dict[float, list[tuple[float, float]]] = {}


def _covering_for(radius: float) -> list[tuple[float, float]]:
    if radius not in _VERIFIED_COVERINGS:
        pts = covering_points(radius)
        if not verify_covering(pts, radius):
            raise EngineError(f"lattice covering failed grid verification at radius {radius}")
        _VERIFIED_COVERINGS[radius] = pts
    return _VERIFIED_COVERINGS[radius]


def covering_constant() -> int:
    """Cardinality of the verified radius-5 covering used by construct_unitdisk."""
    return len(_covering_for(5.0))


class _CentreGrid:
    """Float disk centres bucketed by square cells of side 2.

    ``first_within`` answers the cover lookup: the smallest index whose
    centre lies within 1 (squared, with 1e-12 slack) of a target.  Such a
    centre is within about 1 of the target, and halving and floor are exact
    in floats, so its cell (floor(x/2), floor(y/2)) is the target's cell or
    one of the eight around it.  Cells list their indices in increasing
    order.
    """

    def __init__(self, centers):
        self.centers = centers
        self.cells: dict[tuple[int, int], list[int]] = {}
        for i, (x, y) in enumerate(centers):
            self.cells.setdefault((floor(x / 2), floor(y / 2)), []).append(i)

    def first_within(self, tx: float, ty: float) -> int | None:
        centers, cells = self.centers, self.cells
        cx, cy = floor(tx / 2), floor(ty / 2)
        best = None
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for i in cells.get((gx, gy), ()):
                    if best is not None and i > best:
                        break
                    xi, yi = centers[i]
                    if (xi - tx) ** 2 + (yi - ty) ** 2 <= 1.0 + 1e-12:
                        best = i
                        break
        return best


def construct_unitdisk(cfg: DiskConfiguration) -> WitnessPair:
    """Greedy maximal packing; each packed disk's double neighborhood is
    dominated by one input disk per covering point.  |D| <= c_cov * |P|."""
    g = cfg.intersection_graph()
    p = _extend_packing(g, g.vertices(), set())
    cover = _covering_for(5.0)
    centers = [(float(x), float(y)) for x, y in cfg.centers]
    grid = _CentreGrid(centers)
    d: set[int] = set()
    for v in sorted(p):
        cx, cy = centers[v]
        for px, py in cover:
            best = grid.first_within(cx + px, cy + py)
            if best is not None:
                d.add(best)
    return certify(g, d, p, "unit-disk", covering_constant())


# ---------------------------------------------------------------------------
# Generic max-degree fallback
# ---------------------------------------------------------------------------


def construct_generic(g: Graph) -> WitnessPair:
    """Greedy maximal packing P and D = N[P]; |D| <= (max degree + 1)|P|."""
    p = _extend_packing(g, sorted(g.vertices(), key=lambda v: (g.degree(v), v)), set())
    d = set(closed_neighborhood(g, p))
    return certify(g, d, p, "generic", g.max_degree() + 1)
