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
                if y2 in p:
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


# The cover search squares float differences of centres, which overflows
# once a coordinate passes about 6.7e153.
MAX_COORDINATE = 10**150

# Fraction computes 10**exponent, so a short line could ask for billions of
# digits: an exponent reaches no further than int() reads digits (4300).
_MAX_EXPONENT = 4300


def _coordinate(text: str) -> Fraction:
    exponent = text.lower().partition("e")[2]
    digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    if digits.isdecimal() and int(digits) > _MAX_EXPONENT:
        raise ValueError(f"exponent beyond {_MAX_EXPONENT}")
    return Fraction(text)


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

    def intersection_graph(self) -> Graph:
        # Exact test on integers: every centre scaled by the lcm of the
        # denominators, so |c_i - c_j| <= 2 becomes a bound of 4 * den**2.
        # Centres are bucketed in square cells of side 2 (2 * den scaled):
        # two centres within 2 differ by at most one side in each coordinate,
        # so their cells are equal or adjacent.  Cells list their indices in
        # increasing order, and each vertex's later neighbours are sorted, so
        # the edges come out in the order of the all-pairs loop.
        n = len(self.centers)
        den = lcm(*(q.denominator for c in self.centers for q in c))
        pts = [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
               for x, y in self.centers]
        side = 2 * den
        bound = side * side
        keys = [(x // side, y // side) for x, y in pts]
        cells: dict[tuple[int, int], list[int]] = {}
        for i, key in enumerate(keys):
            cells.setdefault(key, []).append(i)
        edges = []
        for i, (xi, yi) in enumerate(pts):
            cx, cy = keys[i]
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
        return Graph.from_edges(n, edges)


# The covering lattice: p(a, b) = (sqrt(3) a + (sqrt(3)/2) b, 3b/2) over
# integer pairs (a, b), nearest-neighbour spacing sqrt(3).  |p(a, b)|**2 is
# exactly 3(a**2 + ab + b**2), so membership tests run on integers; only the
# returned centres are floats.
_SQRT3 = 1.7320508075688772


def _lattice_point(a: int, b: int) -> tuple[float, float]:
    return (_SQRT3 * a + (_SQRT3 / 2.0) * b, 1.5 * b)


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


def covering_points(radius: float) -> list[tuple[float, float]]:
    """Centers of unit disks covering the radius-`radius` disk at the origin.

    The lattice points within radius + 1 of the origin, sorted: each
    Voronoi cell has circumradius 1, so the cells of the returned points
    cover the target disk (see ``check_covering``).
    """
    return sorted(_lattice_point(a, b) for a, b in _lattice_pairs(radius))


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


def _lattice_pair(x: float, y: float) -> tuple[int, int] | None:
    """The pair whose float image is exactly (x, y), or None."""
    b = round(y / 1.5)
    a = round((x - (_SQRT3 / 2.0) * b) / _SQRT3)
    return (a, b) if _lattice_point(a, b) == (x, y) else None


def check_covering(points, radius: float) -> bool:
    """Exact certificate that the unit disks at ``points`` cover the disk of
    radius ``radius`` at the origin.

    ``points`` must be the float images of distinct lattice pairs, exactly
    the pairs with |p(a, b)| <= radius + 1, and the lattice cell must have
    circumradius 1.  Proof: the cells tile the plane, so any q with
    |q| <= radius lies in the cell of some lattice point p, with
    |q - p| <= 1; then |p| <= radius + 1, so p is one of the points.  The
    float centres are the exact ones up to rounding.
    """
    pairs = [_lattice_pair(x, y) for x, y in points]
    return (
        None not in pairs
        and len(set(pairs)) == len(pairs)
        and set(pairs) == _lattice_pairs(radius)
        and _cell_circumradius_is_one()
    )


_VERIFIED_COVERINGS: dict[float, list[tuple[float, float]]] = {}


def _covering_for(radius: float) -> list[tuple[float, float]]:
    if radius not in _VERIFIED_COVERINGS:
        pts = covering_points(radius)
        if not check_covering(pts, radius):
            raise EngineError(f"lattice covering failed its exact check at radius {radius}")
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
