"""Immutable graph substrate: adjacency, distances, degeneracy, chordality,
I/O.

Vertices are dense integers 0..n-1. Edges carry a color tag, black by default;
a graph with no red edges is "plain". Graphs are immutable after construction;
the drivers copy the adjacency into a mutable working state of their own.

Small graphs also have a bitmask form: a tuple of open-neighbourhood ints,
bit u of ``masks[v]`` set iff uv is an edge.  The graph6 codec, the exact
oracles and the scan work on it directly.
"""

from __future__ import annotations

import heapq
import json
import re
from binascii import a2b_base64, b2a_base64
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph construction or invalid vertex/edge reference."""


class OversizeError(Exception):
    """An input above a size cap: an order above ``MAX_ORDER``, a family or
    enumeration parameter past its cap, or an instance above the solvers'
    guardrail.  Not a ValueError, so that no handler for malformed input
    catches it."""


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with an optional red/black edge coloring."""

    n: int
    adj: tuple[frozenset[int], ...]
    red: frozenset[Edge] = frozenset()

    @staticmethod
    def from_edges(n, edges=(), red_edges=()) -> "Graph":
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        red = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        for u, v in red_edges:
            e = _norm(u, v)
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise GraphError(f"bad red edge ({u},{v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
            red.add(e)
        return Graph(n, tuple(frozenset(s) for s in nbrs), frozenset(red))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Open neighbourhoods as bitmasks, built on first use: big graphs
        that never reach a mask-level routine never pay for them."""
        return tuple(sum(1 << u for u in s) for s in self.adj)

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self.adj[v])

    def edges(self) -> list[Edge]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def is_plain(self) -> bool:
        return not self.red

    def max_degree(self) -> int:
        return max((len(s) for s in self.adj), default=0)

    def black_neighbors(self, v: int) -> frozenset[int]:
        self._check(v)
        return frozenset(u for u in self.adj[v] if _norm(u, v) not in self.red)

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")

    def check_vertex_set(self, s) -> frozenset[int]:
        s = frozenset(s)
        for v in s:
            self._check(v)
        return s


class Mode(Enum):
    PLAIN = "plain"
    TOTAL = "total"
    BLACK = "black"


@dataclass(frozen=True)
class XYInstance:
    """A graph with free-dominator set X, pre-dominated set Y, and a mode tag.

    X dominates for free and may have had a deleted neighbor in the packing;
    Y is already dominated and may sit at distance two from a deleted packing
    vertex.  Plain/Total instances must be on plain (all-black) graphs; Black
    instances may carry red edges but require X to be empty.
    """

    graph: Graph
    x_set: frozenset[int] = frozenset()
    y_set: frozenset[int] = frozenset()
    mode: Mode = Mode.PLAIN

    def __post_init__(self):
        object.__setattr__(self, "x_set", self.graph.check_vertex_set(self.x_set))
        object.__setattr__(self, "y_set", self.graph.check_vertex_set(self.y_set))
        if self.mode is not Mode.BLACK and self.graph.red:
            raise GraphError(f"{self.mode.value} mode requires an all-black graph")
        if self.mode is Mode.BLACK and self.x_set:
            raise GraphError("black mode is defined for empty X only")


# ---------------------------------------------------------------------------
# Neighborhood and distance primitives
# ---------------------------------------------------------------------------


def bits(m: int):
    """The set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def closed_neighborhood(g: Graph, s) -> frozenset[int]:
    """N[s]: the members of s together with all their neighbors."""
    s = g.check_vertex_set(s)
    out = set(s)
    for v in s:
        out |= g.adj[v]
    return frozenset(out)


def distances_from(g: Graph, u: int) -> dict[int, int]:
    """BFS distance map from u; unreachable vertices are absent."""
    g._check(u)
    dist = {u: 0}
    q = deque([u])
    while q:
        w = q.popleft()
        for x in g.adj[w]:
            if x not in dist:
                dist[x] = dist[w] + 1
                q.append(x)
    return dist


def ball2(g, v: int) -> set[int]:
    """N²[v]: v and every vertex within distance 2 of it, as a new set.

    Two rounds of set unions, so the cost is the size of the ball, not of
    the graph.  ``g`` is anything whose ``adj[v]`` is v's neighbour set: a
    Graph or a driver's working state.
    """
    adj = g.adj
    ball = set(adj[v])
    ball.add(v)
    for u in adj[v]:
        ball |= adj[u]
    return ball


def degeneracy_ordering(g: Graph) -> tuple[list[int], int]:
    """Repeatedly remove a minimum-degree vertex (ties by id).

    Returns the removal order and the largest degree seen at removal time,
    which equals the degeneracy of the graph.  A lazy heap of (degree, id)
    entries picks each vertex: a removal pushes a fresh entry for every
    remaining neighbour, so a vertex's current entry pops before its stale
    ones, which are skipped.  The order is exactly the one above, in
    O(m log n).
    """
    deg = [len(s) for s in g.adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * g.n
    order: list[int] = []
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v]:
            continue
        removed[v] = True
        order.append(v)
        if d > degeneracy:
            degeneracy = d
        for w in g.adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return order, degeneracy


def recognize_chordal(g: Graph):
    """A perfect elimination order, or None when the graph is not chordal.

    Maximum cardinality search (Tarjan and Yannakakis, 1984) visits every
    vertex once, each time taking an unvisited vertex with the most visited
    neighbours from weight buckets (entries left behind by a weight increase
    are skipped when popped).  The reverse of the visit order is a perfect
    elimination order exactly when the graph is chordal, which is checked
    during the same search: the neighbours of v visited before it, less the
    last of them (its parent), must all be neighbours of the parent.  O(n+m).
    The order returned is that reversed visit order; it need not be the one
    that eliminates the smallest simplicial vertex first.
    """
    n = g.n
    adj = g.adj
    visit = [-1] * n  # visit index, -1 while unvisited
    weight = [0] * n
    buckets = [list(range(n - 1, -1, -1))]
    top = 0
    order = []
    for i in range(n):
        while True:
            bucket = buckets[top]
            if not bucket:
                top -= 1
                continue
            v = bucket.pop()
            if visit[v] < 0 and weight[v] == top:
                break
        visit[v] = i
        order.append(v)
        earlier = [u for u in adj[v] if visit[u] >= 0]
        if len(earlier) > 1:
            parent = max(earlier, key=visit.__getitem__)
            pnb = adj[parent]
            if any(u != parent and u not in pnb for u in earlier):
                return None
        for u in adj[v]:
            if visit[u] < 0:
                w = weight[u] = weight[u] + 1
                if w == len(buckets):
                    buckets.append([])
                buckets[w].append(u)
        if top + 1 < len(buckets):
            top += 1
    order.reverse()
    return order


def chordal_width(g: Graph) -> int | None:
    """Clique number minus one of a chordal graph (-1 when empty), or None
    when the graph is not chordal.  Every maximal clique is some vertex with
    its neighbours later in the perfect elimination order."""
    peo = recognize_chordal(g)
    if peo is None:
        return None
    seen: set[int] = set()
    omega = 0
    for v in peo:
        omega = max(omega, 1 + len(g.adj[v] - seen))
        seen.add(v)
    return omega - 1


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    seen: set[int] = set()
    out = []
    for v in range(g.n):
        if v in seen:
            continue
        comp = set(distances_from(g, v))
        seen |= comp
        out.append(frozenset(comp))
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(distances_from(g, 0)) == g.n


def reach_mask(masks, seed: int, allowed: int) -> int:
    """The vertices reachable from the vertex mask ``seed`` through
    ``allowed`` (seed included), by BFS over whole frontiers."""
    reach = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & allowed & ~reach
        reach |= frontier
    return reach


def nonneighbour_components(masks):
    """Each vertex z with each component of G - N[z], as (z, component
    mask) pairs: z in order, its components by smallest member.

    These components decide both asteroidal triples and dominating pairs
    (Corneil, Olariu and Stewart, 1997)."""
    full = (1 << len(masks)) - 1
    for z, m in enumerate(masks):
        rest = full & ~(m | 1 << z)
        while rest:
            comp = reach_mask(masks, rest & -rest, rest)
            rest &= ~comp
            yield z, comp


def masks_connected(masks) -> bool:
    """``is_connected`` on the bitmask form.

    For small graphs; ``is_connected`` stays linear in the edges for big ones.
    """
    full = (1 << len(masks)) - 1
    return len(masks) <= 1 or reach_mask(masks, 1, full) == full


# ---------------------------------------------------------------------------
# graph6 codec (bit-exact: 6-bit chunks, 63-offset bytes, column-major upper
# triangle), the JSON edge-list reader and the vertex-id check of every
# certificate reader.
# ---------------------------------------------------------------------------


class Graph6Error(GraphError):
    pass


# The largest order that graph6 writes in its four-byte form; the
# edge-list reader refuses larger orders before it allocates anything.
MAX_ORDER = 258047


def _g6_encode_n(n: int) -> str:
    if n < 0:
        raise Graph6Error("negative order")
    if n <= 62:
        return chr(n + 63)
    if n <= MAX_ORDER:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise Graph6Error("order too large for this encoder")


def _g6_decode_n(s: str) -> tuple[int, str]:
    """The order and the rest of the string.  A one-byte order is one of
    ``?``..``}`` (0..62); after ``~`` come three bytes of ``?``..``~``."""
    if not s:
        raise Graph6Error("empty graph6 string")
    if s[0] != "~":
        if not "?" <= s[0] <= "}":
            raise Graph6Error(f"order byte {s[0]!r} out of graph6 range")
        return ord(s[0]) - 63, s[1:]
    if len(s) < 4 or s[1] == "~":
        raise Graph6Error("unsupported graph6 order prefix")
    n = 0
    for c in s[1:4]:
        if not "?" <= c <= "~":
            raise Graph6Error(f"order byte {c!r} out of graph6 range")
        n = (n << 6) | (ord(c) - 63)
    return n, s[4:]


# The graph6 bytes of a stream are its 6-bit groups, first bit most
# significant, plus 63: base64 with the alphabet "?".."~".  The codec keeps
# the stream first bit lowest, as an int or as little-endian bytes, so each
# byte is bit-reversed on the way to and from base64: byte b's reverse has
# the reversed low nibble of b high and the reversed high nibble low.
_NIBBLE_REVERSED = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)
_REVERSED_BYTE = bytes([lo << 4 | hi for hi in _NIBBLE_REVERSED for lo in _NIBBLE_REVERSED])
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_G6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_G6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_G6_BAD_BYTE = re.compile("[^?-~]")
# The encoder moves the stream out of its int in whole bytes once it holds
# this many bits, so that no shift or OR copies more than about this much.
_G6_FLUSH_BITS = 1 << 12


def masks_to_graph6(masks) -> str:
    """graph6 of the graph with the given open-neighbourhood bitmasks, in
    time linear in its length."""
    n = len(masks)
    total = n * (n - 1) // 2
    # Column v lists u = 0..v-1, first bit first.
    parts = []
    written = 0
    stream = width = 0
    for v in range(1, n):
        stream |= (masks[v] & ((1 << v) - 1)) << width
        width += v
        if width >= _G6_FLUSH_BITS:
            whole = width >> 3
            parts.append((stream & ((1 << (whole << 3)) - 1)).to_bytes(whole, "little"))
            written += whole
            stream >>= whole << 3
            width &= 7
    # Padded to whole base64 groups of 24 bits; the spare bytes are cut off.
    parts.append(stream.to_bytes(-(-total // 24) * 3 - written, "little"))
    data = b2a_base64(b"".join(parts).translate(_REVERSED_BYTE), newline=False)
    return _g6_encode_n(n) + data.translate(_BASE64_TO_G6)[: -(-total // 6)].decode()


def _g6_columns(s: str) -> tuple[int, list[int]]:
    """The order of a graph6 string (header optional) and, once the length
    and every byte are checked, its columns: for v = 1..n-1, the mask of
    the vertices u < v adjacent to v."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    n, body = _g6_decode_n(s)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"expected {need} data bytes for n={n}, got {len(body)}")
    bad = _G6_BAD_BYTE.search(body)
    if bad:
        raise Graph6Error(f"byte {bad.group()!r} out of graph6 range")
    # Zero groups pad the body to whole base64 quads; stream bit i is then
    # bit i % 8 of byte i // 8.
    data = a2b_base64((body.encode() + b"?" * (-need % 4)).translate(_G6_TO_BASE64))
    data = data.translate(_REVERSED_BYTE)
    columns = []
    start = 0
    for v in range(1, n):
        window = int.from_bytes(data[start >> 3 : (start + v + 7) >> 3], "little")
        columns.append(window >> (start & 7) & ((1 << v) - 1))
        start += v
    return n, columns


def graph6_to_masks(s: str) -> tuple[int, ...]:
    """Open-neighbourhood bitmasks of a graph6 string (header optional)."""
    n, columns = _g6_columns(s)
    masks = [0] * n
    for v, low in enumerate(columns, 1):
        masks[v] |= low
        for u in bits(low):
            masks[u] |= 1 << v
    return tuple(masks)


def to_graph6(g: Graph) -> str:
    """Encode the underlying plain graph (colors are not representable)."""
    return masks_to_graph6(g.masks)


def from_graph6(s: str) -> Graph:
    """The plain graph of a graph6 string, built straight from its columns:
    each set bit u of column v is an edge uv."""
    n, columns = _g6_columns(s)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for v, low in enumerate(columns, 1):
        for u in bits(low):
            nbrs[v].append(u)
            nbrs[u].append(v)
    return Graph(n, tuple(map(frozenset, nbrs)))


def from_edge_json(s: str) -> Graph:
    try:
        doc = json.loads(s)
        (n,) = vertex_ids([doc["n"]])
        if n > MAX_ORDER:
            raise OversizeError(f"order {n} above the cap of {MAX_ORDER}")
        edges, red_edges = doc["edges"], doc.get("red_edges", ())
        vertex_ids(chain(*edges, *red_edges))
        return Graph.from_edges(n, edges, red_edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"bad edge-list JSON: {exc}") from exc


def vertex_ids(xs) -> tuple[int, ...]:
    """A JSON list of vertex ids as a tuple; TypeError unless all are ints.
    JSON true and false are refused too: Python reads them as the ints 1
    and 0.  Every reader of vertex ids checks its lists with it."""
    xs = tuple(xs)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in xs):
        raise TypeError("vertex ids must be integers")
    return xs
