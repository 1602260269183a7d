"""Immutable graph substrate: adjacency, distances, the 3-core, chordal
width, I/O.

Vertices are dense integers 0..n-1. Edges carry a color tag, black by default;
a graph with no red edges is "plain". ``red[v]`` is the set of v's red
neighbours, a subset of ``adj[v]``: the drivers' working state keeps red edges
the same way. Graphs are immutable after construction; the drivers copy the
adjacency and the red sets into a mutable working state of their own.

Small graphs also have a bitmask form: a tuple of open-neighbourhood ints,
bit u of ``masks[v]`` set iff uv is an edge.  The graph6 codec, the exact
oracles and the scan work on it directly.
"""

from __future__ import annotations

import json
import re
from binascii import a2b_base64, b2a_base64
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain

class GraphError(ValueError):
    """Malformed graph construction or invalid vertex/edge reference."""


class OversizeError(Exception):
    """An input above a size cap: an order above ``MAX_ORDER``, a family or
    enumeration parameter past its cap, or an instance above the solvers'
    guardrail.  Not a ValueError, so that no handler for malformed input
    catches it."""


def check_order(n: int, limit: int) -> None:
    """Raise OversizeError when the order n exceeds limit."""
    if n > limit:
        raise OversizeError(f"n={n} exceeds limit {limit}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with an optional red/black edge coloring."""

    n: int
    adj: tuple[frozenset[int], ...]
    red: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n, edges=(), red_edges=()) -> "Graph":
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        red: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        for u, v in red_edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise GraphError(f"bad red edge ({u},{v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
            red[u].add(v)
            red[v].add(u)
        return Graph(n, tuple(map(frozenset, nbrs)), tuple(map(frozenset, red)))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Open neighbourhoods as bitmasks, built on first use: big graphs
        that never reach a mask-level routine never pay for them."""
        return tuple(map(vertex_mask, self.adj))

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self.adj[v])

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def is_plain(self) -> bool:
        return not any(self.red)

    def max_degree(self) -> int:
        return max((len(s) for s in self.adj), default=0)

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
        if self.mode is not Mode.BLACK and not self.graph.is_plain():
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


def closed_neighborhood(g, s) -> set[int]:
    """N[s]: the members of s together with all their neighbours, as a new
    set.  ``g`` is a Graph or a driver's working state: anything whose
    ``adj[v]`` is v's neighbour set.  The ids are not checked: every caller
    has checked them already."""
    adj = g.adj
    out = set(s)
    for v in s:
        out |= adj[v]
    return out


def vertex_mask(s) -> int:
    """The vertex set s as a mask: bit v set iff v is in s."""
    m = 0
    for v in s:
        m |= 1 << v
    return m


def closed_mask(masks, s: int) -> int:
    """N[s] for a vertex set given as a mask, over open-neighbourhood masks."""
    out = s
    while s:
        low = s & -s
        out |= masks[low.bit_length() - 1]
        s ^= low
    return out


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


def black_neighbors(g, v: int):
    """v's neighbours along black edges.  ``g`` is a Graph or a driver's
    working state: anything with ``adj[v]`` and ``red[v]``."""
    return g.adj[v] - g.red[v]


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


def three_core(g: Graph) -> int:
    """The order of the 3-core: how many vertices survive repeated deletion
    of vertices of degree at most 2.  It is 0 exactly when g is
    2-degenerate.  A stack holds the vertices whose degree has dropped to 2
    or below and are not yet deleted; each is pushed once, when it gets
    there (Batagelj and Zaversnik, 2003), so the peel takes O(n+m)."""
    adj = g.adj
    deg = [len(s) for s in adj]
    stack = [v for v, d in enumerate(deg) if d <= 2]
    left = g.n
    while stack:
        left -= 1
        for w in adj[stack.pop()]:
            deg[w] -= 1
            if deg[w] == 2:
                stack.append(w)
    return left


def chordal_width(g: Graph) -> int | None:
    """Clique number minus one of a chordal graph (-1 when empty), or None
    when the graph is not chordal, by one maximum cardinality search
    (Tarjan and Yannakakis, 1984).

    The search visits every vertex once, each time taking an unvisited
    vertex with the most visited neighbours from weight buckets (entries
    left behind by a weight increase are skipped when popped).  The reverse
    of the visit order is a perfect elimination order exactly when the
    graph is chordal, which is checked as the search goes: the neighbours
    of v visited before it, less the last of them (its parent), must all be
    neighbours of the parent.  Those earlier neighbours and v then form a
    clique, and every maximal clique is one of them, so the clique number
    is 1 + the most earlier neighbours of any v.  O(n+m).
    """
    n = g.n
    adj = g.adj
    visit = [-1] * n  # visit index, -1 while unvisited
    weight = [0] * n
    buckets = [list(range(n - 1, -1, -1))]
    top = 0
    omega = 0
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
        earlier = [u for u in adj[v] if visit[u] >= 0]
        if len(earlier) > 1:
            parent = max(earlier, key=visit.__getitem__)
            pnb = adj[parent]
            if any(u != parent and u not in pnb for u in earlier):
                return None
        omega = max(omega, 1 + len(earlier))
        for u in adj[v]:
            if visit[u] < 0:
                w = weight[u] = weight[u] + 1
                if w == len(buckets):
                    buckets.append([])
                buckets[w].append(u)
        if top + 1 < len(buckets):
            top += 1
    return omega - 1


def reach_mask(masks, seed: int, allowed: int) -> int:
    """The vertices reachable from the vertex mask ``seed`` through
    ``allowed`` (seed included), by BFS over whole frontiers."""
    reach = frontier = seed
    while frontier:
        frontier = closed_mask(masks, frontier) & allowed & ~reach
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
    """Whether the graph with these open-neighbourhood bitmasks is connected."""
    full = (1 << len(masks)) - 1
    return len(masks) <= 1 or reach_mask(masks, 1, full) == full


# ---------------------------------------------------------------------------
# graph6 codec (bit-exact: 6-bit chunks, 63-offset bytes, column-major upper
# triangle), the JSON edge-list reader and the vertex-id check of every
# certificate reader.
# ---------------------------------------------------------------------------


class Graph6Error(GraphError):
    pass


# The largest order that graph6 writes in its four-byte form; the edge-list
# reader and the family generators refuse larger orders before they allocate.
MAX_ORDER = 258047


def check_max_order(n: int) -> None:
    """Refuse, before anything is built, an order that graph6 cannot write."""
    if n > MAX_ORDER:
        raise OversizeError(f"order {n} above the cap of {MAX_ORDER}")


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


def _g6_columns(s: str, max_n: int | None = None) -> tuple[int, list[int]]:
    """The order of a graph6 string (header optional) and, once the length
    and every byte are checked, its columns: for v = 1..n-1, the mask of
    the vertices u < v adjacent to v.  With ``max_n``, an order above it is
    refused from the header, before the body is read."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    n, body = _g6_decode_n(s)
    if max_n is not None:
        check_order(n, max_n)
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


def from_graph6(s: str, max_n: int | None = None) -> Graph:
    """The plain graph of a graph6 string, built straight from its columns:
    each set bit u of column v is an edge uv.  With ``max_n``, an order
    above it is refused from the header, before the body is read."""
    n, columns = _g6_columns(s, max_n)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for v, low in enumerate(columns, 1):
        for u in bits(low):
            nbrs[v].append(u)
            nbrs[u].append(v)
    return Graph(n, tuple(map(frozenset, nbrs)), (frozenset(),) * n)


def from_edge_json(s: str, max_n: int | None = None) -> Graph:
    """The trigraph of an edge-list JSON document; with ``max_n``, an order
    above it is refused before the graph is built."""
    try:
        doc = json.loads(s)
    except ValueError as exc:
        raise GraphError(f"bad edge-list JSON: {exc}") from exc
    return from_edge_doc(doc, max_n)


def from_edge_doc(doc, max_n: int | None = None) -> Graph:
    """``from_edge_json`` of a document already parsed by ``json.loads``."""
    try:
        (n,) = vertex_ids([doc["n"]])
        check_max_order(n)
        if max_n is not None:
            check_order(n, max_n)
        edges, red_edges = doc["edges"], doc.get("red_edges", ())
        vertex_ids(chain(*edges, *red_edges))
        return Graph.from_edges(n, edges, red_edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"bad edge-list JSON: {exc}") from exc


def vertex_ids(xs) -> tuple[int, ...]:
    """A JSON list of vertex ids as a tuple; TypeError unless the type of
    each is exactly int, so JSON true and false are refused too (bools,
    which Python would read as 1 and 0).  The check is one set of types,
    built in C.  Every reader of vertex ids checks its lists with it."""
    xs = tuple(xs)
    if not {*map(type, xs)} <= {int}:
        raise TypeError("vertex ids must be integers")
    return xs
