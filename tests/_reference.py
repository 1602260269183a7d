"""Test-side reference code: what the tests read and the CLI never runs.

The brute-force certificate finders and the split and distance-hereditary
recognizers supply certificates and class membership for small test
graphs, and the enumerators supply the graphs.  ``edges`` lists a
graph's edges as pairs.  ``replay`` re-applies a driver trace's deltas,
``to_edge_json`` and ``convex_graph`` write test inputs,
``sequence_json`` writes contraction-sequence files, ``trace_json_obj`` builds
the object whose JSON text
``RuleApplication.to_json`` must write.  ``masks_to_graph6_one_int`` and
``graph6_to_masks_by_string`` are the graph6 encoder and decoder the
byte-level ones replaced, and ``at_free_per_triple`` the AT-free test
before it read a table of the components of each G - N[z].
``enumerate_labeled_masks`` builds the masks of every labelled graph,
which the scan did before it encoded each code by table lookup, and
``labeled_orbit_ids_by_closure`` is the orbit table before it was built by
cosets, over code tables built entry by entry (``code_tables_by_sum``).
``labeled_graph6_encoder`` writes the graph6 of a labelled code from the
package's tables, as the scan did before it read its JSON lines from them.
The scan's
filter predicates, class flags and check chain are kept as they were
before the scan read them from flag tables.
"""

from __future__ import annotations

import json
from array import array
from itertools import combinations

from dompack.constructions import ConvexEncoding, EncodingInvalid
from dompack.engine import RuleApplication, _State, completion_width
from dompack.engine_twinwidth import ContractionSequence, validate_contraction_sequence
from dompack.families import _UNSEEN, _check_labeled_order, at_free_masks, labeled_graph6_tables
from dompack.graph import (
    Graph,
    Graph6Error,
    GraphError,
    OversizeError,
    _g6_decode_n,
    _g6_encode_n,
    bits,
    masks_connected,
    reach_mask,
)


def edges(g: Graph) -> list[tuple[int, int]]:
    """Every edge (u, v), u < v, black or red, by u."""
    return [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]


def graph_from_masks(masks) -> Graph:
    """Plain graph from symmetric open-neighbourhood bitmasks; each edge is
    read once, from its larger endpoint."""
    return Graph.from_edges(
        len(masks), [(u, v) for v, m in enumerate(masks) for u in bits(m & ((1 << v) - 1))]
    )

FLAG_SUBCUBIC, FLAG_TREE, FLAG_CONNECTED, FLAG_ATFREE = 1, 2, 4, 8
ATFREE_FLAG_MAX_N = 12


# ---------------------------------------------------------------------------
# Recognizers
# ---------------------------------------------------------------------------


def recognize_split(g: Graph):
    """Degree-sequence split test; returns (clique, independent) or None."""
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    lhs = sum(degs[:m])
    rhs = m * (m - 1) + sum(degs[m:])
    if lhs != rhs:
        return None
    clique = set(order[:m])
    indep = set(order[m:])
    for a, b in combinations(sorted(clique), 2):
        if b not in g.adj[a]:
            return None
    for a, b in combinations(sorted(indep), 2):
        if b in g.adj[a]:
            return None
    return frozenset(clique), frozenset(indep)


def recognize_distance_hereditary(g: Graph) -> bool:
    """Iterated isolated/pendant/twin pruning down to nothing."""
    adj = {v: set(g.adj[v]) for v in g.vertices()}

    def drop(v):
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]

    while len(adj) > 1:
        victim = None
        for v in sorted(adj):
            if len(adj[v]) <= 1:
                victim = v
                break
        if victim is None:
            for u, v in combinations(sorted(adj), 2):
                if adj[u] == adj[v] or (v in adj[u] and adj[u] - {v} == adj[v] - {u}):
                    victim = u
                    break
        if victim is None:
            return False
        drop(victim)
    return True


# ---------------------------------------------------------------------------
# Brute-force certificate finders (desk scale)
# ---------------------------------------------------------------------------


def brute_force_tw_certificate(g: Graph, k: int):
    """Chordal completion of width <= k via elimination-order DP, or None."""
    if g.n > 10:
        raise OversizeError("treewidth finder capped at n = 10")
    if g.n == 0:
        return Graph.from_edges(0)
    n = g.n
    full = (1 << n) - 1

    def reach_degree(v: int, inside: int) -> int:
        # Neighbors of v outside `inside` plus those reachable through it.
        seen = 1 << v
        stack = [v]
        out = set()
        while stack:
            x = stack.pop()
            for y in g.adj[x]:
                bit = 1 << y
                if seen & bit:
                    continue
                seen |= bit
                if inside & bit:
                    stack.append(y)
                else:
                    out.add(y)
        return len(out)

    INF = n + 1
    width = [INF] * (1 << n)
    choice = [-1] * (1 << n)
    width[0] = 0
    for s in range(1, 1 << n):
        best = INF
        pick = -1
        t = s
        while t:
            v = (t & -t).bit_length() - 1
            t &= t - 1
            rest = s & ~(1 << v)
            cand = max(width[rest], reach_degree(v, rest))
            if cand < best:
                best = cand
                pick = v
        width[s] = best
        choice[s] = pick
    if width[full] > k:
        return None
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s &= ~(1 << v)
    order.reverse()  # elimination order: order[0] eliminated first
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    fill = set(edges(g))
    for v in order:
        nb = sorted(adj[v])
        for i, a in enumerate(nb):
            for b in nb[i + 1 :]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                fill.add((a, b) if a < b else (b, a))
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
    completion = Graph.from_edges(n, sorted(fill))
    width = completion_width(g, completion)
    assert width is not None and width <= k
    return completion


def brute_force_tww_sequence(g: Graph, k: int):
    """Width-k contraction sequence by DFS over partitions, or None."""
    if g.n > 8:
        raise OversizeError("twin-width finder capped at n = 8")
    if g.n <= 1:
        return ContractionSequence((), k)

    base_adj = g.adj
    base_red = g.red

    def relation(bag_a, bag_b):
        any_edge = False
        all_black = True
        for a in bag_a:
            for b in bag_b:
                if b in base_adj[a]:
                    any_edge = True
                    if b in base_red[a]:
                        all_black = False
                else:
                    all_black = False
        if not any_edge:
            return None
        return "black" if all_black else "red"

    def red_ok(bags):
        for x in bags:
            deg = sum(1 for y in bags if y != x and relation(x, y) == "red")
            if deg > k:
                return False
        return True

    start = tuple(frozenset((v,)) for v in range(g.n))
    if not red_ok(start):
        return None
    failed = set()

    def dfs(bags):
        if len(bags) == 1:
            return []
        key = frozenset(bags)
        if key in failed:
            return None
        for i, j in combinations(range(len(bags)), 2):
            merged = bags[i] | bags[j]
            nxt = tuple(b for t, b in enumerate(bags) if t not in (i, j)) + (merged,)
            if not red_ok(nxt):
                continue
            sub = dfs(nxt)
            if sub is not None:
                return [(bags[i], bags[j], merged)] + sub
        failed.add(key)
        return None

    plan = dfs(start)
    if plan is None:
        return None
    names = {frozenset((v,)): v for v in range(g.n)}
    fresh = g.n
    merges = []
    for a, b, c in plan:
        merges.append((names[a], names[b], fresh))
        names[c] = fresh
        fresh += 1
    seq = ContractionSequence(tuple(merges), k)
    assert validate_contraction_sequence(g, seq)
    return seq


# ---------------------------------------------------------------------------
# Driver traces and test inputs
# ---------------------------------------------------------------------------


def _snapshot(st: _State) -> tuple:
    edges = tuple(sorted((u, v) for u in st.adj for v in st.adj[u] if u < v))
    red = tuple(sorted((u, v) for u in st.red for v in st.red[u] if u < v))
    return (tuple(sorted(st.adj)), edges, tuple(sorted(st.x)), tuple(sorted(st.y)), red)


def replay(g: Graph, trace, x=(), y=()):
    """Re-apply a trace's deltas from the original instance; yields the state
    snapshot after every step (the first yield is the initial instance)."""
    st = _State.from_graph(g, x, y)
    yield _snapshot(st)
    for app in trace:
        st.apply(app)
        yield _snapshot(st)


def trace_json_obj(app: RuleApplication) -> dict:
    def clean(v):
        if isinstance(v, (set, frozenset)):
            return sorted(v)
        if isinstance(v, tuple):
            return list(v)
        if isinstance(v, dict):
            return {str(k): clean(x) for k, x in v.items()}
        return v

    return {"rule": app.rule_id, "payload": clean(dict(app.payload))}


def to_edge_json(g: Graph) -> str:
    pairs = sorted(edges(g))
    doc = {
        "n": g.n,
        "edges": [(u, v) for u, v in pairs if v not in g.red[u]],
        "red_edges": [(u, v) for u, v in pairs if v in g.red[u]],
    }
    return json.dumps(doc, separators=(",", ":"))


def sequence_json(seq: ContractionSequence) -> str:
    """The contraction-sequence file that ``ContractionSequence.from_json``
    reads."""
    return json.dumps(
        {"width": seq.declared_width, "merges": [list(m) for m in seq.merges]},
        separators=(",", ":"),
    )


def masks_to_graph6_one_int(masks) -> str:
    """graph6 from the whole stream ORed into one int, first bit lowest, then
    written out as one string of bits: the encoder before the linear one,
    whose every OR copies the growing int."""
    n = len(masks)
    total = n * (n - 1) // 2
    if not total:
        return _g6_encode_n(n)
    stream = 0
    for v in range(1, n):
        stream |= (masks[v] & ((1 << v) - 1)) << (v * (v - 1) // 2)
    col = format(stream, f"0{total}b")[::-1] + "0" * (-total % 6)
    return _g6_encode_n(n) + "".join(chr(int(col[i : i + 6], 2) + 63) for i in range(0, len(col), 6))


# Six stream bits, first bit most significant -> their graph6 byte.
_G6_BITS = {chr(w + 63): format(w, "06b") for w in range(64)}


def graph6_to_masks_by_string(s: str) -> tuple[int, ...]:
    """``graph6_to_masks`` as it was before it decoded through base64: every
    data byte is expanded to six characters of one string of the stream
    bits, n(n-1)/2 of them and the padding, and each column is read back
    with int(..., 2)."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    n, body = _g6_decode_n(s)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"expected {need} data bytes for n={n}, got {len(body)}")
    try:
        col = "".join([_G6_BITS[c] for c in body])
    except KeyError as exc:
        raise Graph6Error(f"byte {exc.args[0]!r} out of graph6 range") from None
    masks = [0] * n
    start = 0
    for v in range(1, n):
        low = int(col[start : start + v][::-1], 2)
        start += v
        masks[v] |= low
        for u in bits(low):
            masks[u] |= 1 << v
    return tuple(masks)


def convex_graph(enc: ConvexEncoding) -> Graph:
    n = len(enc.x_order) + len(enc.y_neighbors)
    ids = sorted(enc.x_order) + sorted(enc.y_neighbors)
    if sorted(ids) != list(range(n)):
        raise EncodingInvalid("vertex ids must be dense 0..n-1")
    edges = [(x, y) for y, ns in enc.y_neighbors.items() for x in ns]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# AT-free test, one BFS per independent triple
# ---------------------------------------------------------------------------


def at_free_per_triple(adj) -> bool:
    """``at_free_masks`` as a search over the independent triples, with a
    BFS off N[z] for each pair of a triple."""
    n = len(adj)
    full = (1 << n) - 1

    def linked_avoiding(a: int, b: int, z: int) -> bool:
        # a and b lie outside N[z]: the triple is independent.
        return bool(reach_mask(adj, 1 << a, full & ~(adj[z] | 1 << z)) >> b & 1)

    for u, v, w in combinations(range(n), 3):
        if (adj[u] >> v) & 1 or (adj[u] >> w) & 1 or (adj[v] >> w) & 1:
            continue
        if (
            linked_avoiding(u, v, w)
            and linked_avoiding(u, w, v)
            and linked_avoiding(v, w, u)
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Enumeration (labeled, and unlabeled with bounded degree)
# ---------------------------------------------------------------------------


def enumerate_labeled_masks(n: int):
    """All labeled graphs on n vertices (no isomorphism rejection), n <= 7,
    as open-neighbourhood bitmasks, in code order: graph k has edge i of
    ``combinations(range(n), 2)`` iff bit i of k is set.

    Counting k up flips the trailing ones and one zero, so each step
    toggles those edges in place.
    """
    if n > 7:
        raise OversizeError("labeled enumeration capped at n = 7")
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    pairs = list(combinations(range(n), 2))
    adj = [0] * n
    yield tuple(adj)
    for k in range(1, 1 << len(pairs)):
        flipped = k ^ (k - 1)
        i = 0
        while flipped:
            if flipped & 1:
                u, v = pairs[i]
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            flipped >>= 1
            i += 1
        yield tuple(adj)


def code_tables_by_sum(image: list[int]) -> tuple[list[int], list[int]]:
    """``families._code_tables`` entry by entry: each entry of ``lo`` (the
    code's low byte) and ``hi`` (its bits 8 and up) is the sum of the images
    of its set bits."""
    tables = []
    for part in (image[:8], image[8:]):
        tables.append([
            sum(1 << i for b, i in enumerate(part) if bits >> b & 1)
            for bits in range(1 << len(part))
        ])
    return tables[0], tables[1]


def labeled_graph6_encoder(n: int):
    """The graph6 of each labelled graph on n vertices, n <= 7, by code,
    from ``families.labeled_graph6_tables`` with the plain graph6 digits."""
    lo, hi, high, low = labeled_graph6_tables(n, [chr(63 + x) for x in range(64)])

    def encode(k: int) -> str:
        word = lo[k & 255] | hi[k >> 8]
        return high[word >> 12] + low[word & 4095]

    return encode


def transposition_images(n: int):
    """The edge-bit map of each transposition (i j), i < j, of the vertices
    of an n-vertex labelled code, keyed by (i, j)."""
    pairs = list(combinations(range(n), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    images = {}
    for i, j in pairs:
        swap = {i: j, j: i}
        images[i, j] = [
            index[tuple(sorted((swap.get(u, u), swap.get(v, v))))] for u, v in pairs
        ]
    return images


def labeled_orbit_ids_by_closure(n: int) -> array:
    """``families.labeled_orbit_ids`` by closing each new smallest code
    under the n - 1 adjacent transpositions (j j+1), which generate the
    symmetric group: one stack push, pop and table probe per image."""
    _check_labeled_order(n)
    images = transposition_images(n)
    moves = [code_tables_by_sum(images[j, j + 1]) for j in range(n - 1)]
    size = 1 << (n * (n - 1) // 2)
    ids = array("H", [_UNSEEN]) * size
    classes = reached = k = 0
    while reached < size:
        k = ids.index(_UNSEEN, k)
        ids[k] = classes
        stack = [k]
        while stack:
            code = stack.pop()
            reached += 1
            low, high = code & 255, code >> 8
            for lo, hi in moves:
                other = lo[low] | hi[high]
                if ids[other] == _UNSEEN:
                    ids[other] = classes
                    stack.append(other)
        classes += 1
    return ids


def enumerate_labeled_graphs(n: int):
    """All labeled graphs on n vertices (no isomorphism rejection), n <= 7."""
    for adj in enumerate_labeled_masks(n):
        yield graph_from_masks(adj)


def _refine_masks(adj: tuple[int, ...]) -> tuple[tuple, tuple]:
    n = len(adj)
    colors = tuple(adj[v].bit_count() for v in range(n))
    for _ in range(n):
        raw = []
        for v in range(n):
            m = adj[v]
            around = []
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                around.append(colors[u])
            around.sort()
            raw.append((colors[v], tuple(around)))
        ranks = {val: i for i, val in enumerate(sorted(set(raw)))}
        new = tuple(ranks[r] for r in raw)
        if new == colors:
            break
        colors = new
    return tuple(sorted(colors)), colors


def _masks_isomorphic(a1: tuple[int, ...], a2: tuple[int, ...], col1, col2) -> bool:
    n = len(a1)
    order = sorted(range(n), key=lambda v: (col1[v], -a1[v].bit_count(), v))
    targets: dict[int, list[int]] = {}
    for v in range(n):
        targets.setdefault(col2[v], []).append(v)
    mapping = [-1] * n
    mapped_src = 0
    mapped_img = 0

    def extend(idx: int) -> bool:
        nonlocal mapped_src, mapped_img
        if idx == n:
            return True
        v = order[idx]
        want = a1[v] & mapped_src
        for w in targets.get(col1[v], ()):
            bw = 1 << w
            if mapped_img & bw:
                continue
            # Edges from v to mapped vertices must map onto edges at w.
            img = 0
            m = want
            good = True
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                img |= 1 << mapping[u]
            if (a2[w] & mapped_img) != img:
                good = False
            if good:
                mapping[v] = w
                mapped_src |= 1 << v
                mapped_img |= bw
                if extend(idx + 1):
                    return True
                mapped_src &= ~(1 << v)
                mapped_img &= ~bw
                mapping[v] = -1
        return False

    return extend(0)


def enumerate_connected_bounded_degree(n_max: int, max_deg: int):
    """One representative per isomorphism class of connected graphs with the
    degree bound, for every order up to n_max.  Grown by vertex augmentation
    (every connected graph has a non-cut vertex), deduplicated by a
    refinement certificate plus exact isomorphism."""
    reps: list[tuple[int, ...]] = [(0,)]
    yield Graph.from_edges(1)
    for n in range(2, n_max + 1):
        buckets: dict[tuple, list[tuple]] = {}
        out: list[tuple[int, ...]] = []
        new_bit = 1 << (n - 1)
        for adj in reps:
            low = [v for v in range(n - 1) if adj[v].bit_count() < max_deg]
            for size in range(1, max_deg + 1):
                for sub in combinations(low, size):
                    grown = list(adj) + [0]
                    for v in sub:
                        grown[v] |= new_bit
                        grown[n - 1] |= 1 << v
                    cand = tuple(grown)
                    sig, colors = _refine_masks(cand)
                    edge_count = sum(m.bit_count() for m in cand) // 2
                    key = (edge_count, sig)
                    bucket = buckets.setdefault(key, [])
                    clash = False
                    for other, other_colors in bucket:
                        if _masks_isomorphic(cand, other, colors, other_colors):
                            clash = True
                            break
                    if clash:
                        continue
                    bucket.append((cand, colors))
                    out.append(cand)
        for cand in out:
            yield graph_from_masks(cand)
        reps = out


# ---------------------------------------------------------------------------
# Scan filters, class flags and checks, one predicate each
# ---------------------------------------------------------------------------


def _edge_count(masks) -> int:
    return sum(m.bit_count() for m in masks) // 2


def scan_subcubic(masks) -> bool:
    return all(m.bit_count() <= 3 for m in masks)


def scan_is_tree(masks) -> bool:
    return _edge_count(masks) == len(masks) - 1 and masks_connected(masks)


SCAN_FILTERS = {"all": lambda masks: True, "subcubic": scan_subcubic, "tree": scan_is_tree}


def scan_class_flags(masks, m: int, subcubic: bool) -> int:
    flags = 0
    if subcubic:
        flags |= FLAG_SUBCUBIC
    if masks_connected(masks):
        flags |= FLAG_CONNECTED
        if m == len(masks) - 1:
            flags |= FLAG_TREE
    if len(masks) <= ATFREE_FLAG_MAX_N and at_free_masks(masks):
        flags |= FLAG_ATFREE
    return flags


def scan_check(check: str, gamma: int, rho: int, flags: int) -> tuple[bool, bool, bool]:
    """(applicable, violation, equality) of a scan check."""
    violation = False
    equality = False
    applicable = True
    if check == "duality":
        violation = gamma < rho
        equality = gamma == rho
    elif check == "henning":
        applicable = bool(flags & FLAG_SUBCUBIC) and bool(flags & FLAG_CONNECTED)
        if applicable:
            violation = gamma > 2 * rho + 1
            equality = gamma == 2 * rho + 1
    else:  # treeeq
        applicable = bool(flags & FLAG_TREE)
        if applicable:
            violation = gamma != rho
            equality = gamma == rho
    return applicable, violation, equality
