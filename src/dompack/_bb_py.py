"""Pure-Python branch-and-bound kernels on bitmask-encoded instances.

Both kernels are deterministic: fixed preprocessing order, fixed branch
order, and incumbents replaced only on strict improvement.  The compiled
kernel in _bbkernel.c implements the same algorithms and the two must
return identical (size, mask, nodes) triples.

The hitting-set search keeps the prepared rows fixed, and its state is one
int with a bit per unsatisfied row.  ``cols[v]`` (the rows that contain
vertex v, as a row mask) turns each step into a mask operation: picking v
leaves ``unsat & ~cols[v]``, and v hits ``(cols[v] & unsat).bit_count()``
rows.  The C kernel keeps the same state in 64-bit words, so it holds at
most 64 rows; ``solvers`` sends larger inputs here.
"""

from __future__ import annotations


def _prepare(reqs: list[int], owners: list[int]) -> tuple[list[int], list[int]]:
    """The search rows and their column masks.

    Rows are the requirements sorted by (popcount, owner, input index), the
    order of req_cmp in _bbkernel.c, without those that are supersets of
    another: hitting the subset hits them for free.  cols[v] is the set of
    rows that contain vertex v, as a mask over row indices.
    """
    keyed = sorted(zip(map(int.bit_count, reqs), owners, range(len(reqs)), reqs))
    rows: list[int] = []
    cols = [0] * max(reqs).bit_length()
    for _, _, _, r in keyed:
        for s in rows:
            if s & r == s:
                break
        else:
            bit = 1 << len(rows)
            rows.append(r)
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= bit
                r ^= low
    return rows, cols


def _greedy_hitting(cols: list[int], unsat: int) -> tuple[int, int]:
    # Repeatedly take the vertex hitting most unsatisfied rows, ties by
    # lowest id.
    chosen = 0
    size = 0
    while unsat:
        counts = [(c & unsat).bit_count() for c in cols]
        v = counts.index(max(counts))
        chosen |= 1 << v
        size += 1
        unsat &= ~cols[v]
    return size, chosen


def min_hitting_set(reqs: list[int], owners: list[int]) -> tuple[int, int, int]:
    """Minimum-size vertex set meeting every requirement mask.

    Returns (size, chosen_mask, nodes_explored); size -1 if some requirement
    is empty (unsatisfiable).
    """
    if 0 in reqs:
        return -1, 0, 0
    if not reqs:
        return 0, 0, 1
    rows, cols = _prepare(reqs, owners)
    everything = (1 << len(rows)) - 1
    best_size, best_mask = _greedy_hitting(cols, everything)
    nodes = 0

    def dfs(chosen: int, count: int, unsat: int):
        nonlocal nodes, best_size, best_mask
        nodes += 1
        if not unsat:
            if count < best_size:
                best_size, best_mask = count, chosen
            return
        # Disjoint lower bound: pairwise disjoint unsatisfied rows, taken
        # greedily in row order, each need their own vertex.
        bound = count
        used = 0
        u = unsat
        while u:
            low = u & -u
            r = rows[low.bit_length() - 1]
            if not r & used:
                bound += 1
                used |= r
            u ^= low
        if bound >= best_size:
            return
        # Branch on the first unsatisfied row: rows are sorted by
        # (popcount, owner), so it has fewest candidates, ties by owner id.
        r = rows[(unsat & -unsat).bit_length() - 1]
        while r:
            low = r & -r
            dfs(chosen | low, count + 1, unsat & ~cols[low.bit_length() - 1])
            r ^= low

    dfs(0, 0, everything)
    return best_size, best_mask, nodes


def _clique_cover_bound(cand: int, adj: list[int]) -> int:
    cliques: list[int] = []
    u = cand
    v = 0
    while u:
        if u & 1:
            placed = False
            for i, members in enumerate(cliques):
                if (members & adj[v]) == members:
                    cliques[i] = members | (1 << v)
                    placed = True
                    break
            if not placed:
                cliques.append(1 << v)
        u >>= 1
        v += 1
    return len(cliques)


def _greedy_independent(cand: int, adj: list[int]) -> tuple[int, int]:
    # Lowest degree within cand first, ties by id.
    keyed = []
    u = cand
    while u:
        low = u & -u
        v = low.bit_length() - 1
        keyed.append(((adj[v] & cand).bit_count(), v))
        u ^= low
    keyed.sort()
    chosen = 0
    size = 0
    for _, v in keyed:
        if not (adj[v] & chosen):
            chosen |= 1 << v
            size += 1
    return size, chosen


def max_independent_set(adj: list[int], cand: int) -> tuple[int, int, int]:
    """Maximum independent set within the candidate mask.

    Returns (size, chosen_mask, nodes_explored).
    """
    best_size, best_mask = _greedy_independent(cand, adj)
    nodes = 0

    def dfs(cand: int, chosen: int, count: int):
        nonlocal nodes, best_size, best_mask
        nodes += 1
        if not cand:
            if count > best_size:
                best_size, best_mask = count, chosen
            return
        if count + _clique_cover_bound(cand, adj) <= best_size:
            return
        # Branch on the candidate of highest remaining degree, ties by id.
        bv = -1
        bd = -1
        u = cand
        v = 0
        while u:
            if u & 1:
                d = (adj[v] & cand).bit_count()
                if d > bd:
                    bd = d
                    bv = v
            u >>= 1
            v += 1
        bit = 1 << bv
        dfs(cand & ~(adj[bv] | bit), chosen | bit, count + 1)
        dfs(cand & ~bit, chosen, count)

    dfs(cand, 0, 0)
    return best_size, best_mask, nodes
