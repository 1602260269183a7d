"""A list-based implementation of the pure hitting-set search.

The reference for ``_bb_py.min_hitting_set`` past 64 bits, where the
compiled kernel cannot answer: both must return the same (size, mask,
nodes) triple.  Both kernels search on a mask over fixed rows; the search
state here is instead a list of unsatisfied requirement masks, filtered
into a fresh list at every node, so it shares no representation with them.
"""

from __future__ import annotations


def _prepare(reqs: list[int], owners: list[int]) -> tuple[list[int], list[int]]:
    # Sort by (popcount, owner) and drop requirements that are supersets of
    # another: hitting the subset hits them for free.
    order = sorted(range(len(reqs)), key=lambda i: (reqs[i].bit_count(), owners[i]))
    kept_r: list[int] = []
    kept_o: list[int] = []
    for i in order:
        r = reqs[i]
        if not any((s & r) == s for s in kept_r):
            kept_r.append(r)
            kept_o.append(owners[i])
    return kept_r, kept_o


def _greedy_hitting(reqs: list[int]) -> tuple[int, int]:
    unsat = list(reqs)
    chosen = 0
    size = 0
    while unsat:
        universe = 0
        for r in unsat:
            universe |= r
        best_v = -1
        best_c = -1
        v = 0
        u = universe
        while u:
            if u & 1:
                c = sum(1 for r in unsat if (r >> v) & 1)
                if c > best_c:
                    best_c = c
                    best_v = v
            u >>= 1
            v += 1
        chosen |= 1 << best_v
        size += 1
        unsat = [r for r in unsat if not (r >> best_v) & 1]
    return size, chosen


def _disjoint_lb(unsat: list[int]) -> int:
    used = 0
    count = 0
    for r in unsat:
        if not (r & used):
            count += 1
            used |= r
    return count


def min_hitting_set(reqs: list[int], owners: list[int]) -> tuple[int, int, int]:
    """Minimum-size vertex set meeting every requirement mask.

    Returns (size, chosen_mask, nodes_explored); size -1 if some requirement
    is empty (unsatisfiable).
    """
    if any(r == 0 for r in reqs):
        return -1, 0, 0
    if not reqs:
        return 0, 0, 1
    core, core_owners = _prepare(reqs, owners)
    best_size, best_mask = _greedy_hitting(core)
    nodes = 0

    def dfs(chosen: int, count: int, unsat: list[int], unsat_owners: list[int]):
        nonlocal nodes, best_size, best_mask
        nodes += 1
        if not unsat:
            if count < best_size:
                best_size, best_mask = count, chosen
            return
        if count + _disjoint_lb(unsat) >= best_size:
            return
        # Branch on the requirement with fewest candidates, ties by owner id.
        bi = 0
        bkey = (unsat[0].bit_count(), unsat_owners[0])
        for i in range(1, len(unsat)):
            key = (unsat[i].bit_count(), unsat_owners[i])
            if key < bkey:
                bkey = key
                bi = i
        r = unsat[bi]
        v = 0
        while r:
            if r & 1:
                bit = 1 << v
                nxt = [x for x in unsat if not (x & bit)]
                nxt_o = [unsat_owners[i] for i, x in enumerate(unsat) if not (x & bit)]
                dfs(chosen | bit, count + 1, nxt, nxt_o)
            r >>= 1
            v += 1

    dfs(0, 0, core, core_owners)
    return best_size, best_mask, nodes
