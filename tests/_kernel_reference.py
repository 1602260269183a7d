"""A list-based implementation of the pure hitting-set search.

The reference for ``_bb_py.min_hitting_set`` past 64 bits, where the
compiled kernel cannot answer: both must return the same (size, mask,
nodes) triple.  Both kernels search on a mask over fixed rows; the search
state here is instead a list of unsatisfied requirement masks, filtered
into a fresh list at every node, so it shares no representation with them.
"""

from __future__ import annotations


def _prepare(reqs: list[int]) -> list[int]:
    # Sort by popcount, ties in input order, and drop requirements that are
    # supersets of another: hitting the subset hits them for free.
    kept: list[int] = []
    for r in sorted(reqs, key=lambda r: r.bit_count()):
        if not any((s & r) == s for s in kept):
            kept.append(r)
    return kept


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


def min_hitting_set(reqs: list[int]) -> tuple[int, int, int]:
    """Minimum-size vertex set meeting every requirement mask.

    Returns (size, chosen_mask, nodes_explored); size -1 if some requirement
    is empty (unsatisfiable).
    """
    if any(r == 0 for r in reqs):
        return -1, 0, 0
    if not reqs:
        return 0, 0, 1
    core = _prepare(reqs)
    best_size, best_mask = _greedy_hitting(core)
    nodes = 0

    def dfs(chosen: int, count: int, unsat: list[int]):
        nonlocal nodes, best_size, best_mask
        nodes += 1
        if not unsat:
            if count < best_size:
                best_size, best_mask = count, chosen
            return
        if count + _disjoint_lb(unsat) >= best_size:
            return
        # Branch on the requirement with fewest candidates, ties by position.
        r = min(unsat, key=lambda r: r.bit_count())
        v = 0
        while r:
            if r & 1:
                bit = 1 << v
                dfs(chosen | bit, count + 1, [x for x in unsat if not (x & bit)])
            r >>= 1
            v += 1

    dfs(0, 0, core)
    return best_size, best_mask, nodes
