"""Brute-force reference implementations and random DAG generation.

Everything here recomputes results from first principles (breadth-first
reachability, literal recursive definitions, full traversals) without
touching the store's incremental bitmaps, deltas, or caches.  The test
suite and the ``check`` command compare the production paths against these.
"""

from __future__ import annotations

import random
import sys
import struct

from .rewards import RewardParams
from .store import BlockDag, BlockId


def past_bfs(dag: BlockDag, bid: BlockId) -> set[BlockId]:
    """Reference reachability: explicit BFS over reference edges."""
    seen = {bid}
    frontier = [bid]
    while frontier:
        nxt: list[BlockId] = []
        for b in frontier:
            for r in dag.get(b).refs:
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def reachable_bfs(dag: BlockDag, from_id: BlockId, to_id: BlockId) -> bool:
    return to_id in past_bfs(dag, from_id)


def all_pasts(dag: BlockDag) -> dict[BlockId, set[BlockId]]:
    """Past sets for every block, rebuilt by dynamic programming over plain sets."""
    pasts: dict[BlockId, set[BlockId]] = {}
    for bid in dag:  # insertion order is topological
        s = {bid}
        for r in dag.get(bid).refs:
            s |= pasts[r]
        pasts[bid] = s
    return pasts


def order_recursive(dag: BlockDag, bid: BlockId) -> list[BlockId]:
    """Literal recursive ordering: parent first, then references in stored order."""
    visited: set[BlockId] = set()

    def go(b: BlockId) -> list[BlockId]:
        if b in visited:
            return []
        visited.add(b)
        blk = dag.get(b)
        if blk.parent is None:
            return [b]
        out = go(blk.parent)
        for r in blk.refs:
            out.extend(go(r))
        out.append(b)
        return out

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * len(dag) + 100))
    try:
        return go(bid)
    finally:
        sys.setrecursionlimit(limit)


def main_chain_traversal(dag: BlockDag, members: set[BlockId]) -> list[BlockId]:
    """Chain selection recomputed from scratch over a member set.

    Children and in-view subtree sizes are rebuilt from the parent edges
    alone, so this shares nothing with ``determine_parent``'s fork-point
    descent.
    """
    kids: dict[BlockId, list[BlockId]] = {m: [] for m in members}
    for m in members:
        p = dag.get(m).parent
        if p is not None:
            kids[p].append(m)

    def size(b: BlockId) -> int:
        total = 0
        stack = [b]
        while stack:
            x = stack.pop()
            total += 1
            stack.extend(kids[x])
        return total

    chain = [dag.genesis]
    cur = dag.genesis
    while kids[cur]:
        cur = min(kids[cur], key=lambda c: (-size(c), c))
        chain.append(cur)
    return chain


def lca_ancestor_lists(dag: BlockDag, a: BlockId, b: BlockId) -> BlockId:
    """LCA by intersecting full ancestor chains."""
    anc: set[BlockId] = set()
    x: BlockId | None = a
    while x is not None:
        anc.add(x)
        x = dag.get(x).parent
    y: BlockId | None = b
    while y is not None:
        if y in anc:
            return y
        y = dag.get(y).parent
    raise AssertionError("parent chains always share genesis")


def stale_set_direct(dag: BlockDag, tip: BlockId, p: int) -> set[BlockId]:
    """Stale set recomputed by unrolling the per-tip recursion from genesis."""
    chain: list[BlockId] = []
    x: BlockId | None = tip
    while x is not None:
        chain.append(x)
        x = dag.get(x).parent
    chain.reverse()

    def depth(b: BlockId) -> int:
        d = 0
        y = dag.get(b).parent
        while y is not None:
            d += 1
            y = dag.get(y).parent
        return d

    stale: set[BlockId] = set()
    prev_past: set[BlockId] = set()
    for step in chain:
        cur_past = past_bfs(dag, step)
        d_step = depth(step)
        for a in cur_past - prev_past:
            meet = lca_ancestor_lists(dag, a, step)
            if d_step - depth(meet) > p:
                stale.add(a)
        prev_past = cur_past
    return stale


def conflict_set_direct(dag: BlockDag, tip: BlockId, bid: BlockId, p: int) -> set[BlockId]:
    """Conflict set by checking every block in past(tip) individually."""
    stale = stale_set_direct(dag, tip, p)
    assert bid not in stale, "conflict set undefined for a stale subject"
    out: set[BlockId] = set()
    for x in past_bfs(dag, tip):
        if x == bid or x in stale:
            continue
        if not reachable_bfs(dag, bid, x) and not reachable_bfs(dag, x, bid):
            out.add(x)
    return out


def reward_direct(dag: BlockDag, tip: BlockId, bid: BlockId, params: RewardParams) -> int:
    """Reward amount from the literal definition (clamped at zero)."""
    if bid in stale_set_direct(dag, tip, params.p):
        return 0
    meet = lca_ancestor_lists(dag, tip, bid)
    dist = 0
    x = tip
    while x != meet:
        dist += 1
        x = dag.get(x).parent  # type: ignore[assignment]
    if dist <= 2 * params.p:
        return 0
    conflicts = conflict_set_direct(dag, tip, bid, params.p)
    return max(0, params.base - params.penalty * len(conflicts))


def random_dag(
    rng: random.Random,
    n_blocks: int = 50,
    n_miners: int = 4,
    max_extra_refs: int = 2,
    recency: float = 2.5,
) -> BlockDag:
    """Random reference-valid DAG biased toward referencing recent blocks.

    ``recency`` > 1 concentrates references near the frontier, producing
    chain-like DAGs with occasional forks; lower values produce bushier
    graphs.
    """
    dag = BlockDag()
    for i in range(n_blocks):
        size = len(dag)
        n_refs = 1 + rng.randint(0, max_extra_refs)
        picks: set[BlockId] = set()
        for _ in range(n_refs):
            back = int(size * (rng.random() ** recency))
            picks.add(dag.id_at(size - 1 - back))
        payload = struct.pack(">I", i)
        dag.insert(payload, sorted(picks), rng.randrange(n_miners))
    return dag
