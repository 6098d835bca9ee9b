"""Main-chain selection over the parent tree and automatic parent choice.

The selected chain starts at genesis and repeatedly descends into the child
whose parent-tree subtree holds the most blocks, breaking ties toward the
smallest block id.  A new block's parent is the end of that chain evaluated
over everything reachable from its references.

The store keeps one invariant: every stored parent is the chain end over
the union of its block's references' pasts.  ``BlockDag.insert`` derives the
parent with ``determine_parent``, or verifies a parent hint against it when
``check_parents`` is on.  It follows that the chain over past(q), for any
stored block q, is the parent-tree path from genesis to q.  So
``determine_parent`` need not descend from genesis: it starts at the fork
point m, the lowest common parent-tree ancestor of one reference q and every
block the other references add to past(q), and descends from there.  Above
m no sibling subtree of the path to q holds an added block, so the added
blocks only make the path heavier and the chain over the union still runs
through m.  ``main_chain`` is then just the parent-tree path from genesis
to the chain end that ``determine_parent`` finds.

All functions here are pure with respect to the store.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownReference
from .store import BlockDag, BlockId


def _descend(dag: BlockDag, ix: int, sizes: dict[int, int]) -> int:
    """End of the heaviest-child path from ``ix``; smallest id wins ties.

    ``sizes`` holds the in-view subtree size of every view member at or
    below ``ix``; a child without an entry lies outside the view.
    """
    ids, children = dag._ids, dag._children_ix
    while True:
        best, best_size = None, 0
        for c in children[ix]:
            s = sizes.get(c)
            if s is not None and (s > best_size or (s == best_size and ids[c] < ids[best])):
                best, best_size = c, s
        if best is None:
            return ix
        ix = best


def main_chain(
    dag: BlockDag, refs: list[BlockId] | tuple[BlockId, ...] | None = None
) -> list[BlockId]:
    """Genesis-to-end chain over the union of the references' pasts.

    Without ``refs`` (or with an empty list) the chain runs over the whole
    dag.  Every descent is a parent-tree path, so the chain is the path
    from genesis to ``determine_parent``'s chain end.
    """
    ix = dag.index_of(determine_parent(dag, refs or dag.tips()))
    path = []
    while ix >= 0:
        path.append(dag._ids[ix])
        ix = dag._parent_ix[ix]
    return path[::-1]


def determine_parent(dag: BlockDag, refs: list[BlockId] | tuple[BlockId, ...]) -> BlockId:
    """Parent for a block with the given references.

    Returns the end of the chain over the union V of the references' pasts.
    The result always lies in V, but only protocol-following reference
    lists guarantee it is one of the refs.

    The descent starts at the fork point, not at genesis, which relies on
    the store invariant (module docstring) holding for every block in V.
    Take q, the reference with the largest past.  The chain over past(q)
    ends at q.  Fold the lowest common parent-tree ancestor over q and every
    block of V \\ past(q) into m.  Only the blocks of V with index >= m can
    be m or its descendants, since a block's index exceeds its parent's, so
    in-view subtree sizes are built for those alone before descending from m.
    """
    try:
        ref_ixs = [dag._index[r] for r in refs]
    except KeyError as exc:
        raise UnknownReference(exc.args[0].hex()) from None
    if len(ref_ixs) == 1:
        return dag._ids[ref_ixs[0]]
    q = max(ref_ixs, key=dag.past_size)
    q_row = dag.mask_row(q)
    union = q_row.copy()
    for r in ref_ixs:
        np.bitwise_or(union, dag.mask_row(r), out=union)
    extra = np.flatnonzero(np.unpackbits(union & ~q_row, bitorder="little"))
    if extra.size == 0:
        return dag._ids[q]
    m = q
    for x in extra.tolist():
        m = dag.lca_ix(m, x)

    tail = np.flatnonzero(np.unpackbits(union[m >> 3 :], bitorder="little")) + 8 * (m >> 3)
    below = tail[tail >= m].tolist()
    sizes = dict.fromkeys(below, 1)
    parent_ix = dag._parent_ix
    # Children precede parents when walking indexes downward; a parent below
    # m is outside the table and its sizes are never read.
    for ix in reversed(below):
        p = parent_ix[ix]
        if p >= m:
            sizes[p] += sizes[ix]
    return dag._ids[_descend(dag, m, sizes)]
