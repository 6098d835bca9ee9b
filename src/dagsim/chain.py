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
through m.

All functions here are pure with respect to the store; views are ephemeral
and safe to evaluate concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownBlock, UnknownReference
from .store import BlockDag, BlockId


class ChainView:
    """A past-closed restriction of a dag used for chain evaluation.

    Subtree sizes inside the view count only view members; they are
    computed once per view by a reverse-topological sweep.  ``whole``
    gives the global ones.  ``determine_parent`` builds no view: it sizes
    only the part of the union of pasts below its fork point.
    """

    def __init__(self, dag: BlockDag, member_ixs: set[int], *, _trusted: bool = False):
        self.dag = dag
        self._members = member_ixs
        if not _trusted:
            self._check_closed()
        self._sizes: dict[int, int] | None = None

    def _check_closed(self) -> None:
        ref_ixs = self.dag._ref_ixs
        for ix in self._members:
            for r in ref_ixs[ix]:
                if r not in self._members:
                    raise ValueError("view is not closed under references")

    @classmethod
    def from_refs(cls, dag: BlockDag, refs: list[BlockId] | tuple[BlockId, ...]) -> "ChainView":
        """View over the union of the references' pasts."""
        try:
            ref_ixs = [dag._index[r] for r in refs]
        except KeyError as exc:
            raise UnknownReference(exc.args[0].hex()) from None
        mask = np.zeros_like(dag.mask_row(0))
        for r in ref_ixs:
            np.bitwise_or(mask, dag.mask_row(r), out=mask)
        bits = np.unpackbits(mask, bitorder="little")[: len(dag)]
        return cls(dag, set(np.nonzero(bits)[0].tolist()), _trusted=True)

    @classmethod
    def whole(cls, dag: BlockDag) -> "ChainView":
        return cls(dag, set(range(len(dag))), _trusted=True)

    def __contains__(self, bid: BlockId) -> bool:
        ix = self.dag._index.get(bid)
        return ix is not None and ix in self._members

    def __len__(self) -> int:
        return len(self._members)

    def children_in_view(self, bid: BlockId) -> list[BlockId]:
        if bid not in self:
            raise UnknownBlock(bid.hex())
        dag = self.dag
        return [dag.id_at(c) for c in dag._children_ix[dag._index[bid]] if c in self._members]

    def subtree_size(self, bid: BlockId) -> int:
        if bid not in self:
            raise UnknownBlock(bid.hex())
        return self._size_table()[self.dag.index_of(bid)]

    def _size_table(self) -> dict[int, int]:
        if self._sizes is None:
            sizes = {ix: 1 for ix in self._members}
            parent_ix = self.dag._parent_ix
            # Children precede parents when walking indexes downward.
            for ix in sorted(self._members, reverse=True):
                p = parent_ix[ix]
                if p >= 0:
                    # Closure puts every member's parent inside the view.
                    sizes[p] += sizes[ix]
            self._sizes = sizes
        return self._sizes


def _heaviest_child_ix(dag: BlockDag, ix: int, sizes: dict[int, int]) -> int | None:
    """Child of ``ix`` with the largest entry in ``sizes``; smallest id wins ties.

    A child without an entry lies outside the view.  This is the one
    tie-break of chain selection: both descents below use it.
    """
    ids = dag._ids
    best: int | None = None
    best_size = 0
    for c in dag._children_ix[ix]:
        s = sizes.get(c)
        if s is None:
            continue
        if s > best_size or (s == best_size and ids[c] < ids[best]):
            best, best_size = c, s
    return best


def _descend(dag: BlockDag, ix: int, sizes: dict[int, int]) -> list[int]:
    """Heaviest-child path from ``ix`` down to a leaf of the view."""
    path = [ix]
    while (ix := _heaviest_child_ix(dag, ix, sizes)) is not None:
        path.append(ix)
    return path


def heaviest_child(view: ChainView, bid: BlockId) -> BlockId | None:
    """Child of ``bid`` with the largest in-view subtree; smallest id wins ties."""
    if bid not in view:
        raise UnknownBlock(bid.hex())
    dag = view.dag
    child = _heaviest_child_ix(dag, dag._index[bid], view._size_table())
    return None if child is None else dag._ids[child]


def main_chain(view: ChainView) -> list[BlockId]:
    """Genesis-to-leaf chain selected by heaviest-subtree descent."""
    if len(view) == 0:
        raise ValueError("empty view")
    ids = view.dag._ids
    return [ids[ix] for ix in _descend(view.dag, 0, view._size_table())]


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
    return dag._ids[_descend(dag, m, sizes)[-1]]
