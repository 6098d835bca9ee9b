"""Main-chain selection over the parent tree and automatic parent choice.

The selected chain starts at genesis and repeatedly descends into the child
whose parent-tree subtree holds the most blocks, breaking ties toward the
smallest block id.  A new block's parent is the end of that chain evaluated
over everything reachable from its references.

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
    computed once per view by a reverse-topological sweep.  This is the
    package's only source of parent-tree subtree sizes: ``whole`` gives
    the global ones.
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


def heaviest_child(view: ChainView, bid: BlockId) -> BlockId | None:
    """Child of ``bid`` with the largest in-view subtree; smallest id wins ties."""
    if bid not in view:
        raise UnknownBlock(bid.hex())
    sizes = view._size_table()
    dag = view.dag
    best: BlockId | None = None
    best_size = 0
    for cix in dag._children_ix[dag._index[bid]]:
        if cix not in view._members:
            continue
        s = sizes[cix]
        c = dag._ids[cix]
        if s > best_size or (s == best_size and (best is None or c < best)):
            best = c
            best_size = s
    return best


def main_chain(view: ChainView) -> list[BlockId]:
    """Genesis-to-leaf chain selected by heaviest-subtree descent."""
    if len(view) == 0:
        raise ValueError("empty view")
    cur = view.dag.genesis
    chain = [cur]
    while True:
        nxt = heaviest_child(view, cur)
        if nxt is None:
            return chain
        chain.append(nxt)
        cur = nxt


def determine_parent(dag: BlockDag, refs: list[BlockId] | tuple[BlockId, ...]) -> BlockId:
    """Parent for a block with the given references.

    Evaluates the chain over the union of the references' pasts and returns
    its last element.  The result always lies in that union, but only
    protocol-following reference lists guarantee it is one of the refs.
    """
    view = ChainView.from_refs(dag, refs)
    return main_chain(view)[-1]
