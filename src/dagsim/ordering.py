"""Total order over a block's past, evaluated as one chain.

A block's order extends its parent's order: walk the parent chain from
genesis and, at every chain step, splice in the blocks that became
reachable at that step (in depth-first visit order, references expanded in
their stored order), followed by the step's block itself.  The store
precomputes those per-block splices at insertion, so ordering any block is
a single chain walk with no recursion.
"""

from __future__ import annotations

from .store import BlockDag, BlockId


def order(dag: BlockDag, bid: BlockId) -> list[BlockId]:
    """Permutation of past(bid): genesis first, ``bid`` last.

    Every block appears after everything in its own past, and the order of
    a block's parent is always a strict prefix.
    """
    ix = dag.index_of(bid)
    chain: list[int] = []
    while ix >= 0:
        chain.append(ix)
        ix = dag.parent_index(ix)
    chain.reverse()

    ids = dag._ids
    out: list[BlockId] = [ids[chain[0]]]
    for step in chain[1:]:
        out.extend(ids[j] for j in dag.delta_past_ix(step))
        out.append(ids[step])
    return out
