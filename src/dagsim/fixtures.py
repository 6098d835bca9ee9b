"""Hand-built DAG fixtures with known chain, ordering, and conflict structure."""

from __future__ import annotations

from dataclasses import dataclass

from .store import BlockDag, BlockId, block_id


@dataclass(frozen=True)
class ForkExample:
    """A small DAG with one contested fork and a fully merging observer tip.

    Shape (solid = parent edge, dashed = extra reference)::

            u <-------.
           /           \\ (ref)
        g -- b -- c ---- d
           \\    \\(ref u)  \\
            w     cu <------' (ref)
             \\
              cw

    ``b``, ``u``, ``w`` are all children of genesis; ``c`` references both
    ``b`` and ``u`` and parents to ``b`` (ids are ground so the equal-size
    tie at genesis resolves toward ``b``); ``cu`` extends ``b`` and ``cw``
    extends ``w`` without referencing ``c``.  The observer ``t`` merges
    everything.  The blocks mutually unreachable with ``c`` are exactly
    ``{w, cu, cw}``.
    """

    dag: BlockDag
    g: BlockId
    b: BlockId
    u: BlockId
    w: BlockId
    c: BlockId
    cu: BlockId
    cw: BlockId
    d: BlockId
    t: BlockId


def fork_example() -> ForkExample:
    dag = BlockDag()
    g = dag.genesis

    b_payload = b"left"
    bid_b = block_id(b_payload, [g], 0)
    # Grind the sibling payload until its id sorts after b's, so the
    # genesis-level tie between the two single-block subtrees picks b.
    n = 0
    while True:
        u_payload = b"side-%d" % n
        if block_id(u_payload, [g], 1) > bid_b:
            break
        n += 1

    b = dag.insert(b_payload, [g], 0).id
    u = dag.insert(u_payload, [g], 1).id
    w = dag.insert(b"lower", [g], 2).id
    c = dag.insert(b"merge-bu", [b, u], 0).id
    cu = dag.insert(b"fork-of-b", [b], 3).id
    cw = dag.insert(b"extend-w", [w], 2).id
    d = dag.insert(b"merge-c-cu", [c, cu], 0).id
    t = dag.insert(b"observer", [d, cw], 1).id
    return ForkExample(dag=dag, g=g, b=b, u=u, w=w, c=c, cu=cu, cw=cw, d=d, t=t)
