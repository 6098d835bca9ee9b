"""Append-only content-addressed block storage forming a rooted DAG.

Blocks are identified by a 32-byte digest of their canonical serialization
(length-prefixed payload, references in stored order, miner id).  The store
derives and caches each block's parent edge at insertion time, keeps every
block fact in lists indexed by insertion order, and answers reachability
queries from packed per-block ancestry bitmaps.

Concurrency: single writer, multiple readers.  Insertions must be
serialized by the caller; queries never mutate shared state.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    DagError,
    DuplicateBlock,
    DuplicateReference,
    EmptyReferences,
    SnapshotError,
    UnknownBlock,
    UnknownReference,
)

BlockId = bytes
MinerId = int

GENESIS_MINER: MinerId = -1

_DIGEST = hashlib.sha256


def canonical_bytes(payload: bytes, refs: Iterable[BlockId], miner: MinerId) -> bytes:
    """Serialize the identity-relevant fields of a block.

    Every field is length- or count-prefixed so distinct field values can
    never produce the same byte string.
    """
    parts = [struct.pack(">I", len(payload)), payload]
    refs = list(refs)
    parts.append(struct.pack(">I", len(refs)))
    for r in refs:
        parts.append(struct.pack(">I", len(r)))
        parts.append(r)
    parts.append(struct.pack(">q", miner))
    return b"".join(parts)


def block_id(payload: bytes, refs: Iterable[BlockId], miner: MinerId) -> BlockId:
    """Content-derived id: digest of the canonical serialization."""
    return _DIGEST(canonical_bytes(payload, refs, miner)).digest()


@dataclass(frozen=True)
class Block:
    """Immutable DAG node.

    ``parent`` is the automatically determined parent-tree edge, cached at
    insertion; it is always an element of the union of the references'
    pasts, but for adversarially chosen reference lists it need not be one
    of the references itself.
    """

    id: BlockId
    payload: bytes
    refs: tuple[BlockId, ...]
    miner: MinerId
    parent: BlockId | None


class BlockDag:
    """Append-only store of blocks rooted at a genesis block.

    The genesis block (empty payload, no references, reserved miner id) is
    created by the constructor.  ``_index`` maps an id to its insertion
    index, which every other field is a list over; parent-tree subtree
    sizes are not stored (``chain.determine_parent`` sizes only the part
    of a view below its fork point).
    ``check_parents`` makes ``insert`` verify parent hints.
    """

    def __init__(self, *, check_parents: bool = False):
        self.check_parents = check_parents

        gid = block_id(b"", (), GENESIS_MINER)
        self.genesis: BlockId = gid

        # Dense integer handles in insertion order. All graph algorithms in
        # the package run on these.
        self._ids: list[BlockId] = [gid]
        self._index: dict[BlockId, int] = {gid: 0}
        self._blocks = [Block(id=gid, payload=b"", refs=(), miner=GENESIS_MINER, parent=None)]
        self._children_ix: list[list[int]] = [[]]
        self._parent_ix: list[int] = [-1]
        self._depth: list[int] = [0]
        self._miner_ix: list[MinerId] = [GENESIS_MINER]
        # Binary-lifting ancestor table, _up[i][k] = 2^k-th parent of i.
        self._up: list[tuple[int, ...]] = [()]
        self._ref_ixs: list[tuple[int, ...]] = [()]
        # Newly reachable blocks relative to the parent, in depth-first
        # visit order (excluding the block itself).
        self._delta_past: list[tuple[int, ...]] = [()]

        # Packed ancestry bitmaps, one row per block, bit j of row i set
        # iff block j is in past(i). Rows and columns grow on demand.
        self._masks = np.zeros((64, 8), dtype=np.uint8)
        self._masks[0, 0] = 1  # genesis reaches itself

        # Caches owned by the dag (append-only, so never invalidated).
        self._stale_indexes: dict[int, object] = {}

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, bid: BlockId) -> bool:
        return bid in self._index

    def __iter__(self) -> Iterator[BlockId]:
        return iter(self._ids)

    def get(self, bid: BlockId) -> Block:
        try:
            return self._blocks[self._index[bid]]
        except KeyError:
            raise UnknownBlock(bid.hex()) from None

    def index_of(self, bid: BlockId) -> int:
        try:
            return self._index[bid]
        except KeyError:
            raise UnknownBlock(bid.hex()) from None

    def id_at(self, ix: int) -> BlockId:
        return self._ids[ix]

    def parent_index(self, ix: int) -> int:
        return self._parent_ix[ix]

    def depth_of(self, ix: int) -> int:
        return self._depth[ix]

    def miner_of(self, ix: int) -> MinerId:
        return self._miner_ix[ix]

    def delta_past_ix(self, ix: int) -> tuple[int, ...]:
        """Indexes newly reachable from block ``ix`` but not from its parent."""
        return self._delta_past[ix]

    def ref_indexes(self, ix: int) -> tuple[int, ...]:
        return self._ref_ixs[ix]

    # -- mask plumbing -----------------------------------------------------

    def _grow_masks(self, rows: int, cols: int) -> None:
        grown = np.zeros((rows, cols), dtype=np.uint8)
        grown[: self._masks.shape[0], : self._masks.shape[1]] = self._masks
        self._masks = grown

    def _new_mask_row(self, ix: int, ref_ixs: list[int]) -> None:
        rows, cols = self._masks.shape
        need_cols = (ix >> 3) + 1
        if ix >= rows or need_cols > cols:
            self._grow_masks(max(rows * 2, ix + 1), max(cols * 2, need_cols))
        row = self._masks[ix]
        for r in ref_ixs:
            np.bitwise_or(row, self._masks[r], out=row)
        row[ix >> 3] |= 1 << (ix & 7)

    def in_past_ix(self, of_ix: int, target_ix: int) -> bool:
        """True iff block ``target_ix`` is reachable by references from ``of_ix``."""
        return bool((self._masks[of_ix, target_ix >> 3] >> (target_ix & 7)) & 1)

    def past_indexes(self, ix: int) -> np.ndarray:
        """Sorted array of indexes of past(ix), including ix."""
        bits = np.unpackbits(self._masks[ix], bitorder="little")
        return np.nonzero(bits[: len(self._ids)])[0]

    def past_size(self, ix: int) -> int:
        bits = np.unpackbits(self._masks[ix], bitorder="little")
        return int(bits[: len(self._ids)].sum())

    def mask_row(self, ix: int) -> np.ndarray:
        return self._masks[ix]

    # -- ancestor utilities --------------------------------------------------

    def ancestor_at(self, ix: int, depth: int) -> int:
        """Parent-tree ancestor of ``ix`` at the given depth (binary lifting)."""
        d = self._depth[ix]
        if depth > d:
            raise ValueError("depth below the block")
        delta = d - depth
        k = 0
        while delta:
            if delta & 1:
                ix = self._up[ix][k]
            delta >>= 1
            k += 1
        return ix

    def lca_ix(self, a: int, b: int) -> int:
        """Lowest common parent-tree ancestor of two block indexes."""
        da, db = self._depth[a], self._depth[b]
        if da > db:
            a = self.ancestor_at(a, db)
        elif db > da:
            b = self.ancestor_at(b, da)
        if a == b:
            return a
        for k in range(len(self._up[a]) - 1, -1, -1):
            ua, ub = self._up[a], self._up[b]
            if k < len(ua) and ua[k] != ub[k]:
                a, b = ua[k], ub[k]
        return self._parent_ix[a]

    # -- insertion -----------------------------------------------------------

    def insert(
        self,
        payload: bytes,
        refs: list[BlockId] | tuple[BlockId, ...],
        miner: MinerId,
        *,
        parent: BlockId | None = None,
    ) -> Block:
        """Append a block; returns the stored Block with its derived parent.

        All references must already be present (the store does not buffer
        orphans).  ``parent`` lets callers that have already run chain
        selection skip recomputing it; with ``check_parents`` enabled the
        hint is verified against the selection rule.

        Every stored parent must be the chain end over the union of its
        block's references' pasts: ``chain.determine_parent`` starts its
        descent at a fork point on that assumption.  An unchecked wrong
        hint therefore breaks the invariant not only for this block but
        for every later block whose references reach it; ``check_parents``
        guards against that.
        """
        if not refs:
            raise EmptyReferences("a block must reference at least one block")
        if len(set(refs)) != len(refs):
            raise DuplicateReference("duplicate ids in reference list")
        try:
            ref_ixs = [self._index[r] for r in refs]
        except KeyError as exc:
            raise UnknownReference(exc.args[0].hex()) from None

        bid = block_id(payload, refs, miner)
        if bid in self._index:
            raise DuplicateBlock(bid.hex())

        from .chain import determine_parent  # cycle: chain builds on the store

        if parent is None:
            parent = determine_parent(self, refs)
        elif self.check_parents and parent != determine_parent(self, refs):
            raise ValueError(
                f"parent hint {parent.hex()[:12]} contradicts the chain selection rule"
            )

        block = Block(id=bid, payload=payload, refs=tuple(refs), miner=miner, parent=parent)
        ix = len(self._ids)
        pix = self._index[parent]

        self._ids.append(bid)
        self._index[bid] = ix
        self._blocks.append(block)
        self._children_ix.append([])
        self._children_ix[pix].append(ix)
        self._parent_ix.append(pix)
        self._depth.append(self._depth[pix] + 1)
        self._miner_ix.append(miner)
        self._ref_ixs.append(tuple(ref_ixs))
        self._new_mask_row(ix, ref_ixs)
        self._build_lifting(ix, pix)
        self._delta_past.append(self._compute_delta(ix, pix, ref_ixs))
        return block

    def _build_lifting(self, ix: int, pix: int) -> None:
        ups = [pix]
        k = 0
        while True:
            prev = ups[k]
            table = self._up[prev]
            if k >= len(table):
                break
            ups.append(table[k])
            k += 1
        self._up.append(tuple(ups))

    def _compute_delta(self, ix: int, pix: int, ref_ixs: list[int]) -> tuple[int, ...]:
        """Depth-first visit order of past(ix) \\ past(parent) \\ {ix}.

        Mirrors the recursive ordering walk: each node expands its parent
        edge first, then its references in stored order, and is emitted
        after its expansion completes.
        """
        pmask = self._masks[pix]

        def fresh(j: int) -> bool:
            return not (pmask[j >> 3] >> (j & 7)) & 1

        out: list[int] = []
        seen: set[int] = set()
        for r in ref_ixs:
            if r in seen or not fresh(r):
                continue
            # Iterative post-order; children = [parent] + refs, skipping
            # anything already visited or already reachable from the parent.
            stack: list[tuple[int, list[int], int]] = []
            seen.add(r)
            stack.append((r, self._children_for_visit(r), 0))
            while stack:
                node, kids, i = stack.pop()
                advanced = False
                while i < len(kids):
                    c = kids[i]
                    i += 1
                    if c in seen or not fresh(c):
                        continue
                    seen.add(c)
                    stack.append((node, kids, i))
                    stack.append((c, self._children_for_visit(c), 0))
                    advanced = True
                    break
                if not advanced:
                    out.append(node)
        return tuple(out)

    def _children_for_visit(self, j: int) -> list[int]:
        return [self._parent_ix[j], *self._ref_ixs[j]]

    # -- queries ---------------------------------------------------------------

    def past(self, bid: BlockId) -> set[BlockId]:
        """All blocks reachable from ``bid`` by references, including itself."""
        ix = self.index_of(bid)
        return {self._ids[j] for j in self.past_indexes(ix)}

    def is_reachable(self, from_id: BlockId, to_id: BlockId) -> bool:
        """True iff ``to_id`` is in past(``from_id``)."""
        return self.in_past_ix(self.index_of(from_id), self.index_of(to_id))

    def tips(self) -> list[BlockId]:
        """Blocks not referenced by any stored block, in insertion order."""
        referenced = {r for refs in self._ref_ixs for r in refs}
        return [bid for ix, bid in enumerate(self._ids) if ix not in referenced]

    # -- snapshot io -------------------------------------------------------------

    def dump(self, fp: IO[str]) -> None:
        """Write one JSON record per block in insertion (topological) order."""
        for b in self._blocks:
            rec = {
                "id": b.id.hex(),
                "payload_hex": b.payload.hex(),
                "refs": [r.hex() for r in b.refs],
                "miner": b.miner,
                "parent": b.parent.hex() if b.parent is not None else None,
            }
            fp.write(json.dumps(rec, separators=(",", ":")) + "\n")


def load_dag(fp: IO[str], **kwargs) -> BlockDag:
    """Rebuild a dag from a snapshot, verifying ids and recorded parents.

    A record that does not parse, does not insert, or disagrees with the
    rebuilt store raises ``SnapshotError`` naming its line.
    """
    dag = BlockDag(**kwargs)
    for line_no, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise TypeError("record is not a JSON object")
            bid = bytes.fromhex(rec["id"])
            payload = bytes.fromhex(rec["payload_hex"])
            refs = [bytes.fromhex(r) for r in rec["refs"]]
            miner = rec["miner"]
            if type(miner) is not int:
                raise TypeError("miner is not an integer")
            recorded = rec.get("parent")
            parent = None if recorded is None else bytes.fromhex(recorded)
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotError(f"line {line_no}: malformed record: {exc!r}") from None
        if not refs:
            if line_no != 1:
                raise SnapshotError(f"line {line_no}: genesis record out of place")
            if bid != dag.genesis:
                raise SnapshotError("line 1: snapshot genesis does not match")
            continue
        try:
            block = dag.insert(payload, refs, miner)
        except DagError as exc:
            raise SnapshotError(f"line {line_no}: {exc.__class__.__name__}: {exc}") from None
        if block.id != bid:
            raise SnapshotError(f"line {line_no}: recomputed id differs")
        if parent is not None and parent != block.parent:
            raise SnapshotError(f"line {line_no}: recorded parent differs")
    return dag
