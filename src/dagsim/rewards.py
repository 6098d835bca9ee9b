"""Conflict sets and the fork-penalizing reward scheme.

Every sufficiently buried, non-stale block earns a base amount minus a
penalty per conflicting block, where two blocks conflict when neither is
reachable from the other and both are fresh at the judging tip.  Burial
depth strictly greater than ``2p`` fixes the amount for good; the ledger
enforces that at runtime by re-deriving amounts on demand and refusing to
let a recorded value change.

``judge`` is the one judging engine: it judges a batch of blocks at one
tip, counting all their conflicts in one numpy pass (``conflict_counts``).
Every reward computation in the package runs on it.

Amounts are integer micro-units so ledger equality is exact.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import FinalityViolation, NotInPast, StaleSubject
from .staleness import StaleIndex, stale_index
from .store import BlockDag, BlockId

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RewardParams:
    """Scheme constants: ``base`` per block, ``penalty`` per conflict, window ``p``.

    ``penalty == 0`` recovers the flat scheme in which every fresh, buried
    block earns exactly ``base``.  A ``base`` not comfortably above
    ``penalty * p * p`` risks zero-clamped rewards, so configuring one only
    logs a warning rather than failing.
    """

    base: int
    penalty: int
    p: int

    def __post_init__(self):
        if self.base <= 0:
            raise ValueError("base reward must be positive")
        if self.penalty < 0:
            raise ValueError("penalty must be non-negative")
        if self.p < 1:
            raise ValueError("staleness window must be positive")
        if self.penalty and self.base <= self.penalty * self.p * self.p:
            log.warning(
                "base reward %d is within the clamp-risk regime (<= penalty*p*p = %d)",
                self.base,
                self.penalty * self.p * self.p,
            )

    @property
    def finality_depth(self) -> int:
        return 2 * self.p


@dataclass(frozen=True)
class BlockReward:
    """Outcome of judging one block at one tip."""

    amount: int
    conflict_size: int
    stale: bool
    clamped: bool


_CHUNK = 256  # subjects per batch: the column gather takes blocks x _CHUNK bytes
_STALE = BlockReward(amount=0, conflict_size=0, stale=True, clamped=False)
_SHALLOW = BlockReward(amount=0, conflict_size=0, stale=False, clamped=False)


def _fresh_bits(dag: BlockDag, sidx: StaleIndex, tip_ix: int) -> np.ndarray:
    """One uint8 flag per block: set iff it is in past(tip) and fresh there."""
    bits = np.unpackbits(dag.mask_row(tip_ix), count=len(dag), bitorder="little")
    bits[list(sidx.cum(tip_ix))] = 0
    return bits


def conflict_counts(dag: BlockDag, sidx: StaleIndex, tip_ix: int, subjects, among=None):
    """Conflict-set sizes of ``subjects`` (fresh blocks of past(tip)) as an array.

    ``among``, block indexes holding every subject, restricts the counted
    conflicts to its members.  With F the fresh past of the tip, b's
    conflicts are F minus past(b) minus desc(b), and b lies in both, so
    the count is ``|F| - |past(b) & F| - |desc(b) & F| + 1``: a popcount
    of b's packed row against F, and b's bit column gathered over F's rows.
    """
    bits = _fresh_bits(dag, sidx, tip_ix)
    if among is not None:
        keep = np.zeros_like(bits)
        keep[np.asarray(among, dtype=np.intp)] = 1
        bits &= keep
    size, packed = int(np.count_nonzero(bits)), np.packbits(bits, bitorder="little")
    subj = np.asarray(subjects, dtype=np.intp)
    masks = dag._masks[: len(dag)]
    counts = np.empty(len(subj), dtype=np.int64)
    for lo in range(0, len(subj), _CHUNK):
        part = subj[lo : lo + _CHUNK]
        past = np.bitwise_count(masks[part, : len(packed)] & packed).sum(axis=1, dtype=np.int64)
        first = int(part.min())  # a descendant is stored after its ancestor
        column = masks[first:, part >> 3] >> (part & 7).astype(np.uint8)  # bit 0: b in past(x)
        column &= bits[first:, None]
        counts[lo : lo + _CHUNK] = size + 1 - past - np.count_nonzero(column, axis=0)
    return counts


def judge(dag: BlockDag, sidx: StaleIndex, tip_ix: int, subjects, params: RewardParams):
    """Outcomes (``BlockReward``) of the blocks ``subjects`` at ``tip_ix``, in order.

    Zero for stale blocks and for blocks whose meeting point with the tip
    is within the finality depth; otherwise base minus penalty per
    conflict, clamped at zero (clamping is flagged and counted upstream).
    An outcome at a stored tip never changes.
    """
    tip_depth = dag.depth_of(tip_ix)
    out: list[BlockReward | None] = []
    live: list[int] = []
    for b_ix in subjects:
        if not dag.in_past_ix(tip_ix, b_ix):
            raise NotInPast(f"{dag.id_at(b_ix).hex()[:12]} is not reachable from the tip")
        if sidx.is_stale_ix(b_ix, tip_ix):
            out.append(_STALE)
        elif tip_depth - dag.depth_of(dag.lca_ix(tip_ix, b_ix)) <= params.finality_depth:
            out.append(_SHALLOW)
        else:
            live.append(len(out))
            out.append(None)
    if live:
        counts = conflict_counts(dag, sidx, tip_ix, [subjects[k] for k in live])
        for k, c in zip(live, counts.tolist()):
            raw = params.base - params.penalty * c
            out[k] = BlockReward(amount=max(0, raw), conflict_size=c, stale=False, clamped=raw < 0)
    return out


def conflict_set(dag: BlockDag, tip: BlockId, bid: BlockId, p: int) -> set[BlockId]:
    """Fresh blocks in past(tip) mutually unreachable with ``bid``.

    Undefined (raises) when the subject itself is stale at the tip;
    membership is symmetric between any two fresh blocks.
    """
    tip_ix, b_ix = dag.index_of(tip), dag.index_of(bid)
    if not dag.in_past_ix(tip_ix, b_ix):
        raise NotInPast(f"{bid.hex()[:12]} is not reachable from the tip")
    sidx = stale_index(dag, p)
    if sidx.is_stale_ix(b_ix, tip_ix):
        raise StaleSubject(f"{bid.hex()[:12]} is stale at this tip")
    bits = _fresh_bits(dag, sidx, tip_ix)  # 0/1 flags: "&= ~byte" keeps x iff bit 0 is clear
    bits &= ~np.unpackbits(dag.mask_row(b_ix), count=len(dag), bitorder="little")  # x in past(b)
    bits &= ~(dag._masks[: len(dag), b_ix >> 3] >> (b_ix & 7))  # b in past(x)
    return {dag.id_at(x) for x in np.flatnonzero(bits).tolist()}


def reward(dag: BlockDag, tip: BlockId, bid: BlockId, params: RewardParams) -> BlockReward:
    """Amount granted to ``bid`` by the chain ending at ``tip`` (see ``judge``)."""
    sidx = stale_index(dag, params.p)
    return judge(dag, sidx, dag.index_of(tip), [dag.index_of(bid)], params)[0]


@dataclass
class LedgerEntry:
    amount: int
    miner: int
    conflict_size: int
    stale: bool
    clamped: bool
    tip: BlockId
    round_no: int


@dataclass
class RewardLedger:
    """Finalized amounts, plus the counters the scheme's guarantees are judged by."""

    entries: dict[BlockId, LedgerEntry] = field(default_factory=dict)
    negative_clamped: int = 0
    max_conflict: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    rechecks: int = 0

    @property
    def finalized(self) -> dict[BlockId, int]:
        return {bid: e.amount for bid, e in self.entries.items()}

    def record(
        self, bid: BlockId, miner: int, outcome: BlockReward, tip: BlockId, round_no: int
    ) -> None:
        if bid in self.entries:
            raise ValueError("block already finalized; use verify()")
        if outcome.clamped:
            self.negative_clamped += 1
        if not outcome.stale:
            self.max_conflict = max(self.max_conflict, outcome.conflict_size)
            self.histogram[outcome.conflict_size] = (
                self.histogram.get(outcome.conflict_size, 0) + 1
            )
        self.entries[bid] = LedgerEntry(
            amount=outcome.amount,
            miner=miner,
            conflict_size=outcome.conflict_size,
            stale=outcome.stale,
            clamped=outcome.clamped,
            tip=tip,
            round_no=round_no,
        )

    def verify(self, bid: BlockId, outcome: BlockReward) -> None:
        """Re-derived amount must match the recorded one exactly."""
        recorded = self.entries[bid]
        self.rechecks += 1
        if outcome.amount != recorded.amount:
            raise FinalityViolation(
                f"block {bid.hex()[:12]}: recorded {recorded.amount}, "
                f"re-derived {outcome.amount}"
            )

    def totals_by_miner(self) -> dict[int, int]:
        totals: dict[int, int] = {}
        for e in self.entries.values():
            totals[e.miner] = totals.get(e.miner, 0) + e.amount
        return totals

    def write_csv(self, fp: IO[str]) -> None:
        writer = csv.writer(fp)
        writer.writerow(
            ["block_id", "miner", "amount_micro", "finalized_round", "conflict_size", "stale"]
        )
        for bid, e in self.entries.items():
            writer.writerow(
                [bid.hex(), e.miner, e.amount, e.round_no, e.conflict_size, int(e.stale)]
            )


def finalize(
    dag: BlockDag,
    tip: BlockId,
    params: RewardParams,
    ledger: RewardLedger,
    *,
    round_no: int = 0,
    recheck: bool = False,
) -> RewardLedger:
    """Record rewards for every block buried deeper than the finality depth.

    Blocks already in the ledger are left untouched unless ``recheck`` is
    set, in which case their amounts are re-derived at this tip and must
    agree with the recorded values.
    """
    tip_ix = dag.index_of(tip)
    horizon = dag.depth_of(tip_ix) - params.finality_depth
    subjects = [
        b_ix
        for b_ix in dag.past_indexes(tip_ix).tolist()
        if dag.depth_of(dag.lca_ix(tip_ix, b_ix)) < horizon
        and (recheck or dag.id_at(b_ix) not in ledger.entries)
    ]
    outcomes = judge(dag, stale_index(dag, params.p), tip_ix, subjects, params)
    for b_ix, outcome in zip(subjects, outcomes):
        bid = dag.id_at(b_ix)
        if bid in ledger.entries:
            ledger.verify(bid, outcome)
        else:
            ledger.record(bid, dag.miner_of(b_ix), outcome, tip, round_no)
    return ledger
