"""Conflict sets and the fork-penalizing reward scheme.

Every sufficiently buried, non-stale block earns a base amount minus a
penalty per conflicting block, where two blocks conflict when neither is
reachable from the other and both are fresh at the judging tip.  Burial
depth strictly greater than ``2p`` fixes the amount for good; the ledger
enforces that at runtime by re-deriving amounts on demand and refusing to
let a recorded value change.

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


def _conflict_indexes(dag: BlockDag, sidx: StaleIndex, tip_ix: int, b_ix: int) -> list[int]:
    """Ascending indexes of the fresh blocks in past(tip) mutually unreachable with ``b_ix``."""
    diff = dag.mask_row(tip_ix) & ~dag.mask_row(b_ix)
    bits = np.unpackbits(diff, bitorder="little")[: len(dag)]
    candidates = np.nonzero(bits)[0]
    # Candidates that reference the subject are not in conflict with it;
    # this one column test drops about 99% of them on simulator dags.
    out = candidates[~dag.in_past_ixs(candidates, b_ix)].tolist()
    stale_at_tip = sidx.cum(tip_ix)
    if stale_at_tip:
        out = [x for x in out if x not in stale_at_tip]
    return out


def conflict_set(dag: BlockDag, tip: BlockId, bid: BlockId, p: int) -> set[BlockId]:
    """Fresh blocks in past(tip) mutually unreachable with ``bid``.

    Undefined (raises) when the subject itself is stale at the tip;
    membership is symmetric between any two fresh blocks.
    """
    tip_ix = dag.index_of(tip)
    b_ix = dag.index_of(bid)
    if not dag.in_past_ix(tip_ix, b_ix):
        raise NotInPast(f"{bid.hex()[:12]} is not reachable from the tip")
    sidx = stale_index(dag, p)
    if sidx.is_stale_ix(b_ix, tip_ix):
        raise StaleSubject(f"{bid.hex()[:12]} is stale at this tip")
    return {dag.id_at(x) for x in _conflict_indexes(dag, sidx, tip_ix, b_ix)}


def reward(dag: BlockDag, tip: BlockId, bid: BlockId, params: RewardParams) -> BlockReward:
    """Amount granted to ``bid`` by the chain ending at ``tip``.

    Zero for stale blocks and for blocks whose meeting point with the tip
    is within the finality depth; otherwise base minus penalty per
    conflict, clamped at zero (clamping is flagged and counted upstream).
    """
    tip_ix = dag.index_of(tip)
    b_ix = dag.index_of(bid)
    if not dag.in_past_ix(tip_ix, b_ix):
        raise NotInPast(f"{bid.hex()[:12]} is not reachable from the tip")
    sidx = stale_index(dag, params.p)
    if sidx.is_stale_ix(b_ix, tip_ix):
        return BlockReward(amount=0, conflict_size=0, stale=True, clamped=False)
    meet = dag.lca_ix(tip_ix, b_ix)
    if dag.depth_of(tip_ix) - dag.depth_of(meet) <= params.finality_depth:
        return BlockReward(amount=0, conflict_size=0, stale=False, clamped=False)
    conflicts = _conflict_indexes(dag, sidx, tip_ix, b_ix)
    raw = params.base - params.penalty * len(conflicts)
    return BlockReward(
        amount=max(0, raw),
        conflict_size=len(conflicts),
        stale=False,
        clamped=raw < 0,
    )


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

    @property
    def finalized_at(self) -> dict[BlockId, BlockId]:
        return {bid: e.tip for bid, e in self.entries.items()}

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
    tip_depth = dag.depth_of(tip_ix)
    horizon = tip_depth - params.finality_depth
    if horizon <= 0:
        return ledger
    for b_ix in dag.past_indexes(tip_ix).tolist():
        if dag.depth_of(dag.lca_ix(tip_ix, b_ix)) >= horizon:
            continue
        bid = dag.id_at(b_ix)
        if bid in ledger.entries:
            if recheck:
                ledger.verify(bid, reward(dag, tip, bid, params))
            continue
        outcome = reward(dag, tip, bid, params)
        ledger.record(bid, dag.miner_of(b_ix), outcome, tip, round_no)
    return ledger
