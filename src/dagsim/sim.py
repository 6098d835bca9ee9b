"""Deterministic round-based simulation of honest miners and one adversary.

Each round proceeds as: the adversary mines on its private knowledge, the
honest players mine on everything announced through the previous round and
broadcast at once, then the adversary inspects the round's honest blocks
and decides its announcements.  Broadcasts reach every player one round
later; announcing to a subset of players delays the rest by exactly one
extra round (honest players re-diffuse everything).

All randomness flows from the configured seed through one pinned generator
family (numpy PCG64).  Per round the draw order is: adversary block count,
honest block count, honest attribution, then any strategy randomness (the
adversary is a single coalition, so it needs no attribution draw).
Identical configurations therefore produce bit-identical reports.

Rewards are finalized by every honest player from its own chain as soon as
a block is buried beyond twice the staleness window; all players share one
ledger, so later finalizations of the same block re-derive the amount and
must reproduce it exactly.  Burials are queued as (block, player's tip)
and judged after each round's deliveries, once per distinct pair and
batched per tip; records and verifies then apply in burial order.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from statistics import mean, stdev

import numpy as np

from .errors import ConfigInvalid
from .rewards import BlockReward, RewardLedger, RewardParams, conflict_counts, judge
from .staleness import StaleIndex, stale_index
from .store import BlockDag, GENESIS_MINER
from .strategies import Release, Strategy, make_strategy
from .views import EXTEND, REORG, PlayerView

RNG_FAMILY = "numpy-pcg64"

# Annotation (without ``| None``) -> accepted type, for the numeric fields.
_NUMERIC_FIELDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}

STRATEGY_NAMES = ("honest", "withhold", "selfish", "no_reference", "punisher")


@dataclass(frozen=True)
class SimConfig:
    """Experiment input; every field participates in report determinism.

    ``alpha`` and ``beta`` are the expected honest and adversary blocks per
    round.  The model assumptions are enforced up front: total expected
    production below one block per round, and the effective honest rate
    ``alpha * exp(-alpha)`` at least ``(1 + epsilon)`` times ``beta``.
    """

    alpha: float = 0.5
    beta: float = 0.0
    epsilon: float = 0.1
    p: int = 20
    base: int = 1_000_000
    penalty: int = 2_000
    players: int = 5
    weights: tuple[float, ...] | None = None
    strategy: str = "honest"
    withhold_k: int = 0
    selfish_lead: int = 1
    punisher_window: int = 1
    punisher_fork_depth: int | None = None
    punisher_withhold: int | None = None
    punisher_deviate: bool = True
    rounds: int = 2_000
    seed: int = 0
    check_invariants: bool = True
    log_events: bool = False
    valuation: bool = True
    rng_family: str = RNG_FAMILY

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool" and not isinstance(value, bool):
                raise ConfigInvalid(f"{f.name} must be true or false, got {value!r}")
            kind = _NUMERIC_FIELDS.get(f.type.removesuffix(" | None"))
            if kind is None or (value is None and f.type.endswith(" | None")):
                continue
            if isinstance(value, bool) or not isinstance(value, kind[0]):
                raise ConfigInvalid(f"{f.name} must be {kind[1]}, got {value!r}")
        if self.weights is not None and (
            not isinstance(self.weights, (list, tuple))
            or any(isinstance(w, bool) or not isinstance(w, numbers.Real) for w in self.weights)
        ):
            raise ConfigInvalid(f"weights must be a list of numbers, got {self.weights!r}")
        if self.rng_family != RNG_FAMILY:
            raise ConfigInvalid(f"rng_family must be {RNG_FAMILY!r}")
        if self.alpha <= 0:
            raise ConfigInvalid("alpha must be positive")
        if self.beta < 0:
            raise ConfigInvalid("beta must be non-negative")
        if self.alpha + self.beta >= 1:
            raise ConfigInvalid(
                "expected blocks per round must stay below one: "
                f"alpha + beta = {self.alpha + self.beta:.4f} >= 1"
            )
        effective = self.alpha * math.exp(-self.alpha)
        if effective < self.beta * (1 + self.epsilon):
            raise ConfigInvalid(
                "honest majority assumption violated: effective honest rate "
                f"alpha*exp(-alpha) = {effective:.4f} is below "
                f"beta*(1+epsilon) = {self.beta * (1 + self.epsilon):.4f}"
            )
        if self.players < 1:
            raise ConfigInvalid("at least one honest player is required")
        if self.weights is not None:
            if len(self.weights) != self.players:
                raise ConfigInvalid("weights must list one entry per player")
            if any(w <= 0 for w in self.weights):
                raise ConfigInvalid("weights must be positive")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ConfigInvalid("weights must sum to 1")
        if self.p < 1:
            raise ConfigInvalid("staleness window p must be positive")
        if self.rounds < 4 * self.p:
            raise ConfigInvalid(
                f"rounds = {self.rounds} is below 4p = {4 * self.p}; "
                "no rewards could finalize"
            )
        if self.strategy not in STRATEGY_NAMES:
            raise ConfigInvalid(f"unknown strategy {self.strategy!r}")
        if self.base <= 0:
            raise ConfigInvalid("base must be positive")
        if self.penalty < 0:
            raise ConfigInvalid("penalty must be non-negative")
        if self.seed < 0:
            raise ConfigInvalid("seed must be non-negative")
        if self.withhold_k < 0:
            raise ConfigInvalid("withhold_k must be non-negative")
        # Below these bounds the selfish release and the punisher trigger can
        # never fire, and the run would silently play another strategy.
        if self.selfish_lead < 1:
            raise ConfigInvalid("selfish_lead must be at least 1")
        if self.punisher_window < 0:
            raise ConfigInvalid("punisher_window must be non-negative")
        if self.strategy == "punisher":
            if self.beta != 0:
                raise ConfigInvalid("the punisher scenario scripts honest-pool players; beta must be 0")
            if self.players != 4:
                raise ConfigInvalid("the punisher scenario is defined for exactly 4 players")

    def reward_params(self) -> RewardParams:
        return RewardParams(base=self.base, penalty=self.penalty, p=self.p)

    def weight_vector(self) -> np.ndarray:
        if self.weights is None:
            arr = np.full(self.players, 1.0 / self.players)
        else:
            arr = np.array(self.weights, dtype=float)
        return arr / arr.sum()

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["weights"] is not None:
            d["weights"] = list(d["weights"])
        return d


@dataclass
class StrategyContext:
    """What a strategy may look at: its private view and the public state."""

    dag: BlockDag
    adv_view: PlayerView
    public_view: PlayerView
    p: int
    players: int
    rng: np.random.Generator


class _Player:
    """Honest participant: view plus finalization scheduling state."""

    __slots__ = ("view", "deliveries", "orphans", "due", "awaiting", "done")

    def __init__(self, dag: BlockDag):
        self.view = PlayerView(dag)
        self.deliveries: dict[int, list[int]] = {}
        self.orphans: list[int] = []
        self.due: dict[int, list[int]] = {}
        self.awaiting: list[int] = []
        self.done: set[int] = set()


class _StaleFlags:
    """Memoized 'does this tip's stale set contain an honest block'."""

    __slots__ = ("dag", "sidx", "honest", "memo")

    def __init__(self, dag: BlockDag, sidx: StaleIndex, honest: set[int]):
        self.dag = dag
        self.sidx = sidx
        self.honest = honest
        self.memo: dict[int, bool] = {0: False}

    def __call__(self, ix: int) -> bool:
        path = []
        memo = self.memo
        parent_ix = self.dag._parent_ix
        while ix not in memo:
            path.append(ix)
            ix = parent_ix[ix]
        val = memo[ix]
        miner_ix = self.dag._miner_ix
        for j in reversed(path):
            if not val:
                val = any(miner_ix[x] in self.honest for x in self.sidx.new_stale(j))
            memo[j] = val
        return val


@dataclass
class SimReport:
    config: dict
    totals: dict
    miners: dict
    adversary: int | None
    staleness: dict
    conflicts: dict
    finality: dict
    inclusion: dict
    core: dict
    valuation: dict | None = None
    events: list | None = None

    def to_dict(self) -> dict:
        d = {
            "schema_version": 1,
            "generator": RNG_FAMILY,
            "config": self.config,
            "totals": self.totals,
            "miners": self.miners,
            "adversary": self.adversary,
            "staleness": self.staleness,
            "conflicts": self.conflicts,
            "finality": self.finality,
            "inclusion": self.inclusion,
            "core": self.core,
        }
        if self.valuation is not None:
            d["valuation"] = self.valuation
        if self.events is not None:
            d["events"] = self.events
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class Simulation:
    """One seeded run.  Keeps its dag, views, and ledger for inspection.

    ``strategy_obj`` overrides the configured adversary behavior with a
    prebuilt instance (used by tests to script exotic release patterns).
    """

    def __init__(self, config: SimConfig, strategy_obj: Strategy | None = None):
        config.validate()
        self.config = config
        self.params = config.reward_params()
        self.dag = BlockDag()
        self.n = config.players
        self.players = [_Player(self.dag) for _ in range(self.n)]
        self.scripted = config.strategy == "punisher"
        self.adv_id: int | None = None if self.scripted else self.n
        self.adv_view = PlayerView(self.dag)
        self.public_view = PlayerView(self.dag)
        self._public_orphans: list[int] = []
        self._adv_orphans: list[int] = []

        ss = np.random.SeedSequence(config.seed)
        s_main, s_strat = ss.spawn(2)
        self.rng = np.random.Generator(np.random.PCG64(s_main))
        self.strategy: Strategy | None = None
        if not self.scripted:
            self.strategy = strategy_obj if strategy_obj is not None else make_strategy(config)
            self.strategy.bind(
                StrategyContext(
                    dag=self.dag,
                    adv_view=self.adv_view,
                    public_view=self.public_view,
                    p=config.p,
                    players=self.n,
                    rng=np.random.Generator(np.random.PCG64(s_strat)),
                )
            )

        self.sidx = stale_index(self.dag, config.p)
        honest_miners = set(range(self.n))
        if self.scripted:
            honest_miners = {0, 1}  # scripted players 2 and 3 may deviate
        self.honest_miners = honest_miners
        self.flags = _StaleFlags(self.dag, self.sidx, honest_miners)

        self.ledger = RewardLedger()
        self._pending: list[tuple[int, int]] = []  # (block, tip) burials this round

        self._seq = 0
        self.mined_round: dict[int, int] = {}
        self.announced_round: dict[int, int] = {}
        self._announce_log: dict[int, list[int]] = {}
        self._delayed_public: dict[int, list[int]] = {}

        self.honest_stale_events = 0
        self.inclusion_checked = 0
        self.inclusion_missed = 0
        self.events: list[dict] | None = [] if config.log_events else None

        # Punisher scenario state.
        self._pun_triggered = False
        self._pun_fork_depth = (
            config.punisher_fork_depth
            if config.punisher_fork_depth is not None
            else config.p // 2
        )
        self._pun_withhold = (
            config.punisher_withhold
            if config.punisher_withhold is not None
            else max(0, config.p // 2 - 2)
        )

    # -- block creation ------------------------------------------------------

    def _payload(self, round_no: int) -> bytes:
        self._seq += 1
        return struct.pack(">IQ", round_no, self._seq)

    def _mine(self, round_no: int, refs, miner: int, hint) -> int:
        block = self.dag.insert(self._payload(round_no), refs, miner, parent=hint)
        ix = self.dag.index_of(block.id)
        self.mined_round[ix] = round_no
        return ix

    # -- delivery plumbing -----------------------------------------------------

    def _queue(self, player: int, round_no: int, ix: int) -> None:
        self.players[player].deliveries.setdefault(round_no, []).append(ix)

    def _announce(
        self,
        ix: int,
        round_no: int,
        recipients: tuple[int, ...] | None = None,
        skip: tuple[int, ...] = (),
    ) -> None:
        """Make a block public at ``round_no``; deliveries land next round.

        ``recipients`` restricts the first wave; everyone else gets the
        block one round later through honest re-diffusion.  ``skip`` lists
        players who already know it (a withholding owner).
        """
        self.announced_round[ix] = round_no
        self._announce_log.setdefault(round_no, []).append(ix)
        targets = set(recipients) if recipients is not None else None
        for j in range(self.n):
            if j in skip:
                continue
            when = round_no + 1 if (targets is None or j in targets) else round_no + 2
            self._queue(j, when, ix)
        self._ingest(self.public_view, self._public_orphans, [ix])

    def _broadcast_honest(self, ix: int, owner: int, round_no: int, announce_at: int) -> None:
        """Honest-side broadcast; the owner always knows its own block next round."""
        if announce_at == round_no:
            self._announce(ix, round_no)
        else:
            # Scripted withholding: the owner still sees its block on time.
            self._queue(owner, round_no + 1, ix)
            self._delayed_public.setdefault(announce_at, []).append((ix, owner))

    def _ingest(self, view: PlayerView, orphans: list[int], items: list[int], on_add=None) -> None:
        """Add blocks whose references may arrive out of order.

        Blocks still missing a reference stay in ``orphans``; ``on_add``
        gets each added block with ``view.add``'s result.
        """
        pending = orphans + items
        orphans.clear()
        known = view.known
        ref_ixs = self.dag._ref_ixs
        progress = True
        while progress:
            progress = False
            rest: list[int] = []
            for ix in pending:
                if all(r in known for r in ref_ixs[ix]):
                    event, depth = view.add(ix)
                    if on_add is not None:
                        on_add(ix, event, depth)
                    progress = True
                else:
                    rest.append(ix)
            pending = rest
        orphans.extend(pending)

    def _deliver_round(self, pix: int, round_no: int) -> None:
        player = self.players[pix]
        items = player.deliveries.pop(round_no, [])
        if items or player.orphans:
            self._ingest(player.view, player.orphans, items, partial(self._after_add, pix))

    # -- finalization scheduling -------------------------------------------------

    def _after_add(self, pix: int, ix: int, event: str, depth: int) -> None:
        player = self.players[pix]
        self._schedule(pix, ix)
        if event == EXTEND:
            fired = player.due.pop(depth, None)
            if fired:
                for b in fired:
                    self._fire(pix, b)
            if player.awaiting:
                self._recheck_awaiting(pix)
        elif event == REORG:
            self._rebucket_after_reorg(pix, depth)
            if player.awaiting:
                self._recheck_awaiting(pix)

    def _schedule(self, pix: int, ix: int) -> None:
        player = self.players[pix]
        if ix in player.done:
            return
        dag = self.dag
        meet = dag.lca_ix(player.view.tip, ix)
        need_len = dag.depth_of(meet) + 2 * self.config.p + 2
        if len(player.view.chain) >= need_len:
            self._fire(pix, ix)
        else:
            player.due.setdefault(need_len, []).append(ix)

    def _rebucket_after_reorg(self, pix: int, fork_depth: int) -> None:
        # A meet exactly at the fork depth can move deeper when the chain
        # descends into that block's branch, so >= rather than >.
        player = self.players[pix]
        threshold = fork_depth + 2 * self.config.p + 2
        stale_keys = [k for k in player.due if k >= threshold]
        moved: list[int] = []
        for k in stale_keys:
            moved.extend(player.due.pop(k))
        for ix in moved:
            self._schedule(pix, ix)
        # The new chain may be longer than anything seen; fire matured buckets.
        cur = len(player.view.chain)
        ready = [k for k in player.due if k <= cur]
        for k in sorted(ready):
            for ix in player.due.pop(k):
                self._fire(pix, ix)

    def _recheck_awaiting(self, pix: int) -> None:
        player = self.players[pix]
        tip = player.view.tip
        still: list[int] = []
        for ix in player.awaiting:
            if self.dag.in_past_ix(tip, ix):
                self._schedule(pix, ix)
            else:
                still.append(ix)
        player.awaiting = still

    def _fire(self, pix: int, ix: int) -> None:
        """Queue ``ix`` for judging if it is truly buried at this player's tip."""
        player = self.players[pix]
        if ix in player.done:
            return
        tip = player.view.tip
        dag = self.dag
        # The scheduled burial estimate can be invalidated by reorgs;
        # re-derive it so a recorded reward is never premature.
        need_len = dag.depth_of(dag.lca_ix(tip, ix)) + 2 * self.config.p + 2
        if len(player.view.chain) < need_len:
            player.due.setdefault(need_len, []).append(ix)
            return
        if not dag.in_past_ix(tip, ix):
            player.awaiting.append(ix)
            return
        self._pending.append((ix, tip))
        player.done.add(ix)

    def _judge_pending(self) -> None:
        """Record (first burial) or verify (later ones, with ``check_invariants``)
        the queued burials in order, judging each distinct (tip, block) pair
        once: players mostly bury a block at one tip, and outcomes are fixed.
        """
        pending, self._pending = self._pending, []
        dag, ledger = self.dag, self.ledger
        if not self.config.check_invariants:  # judge only what is recorded
            first: dict[int, int] = {}
            for ix, tip in pending:
                first.setdefault(ix, tip)
            pending = [(ix, t) for ix, t in first.items() if dag.id_at(ix) not in ledger.entries]
        outcome: dict[tuple[int, int], BlockReward] = dict.fromkeys(pending)
        by_tip: dict[int, list[int]] = {}
        for ix, tip in outcome:
            by_tip.setdefault(tip, []).append(ix)
        for tip, subjects in by_tip.items():
            outcomes = judge(dag, self.sidx, tip, subjects, self.params)
            outcome.update(zip([(ix, tip) for ix in subjects], outcomes))
        for ix, tip in pending:
            bid = dag.id_at(ix)
            if bid in ledger.entries:
                ledger.verify(bid, outcome[ix, tip])
            else:
                ledger.record(bid, dag.miner_of(ix), outcome[ix, tip], dag.id_at(tip), self._round)

    # -- mining phases ---------------------------------------------------------

    def _adversary_mine(self, round_no: int) -> list[int]:
        count = int(self.rng.poisson(self.config.beta))
        mined: list[int] = []
        if self.strategy is None:
            return mined
        for _ in range(count):
            refs, hint = self.strategy.plan_refs()
            ix = self._mine(round_no, refs, self.adv_id, hint)
            self._ingest(self.adv_view, self._adv_orphans, [ix])
            self.strategy.on_mined(ix, round_no)
            mined.append(ix)
        return mined

    def _honest_mine(self, round_no: int) -> list[int]:
        count = int(self.rng.poisson(self.config.alpha))
        mined: list[int] = []
        if count == 0:
            return mined
        owners = self.rng.choice(self.n, size=count, p=self._weights)
        # A player knows its own finds instantly, so its same-round blocks
        # chain; blocks of different players in one round still fork.
        own_prev: dict[int, int] = {}
        for owner in owners.tolist():
            view = self.players[owner].view
            ids = self.dag._ids
            if self.scripted and owner == 3 and self._pun_triggered:
                anchor_depth = max(0, self.dag.depth_of(view.tip) - self._pun_fork_depth)
                anchor = self.dag.ancestor_at(view.tip, anchor_depth)
                refs = [ids[anchor]]
                hint = ids[anchor]
                announce_at = round_no + self._pun_withhold
            else:
                prev = own_prev.get(owner)
                if prev is not None:
                    refs = [ids[prev]]
                    hint = ids[prev]
                else:
                    refs = [ids[j] for j in view.sorted_tips()]
                    hint = ids[view.tip]
                announce_at = round_no
                if (
                    self.scripted
                    and owner == 2
                    and self.config.punisher_deviate
                    and round_no <= self.config.punisher_window
                ):
                    announce_at = self.config.punisher_window + 1
            ix = self._mine(round_no, refs, owner, hint)
            own_prev[owner] = ix
            self._broadcast_honest(ix, owner, round_no, announce_at)
            mined.append(ix)
        return mined

    # -- punisher scenario -------------------------------------------------------

    def _punisher_trigger(self, round_no: int) -> None:
        if self._pun_triggered or round_no != self.config.punisher_window + 1:
            return
        view = self.players[3].view
        seen_from = {self.dag.miner_of(ix) for ix in view.known}
        if all(j in seen_from for j in (0, 1, 2)):
            self._pun_triggered = True

    # -- main loop -----------------------------------------------------------------

    def run(self) -> SimReport:
        cfg = self.config
        self._weights = cfg.weight_vector()
        horizon = 4 * cfg.p
        self._round = 0
        for pix in range(self.n):
            self._schedule(pix, 0)  # genesis finalizes once buried like any block
        for r in range(1, cfg.rounds + 1):
            self._round = r
            for j in range(self.n):
                self._deliver_round(j, r)
                if self.flags(self.players[j].view.tip):
                    self.honest_stale_events += 1
            self._judge_pending()
            if self.scripted:
                self._punisher_trigger(r)

            # Inclusion deadline check for blocks announced 4p rounds ago.
            batch = self._announce_log.pop(r - horizon, None)
            if batch:
                for ix in batch:
                    for j in range(self.n):
                        self.inclusion_checked += 1
                        if not self.dag.in_past_ix(self.players[j].view.tip, ix):
                            self.inclusion_missed += 1

            adv_new = self._adversary_mine(r)
            honest_new = self._honest_mine(r)

            # Scripted withholding made public on schedule.
            for ix, owner in self._delayed_public.pop(r, []):
                self._announce(ix, r, skip=(owner,))

            # The adversary sees this round's honest blocks before releasing.
            if self.strategy is not None and honest_new:
                self._ingest(self.adv_view, self._adv_orphans, list(honest_new))
            released: list[Release] = []
            if self.strategy is not None:
                released = self.strategy.releases(r, honest_new)
                for rel in released:
                    self._announce(rel.ix, r, rel.recipients)

            if self.events is not None:
                self.events.append(
                    {
                        "round": r,
                        "honest_mined": len(honest_new),
                        "adversary_mined": len(adv_new),
                        "released": len(released),
                        "finalized": len(self.ledger.entries),
                    }
                )
        self._judge_pending()
        if cfg.check_invariants:
            self._final_verify()
        return self._report()

    def _final_verify(self) -> None:
        """Re-derive every ledger entry at the observer's final chain.

        Catches the (negligible-probability) case of a conflict or stale
        set drifting after the first finalization, which the per-player
        burial-time rechecks cannot see.
        """
        dag = self.dag
        tip = self.players[0].view.tip
        horizon = dag.depth_of(tip) - self.params.finality_depth
        buried = [
            ix
            for ix in map(dag.index_of, self.ledger.entries)
            if dag.in_past_ix(tip, ix) and dag.depth_of(dag.lca_ix(tip, ix)) < horizon
        ]
        for ix, outcome in zip(buried, judge(dag, self.sidx, tip, buried, self.params)):
            self.ledger.verify(dag.id_at(ix), outcome)

    # -- reporting --------------------------------------------------------------

    def valuation_at_tip(self) -> tuple[int, dict[int, int], int]:
        """Value every core block at the observer's final tip, ignoring burial.

        All blocks mined up to the common cutoff (``rounds - 16p``) are
        judged under the final tip's stale set, with conflicts counted only
        between core blocks.  Two runs that share a seed therefore value
        identical honest populations, and every counted conflict pair
        penalizes both of its members; the totals carry neither the
        finalization boundary nor the ragged end-of-run frontier.  Returns
        the cutoff, per-miner totals (unclamped), and the count of negative
        block values.
        """
        dag = self.dag
        tip = self.players[0].view.tip
        stale = self.sidx.cum(tip)
        cutoff = max(0, self.config.rounds - 16 * self.config.p)
        mined_round = self.mined_round
        core = [
            ix
            for ix in dag.past_indexes(tip).tolist()
            if ix != 0 and ix not in stale and mined_round[ix] <= cutoff
        ]
        totals: dict[int, int] = {}
        negatives = 0
        base, penalty = self.params.base, self.params.penalty
        counts = conflict_counts(dag, self.sidx, tip, core, among=core)
        for ix, conflicts in zip(core, counts.tolist()):
            value = base - penalty * conflicts
            if value < 0:
                negatives += 1
            m = dag.miner_of(ix)
            totals[m] = totals.get(m, 0) + value
        return cutoff, totals, negatives

    def core_totals(self) -> tuple[int, dict[int, int]]:
        """Finalized totals restricted to blocks mined before the tail margin.

        Blocks mined in the last ``16p`` rounds may or may not have
        finalized by the end of the run; excluding them gives paired runs
        an identical candidate population.
        """
        cutoff = max(0, self.config.rounds - 16 * self.config.p)
        dag = self.dag
        totals: dict[int, int] = {}
        for bid, entry in self.ledger.entries.items():
            if entry.miner == GENESIS_MINER:
                continue
            if self.mined_round.get(dag._index[bid], 0) <= cutoff:
                totals[entry.miner] = totals.get(entry.miner, 0) + entry.amount
        return cutoff, totals

    def _report(self) -> SimReport:
        cfg = self.config
        dag = self.dag
        observer = self.players[0].view
        tip_ix = observer.tip

        mined_by: dict[int, int] = {}
        for m in dag._miner_ix[1:]:
            mined_by[m] = mined_by.get(m, 0) + 1

        totals_by_miner = self.ledger.totals_by_miner()
        totals_by_miner.pop(GENESIS_MINER, None)
        grand = sum(totals_by_miner.values())

        stale_members = self.sidx.cum(tip_ix)
        stale_by: dict[int, int] = {}
        for ix in stale_members:
            m = dag.miner_of(ix)
            stale_by[m] = stale_by.get(m, 0) + 1

        never_referenced = 0
        for ix in range(1, len(dag)):
            if not dag.in_past_ix(tip_ix, ix):
                never_referenced += 1

        miner_ids = list(range(self.n)) + ([self.adv_id] if self.adv_id is not None else [])
        miners = {}
        for m in miner_ids:
            amount = totals_by_miner.get(m, 0)
            miners[str(m)] = {
                "mined": mined_by.get(m, 0),
                "finalized_micro": amount,
                "share": amount / grand if grand else 0.0,
                "stale": stale_by.get(m, 0),
            }

        genesis_entry = self.ledger.entries.get(dag.genesis)
        finalized_non_genesis = len(self.ledger.entries) - (1 if genesis_entry else 0)
        totals = {
            "rounds": cfg.rounds,
            "blocks": len(dag) - 1,
            "honest_blocks": sum(
                c for m, c in mined_by.items() if self.adv_id is None or m != self.adv_id
            ),
            "adversary_blocks": mined_by.get(self.adv_id, 0) if self.adv_id is not None else 0,
            "main_chain_length": len(observer.chain),
            "finalized_blocks": len(self.ledger.entries),
            "pending_blocks": (len(dag) - 1) - finalized_non_genesis,
            "genesis_micro": genesis_entry.amount if genesis_entry else 0,
            "reward_total_micro": grand,
        }
        hist = {str(k): v for k, v in sorted(self.ledger.histogram.items())}
        cutoff, core_by_miner = self.core_totals()
        valuation = None
        if cfg.valuation:
            val_cutoff, val_by_miner, negatives = self.valuation_at_tip()
            valuation = {
                "cutoff_round": val_cutoff,
                "miners": {str(m): v for m, v in sorted(val_by_miner.items())},
                "negative_values": negatives,
            }
        report = SimReport(
            config=cfg.to_dict(),
            totals=totals,
            miners=miners,
            adversary=self.adv_id,
            staleness={
                "stale_blocks": len(stale_members),
                "honest_stale_events": self.honest_stale_events,
                "never_referenced": never_referenced,
            },
            conflicts={
                "histogram": hist,
                "max_size": self.ledger.max_conflict,
                "negative_clamped": self.ledger.negative_clamped,
            },
            finality={
                "rechecks": self.ledger.rechecks,
                "violations": 0,
            },
            inclusion={
                "horizon_rounds": 4 * cfg.p,
                "checked": self.inclusion_checked,
                "missed": self.inclusion_missed,
            },
            core={
                "cutoff_round": cutoff,
                "miners": {str(m): v for m, v in sorted(core_by_miner.items())},
            },
            valuation=valuation,
            events=self.events,
        )
        return report


def run(config: SimConfig) -> SimReport:
    """Execute one seeded simulation and return its report."""
    return Simulation(config).run()


def _sweep_worker(payload: tuple[dict, int]) -> dict:
    d, seed = payload
    d = dict(d)
    if d.get("weights") is not None:
        d["weights"] = tuple(d["weights"])
    cfg = SimConfig(**{**d, "seed": seed})
    return Simulation(cfg).run().to_dict()


def run_sweep(config: SimConfig, seeds: list[int], max_workers: int | None = None) -> dict:
    """Independent runs over seeds, merged into one summary document."""
    payloads = [(config.to_dict(), s) for s in seeds]
    if max_workers == 1 or len(seeds) == 1:
        results = [_sweep_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(_sweep_worker, payloads))

    per_seed = []
    adv_key = None
    for s, rep in zip(seeds, results):
        shares = {m: v["share"] for m, v in rep["miners"].items()}
        amounts = {m: v["finalized_micro"] for m, v in rep["miners"].items()}
        if rep["adversary"] is not None:
            adv_key = str(rep["adversary"])
        per_seed.append(
            {
                "seed": s,
                "shares": shares,
                "amounts_micro": amounts,
                "honest_stale_events": rep["staleness"]["honest_stale_events"],
                "max_conflict": rep["conflicts"]["max_size"],
                "negative_clamped": rep["conflicts"]["negative_clamped"],
                "inclusion_missed": rep["inclusion"]["missed"],
            }
        )

    def _agg(values: list[float]) -> dict:
        return {
            "mean": mean(values),
            "stdev": stdev(values) if len(values) > 1 else 0.0,
        }

    aggregate: dict = {
        "seeds": len(seeds),
        "honest_stale_events": sum(r["honest_stale_events"] for r in per_seed),
        "max_conflict": max(r["max_conflict"] for r in per_seed),
        "negative_clamped": sum(r["negative_clamped"] for r in per_seed),
        "inclusion_missed": sum(r["inclusion_missed"] for r in per_seed),
    }
    miner_keys = sorted(results[0]["miners"].keys(), key=int)
    aggregate["shares"] = {
        m: _agg([r["shares"][m] for r in per_seed]) for m in miner_keys
    }
    aggregate["amounts_micro"] = {
        m: _agg([float(r["amounts_micro"][m]) for r in per_seed]) for m in miner_keys
    }
    if adv_key is not None:
        aggregate["adversary_share"] = aggregate["shares"][adv_key]
        aggregate["adversary_amount_micro"] = aggregate["amounts_micro"][adv_key]

    return {
        "schema_version": 1,
        "generator": RNG_FAMILY,
        "sweep": {**config.to_dict(), "seed": None, "seeds": list(seeds)},
        "runs": results,
        "aggregate": aggregate,
    }
