"""Invariant suite behind the ``check`` command.

Each check regenerates fresh random DAGs (or scenario fixtures) and
compares the production code paths against the brute-force references.
Returns structured results so the CLI can print a pass/fail table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import oracles
from .chain import ChainView, determine_parent, main_chain
from .errors import StaleSubject
from .fixtures import fork_example
from .ordering import order, order_incremental
from .rewards import RewardLedger, conflict_set, finalize
from .staleness import distance, lca, stale_set
from .store import BlockDag
from .views import PlayerView


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _sample_dags(seed: int, sizes=(40, 80, 150)) -> list[BlockDag]:
    rng = random.Random(seed)
    return [oracles.random_dag(rng, n, recency=rng.choice([1.5, 2.5, 4.0])) for n in sizes]


def check_past_reachability(seed: int = 11) -> CheckResult:
    for dag in _sample_dags(seed):
        pasts = oracles.all_pasts(dag)
        for bid in dag:
            if dag.past(bid) != pasts[bid]:
                return CheckResult("past/reachability", False, f"past mismatch at {bid.hex()[:12]}")
        ids = list(dag)
        rng = random.Random(seed + 1)
        for _ in range(300):
            a, b = rng.choice(ids), rng.choice(ids)
            if dag.is_reachable(a, b) != (b in pasts[a]):
                return CheckResult("past/reachability", False, "reachability mismatch")
    return CheckResult("past/reachability", True)


def check_ordering(seed: int = 12) -> CheckResult:
    for dag in _sample_dags(seed):
        for bid in dag:
            got = order(dag, bid)
            want = oracles.order_recursive(dag, bid)
            if got != want:
                return CheckResult("ordering", False, f"order mismatch at {bid.hex()[:12]}")
            blk = dag.get(bid)
            if blk.parent is not None:
                prev = order(dag, blk.parent)
                if got[: len(prev)] != prev:
                    return CheckResult("ordering", False, "parent order is not a prefix")
                if order_incremental(dag, prev, bid) != got:
                    return CheckResult("ordering", False, "incremental order differs")
    return CheckResult("ordering", True)


def check_parent_consistency(dag_override: BlockDag | None = None, seed: int = 13) -> CheckResult:
    dags = [dag_override] if dag_override is not None else _sample_dags(seed)
    for dag in dags:
        for bid in dag:
            blk = dag.get(bid)
            if blk.parent is None:
                continue
            want = determine_parent(dag, list(blk.refs))
            if blk.parent != want:
                return CheckResult(
                    "parent-consistency",
                    False,
                    f"stored parent of {bid.hex()[:12]} contradicts chain selection",
                )
    return CheckResult("parent-consistency", True)


def check_view_sizes(seed: int = 14) -> CheckResult:
    for dag in _sample_dags(seed):
        want = oracles.subtree_sizes_traversal(dag)
        view = ChainView.whole(dag)
        for bid in dag:
            if view.subtree_size(bid) != want[bid]:
                return CheckResult("subtree-sizes", False, "whole-dag view size mismatch")
    return CheckResult("subtree-sizes", True)


def check_chain_selection(seed: int = 15) -> CheckResult:
    for dag in _sample_dags(seed):
        got = main_chain(ChainView.whole(dag))
        want = oracles.main_chain_traversal(dag, set(dag))
        if got != want:
            return CheckResult("chain-selection", False, "whole-dag chain mismatch")
        # Incremental per-player view replays the same result.
        view = PlayerView(dag)
        for ix in range(1, len(dag)):
            view.add(ix)
        if [dag.id_at(i) for i in view.chain] != want:
            return CheckResult("chain-selection", False, "incremental view chain mismatch")
    return CheckResult("chain-selection", True)


def check_staleness(seed: int = 16, p: int = 3) -> CheckResult:
    for dag in _sample_dags(seed):
        chain = main_chain(ChainView.whole(dag))
        tips = [chain[-1], chain[len(chain) // 2]]
        for tip in tips:
            got = stale_set(dag, tip, p).members
            want = oracles.stale_set_direct(dag, tip, p)
            if set(got) != want:
                return CheckResult("staleness", False, f"stale set mismatch at {tip.hex()[:12]}")
        # Verdicts persist from parent tip to child tip.
        for child, parent in zip(chain[1:], chain[:-1]):
            s_child = stale_set(dag, child, p).members
            s_parent = stale_set(dag, parent, p).members
            past_parent = dag.past(parent)
            if {b for b in s_child if b in past_parent} != set(s_parent):
                return CheckResult("staleness", False, "verdicts changed along the chain")
    return CheckResult("staleness", True)


def check_conflicts(seed: int = 17, p: int = 3) -> CheckResult:
    rng = random.Random(seed)
    for dag in _sample_dags(seed, sizes=(40, 90)):
        tip = main_chain(ChainView.whole(dag))[-1]
        stale = stale_set(dag, tip, p).members
        fresh = [b for b in dag.past(tip) if b not in stale]
        for bid in fresh:
            got = conflict_set(dag, tip, bid, p)
            want = oracles.conflict_set_direct(dag, tip, bid, p)
            if got != want:
                return CheckResult("conflict-sets", False, f"mismatch at {bid.hex()[:12]}")
        for _ in range(200):
            y, z = rng.choice(fresh), rng.choice(fresh)
            sym = (y in conflict_set(dag, tip, z, p)) == (z in conflict_set(dag, tip, y, p))
            if not sym:
                return CheckResult("conflict-sets", False, "membership not symmetric")
    return CheckResult("conflict-sets", True)


def check_conflict_stability(seed: int = 18, p: int = 2) -> CheckResult:
    """Sets stop changing once the chain has moved far enough past a block."""
    rng = random.Random(seed)
    dag = oracles.random_dag(rng, 160, recency=4.0)
    chain = main_chain(ChainView.whole(dag))
    for i in range(1, len(chain)):
        tip, parent_tip = chain[i], chain[i - 1]
        for bid in dag.past(parent_tip):
            meet = lca(dag, parent_tip, bid)
            if distance(dag, parent_tip, meet) <= 2 * p:
                continue
            try:
                before = conflict_set(dag, parent_tip, bid, p)
                after = conflict_set(dag, tip, bid, p)
            except StaleSubject:
                continue  # the stability claim covers fresh subjects only
            if before != after:
                return CheckResult("conflict-stability", False, f"set changed at {bid.hex()[:12]}")
    return CheckResult("conflict-stability", True)


def check_fixture() -> CheckResult:
    fx = fork_example()
    dag = fx.dag
    if dag.get(fx.c).parent != fx.b:
        return CheckResult("fork-fixture", False, "wrong parent for the merge block")
    if order(dag, fx.d) != [fx.g, fx.b, fx.u, fx.c, fx.cu, fx.d]:
        return CheckResult("fork-fixture", False, "wrong order")
    if conflict_set(dag, fx.t, fx.c, 10) != {fx.w, fx.cu, fx.cw}:
        return CheckResult("fork-fixture", False, "wrong conflict set")
    return CheckResult("fork-fixture", True)


def check_reward_finality(seed: int = 19) -> CheckResult:
    from .sim import SimConfig, Simulation

    cfg = SimConfig(alpha=0.5, beta=0.1, players=3, p=10, rounds=600, seed=seed,
                    strategy="withhold", withhold_k=2, valuation=False)
    sim = Simulation(cfg)
    rep = sim.run()
    # Re-derive the whole ledger from the observer's final chain.
    params = cfg.reward_params()
    tip = sim.dag.id_at(sim.players[0].view.tip)
    fresh = RewardLedger()
    finalize(sim.dag, tip, params, fresh)
    for bid, entry in sim.ledger.entries.items():
        if bid in fresh.entries:
            if fresh.entries[bid].amount != entry.amount:
                return CheckResult("reward-finality", False, f"amount drifted at {bid.hex()[:12]}")
            continue
        # Excusable only if this observer does not (yet) bury the block.
        if sim.dag.is_reachable(tip, bid):
            meet = lca(sim.dag, tip, bid)
            if distance(sim.dag, tip, meet) > 2 * cfg.p:
                return CheckResult("reward-finality", False, "finalized block missing on re-derive")
    if rep.staleness["honest_stale_events"]:
        return CheckResult("reward-finality", False, "honest block went stale")
    return CheckResult("reward-finality", True)


def check_determinism(seed: int = 20) -> CheckResult:
    from .sim import SimConfig, Simulation

    cfg = SimConfig(alpha=0.4, beta=0.1, players=3, p=5, rounds=200, seed=seed,
                    strategy="selfish")
    a = Simulation(cfg).run().to_json()
    b = Simulation(cfg).run().to_json()
    if a != b:
        return CheckResult("determinism", False, "reports differ between identical runs")
    return CheckResult("determinism", True)


def run_all(inject_fault: str | None = None) -> list[CheckResult]:
    """Full suite; ``inject_fault`` seeds a deliberate defect to prove detection."""
    results = [
        check_past_reachability(),
        check_ordering(),
    ]
    if inject_fault == "wrong-parent":
        # Build a dag whose cached parent contradicts the selection rule by
        # abusing the parent hint, then make sure the checker notices.
        broken = BlockDag()
        g = broken.genesis
        b1 = broken.insert(b"one", [g], 0).id
        b2 = broken.insert(b"two", [g], 1).id
        broken.insert(b"bad", [b1, b2], 2, parent=max(b1, b2))
        results.append(check_parent_consistency(dag_override=broken))
    else:
        results.append(check_parent_consistency())
    results.extend(
        [
            check_view_sizes(),
            check_chain_selection(),
            check_staleness(),
            check_conflicts(),
            check_conflict_stability(),
            check_fixture(),
            check_reward_finality(),
            check_determinism(),
        ]
    )
    return results


def render_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {status}"
        if r.detail:
            line += f"  {r.detail}"
        lines.append(line)
    return "\n".join(lines)
