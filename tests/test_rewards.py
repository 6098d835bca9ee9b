import io
import logging
import random

import pytest

from dagsim.errors import FinalityViolation, StaleSubject
from dagsim.fixtures import fork_example
import dagsim.oracles
from dagsim.oracles import (
    all_pasts,
    conflict_set_direct,
    random_dag,
    reward_direct,
    stale_set_direct,
)
from dagsim.rewards import (
    RewardLedger,
    RewardParams,
    conflict_counts,
    conflict_set,
    finalize,
    judge,
    reward,
)
from dagsim.sim import SimConfig, Simulation
from dagsim.staleness import stale_index, stale_set
from dagsim.store import BlockDag

P = RewardParams(base=1000, penalty=10, p=3)


def extend_chain(dag, start, n, tag=b"x", miner=0):
    tip = start
    for i in range(n):
        tip = dag.insert(tag + i.to_bytes(4, "big"), [tip], miner).id
    return tip


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RewardParams(base=0, penalty=1, p=3)
        with pytest.raises(ValueError):
            RewardParams(base=10, penalty=-1, p=3)
        with pytest.raises(ValueError):
            RewardParams(base=10, penalty=0, p=0)

    def test_clamp_risk_regime_warns(self, caplog):
        logging.getLogger("dagsim.rewards").setLevel(logging.WARNING)
        with caplog.at_level(logging.WARNING, logger="dagsim.rewards"):
            RewardParams(base=10 * 3 * 3, penalty=10, p=3)
        assert any("clamp-risk" in r.message for r in caplog.records)

    def test_comfortable_base_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="dagsim.rewards"):
            RewardParams(base=10 * 3 * 3 + 1, penalty=10, p=3)
        assert not caplog.records


class TestConflictSet:
    def test_plain_chain_has_none(self):
        dag = BlockDag()
        tip = extend_chain(dag, dag.genesis, 6)
        for bid in dag:
            assert conflict_set(dag, tip, bid, 3) == set()

    def test_fixture_gray_blocks(self):
        fx = fork_example()
        assert conflict_set(fx.dag, fx.t, fx.c, 10) == {fx.w, fx.cu, fx.cw}

    def test_stale_subject_rejected(self):
        p = 3
        dag = BlockDag()
        z = dag.insert(b"z", [dag.genesis], 1).id
        tip = extend_chain(dag, dag.genesis, p)
        tip = dag.insert(b"tip", [tip, z], 0).id
        with pytest.raises(StaleSubject):
            conflict_set(dag, tip, z, p)

    def test_random_dag_matches_all_pairs_oracle(self):
        dag = random_dag(random.Random(31), 80)
        tip = list(dag)[-1]
        stale = stale_set(dag, tip, 3).members
        for bid in dag.past(tip):
            if bid in stale:
                continue
            assert conflict_set(dag, tip, bid, 3) == conflict_set_direct(dag, tip, bid, 3)

    def test_simulated_dag_with_stale_blocks_matches_oracle(self):
        # Withholding for 2p rounds leaves stale blocks at the observer's
        # tip, so the stale filter of the conflict scan has work to do.
        p = 4
        cfg = SimConfig(alpha=0.5, beta=0.15, players=3, p=p, rounds=300, seed=0,
                        strategy="withhold", withhold_k=2 * p, valuation=False)
        sim = Simulation(cfg)
        sim.run()
        dag, params = sim.dag, cfg.reward_params()
        tip = dag.id_at(sim.players[0].view.tip)
        stale = stale_set(dag, tip, p).members
        assert stale
        fresh = sorted(b for b in dag.past(tip) if b not in stale)

        def beside_stale(b):
            return any(not dag.is_reachable(b, s) and not dag.is_reachable(s, b) for s in stale)

        # Every tenth fresh block, plus some that stale blocks would otherwise conflict with.
        sample = fresh[::10] + [b for b in fresh if beside_stale(b)][:5]
        assert any(beside_stale(b) for b in sample)
        for bid in sample:
            assert conflict_set(dag, tip, bid, p) == conflict_set_direct(dag, tip, bid, p)
            assert reward(dag, tip, bid, params).amount == reward_direct(dag, tip, bid, params)

    def test_membership_symmetric(self):
        dag = random_dag(random.Random(32), 70)
        tip = list(dag)[-1]
        stale = stale_set(dag, tip, 3).members
        fresh = [b for b in dag.past(tip) if b not in stale]
        for y in fresh[::3]:
            for z in fresh[::5]:
                assert (y in conflict_set(dag, tip, z, 3)) == (z in conflict_set(dag, tip, y, 3))


def simulated(strategy, p=3, rounds=240, seed=0, **kw):
    cfg = SimConfig(alpha=0.5, beta=0.15, players=3, p=p, rounds=rounds, seed=seed,
                    strategy=strategy, valuation=False, **kw)
    sim = Simulation(cfg)
    sim.run()
    return sim, cfg.reward_params()


@pytest.fixture
def cached_past_bfs(monkeypatch):
    # The oracles rebuild every past set by BFS on each query; the store is
    # append-only, so caching those sets keeps the literal definitions and
    # makes an all-blocks comparison affordable.
    cache = {}
    bfs = dagsim.oracles.past_bfs

    def past_bfs(dag, bid):
        if (id(dag), bid) not in cache:
            cache[id(dag), bid] = bfs(dag, bid)
        return cache[id(dag), bid]

    monkeypatch.setattr(dagsim.oracles, "past_bfs", past_bfs)


@pytest.mark.usefixtures("cached_past_bfs")
class TestJudgeOracleGate:
    @pytest.mark.parametrize("strategy, extra", [
        ("withhold", dict(withhold_k=6)),  # k = 2p leaves stale blocks
        ("selfish", {}),
        ("no_reference", {}),
    ], ids=["withhold_2p", "selfish", "no_reference"])
    def test_every_fresh_block_at_chain_tips(self, strategy, extra):
        sim, params = simulated(strategy, **extra)
        dag, sidx = sim.dag, stale_index(sim.dag, params.p)
        chain = sim.players[0].view.chain
        saw_stale = False
        for tip_ix in (chain[len(chain) // 2], chain[3 * len(chain) // 4], chain[-1]):
            tip = dag.id_at(tip_ix)
            stale = stale_set_direct(dag, tip, params.p)
            saw_stale |= bool(stale)
            past = dag.past_indexes(tip_ix).tolist()
            outcomes = judge(dag, sidx, tip_ix, past, params)
            fresh = [b for b in past if dag.id_at(b) not in stale]
            counts = conflict_counts(dag, sidx, tip_ix, fresh).tolist()
            for b, count in zip(fresh, counts):
                assert count == len(conflict_set_direct(dag, tip, dag.id_at(b), params.p))
            for b, out in zip(past, outcomes):
                assert out.stale == (dag.id_at(b) in stale)
                assert out.amount == reward_direct(dag, tip, dag.id_at(b), params)
        assert saw_stale or strategy != "withhold"

    def test_batch_larger_than_a_chunk(self):
        sim, params = simulated("withhold", p=4, rounds=700, withhold_k=8)
        dag, sidx = sim.dag, stale_index(sim.dag, params.p)
        tip_ix = sim.players[0].view.tip
        tip = dag.id_at(tip_ix)
        stale = stale_set_direct(dag, tip, params.p)
        pasts = all_pasts(dag)
        fresh = [b for b in pasts[tip] if b not in stale]
        assert stale and len(fresh) > 256
        want = [
            sum(1 for x in fresh if x not in pasts[b] and b not in pasts[x]) for b in fresh
        ]
        got = conflict_counts(dag, sidx, tip_ix, [dag.index_of(b) for b in fresh])
        assert got.tolist() == want

    def test_among_matches_brute_force_core_valuation(self):
        sim, params = simulated("withhold", rounds=300, withhold_k=6)
        dag, sidx = sim.dag, stale_index(sim.dag, params.p)
        tip_ix = sim.players[0].view.tip
        tip = dag.id_at(tip_ix)
        stale = stale_set_direct(dag, tip, params.p)
        cutoff = 300 - 16 * params.p
        core = [
            dag.index_of(b) for b in dag.past(tip)
            if b != dag.genesis and b not in stale and sim.mined_round[dag.index_of(b)] <= cutoff
        ]
        core_ids = {dag.id_at(b) for b in core}
        totals = {}
        for b, count in zip(core, conflict_counts(dag, sidx, tip_ix, core, among=core).tolist()):
            want = len(conflict_set_direct(dag, tip, dag.id_at(b), params.p) & core_ids)
            assert count == want
            m = dag.miner_of(b)
            totals[m] = totals.get(m, 0) + params.base - params.penalty * want
        assert sim.valuation_at_tip() == (cutoff, totals, 0)


class TestReward:
    def test_unconflicted_deep_block_earns_base(self):
        dag = BlockDag()
        tip = extend_chain(dag, dag.genesis, 2 * P.p + 2)
        out = reward(dag, tip, dag.genesis, P)
        assert (out.amount, out.conflict_size, out.stale, out.clamped) == (1000, 0, False, False)

    def test_shallow_block_earns_nothing_yet(self):
        dag = BlockDag()
        tip = extend_chain(dag, dag.genesis, 2 * P.p)  # distance exactly 2p
        out = reward(dag, tip, dag.genesis, P)
        assert out.amount == 0 and not out.stale

    def test_fixture_subject_pays_for_three_conflicts(self):
        fx = fork_example()
        params = RewardParams(base=1000, penalty=10, p=10)
        tip = extend_chain(fx.dag, fx.t, 2 * params.p + 1)
        out = reward(fx.dag, tip, fx.c, params)
        assert out.amount == 1000 - 3 * 10
        assert out.conflict_size == 3

    def test_withheld_until_stale_earns_zero(self):
        p = 3
        dag = BlockDag()
        z = dag.insert(b"z", [dag.genesis], 1).id
        tip = extend_chain(dag, dag.genesis, p)
        tip = dag.insert(b"merge", [tip, z], 0).id
        tip = extend_chain(dag, tip, 2 * p + 1, tag=b"deep")
        out = reward(dag, tip, z, RewardParams(base=1000, penalty=10, p=p))
        assert out.amount == 0 and out.stale

    def test_negative_clamped_and_flagged(self):
        fx = fork_example()
        params = RewardParams(base=25, penalty=10, p=10)  # 3 conflicts cost 30
        tip = extend_chain(fx.dag, fx.t, 2 * params.p + 1)
        out = reward(fx.dag, tip, fx.c, params)
        assert out.amount == 0 and out.clamped and out.conflict_size == 3

    def test_matches_literal_definition_on_random_dag(self):
        dag = random_dag(random.Random(33), 70)
        tip = list(dag)[-1]
        params = RewardParams(base=500, penalty=7, p=2)
        for bid in list(dag.past(tip))[::4]:
            assert reward(dag, tip, bid, params).amount == reward_direct(dag, tip, bid, params)


class TestConflictStability:
    def test_set_fixed_once_buried(self):
        # Two sibling branches merged, then extended far: the subject's set
        # must be identical at every later chain tip.
        p = 2
        dag = BlockDag()
        a = dag.insert(b"a", [dag.genesis], 0).id
        b = dag.insert(b"b", [dag.genesis], 1).id
        tip = dag.insert(b"m", [a, b], 0).id
        tips = [tip]
        for i in range(2 * p + 6):
            tip = dag.insert(b"e%d" % i, [tip], 0).id
            tips.append(tip)
        buried = [t for t in tips if len(dag.past(t)) >= 2 * p + 2]
        sets = [conflict_set(dag, t, a, p) for t in buried[2:]]
        assert all(s == sets[0] for s in sets)


class TestFinalize:
    def test_fork_pair_each_pay_one_penalty(self):
        p = 3
        params = RewardParams(base=1000, penalty=10, p=p)
        dag = BlockDag()
        a = dag.insert(b"a", [dag.genesis], 0).id
        b = dag.insert(b"b", [dag.genesis], 1).id
        tip = dag.insert(b"m", [a, b], 2).id
        tip = extend_chain(dag, tip, 2 * p + 2)
        ledger = finalize(dag, tip, params, RewardLedger())
        assert ledger.entries[a].amount == 990
        assert ledger.entries[b].amount == 990
        assert ledger.entries[dag.genesis].amount == 1000

    def test_only_buried_blocks_finalize(self):
        params = RewardParams(base=100, penalty=1, p=2)
        dag = BlockDag()
        tip = extend_chain(dag, dag.genesis, 2 * params.p + 3)
        ledger = finalize(dag, tip, params, RewardLedger())
        depths = {dag.depth_of(dag.index_of(b)) for b in ledger.entries}
        tip_depth = dag.depth_of(dag.index_of(tip))
        assert depths and max(depths) < tip_depth - 2 * params.p

    def test_recheck_passes_on_grown_chain(self):
        params = RewardParams(base=100, penalty=1, p=2)
        dag = BlockDag()
        tip = extend_chain(dag, dag.genesis, 2 * params.p + 2)
        ledger = finalize(dag, tip, params, RewardLedger())
        tip = extend_chain(dag, tip, 4, tag=b"more")
        finalize(dag, tip, params, ledger, recheck=True)
        assert ledger.rechecks > 0

    def test_tampered_amount_detected(self):
        params = RewardParams(base=100, penalty=1, p=2)
        dag = BlockDag()
        tip = extend_chain(dag, dag.genesis, 2 * params.p + 2)
        ledger = finalize(dag, tip, params, RewardLedger())
        ledger.entries[dag.genesis].amount += 1
        with pytest.raises(FinalityViolation):
            finalize(dag, tip, params, ledger, recheck=True)

    def test_flat_scheme_pays_base_everywhere(self):
        params = RewardParams(base=777, penalty=0, p=3)
        dag = random_dag(random.Random(40), 60)
        tip = list(dag)[-1]
        deep_tip = extend_chain(dag, tip, 2 * params.p + 1, tag=b"bury")
        ledger = finalize(dag, deep_tip, params, RewardLedger())
        stale = stale_set(dag, deep_tip, params.p).members
        for bid, entry in ledger.entries.items():
            assert entry.amount == (0 if bid in stale else 777)

    def test_csv_export_shape(self):
        params = RewardParams(base=100, penalty=1, p=2)
        dag = BlockDag()
        tip = extend_chain(dag, dag.genesis, 2 * params.p + 2)
        ledger = finalize(dag, tip, params, RewardLedger())
        buf = io.StringIO()
        ledger.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "block_id,miner,amount_micro,finalized_round,conflict_size,stale"
        assert len(lines) == len(ledger.entries) + 1
