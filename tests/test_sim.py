import hashlib
import json
import logging

import pytest

import dagsim.sim
from dagsim.errors import ConfigInvalid, FinalityViolation
from dagsim.oracles import main_chain_traversal
from dagsim.rewards import RewardLedger, finalize
from dagsim.sim import SimConfig, Simulation, run_sweep
from dagsim.strategies import Release, Strategy


def small(**kw):
    defaults = dict(alpha=0.5, beta=0.0, players=3, p=4, rounds=200, seed=1, valuation=False)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestConfigValidation:
    def test_total_rate_must_stay_below_one(self):
        with pytest.raises(ConfigInvalid, match="below one"):
            small(alpha=0.8, beta=0.25, strategy="honest").validate()

    def test_honest_majority_required(self):
        with pytest.raises(ConfigInvalid, match="alpha\\*exp\\(-alpha\\)"):
            small(alpha=0.5, beta=0.31, strategy="honest").validate()

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigInvalid, match="sum to 1"):
            small(weights=(0.5, 0.2, 0.2)).validate()

    def test_enough_rounds_for_finalization(self):
        with pytest.raises(ConfigInvalid, match="4p"):
            small(rounds=10).validate()

    def test_unknown_strategy(self):
        with pytest.raises(ConfigInvalid, match="strategy"):
            small(strategy="mystery").validate()

    def test_punisher_constraints(self):
        with pytest.raises(ConfigInvalid, match="4 players"):
            small(strategy="punisher", players=3).validate()
        with pytest.raises(ConfigInvalid, match="beta"):
            small(strategy="punisher", players=4, beta=0.1, alpha=0.4).validate()

    def test_clamp_risk_warning_logged_once_per_simulation(self, caplog):
        logging.getLogger("dagsim.rewards").setLevel(logging.WARNING)
        with caplog.at_level(logging.WARNING, logger="dagsim.rewards"):
            Simulation(small(base=2_000 * 4 * 4))
        assert sum("clamp-risk" in r.message for r in caplog.records) == 1

    def test_rng_family_pinned(self):
        with pytest.raises(ConfigInvalid, match="rng_family"):
            small(rng_family="mersenne").validate()


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        cfg = small(beta=0.1, strategy="selfish", valuation=True)
        assert Simulation(cfg).run().to_json() == Simulation(cfg).run().to_json()

    def test_seed_changes_report(self):
        a = Simulation(small()).run().to_json()
        b = Simulation(small(seed=2)).run().to_json()
        assert a != b

    def test_holding_zero_rounds_equals_honest_adversary(self):
        import io

        cfg_h = small(beta=0.1, strategy="honest")
        cfg_w = small(beta=0.1, strategy="withhold", withhold_k=0)
        sim_h, sim_w = Simulation(cfg_h), Simulation(cfg_w)
        sim_h.run(), sim_w.run()
        dump_h, dump_w = io.StringIO(), io.StringIO()
        sim_h.dag.dump(dump_h)
        sim_w.dag.dump(dump_w)
        assert dump_h.getvalue() == dump_w.getvalue()


GOLDEN_BASE = dict(alpha=0.5, beta=0.2, players=5, p=20, rounds=800,
                   base=1_000_000, penalty=2_500, seed=7)
PUNISHER = dict(strategy="punisher", beta=0.0, players=4, punisher_window=15)
# sha256 of SimReport.to_json() for GOLDEN_BASE plus each override. A
# change that alters a report must say so and update the pin.
GOLDEN_REPORTS = {
    "honest": (
        dict(strategy="honest"),
        "2fc00c0f5246f5377f36b7cb8d4de3fa9494a25210de46b76396ab9eea97a45f",
    ),
    "withhold_half_p": (
        dict(strategy="withhold", withhold_k=10),
        "a9300f3525d2f8f19d8c76a3072eb17b2db1359bce991018ba362e82d6bd6315",
    ),
    "withhold_2p": (
        dict(strategy="withhold", withhold_k=40),
        "6705cbbb9508592be7463e42958e1e126a9467004ef58686517776830981d8ef",
    ),
    "selfish": (
        dict(strategy="selfish"),
        "61c0c609076fb161c19503970cc9f92addd3bd89907053a6abc15015a8ff7d9b",
    ),
    "no_reference": (
        dict(strategy="no_reference"),
        "d762dd0cd29c2e3d242efc5255c6652011b01ecc4feecf778ba9d5a77e87f60f",
    ),
    "withhold_half_p_no_invariants": (
        dict(strategy="withhold", withhold_k=10, check_invariants=False),
        "9efd72e541fc9f25ace4539e58728b6aee73e59374d3e666fc9d46386f1ba678",
    ),
    # The scripted player stays silent, so the punisher never triggers.
    "punisher_silent": (
        dict(PUNISHER, punisher_deviate=True),
        "9d7af5856376e8fa4d2d5cccb379f6fa0ab4b07ac8a89ba175aa3f74f852089d",
    ),
    "punisher_triggered": (
        dict(PUNISHER, punisher_deviate=False),
        "54b74d900a740f168d1bdc5bc234b643dcf2ed9863275696e09ebad1961197d1",
    ),
    # Punishment blocks withheld past p go stale; none of them is honest.
    "punisher_stale": (
        dict(PUNISHER, punisher_deviate=False, punisher_withhold=25),
        "5e0ce890c1ff7430d9ab2446e1ddad642b5810ea35b26c04dd8fc279f2036883",
    ),
}


def golden_sim(name):
    overrides, digest = GOLDEN_REPORTS[name]
    return Simulation(SimConfig(**{**GOLDEN_BASE, **overrides})), digest


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_hash_pinned(self, name):
        sim, digest = golden_sim(name)
        assert sha256(sim.run().to_json()) == digest

    def test_withhold_2p_leaves_stale_blocks(self):
        sim, _ = golden_sim("withhold_2p")
        assert sim.run().staleness["stale_blocks"] > 0


class TestFire:
    def test_one_judgement_per_entry_without_invariants(self, monkeypatch):
        judged = []
        engine = dagsim.sim.judge

        def counting(dag, sidx, tip_ix, subjects, params):
            judged.extend(subjects)
            return engine(dag, sidx, tip_ix, subjects, params)

        monkeypatch.setattr(dagsim.sim, "judge", counting)
        sim, digest = golden_sim("withhold_half_p_no_invariants")
        report = sim.run()
        assert len(judged) == len(sim.ledger.entries)
        assert sha256(report.to_json()) == digest

    def test_tampered_amount_caught_at_shared_and_later_tips(self, monkeypatch):
        # Verifies share the outcome derived for the record when they come
        # at its tip in its round; they must still compare against the
        # recorded amount, here altered right after it was recorded.
        sim, _ = golden_sim("withhold_half_p")
        dag, ledger = sim.dag, sim.ledger
        engine = dagsim.sim.judge
        derived_at = {}  # id(outcome) -> tip; the outcomes are kept alive
        kept = []

        def judging(dag, sidx, tip_ix, subjects, params):
            out = engine(dag, sidx, tip_ix, subjects, params)
            kept.append(out)
            derived_at.update((id(o), tip_ix) for o in out)
            return out

        monkeypatch.setattr(dagsim.sim, "judge", judging)
        target = {}
        record, verify = ledger.record, ledger.verify

        def tampering(bid, miner, outcome, tip, round_no):
            record(bid, miner, outcome, tip, round_no)
            if not target and bid != dag.genesis and not outcome.stale:  # an unshared outcome
                ledger.entries[bid].amount += 1
                target.update(bid=bid, tip=dag.index_of(tip), round=round_no, caught=[])

        def watching(bid, outcome):
            try:
                verify(bid, outcome)
            except FinalityViolation:
                target["caught"].append((sim._round, derived_at[id(outcome)]))

        monkeypatch.setattr(ledger, "record", tampering)
        monkeypatch.setattr(ledger, "verify", watching)
        sim.run()
        caught = target["caught"]
        assert (target["round"], target["tip"]) in caught
        assert any(r > target["round"] and t != target["tip"] for r, t in caught)
        assert ledger.rechecks > 0


class TestSinglePlayer:
    def test_single_honest_player_builds_one_chain(self):
        cfg = SimConfig(alpha=0.3, beta=0.0, players=1, p=4, rounds=300, seed=5,
                        valuation=False)
        sim = Simulation(cfg)
        rep = sim.run()
        assert rep.totals["main_chain_length"] == rep.totals["blocks"] + 1
        assert rep.staleness["stale_blocks"] == 0
        for entry in sim.ledger.entries.values():
            assert entry.amount == cfg.base
        assert rep.totals["finalized_blocks"] > 0


class TestHonestRuns:
    def test_no_honest_block_ever_stale(self):
        rep = Simulation(small(beta=0.15, strategy="selfish", p=6, rounds=400)).run()
        assert rep.staleness["honest_stale_events"] == 0

    def test_every_block_included_within_horizon(self):
        rep = Simulation(small(rounds=400)).run()
        assert rep.inclusion["checked"] > 0
        assert rep.inclusion["missed"] == 0

    def test_rough_fairness_small_run(self):
        cfg = small(alpha=0.5, rounds=3000, p=6, seed=3)
        rep = Simulation(cfg).run()
        for m in range(3):
            assert rep.miners[str(m)]["share"] == pytest.approx(1 / 3, abs=0.08)

    def test_shares_sum_to_one(self):
        rep = Simulation(small(beta=0.1, strategy="withhold", withhold_k=2)).run()
        assert sum(v["share"] for v in rep.miners.values()) == pytest.approx(1.0)


class TestLedgerConsistency:
    def test_sim_ledger_matches_full_sweep(self):
        cfg = small(beta=0.1, strategy="withhold", withhold_k=3, p=6, rounds=500)
        sim = Simulation(cfg)
        sim.run()
        tip = sim.dag.id_at(sim.players[0].view.tip)
        fresh = finalize(sim.dag, tip, cfg.reward_params(), RewardLedger())
        for bid, entry in fresh.entries.items():
            if bid in sim.ledger.entries:
                assert sim.ledger.entries[bid].amount == entry.amount

    def test_player_chains_match_oracle_at_end(self):
        cfg = small(beta=0.2, strategy="selfish", p=6, rounds=400, alpha=0.6)
        sim = Simulation(cfg)
        sim.run()
        for player in sim.players:
            members = {sim.dag.id_at(i) for i in player.view.known}
            got = [sim.dag.id_at(i) for i in player.view.chain]
            assert got == main_chain_traversal(sim.dag, members)
            player.view.check()

    def test_genesis_finalizes_at_base(self):
        sim = Simulation(small())
        sim.run()
        assert sim.ledger.entries[sim.dag.genesis].amount == sim.config.base


class TestWithheldBlocksGoStale:
    def test_long_withholding_forfeits_everything(self):
        p = 6
        cfg = SimConfig(alpha=0.7, beta=0.15, players=3, p=p, rounds=900, seed=11,
                        strategy="withhold", withhold_k=6 * p, valuation=False)
        sim = Simulation(cfg)
        rep = sim.run()
        adv = cfg.players
        # Every adversary block that made it into the ledger earned nothing.
        released_stale = 0
        for entry in sim.ledger.entries.values():
            if entry.miner == adv:
                assert entry.amount == 0 and entry.stale
                released_stale += 1
        assert released_stale > 0
        assert rep.miners[str(adv)]["finalized_micro"] == 0
        assert rep.staleness["honest_stale_events"] == 0


class Probe(Strategy):
    """Mines on its whole view and releases each block at once to ``subset(round)``."""

    name = "withhold"

    def __init__(self, subset=lambda round_no: (0,)):
        self.subset = subset
        self.pending = []

    def plan_refs(self):
        view = self.ctx.adv_view
        ids = self.ctx.dag._ids
        return [ids[j] for j in view.sorted_tips()], ids[view.tip]

    def on_mined(self, ix, round_no):
        self.pending.append(ix)

    def releases(self, round_no, honest_new):
        out = [Release(ix, recipients=self.subset(round_no)) for ix in self.pending]
        self.pending = []
        return out


def varying_subset(round_no):
    return tuple(j for j in range(5) if round_no % (j + 2) == 0)


def subset_release_sim():
    """Five players, releases to a different subset (sometimes none) each round."""
    cfg = SimConfig(**{**GOLDEN_BASE, "strategy": "withhold"})
    return Simulation(cfg, strategy_obj=Probe(varying_subset))


class TestSubsetRelease:
    def test_partial_send_delays_others_one_round(self):
        seen_at = {0: {}, 1: {}}
        cfg = SimConfig(alpha=0.4, beta=0.15, players=2, p=4,
                        rounds=80, seed=3, strategy="withhold", valuation=False)
        sim = Simulation(cfg, strategy_obj=Probe())

        orig_deliver = sim._deliver_round

        def spy(group, round_no):
            before = set(group.view.known)
            orig_deliver(group, round_no)
            for ix in group.view.known - before:
                for pix in group.members:
                    seen_at[pix][ix] = round_no

        sim._deliver_round = spy
        sim.run()
        adv = cfg.players
        adv_blocks = [ix for ix in sim.announced_round if sim.dag.miner_of(ix) == adv]
        assert adv_blocks
        for ix in adv_blocks:
            release = sim.announced_round[ix]
            if ix in seen_at[0] and ix in seen_at[1]:
                assert seen_at[0][ix] == release + 1
                assert seen_at[1][ix] == release + 2

    def test_varying_subsets_report_hash_pinned(self):
        # Measured before players shared views by delivery group.
        digest = "ba850613d208f1b4c0b5910a048c6d275a1c64013224f57931470c412ae52a29"
        assert sha256(subset_release_sim().run().to_json()) == digest


class TestDeliveryGroups:
    @pytest.mark.parametrize("overrides", [
        dict(strategy="honest"), dict(strategy="withhold", withhold_k=2),
        dict(strategy="selfish"), dict(strategy="no_reference"),
    ], ids=lambda o: o["strategy"])
    def test_builtin_strategies_keep_one_group(self, overrides):
        sim = Simulation(small(beta=0.1, players=5, **overrides))
        sim.run()
        assert len(sim.groups) == 1
        assert all(player is sim.groups[0] for player in sim.players)

    def test_diverging_deliveries_split_groups(self):
        for sim in (subset_release_sim(), golden_sim("punisher_triggered")[0]):
            sim.run()
            assert len(sim.groups) > 1
            members = sorted(j for group in sim.groups for j in group.members)
            assert members == list(range(sim.n))
            assert all(j in sim.players[j].members for j in range(sim.n))


class TestSweep:
    def test_sweep_aggregates_all_seeds(self):
        cfg = small(rounds=200)
        doc = run_sweep(cfg, seeds=[1, 2, 3], max_workers=1)
        assert len(doc["runs"]) == 3
        assert doc["aggregate"]["seeds"] == 3
        assert "mean" in doc["aggregate"]["shares"]["0"]

    def test_sweep_deterministic(self):
        cfg = small(rounds=200)
        a = run_sweep(cfg, seeds=[5, 6], max_workers=1)
        b = run_sweep(cfg, seeds=[5, 6], max_workers=1)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_pool_matches_in_process(self):
        cfg = small(rounds=200, beta=0.1, strategy="selfish", valuation=True)
        local = run_sweep(cfg, seeds=[5, 6], max_workers=1)
        pooled = run_sweep(cfg, seeds=[5, 6], max_workers=2)
        assert json.dumps(local, sort_keys=True) == json.dumps(pooled, sort_keys=True)


class TestPunisherScenario:
    def test_trigger_fires_only_when_all_broadcast(self):
        kw = dict(alpha=0.9, beta=0.0, players=4, p=6, rounds=100,
                  strategy="punisher", punisher_window=15, valuation=False)
        silent = Simulation(SimConfig(seed=0, punisher_deviate=True, **kw))
        silent.run()
        assert not silent.script.triggered
        honest = Simulation(SimConfig(seed=0, punisher_deviate=False, **kw))
        honest.run()
        assert honest.script.triggered

    def test_breaking_the_script_costs_the_silent_player(self):
        # The window and depth are sized so the punishment overwhelms the
        # script's own withholding cost inside the valuation core.
        diffs = []
        for seed in range(4):
            kw = dict(alpha=0.9, beta=0.0, players=4, p=16, rounds=600, seed=seed,
                      strategy="punisher", punisher_window=15,
                      base=640_000, penalty=2_500)
            scripted = Simulation(SimConfig(punisher_deviate=True, **kw)).run()
            deviated = Simulation(SimConfig(punisher_deviate=False, **kw)).run()
            diffs.append(
                scripted.valuation["miners"].get("2", 0)
                - deviated.valuation["miners"].get("2", 0)
            )
        assert sum(diffs) > 0 and sorted(diffs)[1] > 0  # at least 3 of 4 positive


class TestEventLog:
    def test_events_cover_every_round(self):
        cfg = small(rounds=200, log_events=True)
        rep = Simulation(cfg).run()
        assert rep.events is not None and len(rep.events) == 200
        assert {e["round"] for e in rep.events} == set(range(1, 201))
