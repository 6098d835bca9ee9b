"""Acceptance suite: one test (and one printed verdict line) per exit criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The statistical
criteria share three batches of simulations, computed once per session on
a small process pool; every tolerance is pinned here, not tuned at
runtime.
"""

import math
import random
import statistics
import time

import pytest

from dagsim import oracles
from dagsim.chain import main_chain
from dagsim.fixtures import fork_example
from dagsim.ordering import order
from dagsim.rewards import conflict_set
from dagsim.sim import SimConfig, run_sweep
from dagsim.staleness import stale_set

P = 20
PENALTY = 2_500
BASE = PENALTY * P * P  # clamp-boundary regime: base equals penalty * p^2
SEEDS = list(range(101, 121))  # 20 seeds everywhere
ALPHA = 0.5
T_95_DF19 = 2.093  # two-sided 95% critical value at 20 samples

CRIT3_STRATEGIES = {
    "honest": {},
    "withhold_half_p": {"strategy": "withhold", "withhold_k": P // 2},
    "selfish": {"strategy": "selfish"},
    "no_reference": {"strategy": "no_reference"},
}

CRIT7_RATIOS = (0.15, 0.25, 0.33)
CRIT7_DEVIATIONS = {
    "withhold_1": {"strategy": "withhold", "withhold_k": 1},
    "withhold_half_p": {"strategy": "withhold", "withhold_k": P // 2},
    "withhold_p": {"strategy": "withhold", "withhold_k": P},
    "selfish": {"strategy": "selfish"},
    "no_reference": {"strategy": "no_reference"},
}


def verdict(num: int, ok: bool, detail: str) -> None:
    # One visible line per criterion when run with -s (see README).
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def beta_for_ratio(ratio: float) -> float:
    return ratio * ALPHA / (1 - ratio)


def batch(cfg: SimConfig) -> list[dict]:
    return run_sweep(cfg, SEEDS)["runs"]


@pytest.fixture(scope="session")
def crit3_runs():
    out = {}
    for name, kw in CRIT3_STRATEGIES.items():
        cfg = SimConfig(
            alpha=ALPHA, beta=0.2, players=5, p=P, rounds=10_000,
            base=BASE, penalty=PENALTY, check_invariants=True,
            valuation=False, strategy=kw.get("strategy", "honest"),
            withhold_k=kw.get("withhold_k", 0),
        )
        out[name] = batch(cfg)
    return out


@pytest.fixture(scope="session")
def crit6_runs():
    out = {}
    for name, penalty in (("penalized", PENALTY), ("flat", 0)):
        cfg = SimConfig(
            alpha=ALPHA, beta=0.0, players=5, p=P, rounds=10_000,
            base=BASE, penalty=penalty, valuation=False,
        )
        out[name] = batch(cfg)
    return out


@pytest.fixture(scope="session")
def crit7_data():
    started = time.monotonic()
    data: dict = {}
    for ratio in CRIT7_RATIOS:
        beta = beta_for_ratio(ratio)
        data[ratio] = {}
        base_cfg = dict(
            alpha=ALPHA, beta=beta, players=5, p=P, rounds=1_500,
            base=BASE, penalty=PENALTY, valuation=True,
        )
        data[ratio]["honest"] = batch(SimConfig(strategy="honest", **base_cfg))
        for name, kw in CRIT7_DEVIATIONS.items():
            cfg = SimConfig(
                strategy=kw["strategy"], withhold_k=kw.get("withhold_k", 0), **base_cfg
            )
            data[ratio][name] = batch(cfg)
    return data, time.monotonic() - started


def valuation_split(report: dict) -> tuple[int, int]:
    """(adversary total, honest total) under the final-tip full valuation."""
    adv = str(report["adversary"])
    miners = report["valuation"]["miners"]
    a = miners.get(adv, 0)
    return a, sum(v for m, v in miners.items() if m != adv)


# -- criterion 1: oracle equivalence on random DAGs ---------------------------


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20_26)
    sizes = [rng.randint(30, 150) for _ in range(90)] + [300] * 8 + [1000] * 2
    mismatches = 0
    for i, size in enumerate(sizes):
        dag = oracles.random_dag(rng, size, recency=rng.choice([1.5, 2.5, 4.0]))
        ids = list(dag)
        pasts = oracles.all_pasts(dag)

        for bid in ids:
            if dag.past(bid) != pasts[bid]:
                mismatches += 1

        sample = ids if size <= 150 else rng.sample(ids, 40)
        for bid in sample:
            if order(dag, bid) != oracles.order_recursive(dag, bid):
                mismatches += 1

        tip = main_chain(dag)[-1]
        direct_stale = oracles.stale_set_direct(dag, tip, 3)
        if set(stale_set(dag, tip, 3).members) != direct_stale:
            mismatches += 1

        fresh = [b for b in pasts[tip] if b not in direct_stale]
        subjects = fresh if size <= 80 else rng.sample(fresh, min(30, len(fresh)))
        for bid in subjects:
            direct = {
                x
                for x in pasts[tip]
                if x != bid
                and x not in direct_stale
                and x not in pasts[bid]
                and bid not in pasts[x]
            }
            if conflict_set(dag, tip, bid, 3) != direct:
                mismatches += 1

    elapsed = time.monotonic() - started
    verdict(
        1,
        mismatches == 0 and elapsed < 60,
        f"100 random DAGs, zero mismatches required (got {mismatches}), "
        f"{elapsed:.1f}s of allowed 60s",
    )


# -- criterion 2: the drawn fixture -------------------------------------------


def test_criterion_2_fork_fixture():
    fx = fork_example()
    ok_conflicts = conflict_set(fx.dag, fx.t, fx.c, P) == {fx.w, fx.cu, fx.cw}
    ok_order = order(fx.dag, fx.d) == [fx.g, fx.b, fx.u, fx.c, fx.cu, fx.d]
    ok_parent = fx.dag.get(fx.c).parent == fx.b
    verdict(
        2,
        ok_conflicts and ok_order and ok_parent,
        f"conflict set {'ok' if ok_conflicts else 'WRONG'}, "
        f"order {'ok' if ok_order else 'WRONG'}, parent {'ok' if ok_parent else 'WRONG'}",
    )


# -- criteria 3/4/9 over the long adversarial batch ----------------------------


def test_criterion_3_honest_blocks_never_stale(crit3_runs):
    events = {
        name: sum(r["staleness"]["honest_stale_events"] for r in runs)
        for name, runs in crit3_runs.items()
    }
    total = sum(events.values())
    verdict(
        3,
        total == 0,
        f"honest-stale events across 4 strategies x 20 seeds x 10^4 rounds: {events}",
    )


def test_criterion_4_rewards_are_final(crit3_runs):
    violations = sum(
        r["finality"]["violations"] for runs in crit3_runs.values() for r in runs
    )
    rechecks = sum(
        r["finality"]["rechecks"] for runs in crit3_runs.values() for r in runs
    )
    verdict(
        4,
        violations == 0 and rechecks > 0,
        f"{rechecks} runtime re-derivations, {violations} finality violations",
    )


def test_criterion_9_broadcasts_join_every_chain(crit3_runs):
    checked = sum(r["inclusion"]["checked"] for runs in crit3_runs.values() for r in runs)
    missed = sum(r["inclusion"]["missed"] for runs in crit3_runs.values() for r in runs)
    verdict(
        9,
        checked > 0 and missed == 0,
        f"{checked} block/player inclusion deadlines checked, {missed} missed",
    )


# -- criterion 5: non-negativity at the clamp boundary -------------------------


def test_criterion_5_no_clamped_rewards(crit3_runs, crit6_runs, crit7_data):
    data, _ = crit7_data
    all_reports = [r for runs in crit3_runs.values() for r in runs]
    all_reports += [r for runs in crit6_runs.values() for r in runs]
    all_reports += [r for per in data.values() for runs in per.values() for r in runs]
    clamped = sum(r["conflicts"]["negative_clamped"] for r in all_reports)
    negatives = sum(
        r["valuation"]["negative_values"] for r in all_reports if "valuation" in r
    )
    max_conflict = max(r["conflicts"]["max_size"] for r in all_reports)
    verdict(
        5,
        clamped == 0 and negatives == 0 and max_conflict < P * P,
        f"zero clamps over {len(all_reports)} runs at base = penalty*p^2; "
        f"max conflict set {max_conflict} < {P * P}",
    )


# -- criterion 6: fairness of the all-honest baseline --------------------------


def test_criterion_6_fair_shares(crit6_runs):
    worst = 0.0
    for runs in crit6_runs.values():
        for player in range(5):
            mean_share = statistics.mean(r["miners"][str(player)]["share"] for r in runs)
            worst = max(worst, abs(mean_share - 0.2))
    verdict(
        6,
        worst <= 0.03,
        f"five equal players, both schemes: worst |mean share - 0.20| = {worst:.4f} "
        f"(allowed 0.03)",
    )


# -- criteria 7/8: deviation strictly loses ------------------------------------


def test_criterion_7_deviation_reduces_share_and_amount(crit7_data):
    data, elapsed = crit7_data
    failures = []
    min_share_t = math.inf
    for ratio, per_strategy in data.items():
        base_runs = per_strategy["honest"]
        base_vals = [valuation_split(r) for r in base_runs]
        base_shares = [a / (a + h) for a, h in base_vals]
        for name, runs in per_strategy.items():
            if name == "honest":
                continue
            dev_vals = [valuation_split(r) for r in runs]
            dev_shares = [a / (a + h) for a, h in dev_vals]
            share_diffs = [b - d for b, d in zip(base_shares, dev_shares)]
            amount_diffs = [b[0] - d[0] for b, d in zip(base_vals, dev_vals)]
            for label, diffs in (("share", share_diffs), ("amount", amount_diffs)):
                mean = statistics.mean(diffs)
                sem = statistics.stdev(diffs) / math.sqrt(len(diffs))
                tstat = mean / sem if sem else math.inf
                # Paired comparison: the 95% interval of the per-seed
                # baseline-minus-deviation difference must sit above zero.
                if not (mean > 0 and mean - T_95_DF19 * sem > 0):
                    failures.append(f"{name}@{ratio}:{label}")
                if label == "share":
                    min_share_t = min(min_share_t, tstat)
    verdict(
        7,
        not failures and elapsed < 600,
        f"15 deviation/rate pairs x 20 paired seeds: all reductions separated at 95% "
        f"(weakest t={min_share_t:.1f}); batch took {elapsed:.0f}s of allowed 600s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_8_hurting_others_costs_at_least_as_much(crit7_data):
    data, _ = crit7_data
    min_margin = math.inf
    pairs = 0
    for ratio, per_strategy in data.items():
        base_vals = [valuation_split(r) for r in per_strategy["honest"]]
        for name, runs in per_strategy.items():
            if name == "honest":
                continue
            for (ba, bh), (da, dh) in zip(base_vals, (valuation_split(r) for r in runs)):
                honest_loss = bh - dh
                adversary_loss = ba - da
                min_margin = min(min_margin, adversary_loss - honest_loss)
                pairs += 1
    verdict(
        8,
        min_margin >= -1,
        f"{pairs} paired runs: min(adversary loss - honest loss) = {min_margin} micro "
        f"(allowed >= -1)",
    )


# -- criterion 10: reports are bit-stable ---------------------------------------


def test_criterion_10_byte_identical_reports(tmp_path):
    import json

    from dagsim.cli import main

    cfg = {
        "alpha": ALPHA, "beta": 0.2, "players": 5, "p": P, "rounds": 400,
        "base": BASE, "penalty": PENALTY, "strategy": "selfish", "seed": 99,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", str(path), "--out", str(a)]) == 0
    assert main(["run", "--config", str(path), "--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    verdict(10, identical, f"repeated invocation produced identical bytes: {identical}")
