"""The three benchmark workloads: inputs, timed calls and output checks.

Each workload builds its inputs from the benchmark seed in ``__init__``
(part of ``setup_s``), readies round k in ``prepare``, runs it in
``timed_round``, keeps what the checks need in ``after_round`` and
returns the number of failed operations from ``check``; all but
``timed_round`` run outside the timed region.  An operation is one
simulation run or one reload.  Where a round repeats an input, its
outputs must equal the first ones byte for byte, since dagsim is
deterministic for a fixed input.
"""

from __future__ import annotations

import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import checker
from dagsim.ordering import order
from dagsim.sim import SimConfig, Simulation, run_sweep
from dagsim.staleness import stale_set
from dagsim.store import load_dag

P = 20
PENALTY = 2_500
BASE = PENALTY * P * P  # the clamp boundary: base = penalty * p^2
ALPHA = 0.5

LONG_ROUNDS = 3_000
LONG_SEEDS = 3
SWEEP_ROUNDS = 1_500
SWEEP_SEEDS = 2
SWEEP_WORKERS = 2
SWEEP_BETA = 0.25 * ALPHA / (1 - 0.25)  # adversary ratio 0.25
SWEEP_STRATEGIES = {
    "honest": {"strategy": "honest"},
    "withhold_p": {"strategy": "withhold", "withhold_k": P},
    "selfish": {"strategy": "selfish"},
    "no_reference": {"strategy": "no_reference"},
}
SNAPSHOT_ROUNDS = 3_000
SNAPSHOTS = 3
SNAPSHOT_FILES = ("dag.ndjson", "tip.txt", "ledger.csv", "report.json")

BENCH_DIR = Path(__file__).resolve().parent


def long_run_config(seed: int) -> SimConfig:
    return SimConfig(
        alpha=ALPHA, beta=0.2, players=5, p=P, rounds=LONG_ROUNDS, base=BASE, penalty=PENALTY,
        strategy="withhold", withhold_k=P // 2, check_invariants=True, valuation=True, seed=seed,
    )


def sweep_config(strategy: str) -> SimConfig:
    kw = SWEEP_STRATEGIES[strategy]
    return SimConfig(
        alpha=ALPHA, beta=SWEEP_BETA, players=5, p=P, rounds=SWEEP_ROUNDS, base=BASE,
        penalty=PENALTY, valuation=True, strategy=kw["strategy"], withhold_k=kw.get("withhold_k", 0),
    )


def snapshot_config(seed: int) -> SimConfig:
    return SimConfig(
        alpha=ALPHA, beta=0.2, players=5, p=P, rounds=SNAPSHOT_ROUNDS, base=BASE, penalty=PENALTY,
        strategy="selfish", check_invariants=False, valuation=False, seed=seed,
    )


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def check_properties(report: dict) -> None:
    """Guarantees every long-run and sweep report must show."""
    cfg = report["config"]
    p = cfg["p"]
    if cfg["base"] != cfg["penalty"] * p * p:
        raise checker.CheckFailed("config is not at the clamp boundary base = penalty * p^2")
    for key, value in (
        ("honest_stale_events", report["staleness"]["honest_stale_events"]),
        ("inclusion.missed", report["inclusion"]["missed"]),
        ("negative_clamped", report["conflicts"]["negative_clamped"]),
    ):
        if value != 0:
            raise checker.CheckFailed(f"{key} = {value}, expected 0")
    if report["conflicts"]["max_size"] >= p * p:
        raise checker.CheckFailed(f"conflicts.max_size {report['conflicts']['max_size']} >= p^2")


def sim_outputs(sim: Simulation, report_json: str) -> dict:
    """What ``dagsim run`` would write for this simulation, as strings."""
    dump = io.StringIO()
    sim.dag.dump(dump)
    ledger = io.StringIO(newline="")
    sim.ledger.write_csv(ledger)
    return {
        "dump": dump.getvalue(),
        "tip": sim.dag.id_at(sim.players[0].view.tip).hex(),
        "ledger": ledger.getvalue(),
        "report": report_json,
    }


def check_sim_outputs(out: dict, seed: int) -> None:
    report = json.loads(out["report"])
    check_properties(report)
    checker.check_run(out["dump"], out["tip"], out["ledger"], report, seed=seed)


class LongRun:
    """One long ``Simulation.run()`` and its JSON report per operation.

    Round k simulates seed ``1000 * seed + k % LONG_SEEDS``, so that a
    run's figure rests on several DAGs rather than on the size of one.
    The first round of each seed keeps its outputs for the checks; a later
    round of that seed must reproduce them byte for byte.
    """

    name = "long-run"
    ops_per_round = 1
    inputs = LONG_SEEDS

    def __init__(self, seed: int):
        self.seeds = [seed * 1000 + i for i in range(LONG_SEEDS)]
        self.sim: Simulation | None = Simulation(long_run_config(self.seeds[0]))
        self.k = 0
        self.first: dict[int, dict] = {}
        self.runs = [0] * LONG_SEEDS
        self.differing = [0] * LONG_SEEDS

    def prepare(self, k: int) -> None:
        self.k = k % self.inputs
        if self.sim is None or self.sim.config.seed != self.seeds[self.k]:
            self.sim = Simulation(long_run_config(self.seeds[self.k]))

    def timed_round(self):
        sim, self.sim = self.sim, None
        return sim, sim.run().to_json()

    def blocks(self, result) -> int:
        return len(result[0].dag) - 1

    def after_round(self, result) -> None:
        sim, text = result
        k = self.k
        self.runs[k] += 1
        out = sim_outputs(sim, text)
        if self.first.setdefault(k, out) != out:
            print(f"long-run seed {self.seeds[k]}: outputs differ from the first run's", file=sys.stderr)
            self.differing[k] += 1

    def check(self) -> int:
        failed = 0
        for k, out in self.first.items():
            try:
                check_sim_outputs(out, self.seeds[k])
                failed += self.differing[k]
            except checker.CheckFailed as exc:
                print(f"long-run seed {self.seeds[k]}: {exc}", file=sys.stderr)
                failed += self.runs[k]
        return failed


class PairedSweep:
    """``run_sweep`` over one seed list, one strategy per round.

    Round k sweeps the seeds with strategy ``k % 4``, in this process
    (``max_workers=1``): a pool of two workers on a 2-vCPU host makes the
    round time measure the scheduler.  The first round of each strategy
    keeps its document for the checks; a later round of that strategy must
    reproduce it byte for byte.  A traced run adds a 2-worker pool cycle.
    """

    name = "paired-sweep"
    ops_per_round = SWEEP_SEEDS
    inputs = len(SWEEP_STRATEGIES)

    def __init__(self, seed: int):
        self.workers = 1
        self.seeds = [seed * 1000 + i for i in range(SWEEP_SEEDS)]
        self.names = list(SWEEP_STRATEGIES)
        self.configs = {name: sweep_config(name) for name in self.names}
        self.k = 0
        self.first: dict[str, str] = {}
        self.rounds = [0] * self.inputs
        self.differing = [0] * self.inputs  # rounds whose document differs from the first's

    def prepare(self, k: int) -> None:
        self.k = k % self.inputs

    def timed_round(self):
        return run_sweep(self.configs[self.names[self.k]], self.seeds, max_workers=self.workers)

    def blocks(self, result) -> int:
        return sum(r["totals"]["blocks"] for r in result["runs"])

    def after_round(self, result) -> None:
        name, text = self.names[self.k], canonical(result)
        self.rounds[self.k] += 1
        if self.first.setdefault(name, text) != text:
            print(f"paired-sweep {name}: document differs from the first round's", file=sys.stderr)
            self.differing[self.k] += 1

    def _first_round_failures(self) -> set[tuple[str, int]]:
        """(strategy, seed position) of every run whose output fails a check."""
        docs = {name: json.loads(text) for name, text in self.first.items()}
        bad: set[tuple[str, int]] = set()
        # Criterion 8: an adversary that hurts the others loses at least as much.
        for i in range(len(self.seeds)):
            if "honest" not in docs:
                break
            base_adv, base_honest = valuation_split(docs["honest"]["runs"][i])
            for name, doc in docs.items():
                if name == "honest":
                    continue
                adv, honest = valuation_split(doc["runs"][i])
                margin = (base_adv - adv) - (base_honest - honest)
                if margin < -1:
                    print(f"paired-sweep {name} seed {self.seeds[i]}: margin {margin}", file=sys.stderr)
                    bad.add((name, i))
        # Every run re-run on its own, so that its dump and ledger can be
        # checked; its report must equal the sweep's entry byte for byte, so
        # the report properties checked on it hold for the sweep's entry.
        for name, doc in docs.items():
            for i, seed in enumerate(self.seeds):
                try:
                    sim = Simulation(dataclasses.replace(self.configs[name], seed=seed))
                    text = sim.run().to_json()
                    if text != canonical(doc["runs"][i]):
                        raise checker.CheckFailed("in-process report differs from the sweep's entry")
                    check_sim_outputs(sim_outputs(sim, text), seed)
                except checker.CheckFailed as exc:
                    print(f"paired-sweep {name} seed {seed}: {exc}", file=sys.stderr)
                    bad.add((name, i))
        return bad

    def check(self) -> int:
        bad = self._first_round_failures()
        failed = 0
        for k, name in enumerate(self.names):
            # A differing round fails all its runs; a matching one, the runs
            # that failed in the first round, since they repeat it exactly.
            matching = self.rounds[k] - self.differing[k]
            failed += self.differing[k] * len(self.seeds)
            failed += matching * sum(1 for bad_name, _ in bad if bad_name == name)
        return failed


def valuation_split(report: dict) -> tuple[int, int]:
    """(adversary total, honest total) under the final-tip valuation."""
    adv = str(report["adversary"])
    miners = report["valuation"]["miners"]
    return miners.get(adv, 0), sum(v for m, v in miners.items() if m != adv)


class SnapshotReload:
    """``load_dag`` a dump, ``order`` and ``stale_set`` at its tip, ``dump`` again.

    Set-up writes ``SNAPSHOTS`` dumps, of seeds ``1000 * seed + i``, and
    round k reloads dump ``k % SNAPSHOTS``.
    """

    name = "snapshot-reload"
    ops_per_round = 1
    inputs = SNAPSHOTS

    def __init__(self, seed: int):
        out_dir = BENCH_DIR / "out" / f"snapshot-{seed}"
        seeds = [seed * 1000 + i for i in range(SNAPSHOTS)]
        # A separate process, so that this one's peak RSS is the reload's alone.
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "snapshot.py"), "--out", str(out_dir)]
            + [str(s) for s in seeds],
            check=True,
        )
        self.snapshots = []
        for s in seeds:
            files = {n: (out_dir / str(s) / n).read_text() for n in SNAPSHOT_FILES}
            files["seed"] = s
            self.snapshots.append(files)
        self.k = 0
        self.first: dict[int, tuple[list[str], list[str]]] = {}
        self.reloads = [0] * len(self.snapshots)
        self.differing = [0] * len(self.snapshots)
        self.tracer = None

    def prepare(self, k: int) -> None:
        self.k = k % len(self.snapshots)

    def _call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.timed(name, fn, *args)

    def timed_round(self):
        inp = self.snapshots[self.k]
        tip = bytes.fromhex(inp["tip.txt"].strip())
        dag = self._call("store.load_dag", load_dag, io.StringIO(inp["dag.ndjson"]))
        ids = self._call("ordering.order", order, dag, tip)
        stale = self._call("staleness.stale_set", stale_set, dag, tip, P)
        buf = io.StringIO()
        self._call("store.dump", dag.dump, buf)
        return dag, ids, stale, buf.getvalue()

    def blocks(self, result) -> int:
        return len(result[0]) - 1

    def after_round(self, result) -> None:
        dag, ids, stale, redump = result
        masks = getattr(dag, "_masks", None)
        if self.tracer is not None and masks is not None:
            self.tracer.maximum("store.masks_bytes", int(masks.nbytes))
        k = self.k
        self.reloads[k] += 1
        outputs = ([b.hex() for b in ids], sorted(b.hex() for b in stale.members))
        if redump != self.snapshots[k]["dag.ndjson"] or self.first.setdefault(k, outputs) != outputs:
            print(f"snapshot-reload seed {self.snapshots[k]['seed']}: output differs", file=sys.stderr)
            self.differing[k] += 1

    def check(self) -> int:
        failed = 0
        for k, inp in enumerate(self.snapshots):
            if k not in self.first:
                failed += self.differing[k]
                continue
            order_hex, stale_hex = self.first[k]
            try:
                checker.check_run(
                    inp["dag.ndjson"], inp["tip.txt"].strip(), inp["ledger.csv"],
                    json.loads(inp["report.json"]), seed=inp["seed"],
                    order_hex=order_hex, stale_hex=stale_hex,
                )
                failed += self.differing[k]
            except checker.CheckFailed as exc:
                print(f"snapshot-reload seed {inp['seed']}: {exc}", file=sys.stderr)
                failed += self.reloads[k]
        return failed


WORKLOADS = {cls.name: cls for cls in (LongRun, PairedSweep, SnapshotReload)}
