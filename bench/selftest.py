"""Checker self-test: corrupted copies of a real output must be rejected.

Usage: python3 bench/selftest.py [--seed N]

Simulates one run whose adversary withholds past the staleness window, so
that its stale set is not empty, and takes the outputs ``dagsim run``
writes: the DAG dump, the ledger, the order and stale set at the
observer's final tip, and the report.  The checker must accept them as
they are, and reject each of three corrupted copies:

* one sampled ledger amount off by one penalty;
* one recorded parent swapped for another of the block's refs;
* one block dropped from the order.

Exits 0 when all four outcomes are as expected, 1 otherwise.
"""

import argparse
import json
import logging
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker  # noqa: E402
import workloads  # noqa: E402
from dagsim.ordering import order  # noqa: E402
from dagsim.sim import SimConfig, Simulation  # noqa: E402
from dagsim.staleness import stale_set  # noqa: E402


def real_outputs(seed: int) -> dict:
    cfg = SimConfig(
        alpha=workloads.ALPHA, beta=0.2, players=5, p=workloads.P, rounds=1_500,
        base=workloads.BASE, penalty=workloads.PENALTY, strategy="withhold",
        withhold_k=2 * workloads.P, seed=seed,
    )
    sim = Simulation(cfg)
    out = workloads.sim_outputs(sim, sim.run().to_json())
    tip = bytes.fromhex(out["tip"])
    out["order"] = [b.hex() for b in order(sim.dag, tip)]
    out["stale"] = sorted(b.hex() for b in stale_set(sim.dag, tip, cfg.p).members)
    return out


def check(out: dict, seed: int) -> None:
    checker.check_run(
        out["dump"], out["tip"], out["ledger"], json.loads(out["report"]), seed=seed,
        order_hex=out["order"], stale_hex=out["stale"],
    )


def corrupt_ledger(out: dict, seed: int, rng: random.Random) -> dict:
    dag = checker.DumpedDag(out["dump"])
    tip = dag.tip_index(out["tip"])
    stale = dag.stale_at(tip, workloads.P)
    checked = [row for ix, row in dag.ledger_sample(out["ledger"], tip, p=workloads.P, seed=seed)
               if not (stale >> ix) & 1]
    target = rng.choice(checked)["block_id"]
    lines = out["ledger"].splitlines(keepends=True)
    for i, line in enumerate(lines):
        cells = line.rstrip("\r\n").split(",")
        if cells[0] == target:
            cells[2] = str(int(cells[2]) - workloads.PENALTY)
            lines[i] = ",".join(cells) + "\r\n"
    return {**out, "ledger": "".join(lines)}


def corrupt_parent(out: dict, rng: random.Random) -> dict:
    lines = out["dump"].splitlines()
    records = [json.loads(line) for line in lines]
    multi = [i for i, rec in enumerate(records) if len(rec["refs"]) >= 2]
    i = rng.choice(multi)
    rec = records[i]
    rec["parent"] = rng.choice([r for r in rec["refs"] if r != rec["parent"]])
    lines[i] = json.dumps(rec, separators=(",", ":"))
    return {**out, "dump": "\n".join(lines) + "\n"}


def drop_from_order(out: dict, rng: random.Random) -> dict:
    ids = list(out["order"])
    del ids[rng.randrange(1, len(ids) - 1)]
    return {**out, "order": ids}


def main() -> int:
    ap = argparse.ArgumentParser(description="reject corrupted outputs")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    logging.getLogger("dagsim").setLevel(logging.ERROR)
    rng = random.Random(args.seed)
    out = real_outputs(args.seed)
    print(f"real output: {out['dump'].count(chr(10))} blocks, {len(out['stale'])} stale at the tip")
    ok = True
    try:
        check(out, args.seed)
        print("PASS clean output accepted")
    except checker.CheckFailed as exc:
        print(f"FAIL clean output rejected: {exc}")
        ok = False
    for label, bad in (
        ("ledger amount off by one penalty", corrupt_ledger(out, args.seed, rng)),
        ("recorded parent swapped", corrupt_parent(out, rng)),
        ("block dropped from the order", drop_from_order(out, rng)),
    ):
        try:
            check(bad, args.seed)
            print(f"FAIL {label}: accepted")
            ok = False
        except checker.CheckFailed as exc:
            print(f"PASS {label}: rejected ({exc})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
