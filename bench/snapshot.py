"""Write the snapshot-reload workload's input: a simulated DAG and its outputs.

Usage: python3 bench/snapshot.py --out DIR SEED...

Runs the snapshot configuration of ``workloads.py`` for each SEED and
writes ``dag.ndjson`` (``BlockDag.dump``), ``tip.txt`` (the observer's
final tip), ``ledger.csv`` and ``report.json`` into DIR/SEED.
"""

import argparse
import logging
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from dagsim.sim import Simulation  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("seeds", type=int, nargs="+")
    args = ap.parse_args()
    logging.getLogger("dagsim").setLevel(logging.ERROR)
    for seed in args.seeds:
        sim = Simulation(workloads.snapshot_config(seed))
        outputs = workloads.sim_outputs(sim, sim.run().to_json())
        out = args.out / str(seed)
        out.mkdir(parents=True, exist_ok=True)
        for name, key in zip(workloads.SNAPSHOT_FILES, ("dump", "tip", "ledger", "report")):
            (out / name).write_text(outputs[key])
    return 0


if __name__ == "__main__":
    sys.exit(main())
