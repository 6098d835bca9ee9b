"""dagsim benchmark: one workload per process, end to end or traced.

Usage:
    python3 bench/run.py --workload {long-run,paired-sweep,snapshot-reload}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; dagsim is imported from ./src.  With
``--trace 0`` the workload's operations are repeated in whole cycles over
its inputs until S seconds have passed, and the end-to-end metrics are
printed.  With ``--trace 1`` one untraced and one traced cycle are run and
the per-layer metrics are printed.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md.
"""

import time

# perf_counter reading at process start: the interpreter's start-up so far
# is CPU-bound, so the CPU time spent is the wall time since exec.
PROCESS_START = time.perf_counter() - time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("long-run", "paired-sweep", "snapshot-reload")


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def attempt(wl, k: int, failures: list, tracer=None):
    """Prepare and run timed round ``k``; returns (seconds, result or None).

    The collection first frees the previous round's objects (a BlockDag
    sits in a reference cycle) before the next round is built.  A tracer
    is installed around the timed call only, so set-up leaves no spans.
    """
    gc.collect()
    wl.prepare(k)
    if tracer is not None:
        tracer.install()
    t = time.perf_counter()
    try:
        result = wl.timed_round()
    except Exception:
        traceback.print_exc()
        failures.append(wl.ops_per_round)
        return time.perf_counter() - t, None
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t, result


def run_cycle(wl, failures: list, tracer=None) -> float:
    """One round of each of the workload's inputs; returns their summed time."""
    total = 0.0
    for k in range(wl.inputs):
        dt, result = attempt(wl, k, failures, tracer)
        total += dt
        if result is not None:
            wl.after_round(result)
        del result
    return total


def run_end_to_end(wl, seconds: float, setup_s: float) -> dict:
    """Repeat whole cycles over the workload's inputs for ``seconds``.

    Round k runs input ``k % wl.inputs``.  Each input's round time is the
    best of its repetitions: this host's vCPUs run up to 1.7x slower for
    seconds at a time, and the minimum is what stays put from run to run.
    ``wall_s`` is the mean of the inputs' best times.  The output checks
    run after the peak RSS is read.
    """
    times: list[list[float]] = [[] for _ in range(wl.inputs)]
    blocks = [0] * wl.inputs
    raised: list[int] = []
    rounds = 0
    begin = time.perf_counter()
    while rounds % wl.inputs or rounds == 0 or time.perf_counter() - begin < seconds:
        k = rounds % wl.inputs
        dt, result = attempt(wl, rounds, raised)
        rounds += 1
        if result is not None:
            times[k].append(dt)
            blocks[k] = wl.blocks(result)
            wl.after_round(result)
        del result
    peak = rss_mb(resource.RUSAGE_SELF)
    best = [min(reps) for reps in times if reps]
    rates = [b / min(reps) for b, reps in zip(blocks, times) if reps]
    return {
        "attempted": wl.ops_per_round * rounds,
        "failed": sum(raised) + wl.check(),
        "metrics": {
            "setup_s": setup_s,
            "wall_s": statistics.mean(best) if best else time.perf_counter() - begin,
            "blocks_per_s": statistics.mean(rates) if rates else 0.0,
            "peak_rss_mb": peak,
        },
        "round_times": times,
        "blocks": blocks,
    }


def run_traced(wl, seed: int) -> dict:
    """One untraced cycle over the inputs (the reference), then a traced one."""
    import tracer as tracing
    import workloads

    raised: list[int] = []
    extra: dict[str, float] = {}
    cycles = 2
    if wl.name == "paired-sweep":
        # The timed sweeps run in this process, where the spans are; one
        # cycle on a pool first gives the workers' CPU time and utilisation.
        wl.workers = workloads.SWEEP_WORKERS
        cpu0 = children_cpu_s()
        pool_wall = run_cycle(wl, raised)
        busy = children_cpu_s() - cpu0
        extra["sim.sweep.busy_s"] = busy
        extra["sim.sweep.utilisation"] = busy / (wl.workers * pool_wall)
        wl.workers = 1
        cycles = 3
    ref_wall = run_cycle(wl, raised)
    tr = tracing.Tracer()
    wl.tracer = tr
    traced_wall = run_cycle(wl, raised, tr)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{wl.name}-{seed}.tsv.gz"
    tr.write(trace_path)
    if tr.absent:
        print(f"absent hooks (their figures read 0): {', '.join(tr.absent)}", file=sys.stderr)
    return {
        "attempted": wl.ops_per_round * wl.inputs * cycles,
        "failed": sum(raised) + wl.check(),
        "metrics": per_layer_metrics(tr, extra, traced_wall - ref_wall),
        "absent": tr.absent,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def per_layer_metrics(tr, extra: dict, overhead_s: float) -> dict[str, float]:
    spans = tr.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    counts, maxima = tr.counts, tr.maxima
    candidates = counts.get("rewards.conflict.candidates", 0)
    records = calls("rewards.ledger.record")
    return {
        "store.insert.calls": calls("store.insert"),
        "store.insert.self_s": self_s("store.insert"),
        "store.masks_bytes": maxima.get("store.masks_bytes", 0),
        "store.past_indexes.calls": calls("store.past_indexes"),
        "store.past_indexes.self_s": self_s("store.past_indexes"),
        "store.load_dag.s": total("store.load_dag"),
        "store.dump.s": total("store.dump"),
        "chain.determine_parent.calls": calls("chain.determine_parent"),
        "chain.determine_parent.self_s": self_s("chain.determine_parent"),
        "chain.view_members": counts.get("chain.view_members", 0),
        "views.add.calls": calls("views.add"),
        "views.add.self_s": self_s("views.add"),
        "views.reorgs": counts.get("views.reorgs", 0),
        "views.reorg_depth_max": maxima.get("views.reorg_depth_max", 0),
        "staleness.rows": counts.get("staleness.rows", 0),
        "staleness.ensure.self_s": self_s("staleness.ensure"),
        "staleness.stale_blocks": counts.get("staleness.stale_blocks", 0),
        "rewards.reward.calls": calls("rewards.reward"),
        "rewards.reward.self_s": self_s("rewards.reward"),
        "rewards.conflict.calls": calls("rewards.conflict"),
        "rewards.conflict.self_s": self_s("rewards.conflict"),
        "rewards.conflict.candidates": candidates,
        "rewards.conflict.found": counts.get("rewards.conflict.found", 0),
        "rewards.conflict.useful_ratio": (
            counts.get("rewards.conflict.found", 0) / candidates if candidates else 0.0
        ),
        "rewards.ledger.records": records,
        "rewards.ledger.verifies": calls("rewards.ledger.verify"),
        "rewards.judgements_per_block": calls("rewards.reward") / records if records else 0.0,
        "sim.deliver.self_s": self_s("sim.deliver"),
        "sim.schedule.calls": calls("sim.schedule"),
        "sim.schedule.self_s": self_s("sim.schedule"),
        "sim.fire.calls": calls("sim.fire"),
        "sim.fire.self_s": self_s("sim.fire"),
        "sim.rebucket.calls": calls("sim.rebucket"),
        "sim.rebucket.self_s": self_s("sim.rebucket"),
        "sim.round_loop.s": total("sim.run") - total("sim.final_verify") - total("sim.report"),
        "sim.final_verify.s": total("sim.final_verify"),
        "sim.valuation.s": total("sim.valuation"),
        "sim.report.self_s": self_s("sim.report"),
        "sim.sweep.busy_s": extra.get("sim.sweep.busy_s", 0.0),
        "sim.sweep.utilisation": extra.get("sim.sweep.utilisation", 0.0),
        "strategies.calls": calls("strategies"),
        "strategies.self_s": self_s("strategies"),
        "ordering.order.s": total("ordering.order"),
        "staleness.stale_set.s": total("staleness.stale_set"),
        "trace.overhead_s": overhead_s,
    }


def load_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fp:
        spec = json.load(fp)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dagsim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dagsim" / "__init__.py").is_file():
        print("bench: ./src/dagsim is missing; run from a dagsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports dagsim: part of the set-up time

    logging.getLogger("dagsim").setLevel(logging.ERROR)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - PROCESS_START

    if args.trace:
        outcome = run_traced(wl, args.seed)
    else:
        outcome = run_end_to_end(wl, args.seconds, setup_s)
    units = load_units()
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in outcome["metrics"].items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = {**outcome, **result, "workload": args.workload, "seed": args.seed}
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
