"""Command-line front end.

``dagsim run`` executes one experiment (or a seed sweep) from a flat JSON
config file, with per-key overrides, and writes the report JSON plus any
requested artifact dumps.  ``dagsim check`` runs the invariant suite
against freshly generated DAGs and scenario fixtures.

Exit codes: 0 success, 2 configuration error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .checks import render_table, run_all
from .errors import ConfigInvalid, FinalityViolation
from .ordering import order
from .sim import SimConfig, Simulation, run_sweep
from .staleness import stale_set

log = logging.getLogger("dagsim")

_CONFIG_KEYS = {f for f in SimConfig.__dataclass_fields__}

# Options that write one run's artifacts; a seed sweep has no single run.
_PER_RUN_OUTPUTS = ("ledger_csv", "dump_dag", "dump_order", "dump_stale", "event_log")


def _setup_logging() -> None:
    level = os.environ.get("SIM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fp:
        raw = json.load(fp)
    if not isinstance(raw, dict):
        raise ConfigInvalid("config file must hold a flat JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    return raw


def _parse_strategy(text: str, overrides: dict) -> None:
    """Accept plain names and the ``withhold:k=10`` shorthand."""
    name, _, args = text.partition(":")
    overrides["strategy"] = name
    if args:
        for pair in args.split(","):
            key, _, value = pair.partition("=")
            key = key.strip()
            if key == "deviate" and name == "punisher":
                if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
                    raise ConfigInvalid(f"punisher_deviate must be true or false, got {value!r}")
                overrides["punisher_deviate"] = value.lower() in ("1", "true", "yes")
                continue
            if name == "withhold" and key == "k":
                field = "withhold_k"
            elif name == "selfish" and key == "lead":
                field = "selfish_lead"
            elif name == "punisher" and key in ("window", "fork_depth", "withhold"):
                field = f"punisher_{key}"
            else:
                raise ConfigInvalid(f"unknown parameter {key!r} for strategy {name!r}")
            try:
                overrides[field] = int(value)
            except ValueError:
                raise ConfigInvalid(f"{field} must be an integer, got {value!r}") from None


def _build_config(args: argparse.Namespace) -> SimConfig:
    data = load_config(args.config)
    overrides: dict = {}
    for key in ("alpha", "beta", "p", "rounds", "seed"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.penalty is not None:
        overrides["penalty"] = args.penalty
    if args.base is not None:
        overrides["base"] = args.base
    if args.strategy is not None:
        _parse_strategy(args.strategy, overrides)
    if args.check_invariants:
        overrides["check_invariants"] = True
    if args.event_log:
        overrides["log_events"] = True
    data.update(overrides)
    if isinstance(data.get("weights"), list):
        data["weights"] = tuple(data["weights"])
    try:
        cfg = SimConfig(**data)
    except TypeError as exc:
        raise ConfigInvalid(str(exc)) from None
    cfg.validate()
    return cfg


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _build_config(args)
    except (ConfigInvalid, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seeds is not None:
        clashing = ["--" + d.replace("_", "-") for d in _PER_RUN_OUTPUTS if getattr(args, d)]
        if clashing:
            print(
                f"config error: {', '.join(clashing)} cannot be combined with --seeds; "
                "per-run outputs need a single run",
                file=sys.stderr,
            )
            return 2

    try:
        if args.seeds is not None:
            seeds = [cfg.seed + i for i in range(args.seeds)]
            doc = run_sweep(cfg, seeds, max_workers=args.workers)
            payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            _write_text(args.out, payload)
            return 0

        sim = Simulation(cfg)
        report = sim.run()
        _write_text(args.out, report.to_json())

        if args.ledger_csv:
            with open(args.ledger_csv, "w", newline="") as fp:
                sim.ledger.write_csv(fp)
        if args.dump_dag:
            with open(args.dump_dag, "w") as fp:
                sim.dag.dump(fp)
        observer_tip = sim.dag.id_at(sim.players[0].view.tip)
        if args.dump_order:
            with open(args.dump_order, "w") as fp:
                for bid in order(sim.dag, observer_tip):
                    fp.write(bid.hex() + "\n")
        if args.dump_stale:
            with open(args.dump_stale, "w") as fp:
                for bid in sorted(stale_set(sim.dag, observer_tip, cfg.p).members):
                    fp.write(bid.hex() + "\n")
        if args.event_log and report.events is not None:
            with open(args.event_log, "w") as fp:
                for ev in report.events:
                    fp.write(json.dumps(ev, sort_keys=True, separators=(",", ":")) + "\n")
        return 0
    except FinalityViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


def _write_text(path: str | None, payload: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(payload + "\n")
    else:
        with open(path, "w") as fp:
            fp.write(payload + "\n")


def cmd_check(args: argparse.Namespace) -> int:
    results = run_all(inject_fault=args.inject_fault)
    print(render_table(results))
    return 0 if all(r.passed for r in results) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagsim",
        description="Round-based simulator for a DAG chain with fork-penalizing rewards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment or a seed sweep")
    p_run.add_argument("--config", help="flat JSON config file")
    p_run.add_argument("--alpha", type=float)
    p_run.add_argument("--beta", type=float)
    p_run.add_argument("--p", type=int)
    p_run.add_argument("--penalty", type=int, help="penalty per conflicting block (micro)")
    p_run.add_argument("--base", type=int, help="base reward per block (micro)")
    p_run.add_argument("--rounds", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--strategy", help="honest|withhold[:k=N]|selfish[:lead=N]|no_reference|punisher[:window=N,...]")
    p_run.add_argument("--seeds", type=int, help="sweep N seeds starting at --seed")
    p_run.add_argument("--workers", type=int, help="parallel processes for sweeps")
    p_run.add_argument("--out", help="report path (default stdout)")
    p_run.add_argument("--ledger-csv", dest="ledger_csv", help="write the finalized ledger as CSV")
    p_run.add_argument("--dump-dag", dest="dump_dag", help="write the full DAG as JSON lines")
    p_run.add_argument("--dump-order", dest="dump_order", help="write the final tip's block order")
    p_run.add_argument("--dump-stale", dest="dump_stale", help="write stale ids at the final tip")
    p_run.add_argument("--event-log", dest="event_log", help="write per-round events as JSON lines")
    p_run.add_argument("--check-invariants", action="store_true",
                       help="re-derive already-finalized rewards at every later tip")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("--inject-fault", choices=["wrong-parent"],
                         help="seed a deliberate defect to prove the suite catches it")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
