import csv
import json
import os
import subprocess
import sys

import pytest

import dagsim

from dagsim.cli import main
from dagsim.store import load_dag

SRC = os.path.dirname(os.path.dirname(dagsim.__file__))


def write_config(tmp_path, **kw):
    cfg = {
        "alpha": 0.5,
        "beta": 0.0,
        "players": 3,
        "p": 4,
        "rounds": 200,
        "seed": 7,
        "valuation": False,
    }
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRunCommand:
    def test_invalid_rate_exits_2_and_cites_assumption(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=0.8, beta=0.3, strategy="honest")
        assert main(["run", "--config", cfg]) == 2
        assert "below one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            ({}, ["--base", "0"], "base must be positive"),
            ({}, ["--penalty", "-1"], "penalty must be non-negative"),
            ({}, ["--seed", "-1"], "seed must be non-negative"),
            ({"players": "5"}, [], "players must be an integer"),
            ({"weights": 5}, [], "weights must be a list of numbers"),
            ({"beta": 0.1}, ["--strategy", "withhold:k=x"], "withhold_k must be an integer"),
            ({"valuation": "no"}, [], "valuation must be true or false"),
            ({"check_invariants": "yes"}, [], "check_invariants must be true or false"),
            ({"log_events": 1}, [], "log_events must be true or false"),
            ({"punisher_deviate": "false"}, [], "punisher_deviate must be true or false"),
            ({"beta": 0.1}, ["--strategy", "selfish:lead=0"], "selfish_lead must be at least 1"),
            ({"players": 4, "strategy": "punisher", "punisher_window": -3}, [],
             "punisher_window must be non-negative"),
            ({"players": 4}, ["--strategy", "punisher:deviate=maybe"],
             "punisher_deviate must be true or false"),
        ],
        ids=["base-zero", "negative-penalty", "negative-seed", "players-string", "weights-scalar",
             "withhold-k-string", "valuation-string", "check-invariants-string",
             "log-events-int", "punisher-deviate-string", "selfish-lead-zero",
             "punisher-window-negative", "punisher-deviate-shorthand"],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, config, flags, message):
        cfg = write_config(tmp_path, **config)
        assert main(["run", "--config", cfg, *flags]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"alhpa": 0.5}')
        assert main(["run", "--config", str(path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_report_written_and_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["schema_version"] == 1
        assert report["generator"] == "numpy-pcg64"

    def test_overrides_change_the_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--config", cfg, "--out", str(out1)])
        main(["run", "--config", cfg, "--seed", "8", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_strategy_shorthand(self, tmp_path):
        cfg = write_config(tmp_path, beta=0.1)
        out = tmp_path / "r.json"
        code = main(["run", "--config", cfg, "--strategy", "withhold:k=2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["strategy"] == "withhold"
        assert report["config"]["withhold_k"] == 2

    def test_artifact_dumps(self, tmp_path):
        cfg = write_config(tmp_path, beta=0.1, strategy="withhold", withhold_k=2)
        out = tmp_path / "r.json"
        dag_path = tmp_path / "dag.ndjson"
        order_path = tmp_path / "order.txt"
        stale_path = tmp_path / "stale.txt"
        ledger_path = tmp_path / "ledger.csv"
        events_path = tmp_path / "events.ndjson"
        code = main([
            "run", "--config", cfg, "--out", str(out),
            "--dump-dag", str(dag_path), "--dump-order", str(order_path),
            "--dump-stale", str(stale_path), "--ledger-csv", str(ledger_path),
            "--event-log", str(events_path),
        ])
        assert code == 0
        with open(dag_path) as fp:
            dag = load_dag(fp)
        report = json.loads(out.read_text())
        assert len(dag) - 1 == report["totals"]["blocks"]

        order_ids = order_path.read_text().splitlines()
        assert len(order_ids) >= report["totals"]["main_chain_length"]
        assert len(order_ids[0]) == 64

        with open(ledger_path) as fp:
            rows = list(csv.reader(fp))
        assert rows[0] == ["block_id", "miner", "amount_micro", "finalized_round",
                           "conflict_size", "stale"]
        assert len(rows) - 1 == report["totals"]["finalized_blocks"]

        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert len(events) == report["config"]["rounds"]

    def test_sweep_merges_runs(self, tmp_path):
        cfg = write_config(tmp_path, rounds=160)
        out = tmp_path / "sweep.json"
        code = main(["run", "--config", cfg, "--seeds", "3", "--workers", "1",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["runs"]) == 3
        assert doc["aggregate"]["seeds"] == 3
        assert set(doc["aggregate"]["shares"]) == {"0", "1", "2", "3"}
        for stats in doc["aggregate"]["shares"].values():
            assert set(stats) == {"mean", "stdev"}

    @pytest.mark.parametrize(
        "flag", ["--dump-dag", "--dump-order", "--dump-stale", "--ledger-csv", "--event-log"]
    )
    def test_sweep_rejects_per_run_outputs(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path, rounds=160)
        target = tmp_path / "artifact"
        code = main(["run", "--config", cfg, "--seeds", "2", "--workers", "1",
                     "--out", str(tmp_path / "sweep.json"), flag, str(target)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not target.exists()


    def test_module_entry_point(self, tmp_path):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dagsim", "run", "--rounds", "100", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["config"]["rounds"] == 100


class TestCheckCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_injected_fault_detected(self, capsys):
        assert main(["check", "--inject-fault", "wrong-parent"]) == 3
        assert "parent-consistency  FAIL" in capsys.readouterr().out
