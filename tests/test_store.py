import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagsim import errors
from dagsim.chain import ChainView
from dagsim.fixtures import fork_example
from dagsim.oracles import all_pasts, past_bfs, random_dag, subtree_sizes_traversal
from dagsim.sim import STRATEGY_NAMES, SimConfig, Simulation
from dagsim.store import BlockDag, GENESIS_MINER, block_id, load_dag


def chain_dag(n, miner=0):
    dag = BlockDag()
    tip = dag.genesis
    for i in range(n):
        tip = dag.insert(b"c%d" % i, [tip], miner).id
    return dag, tip


class TestBlockId:
    def test_equal_content_equal_id(self):
        assert block_id(b"x", [b"\x01" * 32], 3) == block_id(b"x", [b"\x01" * 32], 3)

    def test_any_field_change_changes_id(self):
        base = block_id(b"x", [b"\x01" * 32], 3)
        assert block_id(b"y", [b"\x01" * 32], 3) != base
        assert block_id(b"x", [b"\x02" * 32], 3) != base
        assert block_id(b"x", [b"\x01" * 32], 4) != base

    def test_reference_order_is_significant(self):
        a, b = b"\x01" * 32, b"\x02" * 32
        assert block_id(b"", [a, b], 0) != block_id(b"", [b, a], 0)

    def test_fixed_width(self):
        assert len(block_id(b"anything", [], GENESIS_MINER)) == 32


class TestInsert:
    def test_insert_over_genesis(self):
        dag = BlockDag()
        blk = dag.insert(b"one", [dag.genesis], 0)
        assert blk.parent == dag.genesis
        assert ChainView.whole(dag).subtree_size(dag.genesis) == 2

    def test_missing_reference_rejected(self):
        dag = BlockDag()
        with pytest.raises(errors.UnknownReference):
            dag.insert(b"x", [b"\x00" * 32], 0)

    def test_empty_references_rejected(self):
        dag = BlockDag()
        with pytest.raises(errors.EmptyReferences):
            dag.insert(b"x", [], 0)

    def test_duplicate_references_rejected(self):
        dag = BlockDag()
        with pytest.raises(errors.DuplicateReference):
            dag.insert(b"x", [dag.genesis, dag.genesis], 0)

    def test_duplicate_content_rejected(self):
        dag = BlockDag()
        dag.insert(b"x", [dag.genesis], 0)
        with pytest.raises(errors.DuplicateBlock):
            dag.insert(b"x", [dag.genesis], 0)

    def test_honest_claim_checks_parent_membership(self):
        fx = fork_example()
        # The guard trips whenever the recorded parent is not referenced.
        with pytest.raises(ValueError):
            fx.dag.insert(b"dishonest", [fx.u], 9, claim_honest=True, parent=fx.g)
        fx.dag.insert(b"fine", [fx.t], 9, claim_honest=True)

    def test_parent_hint_verified_when_enabled(self):
        dag = BlockDag(check_parents=True)
        a = dag.insert(b"a", [dag.genesis], 0).id
        b = dag.insert(b"b", [dag.genesis], 1).id
        with pytest.raises(ValueError):
            dag.insert(b"c", [a, b], 2, parent=max(a, b))

    def test_append_only(self):
        dag = BlockDag()
        a = dag.insert(b"a", [dag.genesis], 0)
        snapshot = (a.id, a.payload, a.refs, a.miner, a.parent)
        dag.insert(b"b", [a.id], 1)
        got = dag.get(a.id)
        assert (got.id, got.payload, got.refs, got.miner, got.parent) == snapshot


class TestPast:
    def test_genesis_past_is_itself(self):
        dag = BlockDag()
        assert dag.past(dag.genesis) == {dag.genesis}

    def test_fixture_past(self):
        fx = fork_example()
        assert fx.dag.past(fx.c) == {fx.g, fx.b, fx.u, fx.c}

    def test_chain_past_is_whole_chain(self):
        dag, tip = chain_dag(4)
        assert len(dag.past(tip)) == 5

    def test_unknown_block(self):
        dag = BlockDag()
        with pytest.raises(errors.UnknownBlock):
            dag.past(b"\x00" * 32)


class TestReachability:
    def test_self_reachable(self):
        dag, tip = chain_dag(2)
        assert dag.is_reachable(tip, tip)

    def test_fixture_sides_mutually_unreachable(self):
        fx = fork_example()
        assert not fx.dag.is_reachable(fx.c, fx.w)
        assert not fx.dag.is_reachable(fx.w, fx.c)

    def test_random_dag_agrees_with_bfs(self):
        dag = random_dag(random.Random(5), 50)
        ids = list(dag)
        for a in ids:
            past = past_bfs(dag, a)
            for b in ids:
                assert dag.is_reachable(a, b) == (b in past)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 120))
def test_incremental_past_matches_brute_force(seed, size):
    dag = random_dag(random.Random(seed), size)
    pasts = all_pasts(dag)
    for bid in dag:
        assert dag.past(bid) == pasts[bid]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 120))
def test_subtree_sizes_match_traversal(seed, size):
    dag = random_dag(random.Random(seed), size)
    want = subtree_sizes_traversal(dag)
    view = ChainView.whole(dag)
    for bid in dag:
        assert view.subtree_size(bid) == want[bid]
    assert view.subtree_size(dag.genesis) == len(dag)


def simulated_dag(strategy):
    """A short run's dag; the simulator inserts with its own parent hints."""
    adversary = dict(beta=0.0, players=4) if strategy == "punisher" else dict(beta=0.12, players=3)
    cfg = SimConfig(alpha=0.5, p=4, rounds=1500, seed=5, strategy=strategy, withhold_k=6,
                    valuation=False, check_invariants=False, **adversary)
    sim = Simulation(cfg)
    sim.run()
    return sim.dag


def dump_text(dag):
    buf = io.StringIO()
    dag.dump(buf)
    return buf.getvalue()


# Each tamper maps the two records of a one-block dump to a broken snapshot,
# and names the line the error must cite.
TAMPERS = {
    "miner-changed": (lambda g, a: [g, a.replace('"miner":0', '"miner":1')], 2),
    "missing-key": (lambda g, a: [g, a.replace('"miner":0,', "")], 2),
    "bad-hex": (lambda g, a: [g, a.replace('"payload_hex":"61"', '"payload_hex":"6g"')], 2),
    "not-json": (lambda g, a: [g, a[:-1]], 2),
    "not-an-object": (lambda g, a: [g, json.dumps(list(json.loads(a).values()))], 2),
    "genesis-out-of-place": (lambda g, a: [g, a, g], 3),
}


class TestSnapshot:
    @pytest.mark.parametrize("source", ["random_dag", *STRATEGY_NAMES])
    def test_roundtrip(self, source):
        if source == "random_dag":
            dag = random_dag(random.Random(8), 40)
        else:
            dag = simulated_dag(source)
        text = dump_text(dag)
        # load_dag recomputes every id and parent and compares both with the record.
        copy = load_dag(io.StringIO(text))
        assert list(copy) == list(dag)
        for bid in dag:
            a, b = dag.get(bid), copy.get(bid)
            assert (a.payload, a.refs, a.miner, a.parent) == (b.payload, b.refs, b.miner, b.parent)
        assert dump_text(copy) == text

    @pytest.mark.parametrize("case", list(TAMPERS))
    def test_tampered_record_rejected(self, case):
        tamper, line = TAMPERS[case]
        dag = BlockDag()
        dag.insert(b"a", [dag.genesis], 0)
        records = tamper(*dump_text(dag).splitlines())
        with pytest.raises(errors.SnapshotError, match=f"^line {line}:"):
            load_dag(io.StringIO("\n".join(records) + "\n"))


def test_tips_are_unreferenced_blocks():
    fx = fork_example()
    assert set(fx.dag.tips()) == {fx.t}
