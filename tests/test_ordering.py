import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dagsim.fixtures import fork_example
from dagsim.oracles import all_pasts, order_recursive, random_dag
from dagsim.ordering import order
from dagsim.store import BlockDag


def test_order_of_genesis():
    dag = BlockDag()
    assert order(dag, dag.genesis) == [dag.genesis]


def test_fixture_orders():
    fx = fork_example()
    assert order(fx.dag, fx.c) == [fx.g, fx.b, fx.u, fx.c]
    assert order(fx.dag, fx.d) == [fx.g, fx.b, fx.u, fx.c, fx.cu, fx.d]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 100))
def test_order_matches_recursive_definition(seed, size):
    dag = random_dag(random.Random(seed), size)
    for bid in dag:
        assert order(dag, bid) == order_recursive(dag, bid)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 80))
def test_order_properties(seed, size):
    dag = random_dag(random.Random(seed), size)
    pasts = all_pasts(dag)
    for bid in dag:
        seq = order(dag, bid)
        # Permutation of the past, genesis first, block last.
        assert set(seq) == pasts[bid]
        assert seq[0] == dag.genesis and seq[-1] == bid
        # Topological: everything in a block's past precedes it.
        pos = {b: i for i, b in enumerate(seq)}
        for b in seq:
            for r in dag.get(b).refs:
                assert pos[r] < pos[b]
        # Parent's order is a strict prefix.
        blk = dag.get(bid)
        if blk.parent is not None:
            prev = order(dag, blk.parent)
            assert seq[: len(prev)] == prev and len(prev) < len(seq)


def test_same_blocks_different_insertion_order_same_result():
    def build(swap):
        dag = BlockDag()
        g = dag.genesis
        a = dag.insert(b"a", [g], 0).id
        b = dag.insert(b"b", [g], 1).id
        if swap:  # c and d are unrelated, either insertion order is legal
            c = dag.insert(b"c", [a], 0).id
            d = dag.insert(b"d", [b], 1).id
        else:
            d = dag.insert(b"d", [b], 1).id
            c = dag.insert(b"c", [a], 0).id
        tip = dag.insert(b"tip", [c, d], 0).id
        return dag, tip

    dag1, tip1 = build(False)
    dag2, tip2 = build(True)
    assert tip1 == tip2
    assert order(dag1, tip1) == order(dag2, tip2)


def test_repeated_calls_identical():
    dag = random_dag(random.Random(77), 60)
    tip = list(dag)[-1]
    assert order(dag, tip) == order(dag, tip)


def test_deep_chain_does_not_recurse():
    dag = BlockDag()
    tip = dag.genesis
    for i in range(20_000):
        # Chain extension: the new block's parent is its only reference.
        tip = dag.insert(i.to_bytes(4, "big"), [tip], 0, parent=tip).id
    seq = order(dag, tip)
    assert len(seq) == 20_001 and seq[-1] == tip
