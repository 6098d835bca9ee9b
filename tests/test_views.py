"""The incremental per-player chain state against from-scratch selection."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dagsim.oracles import main_chain_traversal, random_dag
from dagsim.views import PlayerView


def topo_shuffle(dag, rng):
    """A random delivery order that still respects references."""
    n = len(dag)
    pending = list(range(1, n))
    rng.shuffle(pending)
    known = {0}
    out = []
    while pending:
        rest = []
        for ix in pending:
            if all(r in known for r in dag._ref_ixs[ix]):
                known.add(ix)
                out.append(ix)
            else:
                rest.append(ix)
        pending = rest
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.integers(10, 80))
def test_chain_matches_oracle_after_every_delivery(seed, size):
    rng = random.Random(seed)
    dag = random_dag(rng, size, recency=rng.choice([1.2, 2.5, 4.0]))
    view = PlayerView(dag)
    for ix in topo_shuffle(dag, rng):
        view.add(ix)
        members = {dag.id_at(i) for i in view.known}
        assert [dag.id_at(i) for i in view.chain] == main_chain_traversal(dag, members)
    view.check()


def test_sibling_tiebreak_independent_of_arrival_order():
    from dagsim.store import BlockDag

    dag = BlockDag()
    dag.insert(b"left", [dag.genesis], 0)
    dag.insert(b"right", [dag.genesis], 1)
    a, b = 1, 2
    assert dag.parent_index(a) == 0 and dag.parent_index(b) == 0
    first = PlayerView(dag)
    first.add(a)
    first.add(b)
    second = PlayerView(dag)
    second.add(b)
    second.add(a)
    want = min((a, b), key=lambda i: dag.id_at(i))
    assert first.tip == want and second.tip == want


def test_reorg_restores_bookkeeping():
    # A losing branch overtakes: the chain must flip and stay consistent.
    from dagsim.store import BlockDag

    dag = BlockDag()
    g = dag.genesis
    a = dag.insert(b"a", [g], 0).id
    b = dag.insert(b"b", [g], 1).id
    b2 = dag.insert(b"b2", [b], 1).id
    b3 = dag.insert(b"b3", [b2], 1).id
    view = PlayerView(dag)
    view.add(dag.index_of(a))
    assert dag.id_at(view.tip) == a
    for x in (b, b2, b3):
        view.add(dag.index_of(x))
        view.check()
    assert dag.id_at(view.tip) == b3
    assert [dag.id_at(i) for i in view.chain] == [g, b, b2, b3]


def test_tips_track_unreferenced_blocks():
    from dagsim.store import BlockDag

    dag = BlockDag()
    g = dag.genesis
    a = dag.insert(b"a", [g], 0).id
    b = dag.insert(b"b", [g], 1).id
    m = dag.insert(b"m", [a, b], 0).id
    view = PlayerView(dag)
    for x in (a, b, m):
        view.add(dag.index_of(x))
    assert {dag.id_at(i) for i in view.tips} == {m}
