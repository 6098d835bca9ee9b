import random

import pytest

from dagsim.chain import determine_parent, main_chain
from dagsim.errors import UnknownReference
from dagsim.fixtures import fork_example
from dagsim.oracles import all_pasts, main_chain_traversal, past_bfs, random_dag
from dagsim.sim import SimConfig, Simulation
from dagsim.store import BlockDag


def test_chain_over_a_leaf_ends_there():
    dag = BlockDag()
    leaf = dag.insert(b"leaf", [dag.genesis], 0).id
    assert main_chain(dag, [leaf]) == [dag.genesis, leaf]


def test_heavier_subtree_wins():
    dag = BlockDag()
    x = dag.insert(b"x", [dag.genesis], 0).id
    tip = x
    for i in range(2):  # x's subtree grows to 3
        tip = dag.insert(b"x%d" % i, [tip], 0).id
    y = dag.insert(b"y", [dag.genesis], 1).id
    assert main_chain(dag)[1] == x
    assert main_chain(dag, [tip, y])[1] == x


def test_equal_subtrees_break_toward_smaller_id():
    dag = BlockDag()
    a = dag.insert(b"a", [dag.genesis], 0).id
    b = dag.insert(b"b", [dag.genesis], 1).id
    assert main_chain(dag) == main_chain(dag, [b, a]) == [dag.genesis, min(a, b)]


def test_main_chain_of_genesis_only():
    dag = BlockDag()
    assert main_chain(dag) == [dag.genesis]


def test_fixture_chain_passes_through_heavy_branch():
    fx = fork_example()
    # Without the observer block: the contested fork as drawn, where b's
    # subtree (b, c, cu, d) outweighs u's (u) and w's (w, cw).
    assert main_chain(fx.dag, [fx.d, fx.cw]) == [fx.g, fx.b, fx.c, fx.d]
    assert main_chain(fx.dag) == [fx.g, fx.b, fx.c, fx.d, fx.t]


def test_random_chain_matches_from_scratch_evaluation():
    dag = random_dag(random.Random(12), 200)
    assert main_chain(dag) == main_chain_traversal(dag, set(dag))


def test_chain_deterministic_for_fixed_view():
    dag = random_dag(random.Random(13), 80)
    refs = list(dag)[-3:]
    assert main_chain(dag, refs) == main_chain(dag, refs)


class TestDetermineParent:
    def test_single_genesis_ref(self):
        dag = BlockDag()
        assert determine_parent(dag, [dag.genesis]) == dag.genesis

    def test_fixture_tie_resolves_to_ground_id(self):
        fx = fork_example()
        assert determine_parent(fx.dag, [fx.b, fx.u]) == fx.b

    def test_heavier_fork_tip_wins(self):
        dag = BlockDag()
        heavy = dag.insert(b"h0", [dag.genesis], 0).id
        heavy = dag.insert(b"h1", [heavy], 0).id
        light = dag.insert(b"l0", [dag.genesis], 1).id
        assert determine_parent(dag, [heavy, light]) == heavy

    def test_unknown_reference(self):
        dag = BlockDag()
        with pytest.raises(UnknownReference):
            determine_parent(dag, [b"\x00" * 32])

    def test_matches_stored_parents_on_random_dags(self):
        dag = random_dag(random.Random(14), 120)
        for bid in dag:
            blk = dag.get(bid)
            if blk.parent is not None:
                assert determine_parent(dag, list(blk.refs)) == blk.parent


def test_parent_can_fall_outside_adversarial_refs():
    # A block referenced without being parented stays childless, and a
    # crafted reference list can steer the selection to end exactly there.
    from dagsim.store import block_id

    def grind(prefix, refs, miner, below):
        n = 0
        while True:
            payload = prefix + b"-%d" % n
            if block_id(payload, refs, miner) < below:
                return payload
            n += 1

    dag = BlockDag()
    g = dag.genesis
    s1 = dag.insert(b"side-base", [g], 0).id
    s2 = dag.insert(b"side-ext", [s1], 0).id
    # The trunk must lose the size-2 tie at genesis, so its id sorts after.
    n = 0
    while block_id(b"trunk-%d" % n, [g], 1) < s1:
        n += 1
    p = dag.insert(b"trunk-%d" % n, [g], 1).id
    p1 = dag.insert(b"leaf-one", [p], 1).id
    p2 = dag.insert(b"leaf-two", [p], 1).id
    e_payload = grind(b"quiet", [p], 2, below=min(p1, p2))
    e = dag.insert(e_payload, [p], 2).id
    r = dag.insert(b"merge", [s2, e], 3)
    assert r.parent == s2  # e is now referenced but still childless

    refs = [r.id, p1, p2]
    winner = determine_parent(dag, refs)
    assert winner == e and winner not in refs
    members = set().union(*(past_bfs(dag, ref) for ref in refs))
    assert winner == main_chain_traversal(dag, members)[-1]
    stored = dag.insert(b"adversarial", refs, 4)
    assert stored.parent == e


def oracle_parent(dag, refs, pasts):
    """Chain end over the union of the refs' pasts, by the brute-force traversal."""
    return main_chain_traversal(dag, set().union(*(pasts[r] for r in refs)))[-1]


class TestParentOracleGate:
    """``determine_parent`` against the from-scratch chain over every block's refs."""

    @pytest.mark.parametrize(
        "seed, n, recency, max_extra_refs",
        [(20, 120, 0.5, 5), (21, 120, 1.0, 3), (22, 150, 1.0, 5), (23, 150, 2.5, 2),
         (24, 120, 6.0, 5)],
    )
    def test_random_dags(self, seed, n, recency, max_extra_refs):
        rng = random.Random(seed)
        dag = random_dag(rng, n, max_extra_refs=max_extra_refs, recency=recency)
        pasts = all_pasts(dag)
        ids = list(dag)
        for bid in ids[1:]:
            refs = list(dag.get(bid).refs)
            assert determine_parent(dag, refs) == oracle_parent(dag, refs, pasts)
            # Arbitrary reference lists too: nested, redundant or far apart.
            refs = rng.sample(ids, rng.randint(2, 6))
            assert determine_parent(dag, refs) == oracle_parent(dag, refs, pasts)

    @pytest.mark.parametrize("strategy", ["selfish", "no_reference", "withhold", "punisher"])
    def test_simulated_dags(self, strategy):
        # withhold_k = 2p leaves stale blocks at the tip; so do punishment
        # blocks withheld for more than p rounds.
        pool = dict(beta=0.0, players=4) if strategy == "punisher" else dict(beta=0.12, players=3)
        cfg = SimConfig(alpha=0.5, p=4, rounds=1500, seed=5, strategy=strategy, withhold_k=8,
                        punisher_window=30, punisher_deviate=False, punisher_withhold=8,
                        valuation=False, check_invariants=False, **pool)
        sim = Simulation(cfg)
        sim.run()
        dag = sim.dag
        assert sim.sidx.cum(sim.players[0].view.tip)
        pasts = all_pasts(dag)
        for bid in list(dag)[1:]:
            refs = list(dag.get(bid).refs)
            assert determine_parent(dag, refs) == oracle_parent(dag, refs, pasts)
        assert main_chain(dag) == main_chain_traversal(dag, set(dag))
        for player in sim.players:
            view = player.view
            assert [dag.id_at(i) for i in view.chain] == main_chain(dag, [dag.id_at(view.tip)])


def test_restricted_view_chain_matches_oracle():
    dag = random_dag(random.Random(15), 100)
    some_tip = list(dag)[-1]
    members = dag.past(some_tip)
    assert main_chain(dag, [some_tip]) == main_chain_traversal(dag, members)
