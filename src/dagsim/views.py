"""Incrementally maintained chain selection for one participant's knowledge.

A participant knows a past-closed subset of the global dag and needs its
selected chain after every delivery.  Re-running the descent from genesis
each round is quadratic over a long simulation, so this view maintains the
chain with fork-local bookkeeping:

* off-chain blocks carry exact in-view subtree weights (``w``),
* each chain position carries the total weight hanging off it (``offw``),
* a new block can only change the chain at the single fork where its
  ancestor path meets it, so one comparison there decides between keeping
  the chain and re-descending from the fork.

The resulting chain is always identical to a from-scratch heaviest-subtree
descent with smallest-id tie-breaking (asserted against the traversal
reference implementation in the tests).
"""

from __future__ import annotations

from .store import BlockDag

EXTEND = "extend"
REORG = "reorg"
OFF = "off"


class PlayerView:
    """One participant's known set, tips, and selected chain (index-based)."""

    __slots__ = (
        "dag",
        "known",
        "kcount",
        "vchildren",
        "chain",
        "cpos",
        "offw",
        "off_sum",
        "w",
        "tips",
    )

    def __init__(self, dag: BlockDag):
        self.dag = dag
        self.known: set[int] = {0}
        self.kcount = 1
        self.vchildren: dict[int, list[int]] = {0: []}
        self.chain: list[int] = [0]
        self.cpos: dict[int, int] = {0: 0}
        self.offw: list[int] = [0]
        self.off_sum = 0
        self.w: dict[int, int] = {}
        self.tips: set[int] = {0}

    def copy(self) -> PlayerView:
        """An independent view of the same knowledge and chain."""
        other = PlayerView(self.dag)
        other.known, other.kcount, other.tips = set(self.known), self.kcount, set(self.tips)
        other.vchildren = {ix: list(kids) for ix, kids in self.vchildren.items()}
        other.chain, other.cpos, other.offw = list(self.chain), dict(self.cpos), list(self.offw)
        other.off_sum, other.w = self.off_sum, dict(self.w)
        return other

    @property
    def tip(self) -> int:
        return self.chain[-1]

    def knows(self, ix: int) -> bool:
        return ix in self.known

    def sorted_tips(self) -> list[int]:
        """Tips ordered by block id, the deterministic reference order."""
        ids = self.dag._ids
        return sorted(self.tips, key=lambda j: ids[j])

    def add(self, ix: int) -> tuple[str, int]:
        """Ingest a block whose references are already known.

        Returns the chain effect: (``"extend"``, new length), (``"off"``,
        fork depth) when the chain is unchanged, or (``"reorg"``, fork
        depth) when the suffix below that depth was replaced.
        """
        dag = self.dag
        par = dag._parent_ix[ix]
        self.known.add(ix)
        self.kcount += 1
        self.vchildren[ix] = []
        self.vchildren[par].append(ix)
        for r in dag._ref_ixs[ix]:
            self.tips.discard(r)
        self.tips.add(ix)

        cpos = self.cpos
        d = cpos.get(par)
        if d is not None:
            if d == len(self.chain) - 1:
                # The tip never has in-view children, so this simply descends.
                self.chain.append(ix)
                cpos[ix] = d + 1
                self.offw.append(0)
                return (EXTEND, len(self.chain))
            self.w[ix] = 1
            self.offw[d] += 1
            self.off_sum += 1
            challenger, cweight = ix, 1
        else:
            # Parent is off-chain: bump exact weights up to the fork.
            self.w[ix] = 1
            challenger = ix
            x = par
            while (dx := cpos.get(x)) is None:
                self.w[x] += 1
                challenger = x
                x = dag._parent_ix[x]
            d = dx
            self.offw[d] += 1
            self.off_sum += 1
            cweight = self.w[challenger]

        # Weight of the incumbent chain child at depth d+1: everything known
        # minus the chain prefix and the subtrees hanging off it.
        suffix = sum(self.offw[d + 1 :])
        incumbent_weight = self.kcount - (d + 1) - (self.off_sum - suffix)
        if cweight < incumbent_weight:
            return (OFF, d)
        if cweight == incumbent_weight:
            ids = self.dag._ids
            if ids[challenger] > ids[self.chain[d + 1]]:
                return (OFF, d)
        self._reorg(d, challenger, incumbent_weight, suffix)
        return (REORG, d)

    def _reorg(self, d: int, challenger: int, incumbent_weight: int, suffix: int) -> None:
        """Replace the chain below depth ``d`` by descending into the challenger."""
        chain, offw, w, cpos = self.chain, self.offw, self.w, self.cpos
        # Fold the old suffix back into the off-chain weight tables.
        wj = incumbent_weight
        for j in range(d + 1, len(chain)):
            node = chain[j]
            w[node] = wj
            del cpos[node]
            wj = wj - 1 - offw[j]
        cw = w[challenger]
        self.off_sum += incumbent_weight - cw - suffix
        offw[d] += incumbent_weight - cw
        del chain[d + 1 :]
        del offw[d + 1 :]

        ids = self.dag._ids
        node = challenger
        while True:
            wn = w.pop(node)
            chain.append(node)
            cpos[node] = len(chain) - 1
            kids = self.vchildren[node]
            if not kids:
                offw.append(0)
                break
            nxt = min(kids, key=lambda k: (-w[k], ids[k]))
            hung = wn - 1 - w[nxt]
            offw.append(hung)
            self.off_sum += hung
            node = nxt

    def check(self) -> None:
        """Internal consistency (used by tests): weights partition the view."""
        assert self.kcount == len(self.known)
        assert self.kcount == len(self.chain) + self.off_sum
        assert self.off_sum == sum(self.offw)
        assert len(self.offw) == len(self.chain)
        assert not self.vchildren[self.tip]
