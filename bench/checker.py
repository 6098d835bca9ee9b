"""Independent output checker for dagsim runs.

Reads a DAG dump (one JSON record per block: ``id``, ``payload_hex``,
``refs``, ``miner``, ``parent``, in insertion order) and rebuilds what it
needs with Python-int bitsets: bit ``i`` of a set stands for the block on
line ``i + 1`` of the dump.  Nothing here imports dagsim, so a fault in the
program's bitmaps, stale index or chain views cannot hide itself by being
reused in the check.

Definitions follow the README of this directory:

* id = sha256(u32 len(payload) | payload | u32 len(refs) |
  (u32 len(ref) | ref)* | i64 miner), all big-endian;
* past(b) = {b} plus the pasts of its refs; the parent tree is the
  recorded ``parent`` edges, and the recorded parent must be the tip of
  the heaviest-subtree chain (smallest id on ties) over the union of the
  refs' pasts;
* a block x is judged at the first block j of a tip's parent chain whose
  past holds it, and is stale there when depth(j) - depth(lca(x, j)) > p;
* conflicts(b) at tip T = blocks of past(T) neither in past(b) nor
  referencing b, and not stale at T.

Every check raises ``CheckFailed`` with a message naming what differed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import struct

GENESIS_MINER = -1
LEDGER_SAMPLE = 1000


class CheckFailed(Exception):
    """An output disagrees with the checker's own computation."""


def block_id(payload: bytes, refs: list[bytes], miner: int) -> bytes:
    parts = [struct.pack(">I", len(payload)), payload, struct.pack(">I", len(refs))]
    for r in refs:
        parts.append(struct.pack(">I", len(r)))
        parts.append(r)
    parts.append(struct.pack(">q", miner))
    return hashlib.sha256(b"".join(parts)).digest()


def bits(mask: int):
    """Indexes of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class DumpedDag:
    """A dump re-read and re-derived: ids, parent tree, depths and pasts."""

    def __init__(self, text: str):
        self.ids: list[bytes] = []
        self.index: dict[bytes, int] = {}
        self.refs: list[tuple[int, ...]] = []
        self.parent: list[int] = []
        self.miner: list[int] = []
        self.depth: list[int] = []
        self.past: list[int] = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                self._add(line_no, line)
        if not self.ids:
            raise CheckFailed("dump holds no blocks")
        self.children: list[list[int]] = [[] for _ in self.ids]
        for ix in range(1, len(self.ids)):
            self.children[self.parent[ix]].append(ix)
        self._desc: list[int] | None = None
        self._future: list[int] | None = None

    def _add(self, line_no: int, line: str) -> None:
        try:
            rec = json.loads(line)
            bid = bytes.fromhex(rec["id"])
            payload = bytes.fromhex(rec["payload_hex"])
            refs = [bytes.fromhex(r) for r in rec["refs"]]
            miner = rec["miner"]
            parent = None if rec["parent"] is None else bytes.fromhex(rec["parent"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"dump line {line_no}: malformed record ({exc})") from None
        if block_id(payload, refs, miner) != bid:
            raise CheckFailed(f"dump line {line_no}: id does not hash from payload, refs, miner")
        if bid in self.index:
            raise CheckFailed(f"dump line {line_no}: duplicate block")
        ix = len(self.ids)
        if ix == 0:
            if refs or parent is not None or miner != GENESIS_MINER:
                raise CheckFailed("dump line 1 is not a genesis block")
            ref_ixs: tuple[int, ...] = ()
            pix, depth, past = -1, 0, 1
        else:
            if not refs or len(set(refs)) != len(refs):
                raise CheckFailed(f"dump line {line_no}: empty or repeated refs")
            try:
                ref_ixs = tuple(self.index[r] for r in refs)
                pix = self.index[parent]
            except KeyError:
                raise CheckFailed(f"dump line {line_no}: ref or parent not dumped before it") from None
            past = 1 << ix
            for r in ref_ixs:
                past |= self.past[r]
            if not (past >> pix) & 1:
                raise CheckFailed(f"dump line {line_no}: parent outside the block's past")
            depth = self.depth[pix] + 1
        self.ids.append(bid)
        self.index[bid] = ix
        self.refs.append(ref_ixs)
        self.parent.append(pix)
        self.miner.append(miner)
        self.depth.append(depth)
        self.past.append(past)

    # -- derived sets ------------------------------------------------------

    def descendants(self) -> list[int]:
        """Parent-tree subtree of every block, as bitsets."""
        if self._desc is None:
            desc = [1 << ix for ix in range(len(self.ids))]
            for ix in range(len(self.ids) - 1, 0, -1):
                desc[self.parent[ix]] |= desc[ix]
            self._desc = desc
        return self._desc

    def future(self) -> list[int]:
        """Blocks whose past holds each block, as bitsets."""
        if self._future is None:
            fut = [1 << ix for ix in range(len(self.ids))]
            for ix in range(len(self.ids) - 1, 0, -1):
                for r in self.refs[ix]:
                    fut[r] |= fut[ix]
            self._future = fut
        return self._future

    def lca(self, a: int, b: int) -> int:
        depth, parent = self.depth, self.parent
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a, b = parent[a], parent[b]
        return a

    def chain(self, tip: int) -> list[int]:
        """Parent chain from genesis to ``tip``."""
        out = []
        while tip >= 0:
            out.append(tip)
            tip = self.parent[tip]
        out.reverse()
        return out

    def tip_index(self, tip_hex: str) -> int:
        try:
            return self.index[bytes.fromhex(tip_hex)]
        except (KeyError, ValueError):
            raise CheckFailed(f"tip {tip_hex[:12]} is not in the dump") from None

    # -- checks --------------------------------------------------------------

    def check_parents(self) -> None:
        """Every recorded parent is the chain tip over its refs' pasts.

        By induction over the dump, the chain of past(q) ends at q.  The
        chain of V = union of the refs' pasts can only leave the path to q
        at a fork where V \\ past(q) adds weight beside that path, so it is
        enough to compare weights at those forks, and to see that no block
        of V descends from q.
        """
        desc, ids = self.descendants(), self.ids
        for ix in range(1, len(ids)):
            q = self.parent[ix]
            view = 0
            for r in self.refs[ix]:
                view |= self.past[r]
            forks = set()
            for d in bits(view & ~self.past[q]):
                a = self.lca(d, q)
                if a == q:
                    raise CheckFailed(f"block {ix}: recorded parent {q} has a child in the view")
                forks.add(a)
            for a in forks:
                on_path = q
                while self.parent[on_path] != a:
                    on_path = self.parent[on_path]
                best = (desc[on_path] & view).bit_count()
                for c in self.children[a]:
                    if c == on_path or not (view >> c) & 1:
                        continue
                    w = (desc[c] & view).bit_count()
                    if w > best or (w == best and ids[c] < ids[on_path]):
                        raise CheckFailed(
                            f"block {ix}: recorded parent {q} is not the heaviest chain's tip "
                            f"(fork at {a}: {w} beside vs {best} on the path)"
                        )

    def stale_at(self, tip: int, p: int) -> int:
        """Stale set of ``tip`` as a bitset."""
        chain = self.chain(tip)
        on_chain = set(chain)
        depth, parent = self.depth, self.parent
        stale = 0
        prev_past = 0
        for j in chain:
            fresh_cut = depth[j] - p
            for x in bits(self.past[j] & ~prev_past & ~(1 << j)):
                a = x
                while a not in on_chain:
                    a = parent[a]
                if depth[a] < fresh_cut:
                    stale |= 1 << x
            prev_past = self.past[j]
        return stale

    def conflict_count(self, tip: int, b: int, stale: int) -> int:
        fut = self.future()
        return (self.past[tip] & ~self.past[b] & ~fut[b] & ~stale).bit_count()

    def burial(self, tip: int, b: int) -> int:
        """Parent steps from ``tip`` up to where ``b``'s branch meets its chain."""
        return self.depth[tip] - self.depth[self.lca(tip, b)]

    def check_mined_counts(self, report: dict) -> None:
        counted: dict[int, int] = {}
        for m in self.miner[1:]:
            counted[m] = counted.get(m, 0) + 1
        reported = {int(m): v["mined"] for m, v in report["miners"].items()}
        if any(m not in reported for m in counted):
            raise CheckFailed(f"dump has miners {sorted(counted)} beyond the report's")
        for m, n in reported.items():
            if counted.get(m, 0) != n:
                raise CheckFailed(f"miner {m}: report says {n} mined, dump holds {counted.get(m, 0)}")
        if report["totals"]["blocks"] != len(self.ids) - 1:
            raise CheckFailed("report's block total differs from the dump")

    def ledger_sample(
        self, ledger_csv: str, tip: int, *, p: int, seed: int, sample: int = LEDGER_SAMPLE
    ) -> list[tuple[int, dict]]:
        """Seeded sample of the ledger rows buried more than 2p at ``tip``."""
        eligible = []
        for row in csv.DictReader(io.StringIO(ledger_csv)):
            try:
                ix = self.index[bytes.fromhex(row["block_id"])]
            except (KeyError, ValueError):
                raise CheckFailed(f"ledger names block {row.get('block_id', '')[:12]} not in the dump") from None
            if int(row["miner"]) != self.miner[ix]:
                raise CheckFailed(f"ledger miner of block {ix} differs from the dump")
            if (self.past[tip] >> ix) & 1 and self.burial(tip, ix) > 2 * p:
                eligible.append((ix, row))
        return random.Random(seed).sample(eligible, min(sample, len(eligible)))

    def check_ledger(
        self,
        ledger_csv: str,
        tip: int,
        stale: int,
        *,
        p: int,
        base: int,
        penalty: int,
        seed: int,
        sample: int = LEDGER_SAMPLE,
    ) -> int:
        """Finality: sampled entries buried > 2p at ``tip`` match a re-derivation.

        Returns the number of entries checked.
        """
        chosen = self.ledger_sample(ledger_csv, tip, p=p, seed=seed, sample=sample)
        for ix, row in chosen:
            amount = int(row["amount_micro"])
            if (stale >> ix) & 1:
                if amount != 0:
                    raise CheckFailed(f"block {ix} is stale at the tip but holds {amount}")
                continue
            conflicts = self.conflict_count(tip, ix, stale)
            want = max(0, base - penalty * conflicts)
            if amount != want or int(row["conflict_size"]) != conflicts:
                raise CheckFailed(
                    f"block {ix}: ledger {amount} with {row['conflict_size']} conflicts, "
                    f"re-derived {want} with {conflicts}"
                )
        return len(chosen)

    def check_order(self, order_hex: list[str], tip: int) -> None:
        """A permutation of past(tip), genesis first, tip last, refs before users."""
        try:
            seq = [self.index[bytes.fromhex(h)] for h in order_hex]
        except (KeyError, ValueError):
            raise CheckFailed("order names a block that is not in the dump") from None
        want = self.past[tip]
        got = 0
        for ix in seq:
            got |= 1 << ix
        if len(seq) != want.bit_count() or got != want:
            raise CheckFailed(f"order holds {len(seq)} blocks, past of the tip holds {want.bit_count()}")
        if seq[0] != 0 or seq[-1] != tip:
            raise CheckFailed("order does not run from genesis to the tip")
        pos = {ix: i for i, ix in enumerate(seq)}
        for ix in seq:
            if any(pos[r] > pos[ix] for r in self.refs[ix]):
                raise CheckFailed(f"block {ix} is ordered before one of its refs")

    def check_stale(self, stale_hex: list[str], stale: int) -> None:
        try:
            got = {self.index[bytes.fromhex(h)] for h in stale_hex}
        except (KeyError, ValueError):
            raise CheckFailed("stale set names a block that is not in the dump") from None
        want = set(bits(stale))
        if got != want:
            raise CheckFailed(f"stale set differs: {len(got - want)} extra, {len(want - got)} missing")


def check_run(
    dump_text: str,
    tip_hex: str,
    ledger_csv: str,
    report: dict,
    *,
    seed: int,
    order_hex: list[str] | None = None,
    stale_hex: list[str] | None = None,
) -> DumpedDag:
    """All dump-based checks of one simulation's outputs.

    ``report`` is the run's report document; its config supplies ``p``,
    ``base`` and ``penalty``.  ``order_hex`` and ``stale_hex``, when given,
    are the program's order and stale set at the tip.
    """
    cfg = report["config"]
    dag = DumpedDag(dump_text)
    dag.check_parents()
    dag.check_mined_counts(report)
    tip = dag.tip_index(tip_hex)
    if dag.depth[tip] + 1 != report["totals"]["main_chain_length"]:
        raise CheckFailed("tip depth differs from the report's main chain length")
    stale = dag.stale_at(tip, cfg["p"])
    if stale.bit_count() != report["staleness"]["stale_blocks"]:
        raise CheckFailed(
            f"report has {report['staleness']['stale_blocks']} stale blocks, "
            f"checker finds {stale.bit_count()}"
        )
    dag.check_ledger(
        ledger_csv, tip, stale, p=cfg["p"], base=cfg["base"], penalty=cfg["penalty"], seed=seed
    )
    if order_hex is not None:
        dag.check_order(order_hex, tip)
    if stale_hex is not None:
        dag.check_stale(stale_hex, stale)
    return dag
