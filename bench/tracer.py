"""Spans and counters around dagsim's module entry points, from outside.

``Tracer.install`` replaces functions and methods of the loaded dagsim
modules with wrappers that record a span (name, parent span, start, end)
and, for some hooks, a counter read from the arguments or the result.
Spans stay in memory until ``write`` stores them.  A hook whose target no
longer exists is listed in ``absent`` and skipped, so a refactor that
merges or deletes a function makes its figures read 0 instead of failing
the run.  Per-candidate primitives such as ``BlockDag.in_past_ix`` are
deliberately not wrapped: they run millions of times per simulation.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

# (span name, module, attribute path).  The span name is the metric prefix.
SPAN_HOOKS = (
    ("store.insert", "dagsim.store", "BlockDag.insert"),
    ("store.past_indexes", "dagsim.store", "BlockDag.past_indexes"),
    ("chain.determine_parent", "dagsim.chain", "determine_parent"),
    ("views.add", "dagsim.views", "PlayerView.add"),
    ("staleness.ensure", "dagsim.staleness", "StaleIndex._ensure"),
    ("rewards.reward", "dagsim.rewards", "reward"),
    ("rewards.conflict", "dagsim.rewards", "_conflict_indexes"),
    ("rewards.ledger.record", "dagsim.rewards", "RewardLedger.record"),
    ("rewards.ledger.verify", "dagsim.rewards", "RewardLedger.verify"),
    ("sim.run", "dagsim.sim", "Simulation.run"),
    ("sim.deliver", "dagsim.sim", "Simulation._deliver_round"),
    ("sim.schedule", "dagsim.sim", "Simulation._schedule"),
    ("sim.fire", "dagsim.sim", "Simulation._fire"),
    ("sim.rebucket", "dagsim.sim", "Simulation._rebucket_after_reorg"),
    ("sim.final_verify", "dagsim.sim", "Simulation._final_verify"),
    ("sim.valuation", "dagsim.sim", "Simulation.valuation_at_tip"),
    ("sim.report", "dagsim.sim", "Simulation._report"),
)
STRATEGY_METHODS = ("plan_refs", "on_mined", "releases")
_INHERITED = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def timed(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span; for calls the benchmark makes itself."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name: str, fn, before=None, after=None, costly_after=False):
        nid = self.name_id(name)
        counters_nid = self.name_id("trace.counters")
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args) if before is not None else None
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None and not costly_after:
                after(state, result, *args)
            elif after is not None:
                # Costly counter work gets its own span, so no layer's self time holds it.
                j = len(names)
                names.append(counters_nid)
                parents.append(stack[-1] if stack else -1)
                starts.append(clock())
                ends.append(0)
                after(state, result, *args)
                ends[j] = clock()
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _resolve(self, module: str, path: str):
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            return None
        return owner, attr, raw

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, new)

    def hook(self, name: str, module: str, path: str, before=None, after=None, costly_after=False) -> bool:
        found = self._resolve(module, path)
        if found is None:
            self.absent.append(f"{module}:{path}")
            return False
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__, before, after, costly_after)))
            return True
        wrapped = self._wrap(name, raw, before, after, costly_after)
        if inspect.ismodule(owner):
            # Rebind every dagsim module that imported the function by name.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "dagsim" and mod.__dict__.get(attr) is raw:
                    self._patch(mod, attr, wrapped)
        else:
            self._patch(owner, attr, wrapped)
        return True

    def install(self) -> None:
        self.absent = []
        extras = {
            "views.add": (_add_before, self._add_after, False),
            "staleness.ensure": (_ensure_before, self._ensure_after, False),
            "rewards.conflict": (None, self._conflict_after, True),
            "sim.run": (None, self._run_after, False),
        }
        for name, module, path in SPAN_HOOKS:
            self.hook(name, module, path, *extras.get(name, (None, None, False)))
        found = self._resolve("dagsim.chain", "ChainView.from_refs")
        if found is None:
            self.absent.append("dagsim.chain:ChainView.from_refs")
        else:
            owner, attr, raw = found
            inner = raw.__func__ if isinstance(raw, classmethod) else raw

            def from_refs(cls, *args, **kwargs):
                view = inner(cls, *args, **kwargs)
                self.count("chain.view_members", len(view))
                return view

            self._patch(owner, attr, classmethod(functools.wraps(inner)(from_refs)))
        self._hook_strategies()

    def _hook_strategies(self) -> None:
        try:
            mod = importlib.import_module("dagsim.strategies")
            base = mod.Strategy
        except (ImportError, AttributeError):
            self.absent.append("dagsim.strategies:Strategy")
            return
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls is base or not issubclass(cls, base):
                continue
            for meth in STRATEGY_METHODS:
                if meth in cls.__dict__:
                    self._patch(cls, meth, self._wrap("strategies", cls.__dict__[meth]))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._restore.clear()

    # -- counters read at hook boundaries --------------------------------------

    def _add_after(self, chain_len, result, view, *args) -> None:
        try:
            event, fork_depth = result
        except (TypeError, ValueError):
            return
        if event == "reorg" and chain_len is not None:
            self.count("views.reorgs")
            self.maximum("views.reorg_depth_max", chain_len - (fork_depth + 1))

    def _ensure_after(self, rows_before, result, index, *args) -> None:
        rows = getattr(index, "_new", None)
        if rows is None or rows_before is None:
            return
        self.count("staleness.rows", len(rows) - rows_before)
        self.count("staleness.stale_blocks", sum(len(rows[j]) for j in range(rows_before, len(rows))))

    def _conflict_after(self, _, result, *args) -> None:
        import numpy as np

        self.count("rewards.conflict.found", len(result))
        if len(args) < 4 or not hasattr(args[0], "mask_row"):
            return
        dag, _, tip_ix, b_ix = args[:4]
        diff = dag.mask_row(tip_ix) & ~dag.mask_row(b_ix)
        scanned = np.unpackbits(diff, bitorder="little")[: len(dag)].sum()
        self.count("rewards.conflict.candidates", int(scanned))

    def _run_after(self, _, result, sim, *args) -> None:
        masks = getattr(getattr(sim, "dag", None), "_masks", None)
        if masks is not None:
            self.maximum("store.masks_bytes", int(masks.nbytes))

    # -- aggregation and output ------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.span_name)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur / 1e9
            agg["self_s"] += (dur - child[i]) / 1e9
        return out

    def write(self, path) -> None:
        """All spans, gzip-compressed text; the header says how to read them."""
        with gzip.open(path, "wt", compresslevel=1) as fp:
            fp.write(
                "# one span per line: name id, parent span (line number among spans, "
                "-1 for none), start in ns after the previous span's start, duration in ns\n"
            )
            fp.write("# names: " + " ".join(f"{i}={n}" for i, n in enumerate(self.names)) + "\n")
            prev = self.span_start[0] if len(self.span_start) else 0
            for i in range(len(self.span_name)):
                start = self.span_start[i]
                fp.write(
                    f"{self.span_name[i]}\t{self.span_parent[i]}\t{start - prev}\t"
                    f"{self.span_end[i] - start}\n"
                )
                prev = start


def _add_before(view, *args):
    chain = getattr(view, "chain", None)
    return len(chain) if chain is not None else None


def _ensure_before(index, *args):
    rows = getattr(index, "_new", None)
    return len(rows) if rows is not None else None
