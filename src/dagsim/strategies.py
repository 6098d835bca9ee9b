"""Adversary behaviors for the round simulator.

A strategy is consulted twice per round: while mining (choosing the
references of each block, before any of the round's honest messages are
visible) and after the round's honest messages arrive (choosing which
withheld blocks to announce, optionally to a subset of players first).
Strategies are total: they never fail, whatever the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sim import StrategyContext


@dataclass(frozen=True)
class Release:
    """Announce one block; ``recipients`` None means everyone at once.

    Sending to a subset only delays the remaining players by one extra
    round, because recipients re-broadcast everything they receive.
    """

    ix: int
    recipients: tuple[int, ...] | None = None


class Strategy:
    name = "base"

    def bind(self, ctx: "StrategyContext") -> None:
        self.ctx = ctx

    def plan_refs(self) -> tuple[list[bytes], bytes | None]:
        """References for the next block this round, plus a parent hint."""
        raise NotImplementedError

    def on_mined(self, ix: int, round_no: int) -> None:
        raise NotImplementedError

    def releases(self, round_no: int, honest_new: list[int]) -> list[Release]:
        raise NotImplementedError


class WithholdStrategy(Strategy):
    """Mine by the book but sit on every block for ``k`` rounds.

    ``k == 0`` is byte-for-byte the protocol behavior and doubles as the
    honest adversary baseline.
    """

    name = "withhold"

    def __init__(self, k: int = 0):
        if k < 0:
            raise ValueError("withhold delay must be non-negative")
        self.k = k
        self._queue: list[tuple[int, int]] = []  # (release_round, block)

    def plan_refs(self) -> tuple[list[bytes], bytes]:
        view = self.ctx.adv_view
        ids = self.ctx.dag._ids
        return [ids[j] for j in view.sorted_tips()], ids[view.tip]

    def on_mined(self, ix: int, round_no: int) -> None:
        self._queue.append((round_no + self.k, ix))

    def releases(self, round_no: int, honest_new: list[int]) -> list[Release]:
        out = []
        while self._queue and self._queue[0][0] <= round_no:
            out.append(Release(self._queue.pop(0)[1]))
        return out


class HonestStrategy(WithholdStrategy):
    """Reference every known tip, announce immediately."""

    name = "honest"

    def __init__(self):
        super().__init__(k=0)


class NoReferenceStrategy(Strategy):
    """Extend the selected chain but never cite anyone else's side tips."""

    name = "no_reference"

    def __init__(self):
        self._pending: list[int] = []

    def plan_refs(self) -> tuple[list[bytes], bytes]:
        tid = self.ctx.dag.id_at(self.ctx.adv_view.tip)
        return [tid], tid

    def on_mined(self, ix: int, round_no: int) -> None:
        self._pending.append(ix)

    def releases(self, round_no: int, honest_new: list[int]) -> list[Release]:
        out = [Release(ix) for ix in self._pending]
        self._pending = []
        return out


class SelfishStrategy(Strategy):
    """Keep a private single-parent chain forked off the public tip.

    Announces one buried block whenever the public chain closes the lead to
    ``lead_release``, and the whole remainder when overtaken (then restarts
    from the fresh public tip).
    """

    name = "selfish"

    def __init__(self, lead_release: int = 1):
        self.lead_release = lead_release
        self._priv: list[int] = []
        self._released = 0

    def plan_refs(self) -> tuple[list[bytes], bytes]:
        if self._priv:
            tip = self._priv[-1]
        else:
            tip = self.ctx.public_view.tip
        tid = self.ctx.dag.id_at(tip)
        return [tid], tid

    def on_mined(self, ix: int, round_no: int) -> None:
        self._priv.append(ix)

    def releases(self, round_no: int, honest_new: list[int]) -> list[Release]:
        if not self._priv:
            return []
        dag = self.ctx.dag
        lead = dag.depth_of(self._priv[-1]) - dag.depth_of(self.ctx.public_view.tip)
        if lead <= 0:
            out = [Release(ix) for ix in self._priv[self._released :]]
            self._priv = []
            self._released = 0
            return out
        if lead == self.lead_release and self._released < len(self._priv):
            out = [Release(self._priv[self._released])]
            self._released += 1
            return out
        return []


def make_strategy(config) -> Strategy:
    """Instantiate the configured adversary behavior."""
    name = config.strategy
    if name == "honest":
        return HonestStrategy()
    if name == "withhold":
        return WithholdStrategy(config.withhold_k)
    if name == "no_reference":
        return NoReferenceStrategy()
    if name == "selfish":
        return SelfishStrategy(config.selfish_lead)
    raise ValueError(f"unknown strategy {name!r}")
