"""List primitives for the batched simulator core (:mod:`repro.sim.batch`).

The batched rumor trial expresses its population-wide bookkeeping
through the small set of primitives below: completing a population of
uniform partner draws, snapshotting infection flags, finding a push
cycle's news and compressing.  They carry integers and booleans only,
over plain lists, so the engine needs nothing outside the standard
library.
"""

from __future__ import annotations

from typing import List, Sequence


class PythonBackend:
    """The primitives over plain lists and bytes."""

    name = "python"

    @staticmethod
    def adjusted_partners(picks: Sequence[int]) -> List[int]:
        """Complete one uniform draw per site: site ``i`` drew ``pick``
        in ``[0, n-1)``; a pick at or past its own index skips over
        itself (the :class:`~repro.topology.spatial.UniformSelector`
        arithmetic, applied to the whole population at once)."""
        return [pick + 1 if pick >= own else pick for own, pick in enumerate(picks)]

    @staticmethod
    def adjusted_partners_at(picks: Sequence[int], owners: Sequence[int]) -> List[int]:
        """Like :meth:`adjusted_partners` for a sparse initiator set:
        ``owners[i]`` is the site that drew ``picks[i]``."""
        return [
            pick + 1 if pick >= own else pick for pick, own in zip(picks, owners)
        ]

    @staticmethod
    def snapshot(flags: bytearray) -> Sequence[int]:
        """Freeze per-site 0/1 flags as a cycle-start snapshot."""
        return bytes(flags)

    @staticmethod
    def push_news(targets: Sequence[int], infected: Sequence[int]) -> List[bool]:
        """Which of a cycle's push conversations deliver news.

        Conversation ``i`` ships to ``targets[i]``; it is news iff the
        target was susceptible at the start of the cycle and no earlier
        conversation this cycle already reached it (conversations run
        in ascending initiator order, so first occurrence wins)."""
        seen = set()
        news = []
        for t in targets:
            if infected[t] or t in seen:
                news.append(False)
            else:
                seen.add(t)
                news.append(True)
        return news

    @staticmethod
    def compress(values: Sequence[int], mask: Sequence[bool]) -> List[int]:
        """``values`` where ``mask`` holds, order preserved."""
        return [value for value, keep in zip(values, mask) if keep]


def get_backend():
    """The primitives :mod:`repro.sim.batch` runs on; reports record its ``name``."""
    return PythonBackend
