"""Span recording from outside the program.

The benchmark measures each layer by wrapping that layer's functions in
its own code, never by editing the program.  A :class:`Tracer` replaces
attributes of program modules and classes with wrappers that time each
call, keeps everything in memory, and restores the originals on
:meth:`Tracer.uninstall`.  At the end of a traced run the spans are
written out as JSON lines.

Two kinds of boundary are recorded:

* **spans** — ``(id, parent, name, start_ns, end_ns)`` for calls coarse
  enough to keep one record each (a trial, an exchange, a gossip round);
  synchronous spans record their parent, so a layer's self time (its
  duration minus its children's) can be computed from the written spans;
* **totals** — call count and summed time for hot per-entry calls (a
  partner draw, a store write), where one record per call would weigh
  more than the work.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.totals: Dict[str, List[int]] = {}
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- totals --------------------------------------------------------

    def _total(self, name: str) -> List[int]:
        cell = self.totals.get(name)
        if cell is None:
            cell = self.totals[name] = [0, 0]
        return cell

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0])[1] / 1e9

    def mean_us(self, name: str) -> float:
        count, total = self.totals.get(name, [0, 0])
        return total / count / 1e3 if count else 0.0

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, keep: bool = True) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``owner`` is a module or the class that defines ``attr``; patching
        a subclass that merely inherits the attribute would miss calls
        made through the base class.  ``keep=False`` records totals only.
        """
        if inspect.isclass(owner) and attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} does not define {attr}")
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(original, name, keep)
        else:
            wrapper = self._sync_wrapper(original, name, keep)
        saved = vars(owner)[attr] if inspect.isclass(owner) else original
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, wrapper)

    def _sync_wrapper(self, original: Callable, name: str, keep: bool) -> Callable:
        stack = self._stack
        ids = self._ids
        spans = self.spans
        cell = self._total(name)
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            began = clock()
            try:
                return original(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                cell[0] += 1
                cell[1] += ended - began
                if keep:
                    spans.append((span_id, parent, name, began, ended))

        return wrapper

    def _async_wrapper(self, original: Callable, name: str, keep: bool) -> Callable:
        # Coroutines interleave on the event loop, so async spans record
        # no parent: the synchronous stack says nothing about them.
        ids = self._ids
        spans = self.spans
        cell = self._total(name)
        clock = time.perf_counter_ns

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            span_id = next(ids)
            began = clock()
            try:
                return await original(*args, **kwargs)
            finally:
                ended = clock()
                cell[0] += 1
                cell[1] += ended - began
                if keep:
                    spans.append((span_id, None, name, began, ended))

        return wrapper

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans, then one totals record, as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, began, ended in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_ns": began, "end_ns": ended}
                    )
                    + "\n"
                )
            handle.write(
                json.dumps(
                    {"totals": {name: {"calls": c, "ns": ns}
                                for name, (c, ns) in sorted(self.totals.items())}}
                )
                + "\n"
            )
