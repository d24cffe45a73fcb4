"""An inverted index of database entries by timestamp (Section 1.3).

The *peel back* variant of anti-entropy exchanges updates in reverse
timestamp order until checksum agreement, which requires each site to
"maintain an inverted index of its database by timestamp".  The paper
notes this index is the scheme's main cost; here it is a compact sorted
list with lazy deletion.  A timestamp newer than every pair already in
the list — the usual case for a local write, since a site's clock only
moves forward — costs an amortized O(1) append.  Any other timestamp, such as the
entries an exchange delivers in bucket order, costs an ``insort``:
O(log n) comparisons plus an O(n) memmove.

The index maps each key to its *current* entry timestamp.  Stale pairs
(left behind when a key is overwritten or dropped) are skipped during
iteration and physically removed when they exceed half the list, keeping
iteration amortized O(1) per yielded item.
"""

from __future__ import annotations

import bisect
from typing import Hashable, Iterable, Iterator, Tuple

from repro.core.timestamps import Timestamp


class TimestampIndex:
    """Sorted ``(timestamp, key)`` pairs with lazy deletion."""

    __slots__ = ("_pairs", "_current", "_stale")

    def __init__(self) -> None:
        self._pairs: list[Tuple[Timestamp, Hashable]] = []
        self._current: dict[Hashable, Timestamp] = {}
        self._stale = 0

    def __len__(self) -> int:
        """Number of live keys in the index."""
        return len(self._current)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._current

    def timestamp_of(self, key: Hashable) -> Timestamp | None:
        return self._current.get(key)

    def set(self, key: Hashable, timestamp: Timestamp) -> None:
        """Insert or move ``key`` to ``timestamp``."""
        old = self._current.get(key)
        if old is not None:
            if old == timestamp:
                return
            self._stale += 1
        self._current[key] = timestamp
        pairs = self._pairs
        pair = (timestamp, _OrderedKey(key))
        if not pairs or pairs[-1][0] < timestamp:
            # Sorts strictly after every pair: exactly where insort
            # would put it, without its ~log n pair comparisons.
            pairs.append(pair)
        else:
            bisect.insort(pairs, pair)
        self._maybe_compact()

    def discard(self, key: Hashable) -> None:
        """Remove ``key`` from the index if present."""
        if key in self._current:
            del self._current[key]
            self._stale += 1
            self._maybe_compact()

    def newest_first(self) -> Iterator[Tuple[Hashable, Timestamp]]:
        """Yield live ``(key, timestamp)`` pairs, newest first.

        Safe against concurrent :meth:`set`/:meth:`discard` of keys that
        have not yet been yielded only in the sense that already-yielded
        state is unaffected; callers that mutate during iteration should
        materialize the prefix they need first.
        """
        seen: set[Hashable] = set()
        for timestamp, okey in reversed(self._pairs):
            key = okey.key
            if key in seen:
                continue
            current = self._current.get(key)
            if current is None or current != timestamp:
                continue  # stale pair
            seen.add(key)
            yield key, timestamp

    def newer_than(self, cutoff: Timestamp) -> Iterator[Tuple[Hashable, Timestamp]]:
        """Yield live pairs with ``timestamp > cutoff``, newest first."""
        for key, timestamp in self.newest_first():
            if timestamp <= cutoff:
                return
            yield key, timestamp

    def newest_first_in(
        self, keys: Iterable[Hashable]
    ) -> Iterator[Tuple[Hashable, Timestamp]]:
        """Live pairs restricted to ``keys``, newest first.

        The per-bucket variant of :meth:`newest_first`: a hierarchical
        exchange peels back or lists recent updates *within one hash
        bucket*, and sorting the bucket's keys by their current
        timestamps directly is O(k log k) in the bucket size — it never
        touches the global pair list, so cost is independent of the
        database size.  Keys absent from the index are skipped.
        """
        pairs = [
            (timestamp, _OrderedKey(key))
            for key, timestamp in (
                (key, self._current.get(key)) for key in keys
            )
            if timestamp is not None
        ]
        pairs.sort(reverse=True)
        for timestamp, okey in pairs:
            yield okey.key, timestamp

    def oldest(self) -> Tuple[Hashable, Timestamp] | None:
        """Return the live pair with the smallest timestamp, if any."""
        for timestamp, okey in self._pairs:
            key = okey.key
            current = self._current.get(key)
            if current is not None and current == timestamp:
                return key, timestamp
        return None

    def _maybe_compact(self) -> None:
        if self._stale <= len(self._current) or self._stale < 64:
            return
        live = [
            (ts, okey)
            for ts, okey in self._pairs
            if self._current.get(okey.key) == ts
        ]
        # Deduplicate equal (ts, key) pairs that can accumulate when a key
        # oscillates between two timestamps.
        deduped: list[Tuple[Timestamp, _OrderedKey]] = []
        seen: set[Hashable] = set()
        for ts, okey in reversed(live):
            if okey.key in seen:
                continue
            seen.add(okey.key)
            deduped.append((ts, okey))
        deduped.reverse()
        self._pairs = deduped
        self._stale = 0


class _OrderedKey:
    """Wrap keys so heterogeneous key types never break pair comparison.

    ``bisect.insort`` compares tuples element-wise; when two timestamps
    are equal the comparison falls through to the key.  Keys of mixed
    types (e.g. ``int`` and ``str``) are not mutually orderable, so we
    compare their ``repr`` instead — a stable, total order is all the
    index needs.

    The rank string is computed lazily: timestamps are globally unique,
    so the tie-break almost never runs, and caching a repr per key would
    roughly double the index's memory on a million-key store.
    """

    __slots__ = ("key",)

    def __init__(self, key: Hashable):
        self.key = key

    def __lt__(self, other: "_OrderedKey") -> bool:
        return repr(self.key) < repr(other.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OrderedKey) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_OrderedKey({self.key!r})"
