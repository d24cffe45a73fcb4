"""The store's write-path fast paths behave exactly like the slow ones.

Three shortcuts keep a replica write cheap, and each must be invisible:

* :func:`encode_key` encodes a ``str`` key without ``json.dumps``;
* :meth:`TimestampIndex.set` appends a pair that sorts after every
  other instead of calling ``bisect.insort``;
* :class:`ReplicaStore` reuses the key digest a mutation computed when
  it folds that mutation into the checksum tree.

Each test runs the fast path against a reference that is the plain
implementation, and requires the same bytes, the same ordered pairs or
the same checksums.  The digests also cross the wire in TREE frames,
so a few are pinned to their literal values.
"""

import bisect
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checksum import (
    ChecksumTree,
    encode_key,
    entry_digest,
    key_digest,
)
from repro.core.store import ReplicaStore
from repro.core.timestamps import SequenceClock, Timestamp
from repro.core.tsindex import TimestampIndex, _OrderedKey

# -- encode_key ----------------------------------------------------------


def reference_encode_key(key):
    """The general path: what ``encode_key`` returns for every key type."""
    return json.dumps(
        key, separators=(",", ":"), sort_keys=True, ensure_ascii=False
    ).encode("utf-8")


class StrSubclass(str):
    pass


#: Every code point, surrogates and control characters included.
ANY_TEXT = st.text(st.characters(exclude_categories=()))

TRICKY_TEXT = st.sampled_from([
    "", "\ud800", "a\udfffb", "\x00\x1f\x7f", '"\\/', "  ",
    "\U0001f600", "café", "\ufeff",
])

SCALARS = st.one_of(
    ANY_TEXT,
    TRICKY_TEXT,
    ANY_TEXT.map(StrSubclass),
    st.integers(),
    st.floats(),
    st.booleans(),
)

KEYS = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)


class TestEncodeKeyMatchesJson:
    @given(KEYS)
    @settings(max_examples=400)
    def test_same_bytes_or_same_error(self, key):
        try:
            expected = reference_encode_key(key)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                encode_key(key)
            assert str(error) in str(raised.value)
        else:
            assert encode_key(key) == expected

    @pytest.mark.parametrize("key", ["\ud800", "x\udc00", ("ok", "\ud83d")])
    def test_lone_surrogates_raise_value_error(self, key):
        with pytest.raises(ValueError, match="no canonical encoding"):
            encode_key(key)

    def test_digests_are_pinned(self):
        """Literal values: TREE frames carry these across versions."""
        assert encode_key("café\n") == b'"caf\xc3\xa9\\n"'
        assert key_digest("printer:bldg-35") == (
            0xBF38EB1AEB320A1E2DFB76D943A70B4F
        )
        assert key_digest("user/00000000002a/7") == (
            0xB01805298724398D2BBDF31E3DB2E5D6
        )
        assert entry_digest(("site", 7), b"payload") == (
            0x0501CA2293A69E86EB08CD7B18B5E97B
        )

    def test_store_checksums_are_pinned(self):
        store = ReplicaStore(bucket_bits=4)
        for i in range(20):
            store.update(f"k{i}", i)
        store.delete("k3")
        store.update(("t", 1), "x")
        store.update(7, 2.5)
        assert store.checksum == 0xA2C179746F906A7041B82E7032FF92B4
        assert store.checksum_tree.node(2) == 0xFC8006AC976FE92F5426DB70B1076EE2
        assert store.bucket_checksum(5) == 0x5B1034D5FAF82F88785F0F7A4450DF1F


# -- TimestampIndex ------------------------------------------------------


class InsortIndex(TimestampIndex):
    """The index as it was before the append fast path: always insort."""

    def set(self, key, timestamp):
        old = self._current.get(key)
        if old is not None:
            if old == timestamp:
                return
            self._stale += 1
        self._current[key] = timestamp
        bisect.insort(self._pairs, (timestamp, _OrderedKey(key)))
        self._maybe_compact()


INDEX_KEYS = st.one_of(
    st.integers(0, 9),
    st.sampled_from(["a", "b", "1", "9"]),
    st.tuples(st.just("t"), st.integers(0, 2)),
)

#: A time step of +1 builds monotone stretches, 0 repeats the previous
#: time (equal timestamps when site and sequence repeat too), and a
#: negative step sends an out-of-order timestamp through insort.
INDEX_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            INDEX_KEYS,
            st.sampled_from([1, 1, 1, 1, 0, -1, -4]),
            st.integers(0, 1),
            st.integers(0, 1),
        ),
        st.tuples(st.just("discard"), INDEX_KEYS),
    ),
    max_size=300,
)


def index_state(index):
    pairs = [(ts, type(okey.key), okey.key) for ts, okey in index._pairs]
    return pairs, list(index.newest_first()), index.oldest(), len(index)


class TestTimestampIndexMatchesInsort:
    @given(INDEX_OPS)
    @settings(max_examples=200)
    def test_same_pairs_and_views(self, ops):
        fast, reference = TimestampIndex(), InsortIndex()
        time = 0
        for op in ops:
            if op[0] == "set":
                __, key, step, site, sequence = op
                time += step
                stamp = Timestamp(float(time), site, sequence)
                fast.set(key, stamp)
                reference.set(key, stamp)
            else:
                fast.discard(op[1])
                reference.discard(op[1])
            assert index_state(fast) == index_state(reference)


# -- ReplicaStore checksum folding ---------------------------------------

STORE_KEYS = st.one_of(
    st.integers(0, 12),
    st.sampled_from(["alpha", "beta", "1", "été", ("pair", 1), 2.5]),
)

STORE_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "update", "update", "delete", "retain", "purge", "sweep",
            "peer-update", "peer-delete", "peer-stale", "read", "read-bucket",
        ]),
        STORE_KEYS,
    ),
    max_size=80,
)


def assert_tree_consistent(store):
    assert store.checksum == store.recompute_checksum()
    for bucket in range(store.bucket_count):
        assert store.bucket_checksum(bucket) == store.recompute_bucket_checksum(
            bucket
        )
    tree = store.checksum_tree
    for node in range(1, tree.buckets):
        left, right = tree.children(node)
        assert tree.node(node) == tree.node(left) ^ tree.node(right)


class TestStoreFoldMatchesRecomputation:
    @given(STORE_OPS)
    @settings(max_examples=150)
    def test_checksums_after_interleaved_mutations(self, ops):
        store = ReplicaStore(site_id=0, clock=SequenceClock(site=0), bucket_bits=3)
        peer = ReplicaStore(site_id=1, clock=SequenceClock(site=1), bucket_bits=3)
        stale = {}
        for op, key in ops:
            if op == "update":
                store.update(key, f"v-{key!r}")
            elif op == "delete":
                store.delete(key)
            elif op == "retain":
                # A certificate this site keeps dormant after a sweep, so
                # an older peer value can later reactivate it.
                store.delete(key, retention_sites=(0,))
            elif op == "purge":
                store.purge(key)
            elif op == "sweep":
                store.sweep_certificates(tau1=0.0)
            elif op in ("peer-update", "peer-delete"):
                previous = peer.entry(key)
                if previous is not None:
                    stale[key] = previous
                if op == "peer-update":
                    update = peer.update(key, f"p-{key!r}")
                else:
                    update = peer.delete(key)
                store.apply_entry(key, update.entry)
            elif op == "peer-stale" and key in stale:
                store.apply_entry(key, stale[key])
            elif op == "read":
                assert store.checksum == store.recompute_checksum()
            elif op == "read-bucket":
                bucket = store.bucket_of(key)
                assert store.bucket_checksum(bucket) == (
                    store.recompute_bucket_checksum(bucket)
                )
        assert_tree_consistent(store)

    def test_fold_applies_each_dirty_key_once(self, monkeypatch):
        store = ReplicaStore(bucket_bits=4)
        for i in range(50):
            store.update(f"k{i}", "v")
        store.update("k0", "again")
        store.purge("k1")
        calls = []
        original = ChecksumTree.apply
        monkeypatch.setattr(
            ChecksumTree, "apply",
            lambda tree, bucket, delta: calls.append(bucket)
            or original(tree, bucket, delta),
        )
        assert store.checksum == store.recompute_checksum()
        # k1 was created and purged before any fold: nothing to apply.
        assert len(calls) == 49
