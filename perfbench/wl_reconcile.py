"""Workload ``reconcile-100k``: two replicas of 100k keys kept in step by
hierarchical-checksum anti-entropy.

Inputs, all from the workload seed: 100k string keys with 16-byte
values, and for each round a 1% sample of the keys and their new values.
Both stores use 2^14 hash buckets.

* **ingest** — in chunks of 10k keys: site 0 writes each key with
  ``update()``, site 1 receives the same entry with ``apply_entry()``,
  then both checksums are read, which folds the chunk into each
  checksum tree.  A write-side workload: key encoding, digests, folding.
* **rounds** — site 0 rewrites the round's 1% and folds it; then, with
  both stores folded, one push-pull ``HierarchicalChecksum`` exchange
  is timed.  A read-side workload: tree walk and bucket diff.  After
  each round both checksums must be equal and every bucket the round
  touched must hold equal entries; after the last round the whole tables
  must agree (``ReplicaStore.agrees_with``).

The simulator and the network are idle.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Dict, List

from bench_common import (
    TAIL_Q, Result, peak_rss_mb, percentile, pin_to_fastest_cpu, run_config,
)
from bench_trace import Tracer

from repro.core.checksum import ChecksumTree
from repro.core.store import ReplicaStore
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import HierarchicalChecksum
from repro.sim.rng import derive_seed

KEYS = 100_000
BUCKET_BITS = 14
CHUNK = 10_000
DIRTY_SHARE = 0.01
#: The (=) exchange counts are averaged over these first rounds.
COUNT_ROUNDS = 10
#: Rounds between two chunks of a background ingest.
ROUNDS_PER_CHUNK = 6
VALUE_BYTES = 16


def _value(rng: random.Random) -> str:
    return rng.getrandbits(VALUE_BYTES * 4).to_bytes(VALUE_BYTES // 2, "big").hex()


def make_keys(seed: int) -> List[str]:
    rng = random.Random(derive_seed(seed, "reconcile", "keys"))
    return [f"user/{rng.getrandbits(48):012x}/{index}" for index in range(KEYS)]


def make_values(seed: int, label) -> List[str]:
    rng = random.Random(derive_seed(seed, "reconcile", "values", label))
    return [_value(rng) for __ in range(KEYS)]


def round_rewrites(seed: int, round_index: int) -> List[tuple]:
    """``(key index, new value)`` pairs of one round's 1% rewrite."""
    rng = random.Random(derive_seed(seed, "reconcile", "round", round_index))
    picks = rng.sample(range(KEYS), int(KEYS * DIRTY_SHARE))
    return [(index, _value(rng)) for index in picks]


def _stores():
    return ReplicaStore(site_id=0, bucket_bits=BUCKET_BITS), ReplicaStore(
        site_id=1, bucket_bits=BUCKET_BITS
    )


def install_wrappers(tracer: Tracer) -> None:
    tracer.wrap(ReplicaStore, "update", "store.update", keep=False)
    tracer.wrap(ReplicaStore, "apply_entry", "store.apply_entry", keep=False)
    tracer.wrap(ChecksumTree, "refresh", "checksum.fold")
    tracer.wrap(ChecksumTree, "apply", "checksum.fold_entry", keep=False)
    tracer.wrap(ChecksumTree, "diff_buckets", "checksum.tree_diff")
    tracer.wrap(HierarchicalChecksum, "exchange", "exchange.session")


class Ingest:
    """A fresh pair of stores, filled chunk by chunk: site 0 writes each
    key, site 1 applies the same entry, then both checksums fold."""

    def __init__(self, keys: List[str], values: List[str]):
        self.keys = keys
        self.values = values
        self.a, self.b = _stores()
        self.filled = 0
        self.seconds = 0.0

    @property
    def done(self) -> bool:
        return self.filled >= KEYS

    def chunk(self) -> float:
        a, b, keys, values = self.a, self.b, self.keys, self.values
        began = time.perf_counter()
        for index in range(self.filled, self.filled + CHUNK):
            update = a.update(keys[index], values[index])
            b.apply_entry(update.key, update.entry)
        a.checksum
        b.checksum
        took = time.perf_counter() - began
        self.filled += CHUNK
        self.seconds += took
        return took

    def agrees(self) -> bool:
        return self.a.checksum == self.b.checksum and self.a.agrees_with(self.b)


def run(seed: int, seconds: float, trace: bool, out_dir: str, import_s: float) -> Result:
    pin_to_fastest_cpu()
    setups = []
    for __ in range(3):
        began = time.perf_counter()
        keys = make_keys(seed)
        values = make_values(seed, "ingest")
        _stores()
        setups.append(time.perf_counter() - began)
    setup_s = import_s + statistics.median(setups)

    tracer = Tracer() if trace else None
    started = time.perf_counter()
    traced_until = started + seconds / 2  # rounds: traced in the first half
    problems: List[str] = []

    # The replicas the rounds reconcile, ingested in one go.  A traced run
    # traces every other chunk, so the untraced ones give the overhead.
    primary = Ingest(keys, values)
    chunk_rates: Dict[bool, List[float]] = {True: [], False: []}
    while not primary.done:
        traced = tracer is not None and (primary.filled // CHUNK) % 2 == 1
        if traced:
            install_wrappers(tracer)
        chunk_rates[traced].append(CHUNK / primary.chunk())
        if traced:
            tracer.uninstall()
    ingest_rates = [KEYS / primary.seconds]
    ingested = KEYS
    ingest_failed = 0 if primary.agrees() else KEYS

    # Rounds on the primary pair, interleaved with the chunks of further
    # ingests, so both figures sample the whole run.
    a, b = primary.a, primary.b
    background = Ingest(keys, values)
    strategy = HierarchicalChecksum()
    exchange_ms: List[float] = []
    converge_ms: List[float] = []
    counts = {"entries": 0, "tree": 0, "buckets": 0, "shipped": 0}
    failed_rounds = 0
    round_index = 0
    while round_index < COUNT_ROUNDS or time.perf_counter() - started < seconds:
        traced = tracer is not None and (
            round_index < COUNT_ROUNDS or time.perf_counter() < traced_until
        )
        if tracer is not None and traced != tracer.installed:
            install_wrappers(tracer) if traced else tracer.uninstall()
        rewrites = round_rewrites(seed, round_index)
        for index, value in rewrites:
            a.update(keys[index], value)
        writes_done = time.perf_counter()
        a.checksum
        b.checksum
        began = time.perf_counter()
        report = strategy.exchange(a, b, ExchangeMode.PUSH_PULL)
        ended = time.perf_counter()
        agreed = a.checksum == b.checksum
        converged_at = time.perf_counter()
        # The exchange ships only entries of buckets whose checksums
        # differ, and every such bucket holds a rewritten key; the
        # tables agreed before the round, so comparing those buckets
        # entry by entry compares the whole tables.
        buckets = {a.bucket_of(keys[index]) for index, __ in rewrites}
        if not (agreed and all(
            dict(a.bucket_entries(bucket)) == dict(b.bucket_entries(bucket))
            for bucket in buckets
        )):
            failed_rounds += 1
        exchange_ms.append((ended - began) * 1000)
        converge_ms.append((converged_at - writes_done) * 1000)
        if round_index < COUNT_ROUNDS:
            counts["entries"] += report.entries_examined
            counts["tree"] += report.tree_comparisons
            counts["buckets"] += report.buckets_resolved
            counts["shipped"] += report.updates_shipped
        round_index += 1
        if tracer is None and round_index % ROUNDS_PER_CHUNK == 0:
            background.chunk()
            if background.done:
                ingest_rates.append(KEYS / background.seconds)
                ingested += KEYS
                ingest_failed += 0 if background.agrees() else KEYS
                background = Ingest(keys, values)
    if tracer is not None:
        tracer.uninstall()
    if not a.agrees_with(b):
        failed_rounds += 1
        problems.append("replicas differ after the last round")
    if ingest_failed:
        problems.append("replicas differ after ingest")
    if failed_rounds:
        problems.append(f"{failed_rounds} rounds left the replicas different")

    report = {
        "config": run_config("reconcile-100k", seed, keys=KEYS, bucket_bits=BUCKET_BITS,
                             rounds=round_index),
        "ingest_keys_per_s": statistics.median(ingest_rates),
        "ingests": len(ingest_rates),
        "reconcile_p50_ms": percentile(exchange_ms, 0.5),
        "reconcile_p90_ms": percentile(exchange_ms, TAIL_Q),
        "entries_examined_per_round": counts["entries"] / COUNT_ROUNDS,
    }
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": report["ingest_keys_per_s"],
            "p50_ms": percentile(exchange_ms, 0.5),
            "tail_ms": percentile(exchange_ms, TAIL_Q),
            "converge_ms": statistics.median(converge_ms),
        }
    else:
        metrics = {
            "store.update_us": tracer.mean_us("store.update"),
            "store.apply_entry_us": tracer.mean_us("store.apply_entry"),
            "checksum.fold_us_per_entry": (
                tracer.seconds("checksum.fold") * 1e6 / tracer.calls("checksum.fold_entry")),
            "checksum.tree_diff_ms": tracer.mean_us("checksum.tree_diff") / 1000,
            "exchange.session_ms": tracer.mean_us("exchange.session") / 1000,
            "exchange.entries_examined": counts["entries"] / COUNT_ROUNDS,
            "exchange.tree_comparisons": counts["tree"] / COUNT_ROUNDS,
            "exchange.buckets_resolved": counts["buckets"] / COUNT_ROUNDS,
            "exchange.useful_ratio": counts["shipped"] / counts["entries"],
            "trace.overhead_ratio": (
                statistics.median(chunk_rates[False]) / statistics.median(chunk_rates[True])),
        }
        tracer.write(os.path.join(out_dir, f"reconcile-100k-seed{seed}-spans.jsonl"))
    return Result(
        correct=not problems,
        attempted=ingested + round_index,
        failed=ingest_failed + failed_rounds,
        metrics=metrics,
        report=report,
        problems=problems,
    )
