"""Shared pieces of the benchmark: run configuration, statistics, results.

Every workload module returns a :class:`Result`; ``run.py`` turns it
into the result line it prints last.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import time
from typing import Any, Dict, List, Sequence

#: Unit of every metric the benchmark can print, end to end and per layer.
#: ``run.py`` checks that each workload reports exactly these names.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "converge_ms": "ms",
}

PER_LAYER_UNITS: Dict[str, str] = {
    # trial-sweep: repro.sim.batch and per-site seeding
    "batch.rumor_trial_ms": "ms",
    "batch.anti_entropy_trial_ms": "ms",
    "rng.site_seeder_ms_per_trial": "ms",
    "batch.cycles_per_trial": "count",
    "batch.messages_per_site": "count",
    # trial-sweep: the reference Cluster engine on the CIN
    "cluster.trial_ms": "ms",
    "spatial.draw_us": "us",
    "exchange.session_us": "us",
    "engine.events_per_trial": "count",
    "spatial.cycles_per_trial": "count",
    "spatial.compare_per_link": "count",
    "setup.cin_selectors_ms": "ms",
    # reconcile-100k: store, checksum tree and exchange strategy
    "store.update_us": "us",
    "store.apply_entry_us": "us",
    "checksum.fold_us_per_entry": "us",
    "checksum.tree_diff_ms": "ms",
    "exchange.session_ms": "ms",
    "exchange.entries_examined": "count",
    "exchange.tree_comparisons": "count",
    "exchange.buckets_resolved": "count",
    "exchange.useful_ratio": "ratio",
    # live-gossip-8: wire codec, node loop, peers, load generator
    "wire.encode_us_per_frame": "us",
    "wire.decode_us_per_frame": "us",
    "wire.bytes_per_update": "bytes",
    "node.frames_per_op": "count",
    "node.updates_shipped_per_exchange": "count",
    "node.useful_update_share": "ratio",
    "node.anti_entropy_busy_share": "ratio",
    "node.rumor_busy_share": "ratio",
    "node.loop_lag_p99_ms": "ms",
    "node.exchanges_per_s": "1/s",
    "peer.retries": "count",
    "peer.failures": "count",
    "node.rejections": "count",
    "loadgen.late_p99_ms": "ms",
    # every workload: traced over untraced time per unit of throughput
    "trace.overhead_ratio": "ratio",
}


@dataclasses.dataclass
class Result:
    """What one workload run measured.

    ``metrics`` holds the end-to-end metrics (untraced run) or the
    per-layer metrics (traced run) by name.  ``report`` carries the
    workload's own named figures and the run configuration; it is
    printed for people, ahead of the result line.
    """

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: Dict[str, Any]
    problems: List[str] = dataclasses.field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


#: The quantile every workload reports as ``tail_ms``.  Each run is sized
#: to leave at least ten samples beyond it.  Higher quantiles spread too
#: widely from run to run on a shared machine to bound a regression.
TAIL_Q = 0.9


def tail_quantile(count: int, wanted: float) -> float:
    """The highest of ``wanted``, 0.9 and 0.5 that leaves at least ten
    samples beyond it, so a tail figure never rests on a handful."""
    for q in (wanted, 0.9, 0.5):
        if count * (1.0 - q) >= 10:
            return q
    return 0.5


def pin_to_fastest_cpu() -> int:
    """Pin this process to the CPU that runs a fixed loop fastest now.

    On a shared machine the CPUs of one box slow down independently, for
    minutes at a time, as other tenants load them; a run placed on the
    faster one spreads less from run to run.  Returns the CPU chosen.
    """
    best_cpu, best = 0, float("inf")
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        for __ in range(3):
            began = time.perf_counter()
            total = 0
            for value in range(200_000):
                total += value * value
            took = time.perf_counter() - began
            if took < best:
                best_cpu, best = cpu, took
    os.sched_setaffinity(0, {best_cpu})
    return best_cpu


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: ru_maxrss KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_config(workload: str, seed: int, **extra: Any) -> Dict[str, Any]:
    """The configuration every result records; compare only equal ones."""
    from repro.net import binwire
    from repro.sim.arrays import get_backend

    config = {
        "workload": workload,
        "seed": seed,
        "array_backend": get_backend().name,
        "msgpack": binwire.msgpack_available(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "jobs": 1,
    }
    config.update(extra)
    return config


def child_env() -> Dict[str, str]:
    """Environment for a helper process: ``repro`` importable from ``src``."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return dict(os.environ, PYTHONPATH=src)
