"""The benchmark harness: a fixed scenario suite timed and recorded.

``python -m repro bench`` runs each scenario, times it, and writes a
``BENCH_<YYYY-MM-DD>.json`` report so the repository's performance
trajectory is part of its history (the schema is documented in
``docs/performance.md``).  The suite covers the simulator's main cost
centers:

* **table1** — a Table 1 regeneration: the flat (k, run) trial batch
  through the :class:`~repro.experiments.runner.TrialRunner`;
* **anti-entropy** — one push-pull anti-entropy epidemic on a large
  uniform network, the ``ResolveDifference`` hot path;
* **rumor** — one rumor-mongering epidemic at Table-1 scale;
* **live-demo** — the asyncio runtime pushing one update through real
  TCP sockets on localhost;
* **million-key-hierarchical** — a million-entry store pair diverging
  in 1% of its keys, resolved once by the hierarchical-checksum
  drill-down and once by the naive full comparison; the recorded
  ``examined_ratio`` is the entries-examined saving the checksum tree
  buys at scale (``--quick`` shrinks to 20k keys);
* **workload-steady** — the production-traffic harness
  (:mod:`repro.workload.steady`): sustained mixed write/read/delete
  load on a uniform network with staleness sampling and curve windows;
* **workload-wan-3dc** — the same harness over the 3-datacenter WAN
  model (per-link latency, bandwidth caps, long-haul attribution).

Three targeted measurements ride along: the parallel-over-serial
speedup of the trial runner on this machine, a per-conversation
micro-benchmark of the exchange session, and the overhead of the
delivery-span stream (:mod:`repro.obs.spans`) measured as identical
seeded epidemics with the event bus silent vs consumed.

``--quick`` shrinks every scenario for CI smoke runs;
``--compare BASELINE.json`` fails (exit 1) when any scenario regresses
beyond the allowed factor, which is how CI gates performance.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import pathlib
import platform
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import TrialRunner, default_jobs

#: Report schema identifier; bump when the JSON layout changes.
SCHEMA = "repro-bench/1"


@dataclasses.dataclass(slots=True)
class ScenarioTiming:
    """One timed scenario of the suite."""

    name: str
    wall_clock_s: float
    trials: int
    detail: Dict[str, Any]

    @property
    def trials_per_s(self) -> float:
        if self.wall_clock_s <= 0:
            return 0.0
        return self.trials / self.wall_clock_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_clock_s": round(self.wall_clock_s, 4),
            "trials": self.trials,
            "trials_per_s": round(self.trials_per_s, 3),
            "detail": self.detail,
        }


def _timed(fn: Callable[[], Tuple[int, Dict[str, Any]]]) -> Tuple[float, int, Dict[str, Any]]:
    start = time.perf_counter()
    trials, detail = fn()
    return time.perf_counter() - start, trials, detail


# ----------------------------------------------------------------------
# The scenario suite
# ----------------------------------------------------------------------


def _bench_table1(quick: bool, runner: TrialRunner) -> ScenarioTiming:
    """Table 1 regeneration through the batched trial core.

    The table runs ``passes`` times over the same seeds.  Every pass is
    cold (:mod:`repro.sim.batch` seeds each site's stream afresh), so
    later passes only repeat the first; the first and best pass timings
    land in the detail as a run-to-run spread.
    """
    from repro.sim.arrays import get_backend
    from repro.experiments.tables import table1

    n = 200 if quick else 1000
    runs = 2 if quick else 5
    passes = 2 if quick else 3

    def work() -> Tuple[int, Dict[str, Any]]:
        pass_seconds = []
        rows = []
        for _ in range(passes):
            start = time.perf_counter()
            rows = table1(n=n, runs=runs, runner=runner)
            pass_seconds.append(round(time.perf_counter() - start, 4))
        return len(rows) * runs * passes, {
            "n": n,
            "runs": runs,
            "passes": passes,
            "engine": "batched",
            "backend": get_backend().name,
            "first_pass_s": pass_seconds[0],
            "best_pass_s": min(pass_seconds),
            "runner": runner.describe(),
        }

    elapsed, trials, detail = _timed(work)
    return ScenarioTiming("table1", elapsed, trials, detail)


def _bench_anti_entropy(quick: bool) -> ScenarioTiming:
    """Push-pull anti-entropy epidemics through the batched core.

    ``runs`` epidemics on the same seed, each one cold (RNG stream
    derivation included); the first and best run timings land in the
    detail as a run-to-run spread.
    """
    from repro.sim.arrays import get_backend
    from repro.experiments.tables import run_anti_entropy_trial
    from repro.protocols.base import ExchangeMode

    n = 256 if quick else 1024
    runs = 3 if quick else 5

    def work() -> Tuple[int, Dict[str, Any]]:
        run_seconds = []
        metrics = None
        for _ in range(runs):
            start = time.perf_counter()
            metrics = run_anti_entropy_trial(
                n=n, mode=ExchangeMode.PUSH_PULL, seed=97, max_cycles=200
            )
            run_seconds.append(round(time.perf_counter() - start, 4))
        return runs, {
            "n": n,
            "runs": runs,
            "engine": "batched",
            "backend": get_backend().name,
            "first_run_s": run_seconds[0],
            "best_run_s": min(run_seconds),
            "cycles": metrics.cycles_run,
            "t_last": metrics.t_last,
        }

    elapsed, trials, detail = _timed(work)
    return ScenarioTiming("anti-entropy-pushpull", elapsed, trials, detail)


def _bench_rumor(quick: bool) -> ScenarioTiming:
    """Rumor-mongering epidemics through the batched core (cold
    repeats, recorded as in the anti-entropy scenario)."""
    from repro.sim.arrays import get_backend
    from repro.experiments.tables import run_rumor_trial
    from repro.protocols.base import ExchangeMode
    from repro.protocols.rumor import RumorConfig

    n = 200 if quick else 1000
    runs = 3 if quick else 5
    config = RumorConfig(mode=ExchangeMode.PUSH, feedback=True, counter=True, k=2)

    def work() -> Tuple[int, Dict[str, Any]]:
        run_seconds = []
        metrics = None
        for _ in range(runs):
            start = time.perf_counter()
            metrics = run_rumor_trial(n=n, config=config, seed=98)
            run_seconds.append(round(time.perf_counter() - start, 4))
        return runs, {
            "n": n,
            "k": 2,
            "runs": runs,
            "engine": "batched",
            "backend": get_backend().name,
            "first_run_s": run_seconds[0],
            "best_run_s": min(run_seconds),
            "residue": metrics.residue,
            "t_last": metrics.t_last,
        }

    elapsed, trials, detail = _timed(work)
    return ScenarioTiming("rumor-push-k2", elapsed, trials, detail)


def _bench_live_demo(quick: bool) -> ScenarioTiming:
    import asyncio

    from repro.net.node import NodeConfig
    from repro.net.runner import live_demo
    from repro.protocols.base import ExchangeMode

    nodes = 4 if quick else 8
    config = NodeConfig(
        anti_entropy_interval=0.05,
        rumor_interval=0.02,
        mode=ExchangeMode.PUSH_PULL,
    )

    def work() -> Tuple[int, Dict[str, Any]]:
        try:
            report = asyncio.run(
                live_demo(nodes=nodes, config=config, timeout=30.0)
            )
        except Exception as error:  # noqa: BLE001 - sockets may be unavailable
            # A sandbox without localhost sockets should not sink the
            # whole suite; the report records the failure instead.
            return 1, {"nodes": nodes, "error": str(error)}
        return 1, {
            "nodes": nodes,
            "converged": report.converged,
            "t_last": report.t_last,
        }

    elapsed, trials, detail = _timed(work)
    return ScenarioTiming("live-demo", elapsed, trials, detail)


def _bench_workload_steady(quick: bool) -> ScenarioTiming:
    """The steady-state workload harness: sustained mixed traffic on a
    uniform network, staleness sampling and curve windows included."""
    from repro.workload.generators import WorkloadConfig
    from repro.workload.steady import SteadyStateConfig, run_steady_state

    n = 16 if quick else 48
    cycles = 30 if quick else 120
    rate = 6.0 if quick else 24.0

    def work() -> Tuple[int, Dict[str, Any]]:
        report = run_steady_state(
            SteadyStateConfig(
                workload=WorkloadConfig(
                    updates_per_cycle=rate,
                    key_space=64,
                    zipf_s=1.1,
                    read_fraction=0.3,
                    delete_fraction=0.05,
                ),
                n=n,
                cycles=cycles,
                window=max(cycles // 10, 1),
                seed=1987,
            )
        )
        return report["ops"]["total"], {
            "n": n,
            "cycles": cycles,
            "throughput": report["throughput"]["mean"],
            "staleness_p99": report["staleness"]["p99"],
            "converged": report["converged_after_quiesce"],
        }

    elapsed, trials, detail = _timed(work)
    return ScenarioTiming("workload-steady", elapsed, trials, detail)


def _bench_workload_wan(quick: bool) -> ScenarioTiming:
    """The same harness over the 3-datacenter WAN model: per-link
    latency, bandwidth caps, and long-haul traffic attribution."""
    from repro.workload.generators import WorkloadConfig
    from repro.workload.geo import three_datacenters
    from repro.workload.steady import SteadyStateConfig, run_steady_state

    per_dc = 4 if quick else 10
    cycles = 30 if quick else 100
    rate = 6.0 if quick else 20.0

    def work() -> Tuple[int, Dict[str, Any]]:
        report = run_steady_state(
            SteadyStateConfig(
                workload=WorkloadConfig(
                    updates_per_cycle=rate,
                    key_space=64,
                    zipf_s=1.1,
                    read_fraction=0.3,
                    delete_fraction=0.05,
                ),
                wan=three_datacenters(sites_per_dc=(per_dc,) * 3),
                cycles=cycles,
                window=max(cycles // 10, 1),
                seed=1987,
            )
        )
        return report["ops"]["total"], {
            "sites_per_dc": per_dc,
            "cycles": cycles,
            "throughput": report["throughput"]["mean"],
            "staleness_p99": report["staleness"]["p99"],
            "wan_share": report["traffic"]["wan_share"],
            "busiest_wan_link": report["traffic"]["busiest_wan_link"],
            "converged": report["converged_after_quiesce"],
        }

    elapsed, trials, detail = _timed(work)
    return ScenarioTiming("workload-wan-3dc", elapsed, trials, detail)


def _bench_million_key(quick: bool) -> ScenarioTiming:
    from repro.core.store import ReplicaStore
    from repro.protocols.base import ExchangeMode
    from repro.protocols.exchange import FullCompare, HierarchicalChecksum

    n = 20_000 if quick else 1_000_000
    bits = 12 if quick else 17
    dirty = max(1, n // 100)
    stride = n // dirty

    def work() -> Tuple[int, Dict[str, Any]]:
        # Integer keys and one shared value string keep the build cheap
        # and the measurement about the exchange, not value churn.
        a = ReplicaStore(site_id=0, bucket_bits=bits)
        b = ReplicaStore(site_id=1, bucket_bits=bits)
        value = "x" * 16
        for i in range(n):
            update = a.update(i, value)
            b.apply_entry(update.key, update.entry)
        mode = ExchangeMode.PUSH_PULL
        # 1% of the keys move forward at ``a`` only; ``b`` goes stale.
        for i in range(dirty):
            a.update(i * stride, "fresh")
        start = time.perf_counter()
        hier = HierarchicalChecksum().exchange(a, b, mode)
        hier_s = time.perf_counter() - start
        # The same divergence again, resolved the naive way.
        for i in range(dirty):
            a.update(i * stride, "fresh-again")
        start = time.perf_counter()
        full = FullCompare().exchange(a, b, mode)
        full_s = time.perf_counter() - start
        assert a.checksum == b.checksum
        ratio = (
            full.entries_examined / hier.entries_examined
            if hier.entries_examined
            else 0.0
        )
        return 2, {
            "n": n,
            "bucket_bits": bits,
            "dirty": dirty,
            "entries_examined_hier": hier.entries_examined,
            "entries_examined_full": full.entries_examined,
            "examined_ratio": round(ratio, 2),
            "tree_comparisons": hier.tree_comparisons,
            "buckets_resolved": hier.buckets_resolved,
            "updates_shipped_hier": hier.updates_shipped,
            "hier_exchange_s": round(hier_s, 4),
            "full_exchange_s": round(full_s, 4),
        }

    elapsed, trials, detail = _timed(work)
    return ScenarioTiming("million-key-hierarchical", elapsed, trials, detail)


# ----------------------------------------------------------------------
# Parallel-over-serial speedup
# ----------------------------------------------------------------------


def measure_parallel_speedup(quick: bool, jobs: int) -> Dict[str, Any]:
    """Time the same Table-1 batch serial vs parallel.

    Results are bit-identical either way (that is tested elsewhere);
    here only the wall clock differs.  On a single-CPU machine the pool
    cannot win — timing it there only records scheduler noise as a
    bogus "slowdown" — so the measurement is skipped and the report
    says why (``{"skipped": "1 cpu"}``).
    """
    from repro.experiments.tables import table1

    n = 150 if quick else 400
    runs = 2 if quick else 4
    if (os.cpu_count() or 1) <= 1:
        return {"jobs": jobs, "n": n, "runs": runs, "skipped": "1 cpu"}
    start = time.perf_counter()
    table1(n=n, runs=runs, runner=TrialRunner(jobs=1))
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    table1(n=n, runs=runs, runner=TrialRunner(jobs=jobs))
    parallel_s = time.perf_counter() - start
    return {
        "jobs": jobs,
        "n": n,
        "runs": runs,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# Exchange hot-path micro-benchmark
# ----------------------------------------------------------------------


def _exchange_stores(entries: int, delta: int = 8):
    """A fresh store pair per conversation: ``entries`` shared entries
    plus ``delta`` fresh updates on each side.

    This is the simulator's steady-state conversation — two nearly
    converged databases with a small difference — which is exactly
    where the old exchange's sort-the-whole-table cost dominated.
    """
    from repro.core.store import ReplicaStore

    a = ReplicaStore(site_id=0)
    b = ReplicaStore(site_id=1)
    for i in range(entries):
        update = a.update(f"key-{i}", f"v-{i}")
        b.apply_entry(update.key, update.entry)
    for i in range(delta):
        a.update(f"key-a-{i}", f"new-a-{i}")
        b.update(f"key-b-{i}", f"new-b-{i}")
    return a, b


def measure_exchange_hot_path(quick: bool) -> Dict[str, Any]:
    """Per-conversation cost of the exchange session.

    Every conversation gets a fresh store pair (built outside the timed
    window) because the exchange mutates both sides.
    """
    from repro.protocols.base import ExchangeMode
    from repro.protocols.exchange import resolve_difference

    entries = 400 if quick else 1500
    conversations = 10 if quick else 30
    mode = ExchangeMode.PUSH_PULL
    optimized_s = 0.0
    for __ in range(conversations):
        a, b = _exchange_stores(entries)
        start = time.perf_counter()
        resolve_difference(a, b, mode)
        optimized_s += time.perf_counter() - start
    return {
        "entries": entries,
        "conversations": conversations,
        "optimized_s_per_conversation": round(optimized_s / conversations, 6),
    }


# ----------------------------------------------------------------------
# Store-write micro-benchmark (lazy checksum maintenance)
# ----------------------------------------------------------------------


def measure_store_put(quick: bool) -> Dict[str, Any]:
    """Per-write store cost: lazy checksum maintenance vs a checksum
    read after every write.

    The store defers digest folding until a checksum is actually read
    (the ``ChecksumTree`` refresh hook); this measurement pins that
    behavior by comparing a write burst that reads the checksum once at
    the end against one that reads it after every write — the latter is
    the old eager cost model, where every mutation paid two BLAKE2b
    digests up front.  A regression back to eager maintenance drives
    the ratio toward 1.
    """
    from repro.core.store import ReplicaStore

    writes = 2_000 if quick else 10_000
    keys = 64

    def burst(checksum_every_write: bool) -> float:
        store = ReplicaStore(site_id=0)
        start = time.perf_counter()
        for i in range(writes):
            store.update(f"key-{i % keys}", i)
            if checksum_every_write:
                store.checksum
        store.checksum
        return time.perf_counter() - start

    lazy_s = burst(checksum_every_write=False)
    eager_s = burst(checksum_every_write=True)
    return {
        "writes": writes,
        "keys": keys,
        "lazy_s": round(lazy_s, 4),
        "eager_s": round(eager_s, 4),
        "lazy_us_per_write": round(lazy_s / writes * 1e6, 3),
        "eager_us_per_write": round(eager_s / writes * 1e6, 3),
        "speedup": round(eager_s / lazy_s, 3) if lazy_s > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# Span-emission overhead
# ----------------------------------------------------------------------


def _span_bench_epidemic(n: int, sink) -> Tuple[float, int]:
    """One seeded rumor epidemic; returns (wall clock, cycles run).

    With ``sink`` attached the bus has a consumer, so every delivery
    emits a span; with ``sink=None`` the bus is silent and the
    ``has_sinks`` fast path skips span construction entirely.
    """
    from repro.cluster.cluster import Cluster
    from repro.protocols.base import ExchangeMode
    from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol

    cluster = Cluster(n=n, seed=1987)
    if sink is not None:
        cluster.bus.add_sink(sink)
    rumor = RumorMongeringProtocol(
        config=RumorConfig(mode=ExchangeMode.PUSH, feedback=True, counter=True, k=2)
    )
    cluster.add_protocol(rumor)
    cluster.inject_update(0, "the-key", "the-value", track=True)
    start = time.perf_counter()
    # Run the epidemic to extinction (rumors die with nonzero residue).
    cluster.run_until(lambda: not rumor.active, max_cycles=200)
    return time.perf_counter() - start, cluster.cycle


def measure_span_emission_overhead(quick: bool) -> Dict[str, Any]:
    """Cost of the delivery-span stream: identical epidemics with the
    event bus silent vs consumed.

    Both runs share one seed so the gossip trajectory is bit-identical;
    only the observability work differs.  The consuming run uses a
    counting no-op sink — the cheapest possible consumer — so the
    factor isolates span construction + dispatch, not any particular
    sink's work.
    """
    events = 0

    def sink(event) -> None:
        nonlocal events
        events += 1

    n = 150 if quick else 500
    disabled_s, cycles = _span_bench_epidemic(n, sink=None)
    enabled_s, _ = _span_bench_epidemic(n, sink=sink)
    return {
        "n": n,
        "cycles": cycles,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "overhead_factor": round(enabled_s / disabled_s, 3) if disabled_s > 0 else 0.0,
        "events": events,
    }


# ----------------------------------------------------------------------
# Report assembly, serialization, regression gating
# ----------------------------------------------------------------------


def run_bench(
    quick: bool = False,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the whole suite; returns the report dict (see SCHEMA)."""
    jobs = jobs if jobs is not None else default_jobs()
    runner = TrialRunner(jobs=jobs)
    say = progress if progress is not None else (lambda message: None)
    scenarios: List[ScenarioTiming] = []
    for name, fn in (
        ("table1", lambda: _bench_table1(quick, runner)),
        ("anti-entropy-pushpull", lambda: _bench_anti_entropy(quick)),
        ("rumor-push-k2", lambda: _bench_rumor(quick)),
        ("live-demo", lambda: _bench_live_demo(quick)),
        ("million-key-hierarchical", lambda: _bench_million_key(quick)),
        ("workload-steady", lambda: _bench_workload_steady(quick)),
        ("workload-wan-3dc", lambda: _bench_workload_wan(quick)),
    ):
        say(f"bench: {name} ...")
        scenarios.append(fn())
    say("bench: parallel speedup ...")
    parallel = measure_parallel_speedup(quick, jobs)
    say("bench: exchange hot path ...")
    exchange = measure_exchange_hot_path(quick)
    say("bench: store put ...")
    store_put = measure_store_put(quick)
    say("bench: span emission overhead ...")
    spans = measure_span_emission_overhead(quick)
    return {
        "schema": SCHEMA,
        "date": datetime.date.today().isoformat(),
        "quick": quick,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "scenarios": [scenario.to_dict() for scenario in scenarios],
        "parallel": parallel,
        "exchange_hot_path": exchange,
        "store_put": store_put,
        "span_emission": spans,
    }


def write_report(
    report: Dict[str, Any], path: Optional[str] = None
) -> pathlib.Path:
    """Write the report; default name ``BENCH_<date>.json`` in the CWD.

    An explicit ``path`` is always honored (and overwritten).  With the
    default name, an existing same-day report is never clobbered: the
    writer falls back to ``BENCH_<date>-2.json``, ``-3``, ... so two
    runs on one day both stay in history.
    """
    if path:
        target = pathlib.Path(path)
    else:
        stem = f"BENCH_{report['date']}"
        target = pathlib.Path(f"{stem}.json")
        suffix = 2
        while target.exists():
            target = pathlib.Path(f"{stem}-{suffix}.json")
            suffix += 1
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return target


def load_report(path: str) -> Dict[str, Any]:
    blob = json.loads(pathlib.Path(path).read_text())
    if not isinstance(blob, dict) or blob.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} report")
    return blob


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 2.0,
) -> List[str]:
    """Scenario-by-scenario regression check against a baseline report.

    Returns human-readable regression messages; empty means the gate
    passes.  Scenarios present on only one side are skipped (the suite
    may grow), as are baselines recorded at a different ``quick``
    setting — wall clocks are only comparable like-for-like.
    """
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        return []
    regressions: List[str] = []
    by_name = {s["name"]: s for s in baseline.get("scenarios", [])}
    for scenario in current.get("scenarios", []):
        base = by_name.get(scenario["name"])
        if base is None:
            continue
        base_wall = float(base.get("wall_clock_s", 0.0))
        wall = float(scenario.get("wall_clock_s", 0.0))
        if base_wall > 0 and wall > base_wall * max_regression:
            regressions.append(
                f"{scenario['name']}: {wall:.3f}s vs baseline "
                f"{base_wall:.3f}s (> {max_regression:g}x)"
            )
    return regressions


def summary_lines(report: Dict[str, Any]) -> List[str]:
    """The human-readable rendering the CLI prints."""
    lines = [
        f"bench {report['date']}  jobs={report['jobs']}  "
        f"cpus={report['cpu_count']}  quick={report['quick']}",
    ]
    for scenario in report["scenarios"]:
        lines.append(
            f"  {scenario['name']:<22} {scenario['wall_clock_s']:>8.3f}s"
            f"  ({scenario['trials']} trials, {scenario['trials_per_s']:.2f}/s)"
        )
    parallel = report["parallel"]
    if "skipped" in parallel:
        lines.append(f"  parallel speedup: skipped ({parallel['skipped']})")
    else:
        lines.append(
            f"  parallel speedup: {parallel['speedup']:g}x "
            f"(serial {parallel['serial_s']}s, jobs={parallel['jobs']} "
            f"{parallel['parallel_s']}s)"
        )
    exchange = report["exchange_hot_path"]
    lines.append(
        f"  exchange hot path: {exchange['optimized_s_per_conversation']}s "
        f"per conversation ({exchange['entries']} entries)"
    )
    store_put = report.get("store_put")
    if store_put:  # older reports predate the store-write measurement
        lines.append(
            f"  store put: {store_put['speedup']:g}x lazy over eager checksums "
            f"({store_put['lazy_us_per_write']}us vs "
            f"{store_put['eager_us_per_write']}us per write, "
            f"{store_put['writes']} writes)"
        )
    spans = report.get("span_emission")
    if spans:  # older reports predate the span stream
        lines.append(
            f"  span emission: {spans['overhead_factor']:g}x overhead "
            f"(silent {spans['disabled_s']}s, consumed {spans['enabled_s']}s, "
            f"{spans['events']} events, n={spans['n']})"
        )
    million = next(
        (
            s
            for s in report["scenarios"]
            if s["name"] == "million-key-hierarchical" and "examined_ratio" in s["detail"]
        ),
        None,
    )
    if million:
        detail = million["detail"]
        lines.append(
            f"  hierarchical exchange: {detail['examined_ratio']:g}x fewer "
            f"entries examined than full compare "
            f"({detail['entries_examined_hier']} vs "
            f"{detail['entries_examined_full']}, n={detail['n']}, "
            f"{detail['buckets_resolved']} dirty buckets)"
        )
    return lines
