"""Workload ``trial-sweep``: cold epidemic trials, as a researcher runs them.

One *pass* runs one trial of every row of a table family:

* uniform (``repro.sim.batch`` through ``experiments.tables``): Tables
  1-3 at n=1000 — push feedback+counter k=1..5, push blind+coin k=1..5,
  pull feedback+counter k=1..3 — plus one push-pull anti-entropy trial;
* spatial (the reference ``Cluster`` engine on the synthetic CIN):
  Table 4 (six selectors, no connection limit), Table 5 (the same with
  connection limit 1, hunt limit 0) and the Section 3.2 push-pull rumor
  sweep k=2..6 at a=1.4.

Every trial's seed comes from the workload seed through
``runner.trial_seeds`` under a (family, pass) path, so no seed repeats in
the process and the word cache of ``sim.batch`` never replays: every
trial is cold.  A round is three uniform passes and one spatial pass;
rounds repeat until the time is up.  The store and the wire stay idle.

Run as a script (``--replay SEED``) it recomputes pass 0 in a fresh
process with a different hash seed, which is how the correctness gate
checks that results repeat exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Tuple

from bench_common import (
    TAIL_Q, Result, child_env, peak_rss_mb, percentile, pin_to_fastest_cpu, run_config,
)
from bench_trace import Tracer

from repro.cluster.cluster import Cluster
from repro.experiments import spatial, tables
from repro.experiments.runner import trial_seeds
from repro.protocols import anti_entropy, rumor
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig
from repro.sim import batch, rng
from repro.sim.transport import UNLIMITED, ConnectionPolicy
from repro.topology import spatial as topo_spatial
from repro.topology.cin import build_cin_like_topology
from repro.topology.distance import SiteDistances

N = 1000
#: The (=) counts are taken over these first passes, so they do not
#: depend on how many passes fit in the time.
COUNT_PASSES = 2
UNIFORM_PASSES_PER_ROUND = 3
PESSIMISTIC = ConnectionPolicy(connection_limit=1, hunt_limit=0)
SPATIAL_RUMOR_A = 1.4


def _rumor_rows():
    rows = []
    for table, mode, feedback, counter, ks in (
        ("table1", ExchangeMode.PUSH, True, True, range(1, 6)),
        ("table2", ExchangeMode.PUSH, False, False, range(1, 6)),
        ("table3", ExchangeMode.PULL, True, True, range(1, 4)),
    ):
        for k in ks:
            config = RumorConfig(mode=mode, feedback=feedback, counter=counter, k=k)
            rows.append((table, k, config))
    return rows


UNIFORM_ROWS = _rumor_rows() + [("anti-entropy", 0, None)]


class UniformTrial(NamedTuple):
    """What a run keeps of one batched trial (not its per-site receipts)."""

    residue: float
    traffic_per_site: float
    t_ave: float
    t_last: float
    cycles_run: int
    update_sends: int
    comparisons: int

    @classmethod
    def of(cls, metrics) -> "UniformTrial":
        return cls(metrics.residue, metrics.traffic_per_site, metrics.t_ave, metrics.t_last,
                   metrics.cycles_run, metrics.update_sends, metrics.comparisons)


class Sweep:
    """The CIN, its selectors and the row lists; built once per process."""

    def __init__(self, seed: int):
        self.seed = seed
        self.cin = build_cin_like_topology()
        distances = SiteDistances(self.cin.topology)
        selectors = spatial.standard_selectors(distances)
        rumor_selector = topo_spatial.SortedListSelector(distances, SPATIAL_RUMOR_A)
        # Fill every selector's per-site weight table now, so no trial
        # pays for a table another trial will reuse.
        for __, selector in selectors + [("rumor", rumor_selector)]:
            for site in distances.sites:
                selector.probability(site, site)
        self.link_count = self.cin.topology.edge_count
        self.spatial_rows = (
            [("table4", label, selector, UNLIMITED) for label, selector in selectors]
            + [("table5", label, selector, PESSIMISTIC) for label, selector in selectors]
            + [
                ("rumor", k, rumor_selector,
                 RumorConfig(mode=ExchangeMode.PUSH_PULL, feedback=True, counter=True, k=k))
                for k in range(2, 7)
            ]
        )
        self.seen: set = set()
        self.repeats = 0

    def seeds(self, family: str, pass_index: int, count: int) -> List[int]:
        """The trial seeds of one pass, noting any seed seen before."""
        seeds = trial_seeds(self.seed, "trial-sweep", family, pass_index, count=count)
        for value in seeds:
            if value in self.seen:
                self.repeats += 1
            self.seen.add(value)
        return seeds

    def uniform_pass(self, pass_index: int) -> List[Tuple[tuple, object, float]]:
        """One trial per uniform row: ``(row, metrics or None, seconds)``."""
        out = []
        seeds = self.seeds("uniform", pass_index, len(UNIFORM_ROWS))
        for row, seed in zip(UNIFORM_ROWS, seeds):
            began = time.perf_counter()
            try:
                if row[2] is None:
                    metrics = UniformTrial.of(
                        tables.run_anti_entropy_trial(N, ExchangeMode.PUSH_PULL, seed))
                else:
                    metrics = UniformTrial.of(tables.run_rumor_trial(N, row[2], seed))
            except RuntimeError:
                metrics = None  # hit the cycle bound: a failed trial
            out.append((row, metrics, time.perf_counter() - began))
        return out

    def spatial_pass(self, pass_index: int) -> List[Tuple[tuple, object, float]]:
        out = []
        seeds = self.seeds("spatial", pass_index, len(self.spatial_rows))
        for row, seed in zip(self.spatial_rows, seeds):
            family, __, selector, extra = row
            began = time.perf_counter()
            try:
                if family == "rumor":
                    result = spatial.run_rumor_spatial_trial(
                        self.cin.topology, selector, extra, seed,
                        special_link=self.cin.bushey,
                    )
                else:
                    result = spatial.run_anti_entropy_trial(
                        self.cin.topology, selector, seed, policy=extra,
                        special_link=self.cin.bushey,
                    )
                    if not result.complete:
                        result = None  # hit the cycle bound
            except RuntimeError:
                result = None
            out.append((row, result, time.perf_counter() - began))
        return out


def pass_digests(uniform, spatial_trials) -> List[list]:
    """Every field of every trial of a pass, exactly (floats by repr)."""
    return [
        None if m is None else [repr(value) for value in m] for __, m, __ in uniform
    ] + [
        None if r is None else [repr(value) for value in dataclasses.astuple(r)]
        for __, r, __ in spatial_trials
    ]


def replay_in_fresh_process(seed: int) -> List[list]:
    """Pass 0 recomputed by a child with another hash seed."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(child_env(), PYTHONHASHSEED="4242")
    proc = subprocess.run(
        [sys.executable, os.path.join(here, "wl_sweep.py"), "--replay", str(seed)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"replay failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# The paper-table tolerance bands of benchmarks/test_table{1..5}.py and
# benchmarks/test_rumor_spatial.py, applied to the rows of this run.
# ----------------------------------------------------------------------


def _uniform_rows(trials) -> Dict[str, List[dict]]:
    grouped: Dict[tuple, list] = {}
    for row, metrics, __ in trials:
        if metrics is not None and row[2] is not None:
            grouped.setdefault((row[0], row[1]), []).append(metrics)
    rows: Dict[str, List[dict]] = {}
    for (table, k), group in sorted(grouped.items()):
        rows.setdefault(table, []).append({
            "k": k,
            "residue": statistics.fmean(m.residue for m in group),
            "traffic": statistics.fmean(m.traffic_per_site for m in group),
            "t_ave": statistics.fmean(m.t_ave for m in group),
            "t_last": statistics.fmean(m.t_last for m in group),
            "runs": len(group),
        })
    return rows


def _spatial_rows(trials, link_count: int) -> Dict[str, List[dict]]:
    grouped: Dict[tuple, list] = {}
    order: List[tuple] = []
    incomplete: Dict[tuple, int] = {}
    for row, result, __ in trials:
        key = (row[0], f"k={row[1]}" if row[0] == "rumor" else row[1])
        if key not in grouped:
            grouped[key] = []
            order.append(key)
            incomplete[key] = 0
        if result is not None:
            grouped[key].append(result)
            incomplete[key] += 0 if result.complete else 1
    rows: Dict[str, List[dict]] = {}
    for key in order:
        group = grouped[key]
        if not group:
            continue
        rows.setdefault(key[0], []).append({
            "label": key[1],
            "t_last": statistics.fmean(t.t_last for t in group),
            "compare_avg": statistics.fmean(
                t.compare_total / (link_count * t.cycles) for t in group if t.cycles),
            "compare_special": statistics.fmean(
                t.compare_special / t.cycles for t in group if t.cycles),
            "update_avg": statistics.fmean(t.update_total / link_count for t in group),
            "incomplete_runs": incomplete[key],
            "runs": len(group),
        })
    return rows


def check_bands(uniform: Dict[str, List[dict]], spatial_rows: Dict[str, List[dict]]) -> List[str]:
    problems: List[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    t1, t2, t3 = uniform["table1"], uniform["table2"], uniform["table3"]
    res1 = [r["residue"] for r in t1]
    need(res1 == sorted(res1, reverse=True), "table1 residue not decreasing in k")
    need([r["traffic"] for r in t1] == sorted(r["traffic"] for r in t1),
         "table1 traffic not increasing in k")
    need(abs(t1[0]["residue"] - 0.18) < 0.08, "table1 k=1 residue outside 0.18 +- 0.08")
    for r in t1:
        if r["residue"] > 0:
            need(0.3 < r["residue"] / math.exp(-r["traffic"]) < 3.0,
                 f"table1 k={r['k']} breaks s ~ e^-m")
        need(8 < r["t_ave"] < 16, f"table1 k={r['k']} t_ave outside (8, 16)")
        need(12 < r["t_last"] < 26, f"table1 k={r['k']} t_last outside (12, 26)")
    res2 = [r["residue"] for r in t2]
    need(res2 == sorted(res2, reverse=True), "table2 residue not decreasing in k")
    need(t2[0]["residue"] > 0.85 and t2[0]["traffic"] < 0.3, "table2 k=1 spreads too far")
    need(t2[-1]["residue"] < 0.05, "table2 k=5 residue >= 0.05")
    for b, f in zip(t2[2:], t1[2:]):
        need(b["t_last"] > f["t_last"], f"blind+coin not slower than feedback at k={b['k']}")
    for r in t3:
        need(r["residue"] < math.exp(-r["traffic"]) + 1e-12,
             f"table3 k={r['k']} does not beat the push law")
        need(7 < r["t_ave"] < 13, f"table3 k={r['k']} t_ave outside (7, 13)")
    need(t3[0]["residue"] < 0.1 and t3[1]["residue"] < 5e-3 and t3[2]["residue"] < 1e-3,
         "table3 residues above the paper's regime")

    for name in ("table4", "table5"):
        rows = spatial_rows[name]
        need(all(r["incomplete_runs"] == 0 for r in rows), f"{name} has incomplete runs")
        t_lasts = [r["t_last"] for r in rows]
        need(all(b >= a * 0.93 for a, b in zip(t_lasts, t_lasts[1:])),
             f"{name} t_last does not grow as the distribution tightens")
        need(t_lasts[-1] > t_lasts[0], f"{name} a=2 not slower than uniform")
        need(rows[0]["compare_special"] > 10 * rows[-1]["compare_special"],
             f"{name} Bushey traffic not cut 10x at a=2")
    t4, t5 = spatial_rows["table4"], spatial_rows["table5"]
    need(t4[-1]["t_last"] < 3 * t4[0]["t_last"], "table4 a=2 more than 3x slower")
    need(t4[0]["compare_avg"] > 2.5 * t4[-1]["compare_avg"],
         "table4 compare traffic not cut 2.5x at a=2")
    need(t4[-1]["compare_special"] < 2 * t4[-1]["compare_avg"],
         "table4 a=2 Bushey still a hot spot")
    need(t5[-1]["t_last"] > t4[-1]["t_last"] and t5[-1]["compare_avg"] < t4[-1]["compare_avg"],
         "table5 limit not slower and lighter per cycle at a=2")
    total4 = t4[-1]["compare_avg"] * t4[-1]["t_last"]
    total5 = t5[-1]["compare_avg"] * t5[-1]["t_last"]
    need(abs(total5 - total4) <= 0.6 * total4, "table5 total compare traffic changed by > 60%")
    rumors = spatial_rows["rumor"]
    need(rumors[-1]["incomplete_runs"] == 0, "rumor k=6 left sites uninfected")
    need(rumors[-1]["incomplete_runs"] <= rumors[0]["incomplete_runs"],
         "rumor coverage failures grow with k")
    anti = t4[2]  # a=1.4
    need(rumors[-1]["t_last"] < 3 * anti["t_last"], "rumor k=6 more than 3x slower than anti-entropy")
    need(rumors[-1]["compare_special"] < 5 * max(anti["compare_special"], 0.5),
         "rumor k=6 Bushey traffic far above anti-entropy")
    return problems


# ----------------------------------------------------------------------


def install_wrappers(tracer: Tracer) -> None:
    tracer.wrap(batch, "rumor_trial", "batch.rumor_trial")
    tracer.wrap(batch, "anti_entropy_trial", "batch.anti_entropy_trial")
    tracer.wrap(rng.SiteSeeder, "seed", "rng.site_seed", keep=False)
    tracer.wrap(batch, "_CoreRandom", "rng.stream_seed", keep=False)
    tracer.wrap(Cluster, "run_cycle", "cluster.cycle")
    tracer.wrap(Cluster, "count_comparison", "cluster.conversation", keep=False)
    tracer.wrap(Cluster, "apply_at", "cluster.delivery", keep=False)
    tracer.wrap(topo_spatial._WeightedSelector, "choose", "spatial.draw", keep=False)
    tracer.wrap(topo_spatial.UniformSelector, "choose", "spatial.draw", keep=False)
    tracer.wrap(anti_entropy.AntiEntropyProtocol, "_exchange_synchronous",
                "exchange.session", keep=False)
    tracer.wrap(rumor.RumorMongeringProtocol, "_converse", "exchange.session", keep=False)


def _engine_events(tracer: Tracer) -> int:
    return sum(tracer.calls(name) for name in
               ("cluster.cycle", "cluster.conversation", "cluster.delivery"))


def run(seed: int, seconds: float, trace: bool, out_dir: str, import_s: float) -> Result:
    pin_to_fastest_cpu()
    setups = []
    sweep = None
    for __ in range(3):
        began = time.perf_counter()
        sweep = Sweep(seed)
        setups.append(time.perf_counter() - began)
    setup_s = import_s + statistics.median(setups)

    tracer = Tracer() if trace else None
    uniform: list = []
    spatial_trials: list = []
    rounds: List[Tuple[bool, float]] = []   # (traced, seconds)
    count_marks: Dict[str, float] = {}
    first_digests = None
    started = time.perf_counter()
    traced_until = started + seconds / 2 if trace else started
    if tracer is not None:
        install_wrappers(tracer)
    pass_index = 0
    spatial_index = 0
    while (
        spatial_index < COUNT_PASSES
        or time.perf_counter() - started < seconds
        or (tracer is not None and all(traced for traced, __ in rounds))
    ):
        traced = tracer is not None and (
            spatial_index < COUNT_PASSES or time.perf_counter() < traced_until
        )
        if tracer is not None and not traced:
            tracer.uninstall()
        round_began = time.perf_counter()
        for __ in range(UNIFORM_PASSES_PER_ROUND):
            uniform.extend(sweep.uniform_pass(pass_index))
            pass_index += 1
        trials = sweep.spatial_pass(spatial_index)
        spatial_trials.extend(trials)
        if spatial_index == 0:
            first_digests = pass_digests(uniform[:len(UNIFORM_ROWS)], trials)
        spatial_index += 1
        rounds.append((traced, time.perf_counter() - round_began))
        if tracer is not None and spatial_index == COUNT_PASSES:
            count_marks["events"] = _engine_events(tracer)
    if tracer is not None:
        tracer.uninstall()

    failed = sum(1 for __, m, __ in uniform + spatial_trials if m is None)
    attempted = len(uniform) + len(spatial_trials)
    problems: List[str] = []
    if failed:
        problems.append(f"{failed} trials hit their cycle bound")
    if sweep.repeats:
        problems.append(f"{sweep.repeats} trial seeds repeated within the process")
    uniform_rows = _uniform_rows(uniform)
    spatial_rows = _spatial_rows(spatial_trials, sweep.link_count)
    if not failed:
        problems.extend(check_bands(uniform_rows, spatial_rows))
    if replay_in_fresh_process(seed) != first_digests:
        problems.append("pass 0 did not repeat exactly in a fresh process")

    uniform_s = sum(t for __, __, t in uniform)
    spatial_times = [t * 1000 for __, __, t in spatial_trials]
    ae_times = [t * 1000 for row, __, t in uniform if row[2] is None]
    report = {
        "config": run_config("trial-sweep", seed, n=N, runs_per_row=spatial_index,
                             uniform_passes=pass_index),
        "uniform_trials_per_s": len(uniform) / uniform_s,
        "spatial_trials_per_s": len(spatial_trials) / (sum(spatial_times) / 1000),
        "spatial_trial_ms": {"p50": percentile(spatial_times, 0.5),
                             "p90": percentile(spatial_times, TAIL_Q),
                             "samples": len(spatial_times)},
        "uniform_rows": uniform_rows,
        "spatial_rows": spatial_rows,
    }
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": report["uniform_trials_per_s"],
            "p50_ms": percentile(spatial_times, 0.5),
            "tail_ms": percentile(spatial_times, TAIL_Q),
            "converge_ms": statistics.median(ae_times),
        }
    else:
        count_uniform = [
            m for __, m, __ in uniform[:COUNT_PASSES * UNIFORM_PASSES_PER_ROUND * len(UNIFORM_ROWS)]
            if m is not None
        ]
        count_spatial = [
            r for __, r, __ in spatial_trials[:COUNT_PASSES * len(sweep.spatial_rows)]
            if r is not None
        ]
        batch_trials = tracer.calls("batch.rumor_trial") + tracer.calls("batch.anti_entropy_trial")
        traced_rounds = [t for traced, t in rounds if traced]
        untraced_rounds = [t for traced, t in rounds if not traced]
        table4 = [
            r for row, r, __ in spatial_trials[:COUNT_PASSES * len(sweep.spatial_rows)]
            if row[0] == "table4" and r is not None
        ]
        metrics = {
            "batch.rumor_trial_ms": tracer.mean_us("batch.rumor_trial") / 1000,
            "batch.anti_entropy_trial_ms": tracer.mean_us("batch.anti_entropy_trial") / 1000,
            "rng.site_seeder_ms_per_trial": (
                (tracer.seconds("rng.site_seed") + tracer.seconds("rng.stream_seed"))
                * 1000 / batch_trials),
            "batch.cycles_per_trial": statistics.fmean(m.cycles_run for m in count_uniform),
            "batch.messages_per_site": statistics.fmean(
                m.traffic_per_site for m in count_uniform),
            "cluster.trial_ms": statistics.fmean(
                t * 1000 for __, __, t in spatial_trials[:len(traced_rounds) * len(sweep.spatial_rows)]),
            "spatial.draw_us": tracer.mean_us("spatial.draw"),
            "exchange.session_us": tracer.mean_us("exchange.session"),
            "engine.events_per_trial": count_marks["events"] / len(count_spatial),
            "spatial.cycles_per_trial": statistics.fmean(r.cycles for r in count_spatial),
            "spatial.compare_per_link": statistics.fmean(
                r.compare_total / (sweep.link_count * r.cycles) for r in table4),
            "setup.cin_selectors_ms": statistics.median(setups) * 1000,
            "trace.overhead_ratio": (
                statistics.fmean(traced_rounds) / statistics.fmean(untraced_rounds)),
        }
        tracer.write(os.path.join(out_dir, f"trial-sweep-seed{seed}-spans.jsonl"))
    return Result(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        report=report,
        problems=problems,
    )


def _replay_main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--replay", type=int, required=True)
    args = parser.parse_args()
    sweep = Sweep(args.replay)
    uniform = sweep.uniform_pass(0)
    trials = sweep.spatial_pass(0)
    print(json.dumps(pass_digests(uniform, trials)))


if __name__ == "__main__":
    _replay_main()
