"""The benchmark's own tests.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The smoke runs start ``perfbench/run.py`` as a separate process and take
about a minute and a half together.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

import bench_common
import live_child
import wl_live
import wl_reconcile
import wl_sweep

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: The (=) per-layer counts: identical for a given seed on every run.
EXACT = {
    "trial-sweep": ["batch.cycles_per_trial", "batch.messages_per_site",
                    "engine.events_per_trial", "spatial.cycles_per_trial",
                    "spatial.compare_per_link"],
    "reconcile-100k": ["exchange.entries_examined", "exchange.tree_comparisons",
                       "exchange.buckets_resolved", "exchange.useful_ratio"],
    "live-gossip-8": ["wire.bytes_per_update"],
}


def _benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


# -- inputs ---------------------------------------------------------------


def _inputs(seed):
    sweep = wl_sweep.Sweep(seed)
    return {
        "trial_seeds": sweep.seeds("uniform", 0, 4) + sweep.seeds("spatial", 3, 4),
        "keys": wl_reconcile.make_keys(seed)[:50],
        "values": wl_reconcile.make_values(seed, "ingest")[:50],
        "round": wl_reconcile.round_rewrites(seed, 2)[:50],
        "prefill": [(k, e.value) for k, e in live_child.prefill(seed, 1000.0)],
        "ops": [wl_live.OpStream(seed, "open").next() for __ in range(50)],
        "arrivals": wl_live.poisson_arrivals(seed, 100.0, 2.0),
    }


def test_same_seed_same_inputs():
    assert _inputs(7) == _inputs(7)


def test_different_seeds_different_inputs():
    first, second = _inputs(7), _inputs(8)
    for name in first:
        assert first[name] != second[name], name


def test_no_trial_seed_repeats_within_a_process():
    sweep = wl_sweep.Sweep(3)
    for index in range(40):
        sweep.seeds("uniform", index, len(wl_sweep.UNIFORM_ROWS))
        sweep.seeds("spatial", index, len(sweep.spatial_rows))
    expected = 40 * (len(wl_sweep.UNIFORM_ROWS) + len(sweep.spatial_rows))
    assert sweep.repeats == 0
    assert len(sweep.seen) == expected


# -- metric names ------------------------------------------------------------


def test_metric_names_and_units_match_the_benchmark_file():
    spec = _benchmark_file()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == bench_common.END_TO_END_UNITS
    assert per_layer == bench_common.PER_LAYER_UNITS
    for name in list(end_to_end) + list(per_layer):
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == ["trial-sweep", "reconcile-100k",
                                                     "live-gossip-8"]


def test_tail_quantile_keeps_ten_samples_beyond():
    assert bench_common.tail_quantile(1500, 0.99) == 0.99
    assert bench_common.tail_quantile(500, 0.99) == 0.9
    assert bench_common.tail_quantile(50, 0.99) == 0.5


# -- smoke runs --------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_smoke_run_passes_its_correctness_gate(workload):
    code, report, result = _run(workload, seed=5, seconds=2, trace=0)
    assert code == 0, report["problems"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench_common.END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == bench_common.END_TO_END_UNITS[name]
    assert report["report"]["config"]["seed"] == 5


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_traced_counts_repeat_exactly_and_overhead_is_reported(workload):
    runs = [_run(workload, seed=9, seconds=2, trace=1) for __ in range(2)]
    for code, report, result in runs:
        assert code == 0, report["problems"]
        assert set(result["metrics"]) == set(bench_common.PER_LAYER_UNITS)
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    for name in EXACT[workload]:
        values = [result["metrics"][name]["value"] for __, __, result in runs]
        assert values[0] == values[1] and values[0] > 0, name
    spans = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed9-spans.jsonl")
    assert os.path.getsize(spans) > 0


def test_refuses_to_run_without_a_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH, name), bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
