"""Exact Markov chains vs simulation vs asymptotics (Section 1.3).

For simple epidemics the infected count is a Markov chain with a
computable transition law, so expected convergence times can be
calculated exactly — a ground truth in between the stochastic
simulation and Pittel's asymptotic formula.
"""

import pytest

from conftest import run_once
from repro.analysis.epidemic_theory import pittel_push_cycles
from repro.analysis.markov import expected_cycles_to_complete
from repro.cluster.cluster import Cluster
from repro.experiments.report import format_table
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.sim.metrics import mean
from repro.sim.rng import derive_seed

MODES = {
    "push": ExchangeMode.PUSH,
    "pull": ExchangeMode.PULL,
    "push-pull": ExchangeMode.PUSH_PULL,
}


def simulate_cycles(n, mode, runs, seed):
    counts = []
    for run in range(runs):
        cluster = Cluster(n=n, seed=derive_seed(seed, run))
        cluster.add_protocol(
            AntiEntropyProtocol(config=AntiEntropyConfig(mode=mode))
        )
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: cluster.metrics.infected == n, max_cycles=200)
        counts.append(cluster.metrics.t_last)
    return mean(counts)


def test_exact_chain_vs_simulation_vs_pittel(benchmark, bench_runs):
    n = 128

    def run():
        rows = []
        for label, mode in MODES.items():
            exact = expected_cycles_to_complete(n, label)
            seed = derive_seed(0, "markov-exact", label)
            simulated = simulate_cycles(n, mode, bench_runs, seed=seed)
            pittel = pittel_push_cycles(n) if label == "push" else float("nan")
            rows.append((label, exact, simulated, pittel))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["mode", "exact E[cycles]", "simulated mean", "log2 n + ln n"],
            rows,
            title=f"Simple-epidemic convergence, n={n}",
        )
    )
    for label, exact, simulated, __ in rows:
        assert simulated == pytest.approx(exact, rel=0.2), label
    by_mode = {label: exact for label, exact, __, ___ in rows}
    # push-pull is strictly the fastest; push and pull are close at
    # this size (their difference lives in the endgame constants).
    assert by_mode["push-pull"] < min(by_mode["push"], by_mode["pull"])
    # Pittel tracks the exact push value.
    assert pittel_push_cycles(n) == pytest.approx(by_mode["push"], rel=0.2)


def test_exact_scaling_is_logarithmic(benchmark):
    def run():
        return {
            n: expected_cycles_to_complete(n, "push-pull") for n in (32, 128, 512)
        }

    values = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["n", "exact E[cycles] (push-pull)"],
            sorted(values.items()),
        )
    )
    # Quadrupling n adds a roughly constant number of cycles.
    first_gap = values[128] - values[32]
    second_gap = values[512] - values[128]
    assert second_gap == pytest.approx(first_gap, abs=1.0)
