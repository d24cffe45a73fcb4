"""The benchmark harness: scenarios, report schema, regression gate."""

import json

import pytest

from repro.experiments.bench import (
    SCHEMA,
    compare_reports,
    load_report,
    measure_exchange_hot_path,
    measure_parallel_speedup,
    summary_lines,
    write_report,
    _bench_anti_entropy,
    _bench_rumor,
    _bench_table1,
)
from repro.experiments.runner import TrialRunner


def _report(**overrides):
    base = {
        "schema": SCHEMA,
        "date": "2026-01-01",
        "quick": True,
        "jobs": 1,
        "cpu_count": 1,
        "platform": "test",
        "python": "3",
        "scenarios": [
            {
                "name": "table1",
                "wall_clock_s": 1.0,
                "trials": 10,
                "trials_per_s": 10.0,
                "detail": {},
            },
        ],
        "parallel": {
            "jobs": 1, "n": 1, "runs": 1,
            "serial_s": 1.0, "parallel_s": 1.0, "speedup": 1.0,
        },
        "exchange_hot_path": {
            "entries": 1, "conversations": 1,
            "optimized_s_per_conversation": 1.0,
        },
    }
    base.update(overrides)
    return base


def _scenario(name, wall):
    return {
        "name": name, "wall_clock_s": wall, "trials": 1,
        "trials_per_s": 1.0, "detail": {},
    }


class TestScenarios:
    def test_table1_scenario(self):
        timing = _bench_table1(quick=True, runner=TrialRunner(jobs=1))
        assert timing.name == "table1"
        assert timing.wall_clock_s > 0
        assert timing.trials == 20  # 5 ks x 2 runs x 2 passes
        assert timing.trials_per_s > 0
        assert timing.detail["engine"] == "batched"
        assert timing.detail["best_pass_s"] <= timing.detail["first_pass_s"]

    def test_anti_entropy_scenario(self):
        timing = _bench_anti_entropy(quick=True)
        assert timing.detail["n"] == 256
        assert timing.detail["cycles"] > 0
        assert timing.trials == timing.detail["runs"]

    def test_rumor_scenario(self):
        timing = _bench_rumor(quick=True)
        assert 0.0 <= timing.detail["residue"] <= 1.0
        assert timing.detail["best_run_s"] <= timing.detail["first_run_s"]

    def test_parallel_speedup_shape(self, monkeypatch):
        import repro.experiments.bench as bench_module

        monkeypatch.setattr(bench_module.os, "cpu_count", lambda: 2)
        result = measure_parallel_speedup(quick=True, jobs=1)
        assert result["serial_s"] > 0
        assert result["parallel_s"] > 0
        assert result["speedup"] > 0

    def test_parallel_speedup_skipped_on_one_cpu(self, monkeypatch):
        import repro.experiments.bench as bench_module

        monkeypatch.setattr(bench_module.os, "cpu_count", lambda: 1)
        result = measure_parallel_speedup(quick=True, jobs=4)
        assert result["skipped"] == "1 cpu"
        assert "speedup" not in result
        # The skipped shape still renders in the summary.
        lines = "\n".join(summary_lines(_report(parallel=result)))
        assert "skipped (1 cpu)" in lines

    def test_exchange_hot_path_shape(self):
        result = measure_exchange_hot_path(quick=True)
        assert set(result) == {"entries", "conversations", "optimized_s_per_conversation"}
        assert result["optimized_s_per_conversation"] > 0


class TestReportIO:
    def test_write_and_load_roundtrip(self, tmp_path):
        report = _report()
        path = write_report(report, str(tmp_path / "bench.json"))
        assert load_report(str(path)) == report

    def test_default_filename_uses_date(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_report(_report(date="2026-08-06"))
        assert path.name == "BENCH_2026-08-06.json"

    def test_default_filename_never_clobbers_same_day_report(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        first = write_report(_report(date="2026-08-06"))
        second = write_report(_report(date="2026-08-06"))
        third = write_report(_report(date="2026-08-06"))
        assert first.name == "BENCH_2026-08-06.json"
        assert second.name == "BENCH_2026-08-06-2.json"
        assert third.name == "BENCH_2026-08-06-3.json"
        # All three still exist and load as valid reports.
        for path in (first, second, third):
            assert load_report(str(path))["date"] == "2026-08-06"

    def test_explicit_path_still_overwrites(self, tmp_path):
        target = tmp_path / "bench.json"
        write_report(_report(date="2026-08-06"), str(target))
        path = write_report(_report(date="2026-08-07"), str(target))
        assert path == target
        assert load_report(str(target))["date"] == "2026-08-07"
        assert list(tmp_path.iterdir()) == [target]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValueError):
            load_report(str(path))

    def test_summary_lines_mention_every_scenario(self):
        lines = "\n".join(summary_lines(_report()))
        assert "table1" in lines
        assert "parallel speedup" in lines
        assert "exchange hot path" in lines


class TestRegressionGate:
    def test_no_regression_when_equal(self):
        assert compare_reports(_report(), _report()) == []

    def test_flags_scenarios_beyond_factor(self):
        current = _report(scenarios=[_scenario("table1", 2.5)])
        baseline = _report(scenarios=[_scenario("table1", 1.0)])
        regressions = compare_reports(current, baseline, max_regression=2.0)
        assert len(regressions) == 1
        assert "table1" in regressions[0]

    def test_within_factor_passes(self):
        current = _report(scenarios=[_scenario("table1", 1.9)])
        baseline = _report(scenarios=[_scenario("table1", 1.0)])
        assert compare_reports(current, baseline, max_regression=2.0) == []

    def test_new_scenarios_are_skipped(self):
        current = _report(
            scenarios=[_scenario("table1", 1.0), _scenario("brand-new", 99.0)]
        )
        assert compare_reports(current, _report()) == []

    def test_quick_mismatch_is_not_comparable(self):
        current = _report(quick=False, scenarios=[_scenario("table1", 99.0)])
        assert compare_reports(current, _report(quick=True)) == []
