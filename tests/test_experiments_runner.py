"""Tests for the generic experiment runner."""

import pytest

from repro.baselines.fedavg import FedAvg
from repro.core.comdml import ComDML
from repro.experiments.reporting import (
    format_table,
    reduction_percentage,
    speedup_over_baselines,
    time_to_target_or_total,
)
from repro.experiments.runner import METHOD_REGISTRY, ExperimentRunner
from repro.experiments.scenarios import ScenarioConfig


@pytest.fixture(scope="module")
def quick_runner():
    config = ScenarioConfig(
        num_agents=6,
        dataset="cifar10",
        target_accuracy=0.5,
        max_rounds=60,
        offload_granularity=9,
        seed=3,
    )
    return ExperimentRunner(config)


class TestExperimentRunner:
    def test_registry_contains_paper_methods(self):
        for name in ("ComDML", "FedAvg", "Gossip Learning", "BrainTorrent", "AllReduce"):
            assert name in METHOD_REGISTRY

    def test_build_method_types(self, quick_runner):
        assert isinstance(quick_runner.build_method("ComDML"), ComDML)
        assert isinstance(quick_runner.build_method("FedAvg"), FedAvg)

    def test_unknown_method_rejected(self, quick_runner):
        with pytest.raises(KeyError):
            quick_runner.build_method("DoesNotExist")

    def test_run_method_reaches_target(self, quick_runner):
        history = quick_runner.run_method("ComDML")
        assert history.final_accuracy >= 0.5

    def test_compare_runs_all_methods(self, quick_runner):
        results = quick_runner.compare(["ComDML", "AllReduce"])
        assert set(results) == {"ComDML", "AllReduce"}
        assert all(len(history) > 0 for history in results.values())

    def test_comdml_faster_than_baselines(self, quick_runner):
        results = quick_runner.compare(["ComDML", "AllReduce", "FedAvg"])
        speedups = speedup_over_baselines(results, target=0.5)
        assert all(speedup > 1.0 for speedup in speedups.values())


class TestReportingHelpers:
    def test_format_table_alignment(self):
        rows = [{"method": "ComDML", "time": 123.4}, {"method": "FedAvg", "time": 456.7}]
        text = format_table(rows)
        assert "ComDML" in text and "FedAvg" in text
        assert len(text.splitlines()) == 4

    def test_format_table_column_formats_override_float_format(self):
        rows = [{"method": "ComDML", "total_time_s": 12.6, "final_accuracy": 0.6374}]
        text = format_table(rows, column_formats={"final_accuracy": "{:.4f}"})
        assert text.splitlines()[2].split() == ["ComDML", "13", "0.6374"]

    def test_format_table_empty(self):
        assert "empty" in format_table([])

    def test_reduction_percentage(self):
        assert reduction_percentage(30.0, 100.0) == pytest.approx(70.0)
        assert reduction_percentage(10.0, 0.0) == 0.0

    def test_time_to_target_falls_back_to_total(self, quick_runner):
        history = quick_runner.run_method("ComDML")
        assert time_to_target_or_total(history, 0.9999) == history.total_time
        assert time_to_target_or_total(history, None) == history.total_time

    def test_speedup_requires_reference(self, quick_runner):
        results = {"FedAvg": quick_runner.run_method("FedAvg")}
        with pytest.raises(KeyError):
            speedup_over_baselines(results, target=0.5)
