"""One repetition ("rep") of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per rep, so every rep pays the import
of ``repro`` and its own peak RSS is the process high-water mark::

    python3 perfbench/worker.py --workload churn-2000 --seed 1 --kind campaign \
        --trace 0 --cache-dir .perfbench/cache/demo

``--kind stepped`` builds the method through ``build_scenario`` →
``ExperimentRunner.build_method`` and times each public ``run_round(i)``
(with no target accuracy this is exactly ``TrainingRuntime.run``).
``--kind campaign`` runs the workload's methods through ``CampaignExecutor``
on the serial backend with an emptied ``--cache-dir``.  Every rep then
re-runs the campaign warm against that cache (a campaign rep filled it).
``--trace 1`` wraps the layers' public functions (see ``spans.py``).
The last stdout line is one JSON object describing the rep.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import SpanRecorder, install_layers, slug  # noqa: E402
from workloads import WORKLOADS, dynamics_params, scenario_params  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: Warm campaign re-runs at the end of every rep.
WARM_RERUNS = 8


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _runtime_report(runtimes, problems: list[str]) -> dict:
    """Counters and output checks of the runtimes a rep drove."""
    report = {
        "trace.emitted": 0,
        "trace.retained": 0,
        "trace.dropped": 0,
        "engine.processed_events": 0,
        "planner": {},
    }
    for runtime in runtimes:
        trace = runtime.trace
        try:
            trace.check_conservation()
        except AssertionError as error:
            problems.append(f"trace conservation: {error}")
        memory = trace.accounting()["memory"]
        report["trace.emitted"] += memory["emitted"]
        report["trace.retained"] += memory["delivered"]
        report["trace.dropped"] += memory["dropped"]
        report["engine.processed_events"] += runtime.engine.processed_events
        planner_report = getattr(runtime.strategy, "planner_report", None)
        if planner_report is not None:
            for key, value in (planner_report() or {}).items():
                if isinstance(value, (int, float)):
                    report["planner"][key] = report["planner"].get(key, 0) + value
    return report


def _check_history(method: str, history, max_rounds: int, problems: list[str]) -> None:
    if len(history) != max_rounds:
        problems.append(f"{method}: {len(history)} rounds, expected {max_rounds}")
    for record in history.records:
        if not (0.0 <= record.accuracy <= 1.0) or not (
            math.isfinite(record.duration_seconds) and record.duration_seconds >= 0
        ):
            problems.append(f"{method}: implausible round record {record}")
            break


def run_stepped(args, recorder) -> dict:
    from repro.experiments import scenarios
    from repro.experiments.runner import ExperimentRunner
    from repro.runtime.dynamics import DynamicsSchedule

    import_s = time.perf_counter() - T0
    if recorder is not None:
        install_layers(recorder)
    (method,) = WORKLOADS[args.workload].methods
    params = scenario_params(args.workload, args.seed, args.tiny)
    scenario = scenarios.build_scenario(scenarios.ScenarioConfig(**params))
    dynamics_kwargs = dynamics_params(args.workload, args.seed, args.tiny)
    dynamics = (
        DynamicsSchedule.poisson(**dynamics_kwargs) if dynamics_kwargs else None
    )
    trainer = ExperimentRunner(scenario).build_method(method, dynamics=dynamics)
    setup_s = time.perf_counter() - T0

    round_s: list[float] = []
    agent_rounds = 0
    for index in range(params["max_rounds"]):
        agent_rounds += len(trainer.registry)
        start = time.perf_counter()
        if recorder is not None:
            with recorder.span("runtime.round"):
                trainer.run_round(index)
        else:
            trainer.run_round(index)
        round_s.append(time.perf_counter() - start)
    trainer.runtime.trace.flush()
    wall_s = time.perf_counter() - T0
    peak = _peak_rss_mb()

    problems: list[str] = []
    _check_history(method, trainer.history, params["max_rounds"], problems)
    return {
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "round_s": round_s,
        "agent_rounds": agent_rounds,
        "peak_rss_mb": peak,
        "history_digests": {method: trainer.history.digest()},
        "runtime": _runtime_report([trainer.runtime], problems),
        "problems": problems,
    }


def run_campaign(args, recorder) -> dict:
    from repro.experiments.campaign import CampaignExecutor
    from repro.runtime.runtime import TrainingRuntime

    import_s = time.perf_counter() - T0
    if recorder is not None:
        install_layers(recorder)

    # Round clock: the same per-round timestamps the stepped driver takes,
    # around the run_round calls TrainingRuntime.run makes inside each cell.
    rounds: list[tuple[float, float, int]] = []
    runtimes: list = []
    run_round = TrainingRuntime.run_round

    def timed_run_round(self, round_index):
        if not runtimes or runtimes[-1] is not self:
            runtimes.append(self)
        participants = len(self.registry)
        start = time.perf_counter()
        if recorder is not None:
            with recorder.span("runtime.round"):
                record = run_round(self, round_index)
        else:
            record = run_round(self, round_index)
        rounds.append((start, time.perf_counter() - start, participants))
        return record

    TrainingRuntime.run_round = timed_run_round

    params = scenario_params(args.workload, args.seed, args.tiny)
    spec = campaign_spec_for(args)
    cache_dir = ROOT / args.cache_dir
    shutil.rmtree(cache_dir, ignore_errors=True)
    problems: list[str] = []
    try:
        cold = CampaignExecutor(spec, cache_dir=cache_dir, backend="serial").run()
    finally:
        TrainingRuntime.run_round = run_round
    wall_s = time.perf_counter() - T0
    peak = _peak_rss_mb()
    if cold.misses != len(cold.cells):
        problems.append(f"cold run served {cold.hits} cells from a fresh cache")

    history_digests = {}
    for cell in cold.cells:
        payload = cell.payload
        history_digests[payload["method"]] = payload["history_digest"]
        if payload["rounds"] != params["max_rounds"]:
            problems.append(
                f"{payload['method']}: {payload['rounds']} rounds, "
                f"expected {params['max_rounds']}"
            )
    for runtime in runtimes:
        _check_history(runtime.strategy.method_name, runtime.history, params["max_rounds"], problems)
    return {
        "import_s": import_s,
        "setup_s": (rounds[0][0] - T0) if rounds else wall_s,
        "wall_s": wall_s,
        "round_s": [seconds for _, seconds, _ in rounds],
        "agent_rounds": sum(participants for _, _, participants in rounds),
        "peak_rss_mb": peak,
        "cells": len(cold.cells),
        "history_digests": history_digests,
        "payload_digests": {
            cell.payload["method"]: cell.payload_digest for cell in cold.cells
        },
        "campaign": {
            "hits": cold.hits,
            "misses": cold.misses,
            "cell_s": {
                slug(cell.payload["method"]): cell.elapsed_seconds for cell in cold.cells
            },
        },
        "runtime": _runtime_report(runtimes, problems),
        "problems": problems,
    }


def campaign_spec_for(args):
    """The compare campaign of the workload: one cell per method."""
    from repro.experiments.comparison import campaign_spec
    from repro.runtime.dynamics import DynamicsSchedule

    dynamics_kwargs = dynamics_params(args.workload, args.seed, args.tiny)
    schedule = (
        DynamicsSchedule.poisson(**dynamics_kwargs).to_json()
        if dynamics_kwargs
        else None
    )
    return campaign_spec(
        methods=WORKLOADS[args.workload].methods,
        schedule=schedule,
        **scenario_params(args.workload, args.seed, args.tiny),
    )


def warm_reruns(args, rep: dict) -> None:
    """Re-run the campaign against the cache a campaign rep filled.

    Each re-run starts with ``clear_fingerprint_cache()``, as a fresh
    ``comdml compare`` would, and must serve every cell from the cache.
    """
    from repro.experiments.campaign import CampaignExecutor
    from repro.experiments.fingerprint import clear_fingerprint_cache

    gc.collect()
    spec = campaign_spec_for(args)
    rep["rerun_s"] = []
    for _ in range(WARM_RERUNS):
        clear_fingerprint_cache()
        start = time.perf_counter()
        warm = CampaignExecutor(spec, cache_dir=ROOT / args.cache_dir, backend="serial").run()
        rep["rerun_s"].append(time.perf_counter() - start)
        rep["cells"] = rep.get("cells", 0) + len(warm.cells)
        if warm.hits != len(warm.cells):
            rep["problems"].append(f"warm re-run computed {warm.misses} cells")
        for cell in warm.cells:
            method = cell.payload["method"]
            expected = rep.setdefault("payload_digests", {}).setdefault(
                method, cell.payload_digest
            )
            if cell.payload_digest != expected:
                rep["problems"].append(f"{method}: warm payload digest differs from cold")
        if "campaign" in rep:
            rep["campaign"]["hits"] += warm.hits


def layer_metrics(recorder: SpanRecorder, rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced rep."""
    total = recorder.total
    counters = recorder.counters
    runtime = rep["runtime"]
    planner = runtime["planner"]
    recomputed = planner.get("rows_recomputed", 0)
    reused = planner.get("rows_reused", 0)
    kept = counters["quorum.kept"]
    dropped = counters["quorum.dropped"]
    metrics = {
        "import_s": rep["import_s"],
        "topology.build_s": total("topology.build"),
        "topology.edges": counters["topology.edges"],
        "scenarios.build_s": total("scenarios.build"),
        "scenarios.registry_s": total("scenarios.registry"),
        "runner.build_method_s": total("runner.build_method"),
        "scheduler.select_s": total("scheduler.select"),
        "scheduler.participants": counters["scheduler.participants"],
        "scheduler.plan_s": total("scheduler.plan"),
        "planner.plan_s": total("planner.plan"),
        "planner.invalidate_s": total("planner.invalidate"),
        "planner.rows_recomputed": recomputed,
        "planner.rows_reused": reused,
        "planner.row_reuse_ratio": reused / (recomputed + reused)
        if recomputed + reused
        else 0.0,
        "planner.pairs_evaluated": planner.get("pairs_evaluated", 0),
        "planner.csr_edits": planner.get("csr_edits", 0),
        "planner.csr_rebuilds": planner.get("csr_rebuilds", 0),
        "planner.csr_compactions": planner.get("csr_compactions", 0),
        "timing.price_s": total("timing.price"),
        "comdml.plan_round_s": total("comdml.plan_round"),
        "comdml.units_self_s": recorder.self_time("comdml.plan_round"),
        "trace.record_s": total("trace.record"),
        "trace.emitted": runtime["trace.emitted"],
        "trace.retained": runtime["trace.retained"],
        "trace.dropped": runtime["trace.dropped"],
        "learning.participation_s": total("learning.participation"),
        "learning.after_round_s": total("learning.after_round"),
        "engine.run_until_s": total("engine.run_until"),
        "engine.step_s": total("engine.step", exclude_parent="engine.run_until"),
        "engine.processed_events": runtime["engine.processed_events"],
        "quorum.kept_ratio": kept / (kept + dropped) if kept + dropped else 1.0,
        "dynamics.wire_s": total("dynamics.wire"),
        "dynamics.reprice_s": total("dynamics.reprice"),
        "dynamics.repriced": counters["dynamics.repriced"],
        "dynamics.arrivals": counters["dynamics.arrivals"],
        "dynamics.departures": counters["dynamics.departures"],
        "dynamics.abandoned": counters["dynamics.abandoned"],
        "campaign.plan_s": total("campaign.plan"),
        "campaign.cache_store_s": total("campaign.cache_store"),
        "campaign.cache_load_s": total("campaign.cache_load"),
        "fingerprint.s": total("fingerprint"),
    }
    for (name, _), (calls, seconds, _) in recorder.totals.items():
        if name.startswith("baselines."):
            key = f"{name}_s"
            metrics[key] = metrics.get(key, 0.0) + seconds
    campaign = rep.get("campaign")
    if campaign is not None:
        metrics["campaign.hits"] = campaign["hits"]
        metrics["campaign.misses"] = campaign["misses"]
        for method, seconds in campaign["cell_s"].items():
            metrics[f"campaign.cell_s.{method}"] = seconds
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", required=True, choices=("stepped", "campaign"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cache-dir", required=True, help="campaign cache, relative to the repository root"
    )
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    recorder = SpanRecorder() if args.trace else None
    run = run_stepped if args.kind == "stepped" else run_campaign
    rep = run(args, recorder)
    rep.update(kind=args.kind, traced=bool(args.trace))
    warm_reruns(args, rep)
    if recorder is not None:
        rep["layers"] = layer_metrics(recorder, rep)
        recorder.dump(OUT / "spans" / f"{args.workload}-{args.kind}.json")
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
