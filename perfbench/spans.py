"""In-memory spans around the public functions of each layer.

A :class:`SpanRecorder` replaces a function or method with a wrapper that
times each call and records ``(name, start, end, parent)``.  Nothing under
``src/`` is edited: functions that callers import by name are wrapped in
the caller's namespace.  A layer's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional


def slug(method: str) -> str:
    """A method name in metric-name characters (``Gossip Learning`` → ``gossip-learning``)."""
    return re.sub(r"[^a-z0-9_.-]+", "-", method.lower()).strip("-")


class SpanRecorder:
    """Records spans and counters at the wrapped layer boundaries."""

    def __init__(self) -> None:
        #: Kept spans ``(name, start, end, parent index or -1)``.
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        #: ``(name, parent name)`` → ``[calls, total seconds, self seconds]``.
        self.totals: dict[tuple[str, Optional[str]], list] = {}
        self.counters: defaultdict[str, float] = defaultdict(int)
        self._stack: list[list] = []

    # ------------------------------------------------------------------
    def _open(self, name: str, keep: bool) -> list:
        frame = [name, 0.0, 0.0, -1]  # name, start, child seconds, span index
        if keep:
            frame[3] = len(self.spans)
            self.spans.append(None)
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - frame[1]
        if parent is not None:
            parent[2] += duration
        key = (frame[0], parent[0] if parent is not None else None)
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]
        if frame[3] >= 0:
            self.spans[frame[3]] = (
                frame[0],
                frame[1],
                end,
                parent[3] if parent is not None else -1,
            )

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        frame = self._open(name, True)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        keep: bool = True,
        original: Optional[Callable] = None,
        on_call: Optional[Callable[[defaultdict, tuple, dict], None]] = None,
        on_result: Optional[Callable[[defaultdict, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (module function or class method) by a timed wrapper.

        ``keep=False`` aggregates the calls without keeping one span per
        call, for functions called once per agent and round.
        """
        target = original if original is not None else getattr(owner, attr)
        counters = self.counters
        recorder = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(counters, args, kwargs)
            frame = recorder._open(name, keep)
            try:
                result = target(*args, **kwargs)
            finally:
                recorder._close(frame)
            if on_result is not None:
                on_result(counters, result)
            return result

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    def total(self, name: str, exclude_parent: Optional[str] = None) -> float:
        """Seconds in spans called ``name`` (optionally not under ``exclude_parent``)."""
        return sum(
            entry[1]
            for (span, parent), entry in self.totals.items()
            if span == name and (exclude_parent is None or parent != exclude_parent)
        )

    def self_time(self, name: str) -> float:
        """Seconds in spans called ``name`` not covered by their child spans."""
        return sum(
            entry[2] for (span, _), entry in self.totals.items() if span == name
        )

    def dump(self, path: Path) -> None:
        """Write kept spans and per-name totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent"],
            "spans": [span for span in self.spans if span is not None],
            "totals": [
                {"name": span, "parent": parent, "calls": calls, "total_s": total, "self_s": own}
                for (span, parent), (calls, total, own) in sorted(
                    self.totals.items(), key=lambda item: (item[0][0], str(item[0][1]))
                )
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# Counters taken at the wrapped boundaries
# ----------------------------------------------------------------------
def _count_edges(counters, topology) -> None:
    counters["topology.edges"] += topology.num_edges


def _count_participants(counters, participants) -> None:
    counters["scheduler.participants"] += len(participants)


def _count_repriced(counters, _price) -> None:
    counters["dynamics.repriced"] += 1


#: Trace event kinds counted as they are recorded (the in-memory view is capped).
_TRACE_KINDS = {
    "arrival": "dynamics.arrivals",
    "departure": "dynamics.departures",
    "unit_abandoned": "dynamics.abandoned",
    "straggler_dropped": "quorum.dropped",
}


def _count_trace_kind(counters, args, kwargs) -> None:
    kind = args[3] if len(args) > 3 else kwargs.get("kind")
    counter = _TRACE_KINDS.get(kind)
    if counter is not None:
        counters[counter] += 1
    elif kind == "quorum_reached":
        detail = args[5] if len(args) > 5 else kwargs.get("detail")
        counters["quorum.kept"] += detail["kept"]


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    import repro.core.comdml as comdml_module
    import repro.experiments.campaign as campaign_module
    import repro.experiments.runner as runner_module
    import repro.experiments.scenarios as scenarios_module
    import repro.runtime.runtime as runtime_module
    from repro.core.comdml import ComDML
    from repro.core.planner import PrunedPlanner
    from repro.core.scheduler import DecentralizedPairingScheduler
    from repro.runtime.trace import EventTrace
    from repro.sim.engine import SimulationEngine
    from repro.training.accuracy import CurveAccuracyTracker

    wrap = recorder.wrap
    # network.topology, through the namespace build_scenario calls it in.
    for builder in ("full_topology", "ring_topology", "random_topology"):
        wrap(scenarios_module, builder, "topology.build", on_result=_count_edges)
    # experiments.scenarios / experiments.runner
    wrap(scenarios_module, "build_scenario", "scenarios.build")
    wrap(runner_module, "build_scenario", "scenarios.build")
    wrap(scenarios_module.Scenario, "fresh_registry", "scenarios.registry")
    wrap(runner_module.ExperimentRunner, "build_method", "runner.build_method")
    # core.scheduler / core.planner
    wrap(
        DecentralizedPairingScheduler,
        "select_participants",
        "scheduler.select",
        on_result=_count_participants,
    )
    wrap(DecentralizedPairingScheduler, "plan_round", "scheduler.plan")
    wrap(PrunedPlanner, "plan", "planner.plan")
    wrap(PrunedPlanner, "invalidate_topology", "planner.invalidate")
    # core.timing, imported by name into core.comdml; core.comdml itself.
    wrap(comdml_module, "compute_round_timing", "timing.price")
    wrap(ComDML, "plan_round", "comdml.plan_round")
    # runtime.trace: one call per event, so aggregated, not kept.
    wrap(EventTrace, "record", "trace.record", keep=False, on_call=_count_trace_kind)
    # learning plane; participation_fraction is imported by name into runtime.
    wrap(runtime_module, "participation_fraction", "learning.participation")
    wrap(CurveAccuracyTracker, "after_round", "learning.after_round")
    # sim.engine
    wrap(SimulationEngine, "run_until", "engine.run_until")
    wrap(SimulationEngine, "step", "engine.step")
    # runtime.dynamics, through the ComDML hooks.
    wrap(ComDML, "on_agent_arrival", "dynamics.wire")
    wrap(ComDML, "on_agent_departure", "dynamics.wire")
    wrap(ComDML, "reprice_unit", "dynamics.reprice", on_result=_count_repriced)
    # baselines: take every original first, since subclasses may inherit.
    baselines = {
        method: cls
        for method, (cls, _) in runner_module.METHOD_REGISTRY.items()
        if cls is not ComDML
    }
    originals = {method: cls.plan_round for method, cls in baselines.items()}
    for method, cls in baselines.items():
        wrap(
            cls,
            "plan_round",
            f"baselines.{slug(method)}.plan_round",
            original=originals[method],
        )
    # experiments.campaign / experiments.fingerprint
    wrap(campaign_module.CampaignExecutor, "plan", "campaign.plan")
    wrap(campaign_module.CampaignCache, "store", "campaign.cache_store")
    wrap(campaign_module.CampaignCache, "load", "campaign.cache_load")
    wrap(campaign_module, "runner_fingerprint", "fingerprint")
