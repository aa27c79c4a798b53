"""Workload definitions of the end-to-end benchmark.

Standard library only: ``run.py`` imports this module before it knows
whether the repository's sources are present.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

#: The methods of ``repro.experiments.runner.PAPER_COMPARISON_METHODS``.
PAPER_METHODS = ("ComDML", "Gossip Learning", "BrainTorrent", "AllReduce", "FedAvg")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``stepped`` workloads time their rounds by stepping
    ``run_round(i)`` on a method built through
    ``build_scenario`` → ``ExperimentRunner.build_method``; every run also
    makes one pass through ``CampaignExecutor`` to check the stepped digest
    against ``comparison.run_campaign_cell`` and to time the warm re-run.
    Campaign workloads (``stepped=False``) only run ``CampaignExecutor``.
    """

    why: str
    methods: tuple[str, ...]
    scenario: dict[str, Any]
    stepped: bool = True
    #: ``DynamicsSchedule.poisson`` rates and horizon, or ``None``.
    dynamics: Optional[dict[str, Any]] = None
    #: Overrides that shrink the workload for the self-tests.
    tiny: dict[str, Any] = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    # Topology writes, incremental CSR edits, re-pricing and engine event
    # dispatch interleave with planning reads.
    "churn-2000": Workload(
        why="ComDML semi-sync fixed quorum, ring, 2000 agents, 30 rounds, "
        "Poisson arrivals 0.5/s and departures 0.3/s over 1500 s, random-k "
        "attachment",
        methods=("ComDML",),
        scenario={
            "num_agents": 2000,
            "topology": "ring",
            "max_rounds": 30,
            "execution_mode": "semi-sync",
            "quorum_policy": "fixed",
        },
        dynamics={
            "horizon": 1500.0,
            "arrival_rate": 0.5,
            "departure_rate": 0.3,
            "attachment": "random-k",
        },
        tiny={"num_agents": 60, "max_rounds": 5, "horizon": 60.0},
    ),
    # The only workload that runs the baselines and the campaign cache's
    # write-then-read path; a ComDML-only change should not move it.
    "paper-compare-300": Workload(
        why="all five paper methods, full topology, 300 agents, 30 rounds, "
        "churn 0.2 every 10 rounds, via CampaignExecutor (serial, cold cache) "
        "then a warm re-run",
        methods=PAPER_METHODS,
        scenario={
            "num_agents": 300,
            "topology": "full",
            "max_rounds": 30,
            "churn_fraction": 0.2,
            "churn_interval_rounds": 10,
        },
        stepped=False,
        tiny={"num_agents": 12, "max_rounds": 4},
    ),
}


def derive_seed(seed: int, stream: str) -> int:
    """A 31-bit seed for one named input stream of a workload seed."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def scenario_params(name: str, seed: int, tiny: bool = False) -> dict[str, Any]:
    """``ScenarioConfig`` keyword arguments of a workload at a seed."""
    workload = WORKLOADS[name]
    params = dict(workload.scenario, seed=seed)
    if tiny:
        params.update(
            (key, value)
            for key, value in workload.tiny.items()
            if key in ("num_agents", "max_rounds")
        )
    return params


def dynamics_params(name: str, seed: int, tiny: bool = False) -> Optional[dict[str, Any]]:
    """``DynamicsSchedule.poisson`` keyword arguments, or ``None``.

    New agents get ids from ``num_agents`` up, above the initial ids
    ``0 .. num_agents-1``, which are the departure candidates.
    """
    workload = WORKLOADS[name]
    if workload.dynamics is None:
        return None
    num_agents = scenario_params(name, seed, tiny)["num_agents"]
    params = dict(workload.dynamics)
    if tiny and "horizon" in workload.tiny:
        params["horizon"] = workload.tiny["horizon"]
    params.update(
        seed=derive_seed(seed, "dynamics"),
        departure_candidates=tuple(range(num_agents)),
        id_start=num_agents,
    )
    return params
