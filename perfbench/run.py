"""End-to-end benchmark of the ComDML simulator.

Run from the repository root::

    python3 perfbench/run.py --workload churn-2000 --seed 1 --seconds 60 --trace 0

Each rep of the workload runs in a fresh interpreter (``worker.py``), one
after another, until ``--seconds`` have passed and the minimum rep count is
met.  Stepped workloads make one campaign rep first (it checks the stepped
digest against ``comparison.run_campaign_cell`` and times the warm re-run)
and then stepped reps.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics, measured with tracing off; with ``--trace 1`` untraced
and traced reps alternate and it reports the per-layer metrics and the
tracing overhead.  Every run checks the program's outputs: history and
campaign payload digests repeat across reps (traced or not), cold and warm
campaign runs agree, and every trace's accounting conserves its events.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import slug  # noqa: E402
from workloads import PAPER_METHODS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
#: Every run, its reps included, ends within this many seconds.
DEADLINE_S = 170.0

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("round_ms.p50", "ms"),
    ("round_ms.p90", "ms"),
    ("agent_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("rerun_s", "s"),
    ("ok_frac", "ratio"),
)

_BASELINES = tuple(method for method in PAPER_METHODS if method != "ComDML")

#: (name, unit) of the per-layer metrics, reported with ``--trace 1``.
PER_LAYER = (
    ("import_s", "s"),
    ("topology.build_s", "s"),
    ("topology.edges", "count"),
    ("scenarios.build_s", "s"),
    ("scenarios.registry_s", "s"),
    ("runner.build_method_s", "s"),
    ("scheduler.select_s", "s"),
    ("scheduler.participants", "count"),
    ("scheduler.plan_s", "s"),
    ("planner.plan_s", "s"),
    ("planner.invalidate_s", "s"),
    ("planner.rows_recomputed", "count"),
    ("planner.rows_reused", "count"),
    ("planner.row_reuse_ratio", "ratio"),
    ("planner.pairs_evaluated", "count"),
    ("planner.csr_edits", "count"),
    ("planner.csr_rebuilds", "count"),
    ("planner.csr_compactions", "count"),
    ("timing.price_s", "s"),
    ("comdml.plan_round_s", "s"),
    ("comdml.units_self_s", "s"),
    ("trace.record_s", "s"),
    ("trace.emitted", "count"),
    ("trace.retained", "count"),
    ("trace.dropped", "count"),
    ("learning.participation_s", "s"),
    ("learning.after_round_s", "s"),
    ("engine.run_until_s", "s"),
    ("engine.step_s", "s"),
    ("engine.processed_events", "count"),
    ("quorum.kept_ratio", "ratio"),
    ("dynamics.wire_s", "s"),
    ("dynamics.reprice_s", "s"),
    ("dynamics.repriced", "count"),
    ("dynamics.arrivals", "count"),
    ("dynamics.departures", "count"),
    ("dynamics.abandoned", "count"),
    *((f"baselines.{slug(method)}.plan_round_s", "s") for method in _BASELINES),
    ("campaign.plan_s", "s"),
    ("campaign.cache_store_s", "s"),
    ("campaign.cache_load_s", "s"),
    ("campaign.hits", "count"),
    ("campaign.misses", "count"),
    *((f"campaign.cell_s.{slug(method)}", "s") for method in PAPER_METHODS),
    ("fingerprint.s", "s"),
    ("trace.overhead_s", "s"),
)

#: Per-layer metrics that only campaign reps produce.
_CAMPAIGN_LAYERS = ("campaign.", "fingerprint.")


# ----------------------------------------------------------------------
# Reps
# ----------------------------------------------------------------------
def rep_plan(workload: str, trace: bool):
    """Yield ``(kind, traced, required)`` for each rep, in order, forever."""
    stepped = WORKLOADS[workload].stepped
    main = "stepped" if stepped else "campaign"
    if stepped:
        yield "campaign", trace, True
    if trace:
        # Untraced and traced reps alternate, so drift hits both alike.
        yield main, False, True
        yield main, True, True
        while True:
            yield main, False, False
            yield main, True, False
    for _ in range(3):
        yield main, False, True
    while True:
        yield main, False, False


def run_rep(
    workload: str, seed: int, kind: str, traced: bool, tiny: bool, cache_dir: str, timeout: float
) -> dict:
    """Run one rep in a fresh interpreter and return its JSON result."""
    command = [
        sys.executable,
        str(WORKER),
        "--workload", workload,
        "--seed", str(seed),
        "--kind", kind,
        "--trace", "1" if traced else "0",
        "--cache-dir", cache_dir,
    ]
    if tiny:
        command.append("--tiny")
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{kind} rep of {workload} exited with {completed.returncode}:\n"
            + completed.stderr[-4000:]
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> list[dict]:
    """Run reps until ``seconds`` have passed and every required rep ran.

    A rep is not started when the last rep of its kind says it would end
    past the budget, so a run overshoots ``seconds`` only for required reps.
    """
    started = time.perf_counter()
    reps: list[dict] = []
    last: dict[tuple[str, bool], float] = {}
    cache_dir = Path(".perfbench") / "cache" / f"{workload}-{os.getpid()}"
    try:
        for kind, traced, required in rep_plan(workload, trace):
            elapsed = time.perf_counter() - started
            if not required and elapsed + last.get((kind, traced), 0.0) > seconds:
                break
            begin = time.perf_counter()
            reps.append(
                run_rep(
                    workload, seed, kind, traced, tiny, str(cache_dir),
                    max(1.0, DEADLINE_S - elapsed),
                )
            )
            last[(kind, traced)] = time.perf_counter() - begin
    finally:
        shutil.rmtree(ROOT / cache_dir, ignore_errors=True)
    return reps


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check(reps: list[dict]) -> list[tuple[int, str]]:
    """Output problems as ``(rep index, message)``; empty when all is well.

    Every rep's own checks, plus: each method's history digest is the same
    in every rep (stepped or campaign, traced or not), and each campaign
    payload digest is the same in every campaign rep.
    """
    problems = [(index, message) for index, rep in enumerate(reps) for message in rep["problems"]]
    for field in ("history_digests", "payload_digests"):
        reference: dict[str, str] = {}
        for index, rep in enumerate(reps):
            for method, digest in rep.get(field, {}).items():
                expected = reference.setdefault(method, digest)
                if digest != expected:
                    problems.append(
                        (index, f"{method} {field[:-1]} {digest[:12]} != {expected[:12]}")
                    )
    return problems


def digests(reps: list[dict]) -> dict[str, dict[str, str]]:
    """The history and payload digests of the first rep that has each."""
    found: dict[str, dict[str, str]] = {"history": {}, "payload": {}}
    for rep in reps:
        for field, target in (("history_digests", "history"), ("payload_digests", "payload")):
            for method, digest in rep.get(field, {}).items():
                found[target].setdefault(method, digest)
    return found


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(samples: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``samples``."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def rep_figures(rep: dict) -> dict[str, float]:
    """The end-to-end timings and memory of one rep."""
    return {
        "wall_s": rep["wall_s"],
        "setup_s": rep["setup_s"],
        "round_ms.p50": 1000.0 * percentile(rep["round_s"], 50),
        "round_ms.p90": 1000.0 * percentile(rep["round_s"], 90),
        "agent_rounds_per_s": rep["agent_rounds"] / sum(rep["round_s"]),
        "peak_rss_mb": rep["peak_rss_mb"],
        "rerun_s": statistics.median(rep["rerun_s"]),
    }


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without their lowest and highest (with three or more)."""
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


def end_to_end(reps: list[dict], failed: int, attempted: int) -> tuple[dict, dict]:
    """End-to-end metric values, and the sample count behind each.

    Each figure is taken per main rep, and the run reports its mean over
    those reps without the lowest and the highest.  The host's speed
    drifts by tens of percent over seconds: a percentile of rounds pooled
    across reps would sit inside whichever rep ran slowest, and a median
    of reps jumps between fast and slow stretches, while the trimmed mean
    drops one outlying rep at each end and averages the drift of the rest.
    """
    main = [rep for rep in reps if rep["kind"] == "stepped"] or reps
    figures = [rep_figures(rep) for rep in main]
    values = {name: trimmed_mean([f[name] for f in figures]) for name in figures[0]}
    values["ok_frac"] = 1.0 - failed / attempted
    samples = {name: len(main) for name in values}
    samples["ok_frac"] = attempted
    return values, samples


def per_layer(reps: list[dict]) -> tuple[dict, dict]:
    """Per-layer medians over traced reps, plus the tracing overhead."""
    has_stepped = any(rep["kind"] == "stepped" for rep in reps)
    main = "stepped" if has_stepped else "campaign"
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    for name, _ in PER_LAYER:
        kind = "campaign" if name.startswith(_CAMPAIGN_LAYERS) else main
        found = [
            rep["layers"].get(name, 0)
            for rep in reps
            if rep["traced"] and rep["kind"] == kind
        ]
        values[name] = statistics.median(found) if found else 0
        samples[name] = len(found)
    traced = [rep["wall_s"] for rep in reps if rep["traced"] and rep["kind"] == main]
    untraced = [rep["wall_s"] for rep in reps if not rep["traced"] and rep["kind"] == main]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    samples["trace.overhead_s"] = len(traced) + len(untraced)
    return values, samples


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance() -> dict[str, Any]:
    """Commit, tree and toolchain this run measured."""
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode("utf-8"))
        sources.update(path.read_bytes())
    record: dict[str, Any] = {
        "commit": None,
        "diff_sha256": None,
        "src_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            record["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
            diff = subprocess.run(
                ["git", "diff", "HEAD"], cwd=ROOT, env=env,
                capture_output=True, check=True, timeout=30,
            ).stdout
        except (OSError, subprocess.SubprocessError):
            diff = b""
        if diff:
            record["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    for package in ("numpy", "networkx"):
        try:
            record[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            record[package] = None
    return record


# ----------------------------------------------------------------------
def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the ComDML simulator.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        reps = collect(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    problems = check(reps)
    attempted = sum(1 + rep.get("cells", 0) for rep in reps)
    failed = len({index for index, _ in problems})
    for index, message in problems:
        print(f"CHECK FAILED (rep {index}, {reps[index]['kind']}): {message}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  reps {len(reps)}")
    for index, rep in enumerate(reps):
        print(f"rep {index:>2} {rep['kind']}{'+T' if rep['traced'] else '':<3} "
              + "  ".join(f"{name} {value:.4g}" for name, value in rep_figures(rep).items()))
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print("digests " + json.dumps(digests(reps), sort_keys=True))
    if args.trace:
        values, samples = per_layer(reps)
        units = dict(PER_LAYER)
    else:
        values, samples = end_to_end(reps, failed, attempted)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"  {name:<40} {_format(value):>14} {units[name]:<6} (n={samples[name]})")
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
