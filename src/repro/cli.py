"""Command-line interface for running the paper's experiments.

Installed as the ``comdml`` console script (also runnable as
``python -m repro.cli``).  Every experiment subcommand is a thin alias that
builds a :class:`~repro.experiments.campaign.CampaignSpec` and executes it
on the shared :class:`~repro.experiments.campaign.CampaignExecutor`, so all
of them accept the campaign execution flags: ``--jobs``, ``--cache-dir``
(default also via ``$COMDML_CACHE_DIR``), ``--backend``
(``serial``/``thread``/``process``/``worker-pool``), and
``--progress/--no-progress`` (live cell-level event streaming to stderr):

.. code-block:: console

   comdml compare  --agents 10 --dataset cifar10 --target 0.9
   comdml compare  --mode semi-sync --quorum-policy deadline --schedule sched.json
   comdml table2   --datasets cifar10 --methods ComDML FedAvg --jobs 4
   comdml table3   --models resnet56 --agent-counts 20 50 --backend thread --jobs 8
   comdml campaign run table2 --jobs 4 --progress
   comdml campaign run my_sweep.json --backend worker-pool --bind 0.0.0.0:8765
   comdml worker serve --host coordinator.example --port 8765     # on each host
   comdml campaign show my_sweep.json
   comdml campaign clean
   comdml schedule poisson --horizon 20000 --arrival-rate 0.001 --out sched.json
   comdml trace record --out run.jsonl --mode semi-sync --max-rounds 10
   comdml trace verify run.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import comparison, fig1, fig3, privacy, table1, table2, table3
from repro.experiments.backends import (
    EXECUTION_BACKENDS,
    WorkerPoolBackend,
    serve_worker,
)
from repro.experiments.campaign import (
    CAMPAIGN_PRESETS,
    CampaignCache,
    CampaignExecutor,
    CampaignSpec,
    DEFAULT_CACHE_DIR,
    atomic_write_json,
    execute_campaign,
    resolve_cache_dir,
    resolve_preset,
)
from repro.experiments.reporting import (
    campaign_summary,
    cell_label,
    execution_report,
    format_campaign_summary,
    format_table,
    progress_renderer_for,
)
from repro.experiments.runner import METHOD_REGISTRY, PAPER_COMPARISON_METHODS
from repro.runtime.dynamics import ATTACHMENT_POLICIES, DynamicsSchedule
from repro.utils.logging import configure_logging

#: Columns of the ``compare`` table, in display order.
_COMPARE_COLUMNS = (
    "method",
    "rounds",
    "time_to_target_s",
    "total_time_s",
    "final_accuracy",
    "events",
)

#: Float formats of the ``compare`` table columns that are not whole
#: seconds or counts (every other float column renders with ``{:.0f}``).
_COMPARE_FORMATS = {"final_accuracy": "{:.4f}"}


def _add_common_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write machine-readable results to this JSON file",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")


def _add_methods_option(parser: argparse.ArgumentParser) -> None:
    """``--methods``: unknown names are a usage error (exit 2) listing the
    valid ones, raised before any population is built."""
    parser.add_argument(
        "--methods",
        nargs="+",
        choices=tuple(METHOD_REGISTRY),
        default=list(PAPER_COMPARISON_METHODS),
        metavar="METHOD",
        help=f"training methods to run (from: {', '.join(METHOD_REGISTRY)})",
    )


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallelism for the thread/process backends (1 = run inline)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache finished cells under this directory "
        "(defaults to $COMDML_CACHE_DIR when set)",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(EXECUTION_BACKENDS),
        default=None,
        help="execution backend (default: process when --jobs > 1, else serial)",
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="worker-pool only: coordinator bind address HOST:PORT "
        "(port 0 picks a free port, printed at startup)",
    )
    parser.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="stream cell-level progress events to stderr "
        "(default: only when stderr is a TTY)",
    )


def _parse_bind(bind: str) -> tuple[str, int]:
    host, _, port = bind.rpartition(":")
    if not port.isdigit() or not 0 <= int(port) <= 65535:
        raise SystemExit(
            f"error: --bind must look like HOST:PORT (port 0-65535), got {bind!r}"
        )
    return host or "127.0.0.1", int(port)


def _resolve_backend_arg(args: argparse.Namespace):
    """Turn ``--backend``/``--bind`` into what the executor accepts."""
    if args.backend != "worker-pool":
        return args.backend
    host, port = _parse_bind(args.bind)
    backend = WorkerPoolBackend(host=host, port=port)
    host, port = backend.address
    # A wildcard bind is reachable on every interface but dialable on none —
    # tell the operator to substitute a real coordinator address.
    reach = "<coordinator-host>" if host in ("0.0.0.0", "::", "") else host
    print(
        f"worker-pool coordinator listening on {host}:{port} — attach workers "
        f"with: comdml worker serve --host {reach} --port {port}",
        file=sys.stderr,
    )
    return backend


def _campaign_execution(
    args: argparse.Namespace,
    spec: CampaignSpec,
    cache_fallback: Optional[str] = None,
):
    """Shared execution kwargs + renderer for one campaign-backed command."""
    renderer = progress_renderer_for(spec, enabled=args.progress)
    kwargs = {
        "jobs": args.jobs,
        "cache_dir": resolve_cache_dir(args.cache_dir, cache_fallback),
        "backend": _resolve_backend_arg(args),
        "on_event": renderer,
    }
    return kwargs, renderer


def _maybe_write_json(path: Optional[str], payload) -> None:
    """Write ``payload`` as JSON, creating parent directories and replacing
    the target atomically so an interrupted run can never leave a truncated
    results file behind."""
    if path is None:
        return
    atomic_write_json(Path(path), payload, default=lambda obj: obj.__dict__)
    print(f"\nwrote {path}")


# ----------------------------------------------------------------------
# Experiment subcommands (campaign aliases)
# ----------------------------------------------------------------------

def _cmd_compare(args: argparse.Namespace) -> int:
    schedule = None
    if args.schedule is not None:
        with open(args.schedule, "r", encoding="utf-8") as handle:
            schedule = json.load(handle)
    spec = comparison.campaign_spec(
        methods=tuple(args.methods),
        schedule=schedule,
        num_agents=args.agents,
        dataset=args.dataset,
        model=args.model,
        iid=not args.non_iid,
        target_accuracy=args.target,
        max_rounds=args.max_rounds,
        churn_fraction=args.churn,
        churn_interval_rounds=args.churn_interval,
        participation_fraction=args.participation,
        offload_granularity=args.granularity,
        execution_mode=args.mode,
        quorum_fraction=args.quorum,
        quorum_policy=args.quorum_policy,
        quorum_deadline_factor=args.deadline_factor,
        seed=args.seed,
    )
    kwargs, renderer = _campaign_execution(args, spec)
    try:
        result = execute_campaign(spec, **kwargs)
    finally:
        if renderer is not None:
            renderer.close()
    rows = result.payloads()
    print(
        format_table(rows, columns=_COMPARE_COLUMNS, column_formats=_COMPARE_FORMATS)
    )
    if args.target and any(row["method"] == "ComDML" for row in rows):
        print()
        speedups = comparison.speedups_from_payloads(rows, args.target)
        for method, speedup in speedups.items():
            print(f"ComDML is {speedup:.2f}x faster than {method}")
    # Export only the displayed columns: the payload's bookkeeping extras
    # (exact total time, history digest) would break pre-refactor JSON parity.
    _maybe_write_json(
        args.json_path,
        [{column: row[column] for column in _COMPARE_COLUMNS} for row in rows],
    )
    return 0


def _run_harness_campaign(args: argparse.Namespace, spec: CampaignSpec):
    """Execute one experiment harness spec with the shared campaign flags."""
    kwargs, renderer = _campaign_execution(args, spec)
    try:
        return execute_campaign(spec, **kwargs)
    finally:
        if renderer is not None:
            renderer.close()


def _cmd_table1(args: argparse.Namespace) -> int:
    spec = table1.campaign_spec(samples_per_agent=args.samples, seed=args.seed)
    results = table1.results_from_campaign(_run_harness_campaign(args, spec))
    print(table1.format_table1(results))
    _maybe_write_json(
        args.json_path,
        {name: [row.__dict__ for row in rows] for name, rows in results.items()},
    )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    spec = table2.campaign_spec(
        datasets=args.datasets,
        methods=args.methods,
        num_agents=args.agents,
        seed=args.seed,
    )
    cells = table2.cells_from_campaign(_run_harness_campaign(args, spec))
    print(table2.format_table2(cells))
    _maybe_write_json(args.json_path, [cell.__dict__ for cell in cells])
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    spec = table3.campaign_spec(
        models=args.models,
        agent_counts=args.agent_counts,
        methods=args.methods,
        seed=args.seed,
    )
    cells = table3.cells_from_campaign(_run_harness_campaign(args, spec))
    print(table3.format_table3(cells))
    _maybe_write_json(args.json_path, [cell.__dict__ for cell in cells])
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    spec = fig1.campaign_spec(
        slow_cpu=args.slow_cpu,
        fast_cpu=args.fast_cpu,
        bandwidth_mbps=args.bandwidth,
    )
    result = _run_harness_campaign(args, spec)
    [timeline] = fig1.timelines_from_campaign(result)
    print(fig1.format_fig1(timeline))
    _maybe_write_json(args.json_path, timeline.__dict__)
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    spec = fig3.campaign_spec(
        datasets=args.datasets, methods=args.methods, seed=args.seed
    )
    bars = fig3.bars_from_campaign(_run_harness_campaign(args, spec))
    print(fig3.format_fig3(bars))
    _maybe_write_json(args.json_path, [bar.__dict__ for bar in bars])
    return 0


def _cmd_privacy(args: argparse.Namespace) -> int:
    spec = privacy.campaign_spec(
        num_agents=args.agents, rounds=args.rounds, seed=args.seed
    )
    results = privacy.results_from_campaign(_run_harness_campaign(args, spec))
    print(privacy.format_privacy_results(results))
    _maybe_write_json(args.json_path, [result.__dict__ for result in results])
    return 0


# ----------------------------------------------------------------------
# Generic campaign subcommand family
# ----------------------------------------------------------------------

def _resolve_spec(spec_arg: str):
    """Resolve a spec argument: preset name or path to a spec JSON file.

    Returns ``(spec, preset or None)``.
    """
    if spec_arg in CAMPAIGN_PRESETS:
        preset = resolve_preset(spec_arg)
        return preset.build_spec(), preset
    path = Path(spec_arg)
    if not path.exists():
        raise SystemExit(
            f"error: {spec_arg!r} is neither a campaign preset "
            f"({', '.join(sorted(CAMPAIGN_PRESETS))}) nor a spec file"
        )
    return CampaignSpec.load(path), None


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    spec, preset = _resolve_spec(args.spec)
    if args.save_spec:
        spec.save(args.save_spec)
        print(f"wrote {args.save_spec}")
    kwargs, renderer = _campaign_execution(args, spec, cache_fallback=DEFAULT_CACHE_DIR)
    executor = CampaignExecutor(spec, **kwargs)
    try:
        result = executor.run(force=args.force)
    finally:
        if renderer is not None:
            renderer.close()
    if preset is not None:
        print(preset.format_result(result))
        print()
    print(format_campaign_summary(result, verbose=preset is None))
    if args.summary_json:
        _maybe_write_json(args.summary_json, campaign_summary(result))
    if args.report_json:
        _maybe_write_json(args.report_json, execution_report(result))
    _maybe_write_json(args.json_path, result.payloads())
    return 0


def _cmd_campaign_show(args: argparse.Namespace) -> int:
    spec, _ = _resolve_spec(args.spec)
    cache_dir = resolve_cache_dir(args.cache_dir, DEFAULT_CACHE_DIR)
    executor = CampaignExecutor(spec, cache_dir=cache_dir, jobs=1)
    plan = executor.plan()
    cached = sum(1 for _, _, _, entry in plan if entry is not None)
    print(f"campaign {spec.name} (runner {spec.runner}): {len(plan)} cells, "
          f"{cached} cached in {cache_dir}")
    axes = [axis for axis, _ in spec.axes]
    for index, params, key, entry in plan:
        status = "cached" if entry is not None else "pending"
        print(f"  [{index:3d}] {status:8s} {key[:12]}  {cell_label(params, axes)}")
    return 0


def _cmd_campaign_clean(args: argparse.Namespace) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir, DEFAULT_CACHE_DIR)
    removed = CampaignCache(cache_dir).clear()
    print(f"removed {removed} cached cell(s) from {cache_dir}")
    return 0


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------

def _cmd_worker_serve(args: argparse.Namespace) -> int:
    try:
        computed = serve_worker(
            args.host,
            args.port,
            name=args.name,
            capacity=args.capacity,
            retry_seconds=args.retry_seconds,
        )
    except OSError as error:
        print(
            f"error: could not attach to coordinator at {args.host}:{args.port}: "
            f"{error}",
            file=sys.stderr,
        )
        return 1
    print(f"worker detached after computing {computed} cell(s)")
    return 0


# ----------------------------------------------------------------------
# Sealed traces
# ----------------------------------------------------------------------

def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.scenarios import ScenarioConfig

    runner = ExperimentRunner(
        ScenarioConfig(
            num_agents=args.agents,
            dataset=args.dataset,
            model=args.model,
            max_rounds=args.max_rounds,
            execution_mode=args.mode,
            churn_fraction=args.churn,
            seed=args.seed,
        )
    )
    history = runner.run_method_sealed(
        args.method, args.out, segment_events=args.segment_events
    )
    print(
        f"recorded {len(history)} rounds of {args.method} ({args.mode}) "
        f"to sealed trace {args.out}"
    )
    print(f"history digest {history.digest()}")
    return 0


def _cmd_trace_verify(args: argparse.Namespace) -> int:
    from repro.runtime.audit import verify_sealed_jsonl

    result = verify_sealed_jsonl(args.path)
    if result.ok:
        print(
            f"OK: {args.path} verifies clean "
            f"({result.events} events, head {result.head})"
        )
        return 0
    print(f"TAMPERED: {args.path}: {result.error}", file=sys.stderr)
    if result.first_divergent_index is not None:
        print(
            f"first divergent event index: {result.first_divergent_index}",
            file=sys.stderr,
        )
    return 1


# ----------------------------------------------------------------------
# Schedule generation
# ----------------------------------------------------------------------

def _cmd_schedule_poisson(args: argparse.Namespace) -> int:
    schedule = DynamicsSchedule.poisson(
        horizon=args.horizon,
        arrival_rate=args.arrival_rate,
        departure_rate=args.departure_rate,
        seed=args.seed,
        departure_candidates=tuple(args.candidates),
        id_start=args.id_start,
        samples_per_agent=args.samples,
        attachment=args.attachment,
    )
    kinds = [event.kind for event in schedule]
    print(
        f"generated {len(schedule)} events over {args.horizon:.0f}s "
        f"({kinds.count('arrival')} arrivals, {kinds.count('departure')} departures)"
    )
    if args.out:
        schedule.save(args.out)
        print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="comdml",
        description="ComDML reproduction: run the paper's experiments from the command line.",
    )
    parser.add_argument("--verbose", action="store_true", help="enable info logging")
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser("compare", help="compare ComDML with baselines on one scenario")
    compare.add_argument("--agents", type=int, default=10)
    compare.add_argument("--dataset", choices=("cifar10", "cifar100", "cinic10"), default="cifar10")
    compare.add_argument("--model", choices=("resnet56", "resnet110"), default="resnet56")
    compare.add_argument("--non-iid", action="store_true", help="use the Dirichlet(0.5) label-skew variant")
    compare.add_argument("--target", type=float, default=0.9, help="target accuracy (0 disables)")
    compare.add_argument("--max-rounds", type=int, default=600)
    compare.add_argument("--churn", type=float, default=0.2, help="fraction of agents whose resources change")
    compare.add_argument(
        "--churn-interval",
        type=int,
        default=100,
        help="rounds between churn points (the paper uses 100)",
    )
    compare.add_argument("--participation", type=float, default=1.0)
    compare.add_argument("--granularity", type=int, default=6, help="split-candidate spacing in layers")
    compare.add_argument(
        "--mode",
        choices=("sync", "semi-sync", "async"),
        default="sync",
        help="runtime execution mode: full barrier, quorum rounds, or event-driven gossip",
    )
    compare.add_argument(
        "--quorum",
        type=float,
        default=0.8,
        help="fraction of work units that closes a semi-sync round",
    )
    compare.add_argument(
        "--quorum-policy",
        choices=("fixed", "deadline", "adaptive"),
        default="fixed",
        help="semi-sync quorum policy: fixed fraction, makespan deadline, or adaptive",
    )
    compare.add_argument(
        "--deadline-factor",
        type=float,
        default=1.5,
        help="deadline policy closes rounds at this multiple of the running makespan mean",
    )
    compare.add_argument(
        "--schedule",
        default=None,
        help="JSON DynamicsSchedule applied to every method's run (see 'comdml schedule')",
    )
    _add_methods_option(compare)
    _add_common_output_options(compare)
    _add_campaign_options(compare)
    compare.set_defaults(handler=_cmd_compare)

    table1_parser = subparsers.add_parser("table1", help="reproduce Table I")
    table1_parser.add_argument("--samples", type=int, default=25_000, help="samples per agent")
    _add_common_output_options(table1_parser)
    _add_campaign_options(table1_parser)
    table1_parser.set_defaults(handler=_cmd_table1)

    table2_parser = subparsers.add_parser("table2", help="reproduce Table II")
    table2_parser.add_argument("--datasets", nargs="+", default=["cifar10", "cifar100", "cinic10"])
    _add_methods_option(table2_parser)
    table2_parser.add_argument("--agents", type=int, default=10)
    _add_common_output_options(table2_parser)
    _add_campaign_options(table2_parser)
    table2_parser.set_defaults(handler=_cmd_table2)

    table3_parser = subparsers.add_parser("table3", help="reproduce Table III")
    table3_parser.add_argument("--models", nargs="+", default=["resnet56", "resnet110"])
    table3_parser.add_argument("--agent-counts", nargs="+", type=int, default=[20, 50, 100])
    _add_methods_option(table3_parser)
    _add_common_output_options(table3_parser)
    _add_campaign_options(table3_parser)
    table3_parser.set_defaults(handler=_cmd_table3)

    fig1_parser = subparsers.add_parser("fig1", help="reproduce the Figure 1 timeline")
    fig1_parser.add_argument("--slow-cpu", type=float, default=0.5)
    fig1_parser.add_argument("--fast-cpu", type=float, default=2.0)
    fig1_parser.add_argument("--bandwidth", type=float, default=50.0)
    _add_common_output_options(fig1_parser)
    _add_campaign_options(fig1_parser)
    fig1_parser.set_defaults(handler=_cmd_fig1)

    fig3_parser = subparsers.add_parser("fig3", help="reproduce Figure 3 (20%% connectivity)")
    fig3_parser.add_argument("--datasets", nargs="+", default=["cifar10", "cifar100", "cinic10"])
    _add_methods_option(fig3_parser)
    _add_common_output_options(fig3_parser)
    _add_campaign_options(fig3_parser)
    fig3_parser.set_defaults(handler=_cmd_fig3)

    privacy_parser = subparsers.add_parser("privacy", help="reproduce the privacy-integration comparison")
    privacy_parser.add_argument("--agents", type=int, default=8)
    privacy_parser.add_argument("--rounds", type=int, default=12)
    _add_common_output_options(privacy_parser)
    _add_campaign_options(privacy_parser)
    privacy_parser.set_defaults(handler=_cmd_privacy)

    campaign = subparsers.add_parser(
        "campaign", help="run/inspect/clean declarative experiment campaigns"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    run_parser = campaign_sub.add_parser(
        "run", help="execute a campaign (preset name or spec JSON file)"
    )
    run_parser.add_argument(
        "spec",
        help=f"campaign preset ({', '.join(sorted(CAMPAIGN_PRESETS))}) or spec JSON path",
    )
    _add_campaign_options(run_parser)
    run_parser.add_argument(
        "--force", action="store_true", help="recompute cells even when cached"
    )
    run_parser.add_argument(
        "--save-spec", default=None, help="also write the expanded spec JSON here"
    )
    run_parser.add_argument(
        "--summary-json",
        default=None,
        help="write the deterministic result summary (cell keys + payload digests; "
        "identical bytes for any backend/jobs/cache state) here",
    )
    run_parser.add_argument(
        "--report-json",
        default=None,
        help="write the execution report (backend, cache hits, timing, workers) here",
    )
    run_parser.add_argument(
        "--json", dest="json_path", default=None, help="write cell payloads here"
    )
    run_parser.set_defaults(handler=_cmd_campaign_run)

    show_parser = campaign_sub.add_parser(
        "show", help="expand a campaign and report each cell's cache status"
    )
    show_parser.add_argument("spec", help="campaign preset or spec JSON path")
    show_parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (defaults to $COMDML_CACHE_DIR, then .comdml-cache)",
    )
    show_parser.set_defaults(handler=_cmd_campaign_show)

    clean_parser = campaign_sub.add_parser("clean", help="delete the campaign cell cache")
    clean_parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (defaults to $COMDML_CACHE_DIR, then .comdml-cache)",
    )
    clean_parser.set_defaults(handler=_cmd_campaign_clean)

    worker = subparsers.add_parser(
        "worker", help="run a worker-pool execution worker"
    )
    worker_sub = worker.add_subparsers(dest="worker_command", required=True)
    serve_parser = worker_sub.add_parser(
        "serve",
        help="attach to a campaign coordinator and compute cells until shutdown",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="coordinator host")
    serve_parser.add_argument("--port", type=int, required=True, help="coordinator port")
    serve_parser.add_argument(
        "--name", default=None, help="worker name (default: hostname-pid)"
    )
    serve_parser.add_argument(
        "--capacity", type=int, default=1, help="cells this worker runs concurrently"
    )
    serve_parser.add_argument(
        "--retry-seconds",
        type=float,
        default=10.0,
        help="keep retrying the initial connection this long "
        "(workers may be started before the campaign)",
    )
    serve_parser.set_defaults(handler=_cmd_worker_serve)

    trace = subparsers.add_parser(
        "trace", help="record and verify tamper-evident sealed event traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    record_parser = trace_sub.add_parser(
        "record", help="run one method with a sealed JSONL trace sink"
    )
    record_parser.add_argument("--out", required=True, help="sealed trace path")
    record_parser.add_argument(
        "--method", default="ComDML", help="training method to run"
    )
    record_parser.add_argument("--agents", type=int, default=10)
    record_parser.add_argument(
        "--dataset", choices=("cifar10", "cifar100", "cinic10"), default="cifar10"
    )
    record_parser.add_argument(
        "--model", choices=("resnet56", "resnet110"), default="resnet56"
    )
    record_parser.add_argument("--max-rounds", type=int, default=20)
    record_parser.add_argument(
        "--mode", choices=("sync", "semi-sync", "async"), default="sync"
    )
    record_parser.add_argument(
        "--churn", type=float, default=0.0, help="churn fraction"
    )
    record_parser.add_argument(
        "--segment-events",
        type=int,
        default=None,
        help="events per sealed segment (default: config value)",
    )
    record_parser.add_argument("--seed", type=int, default=0)
    record_parser.set_defaults(handler=_cmd_trace_record)
    verify_parser = trace_sub.add_parser(
        "verify",
        help="re-derive a sealed trace's hash chain; exit 1 on tampering "
        "with the exact first divergent event index",
    )
    verify_parser.add_argument("path", help="sealed JSONL trace to verify")
    verify_parser.set_defaults(handler=_cmd_trace_verify)

    schedule = subparsers.add_parser(
        "schedule", help="generate dynamics schedules (save/load as JSON)"
    )
    schedule_sub = schedule.add_subparsers(dest="schedule_command", required=True)
    poisson_parser = schedule_sub.add_parser(
        "poisson", help="seeded Poisson arrival/departure schedule"
    )
    poisson_parser.add_argument("--horizon", type=float, required=True, help="simulated seconds")
    poisson_parser.add_argument("--arrival-rate", type=float, default=0.0, help="arrivals per second")
    poisson_parser.add_argument("--departure-rate", type=float, default=0.0, help="departures per second")
    poisson_parser.add_argument("--seed", type=int, default=0)
    poisson_parser.add_argument(
        "--candidates",
        nargs="*",
        type=int,
        default=[],
        help="initial agent ids eligible for departure",
    )
    poisson_parser.add_argument("--id-start", type=int, default=1000, help="first arrival id")
    poisson_parser.add_argument("--samples", type=int, default=500, help="samples per arriving agent")
    poisson_parser.add_argument(
        "--attachment",
        choices=ATTACHMENT_POLICIES,
        default="full",
        help="how arrivals are wired into the topology",
    )
    poisson_parser.add_argument("--out", default=None, help="write the schedule JSON here")
    poisson_parser.set_defaults(handler=_cmd_schedule_poisson)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging()
    if getattr(args, "target", None) == 0:
        args.target = None
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
