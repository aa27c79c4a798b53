"""Self-tests of the benchmark, at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` matches the metrics and workloads the code
reports, that a tiny run of every workload prints every named metric with
its unit in both modes, that traced and untraced runs agree on every
digest, that a tampered digest trips the output check, and that the
benchmark refuses to run where the repository's sources are missing.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def check_workload(workload: str) -> None:
    digest_lines = {}
    for trace, metrics in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        completed = bench(workload, trace)
        assert completed.returncode == 0, completed.stderr[-2000:]
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, completed.stdout[-2000:]
        assert result["attempted"] >= 1
        reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert reported == dict(metrics), sorted(set(reported) ^ set(dict(metrics)))
        table = "\n".join(lines[:-1])
        for name, unit in metrics:
            assert f" {name} " in table and f" {unit} " in table, name
        if trace == 0:
            zero = [name for name, metric in result["metrics"].items() if metric["value"] <= 0]
            assert not zero, zero
        digest_lines[trace] = next(line for line in lines if line.startswith("digests "))
    assert digest_lines[0] == digest_lines[1], "traced and untraced runs disagree"


def test_tampered_digest_trips_the_check() -> None:
    reps = run.collect("churn-2000", seed=3, seconds=0, trace=False, tiny=True)
    assert run.check(reps) == []
    for field in ("history_digests", "payload_digests"):
        tampered = copy.deepcopy(reps)
        digests = tampered[-1][field]
        digests[next(iter(digests))] = "0" * 64
        problems = run.check(tampered)
        assert [index for index, _ in problems] == [len(tampered) - 1], problems
    tampered = copy.deepcopy(reps)
    tampered[1]["problems"].append("trace conservation: lost events")
    assert run.check(tampered) == [(1, "trace conservation: lost events")]


def test_refuses_to_run_without_sources() -> None:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        completed = bench("churn-2000", 0, cwd=Path(bare))
    assert completed.returncode != 0
    assert completed.stdout.strip() == "", completed.stdout


def main() -> int:
    tests = [
        ("BENCHMARK.json matches the code", test_benchmark_json_matches_the_code),
        ("refuses to run without sources", test_refuses_to_run_without_sources),
        ("tampered digest trips the check", test_tampered_digest_trips_the_check),
    ]
    tests += [
        (f"{name}: every metric prints, traced == untraced", lambda name=name: check_workload(name))
        for name in WORKLOADS
    ]
    failures = 0
    for title, test in tests:
        try:
            test()
        except Exception:  # noqa: BLE001 - report every failing test, then exit non-zero
            failures += 1
            print(f"FAIL {title}\n{traceback.format_exc()}")
        else:
            print(f"ok   {title}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
