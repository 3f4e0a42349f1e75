"""Smoke test of the benchmark harness: one quick pass of every workload.

The quick run hashes the first op of each workload (Macdonald on B3 (1,1,0),
grch1 on A1, quotient characters on G2 (1,1)) and compares the digests with
`bench/expected.json`, so a change to any of those results fails here.  The
traced run also wraps every name in `bench/spans.py` TARGETS, so deleting or
renaming one of them fails here too.  Every other op of every workload runs
in-process against the same digests.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import silspath

ROOT = Path(__file__).resolve().parent.parent


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_workloads()
EXPECTED = json.loads((ROOT / "bench" / "expected.json").read_text())


def quick_run(trace: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", "all",
            "--seed", "1",
            "--seconds", "1",
            "--trace", trace,
            "--quick",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert line["failed"] == 0
    return line


def test_quick_benchmark_run_is_correct():
    line = quick_run("0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]
    }
    assert set(line["metrics"]) == expected


def test_quick_traced_benchmark_run_is_correct():
    line = quick_run("1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["per_layer"]
    }
    assert set(line["metrics"]) == expected
    for workload in spec["workloads"]:
        path = ROOT / "bench" / "out" / f"run_{workload['name']}_seed1_trace1.json"
        assert json.loads(path.read_text())["traced_digests_match"] is True


@pytest.mark.parametrize(
    "case",
    [case for name in WORKLOADS.WORKLOADS for case in WORKLOADS.cases(name)],
    ids=lambda case: case.op_id,
)
def test_every_benchmark_op_gives_its_expected_digest(case):
    payload, identity = WORKLOADS.run_op(silspath, case)
    assert identity
    assert WORKLOADS.digest(payload) == EXPECTED[case.op_id]
