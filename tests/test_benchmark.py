import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_correct_with_every_trace_site(workload):
    # one short traced run: the benchmark's artifact checks pass, and every
    # site it times is still found in the code
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1", "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, done.stderr
    assert report["metrics"]["trace.sites_missing"]["value"] == 0
