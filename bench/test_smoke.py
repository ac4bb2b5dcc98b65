"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at its smallest size (one block) in both modes and
checks that each metric named in BENCHMARK.json is emitted, and that
corrupted outputs are counted as failed requests.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "grid", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _perturb_t(output, delta=1e-6):
    """The same table with every transmittance moved by delta towards 1/2."""
    rc, data = output
    text = data.decode("ascii")
    if text.startswith("{"):
        obj = json.loads(text)
        for row in obj["rows"]:
            row[1] += delta if row[1] < 0.5 else -delta
        return rc, json.dumps(obj).encode("ascii")
    lines = text.split("\n")
    for i in range(2, len(lines) - 1):
        fields = lines[i].split(",")
        t = float(fields[1])
        fields[1] = repr(t + delta if t < 0.5 else t - delta)
        lines[i] = ",".join(fields)
    return rc, "\n".join(lines).encode("ascii")


def _corrupting(request):
    run = request.run
    return workloads.Request(request.kind, lambda call: _perturb_t(run(call)), request.check)


def test_corrupted_transmittance_fails_the_oracle_check(tmp_path):
    workload = workloads.GridWorkload(1, str(tmp_path))
    stats = bench_run.RunStats()
    for request in workload.block:
        bench_run.execute(_corrupting(request), stats)
    assert stats.failed >= 1
    assert all("T_oracle" in failure for failure in stats.failures)


def test_corrupted_repeat_fails_the_byte_identity_check(tmp_path):
    workload = workloads.GridWorkload(2, str(tmp_path))
    small = [r for r in workload.block if r not in workload.warm][:12]
    clean, corrupted = bench_run.RunStats(), bench_run.RunStats()
    for request in small:
        bench_run.execute(request, clean)
    for request in small:
        bench_run.execute(_corrupting(request), corrupted)
    assert clean.failed == 0
    assert corrupted.failed == len(small)
    assert all("different bytes" in failure for failure in corrupted.failures)
