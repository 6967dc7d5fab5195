"""Smoke check of the benchmark itself: python3 bench/smoke.py

Runs every workload on a handful of operations, untraced and traced, and
fails unless every output check passes and the printed metrics are exactly
the ones BENCHMARK.json names, with its units. It also checks that
BENCHMARK.json matches bench/spec.py, and that the benchmark refuses to run
from a directory holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OPS = 8


def run(cwd, workload, trace):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "0.5", "--trace", str(trace), "--ops", str(OPS)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180,
                          check=False)


def check_result(workload, trace, proc, declared):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {proc.stderr}"
    assert result["attempted"] >= OPS, where
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert sorted(result["metrics"]) == sorted(names), f"{where}: {sorted(result['metrics'])}"
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], f"{where}: {name} unit {metric['unit']}"
        assert math.isfinite(metric["value"]), f"{where}: {name} = {metric['value']}"


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stale = "BENCHMARK.json is stale: run python3 bench/spec.py --write"
    assert declared == spec.benchmark_json(), stale
    for workload in spec.WORKLOAD_NAMES:
        for trace in (0, 1):
            check_result(workload, trace, run(ROOT, workload, trace), declared)
            print(f"ok {workload} --trace {trace}")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="bare-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec.WORKLOAD_NAMES[0], 0)
        assert proc.returncode != 0, "ran without the package source"
        assert '"metrics"' not in proc.stdout, "printed a result without the package source"
    print("ok refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
