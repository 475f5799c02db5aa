"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, in about a minute:

* a one-second run of every workload, untraced and traced, prints a last
  line with exactly the keys and metric names BENCHMARK.json declares, with
  every output check passing;
* tracing does not change a workload's outputs (same determinism digest);
* an output with one coordinate changed is counted as a failed op;
* in a directory holding only BENCHMARK.json and this directory, the
  benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "1"


def bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_smoke_runs():
    for wl in (w["name"] for w in SPEC["workloads"]):
        digests = set()
        for trace in (0, 1):
            out = bench(ROOT, wl, trace)
            assert out.returncode == 0, f"{wl} trace={trace}: exit {out.returncode}\n{out.stderr}"
            lines = out.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
            assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, last
            declared = SPEC["per_layer" if trace else "end_to_end"]
            assert sorted(last["metrics"]) == sorted(m["name"] for m in declared), last
            for m in declared:
                got = last["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), got
            assert any(line.startswith("env ") for line in lines)
            assert any(line.startswith("failed_op_share ") for line in lines)
            digests.update(line.split("sha256=")[1] for line in lines
                           if line.startswith("digest "))
            print(f"ok  smoke {wl} trace={trace}: {last['attempted']} ops")
        assert len(digests) == 1, f"{wl}: traced and untraced outputs differ"


def check_corruption_counted():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from worker import run_ops
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        wl = cls(7)
        clean = run_ops(wl, range(1))
        bad = run_ops(wl, range(1), tamper=wl.corrupt)
        assert clean["failed"] == 0, name
        assert bad["failed"] == 1, f"{name}: corrupted output passed its check"
        print(f"ok  corrupted output counted as failed: {name}")


def check_refuses_without_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0, "ran without the library"
    assert '"metrics"' not in out.stdout, "printed a result without the library"
    print("ok  refuses to run without the library")


if __name__ == "__main__":
    check_corruption_counted()
    check_refuses_without_library()
    check_smoke_runs()
    print("selftest passed")
