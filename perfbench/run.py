"""wagnersis benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload heuristic-solve --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's ``src/``; without it the run exits with code 2 and prints no
result.  Every sample runs in a fresh interpreter with the BLAS/OpenMP
thread pools pinned to one thread: several set-up-only processes give the
``setup_s`` median, and one more process runs the closed loop of ops.

The last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 0`` the metrics are the end-to-end
metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.
Lines before it record the environment, the determinism digest and the
failed-op share.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
LIBRARY = ROOT / "src" / "wagnersis" / "__init__.py"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("heuristic-solve", "provable-sample", "naive-rounding")
# Set-up samples per run: SETUP_SAMPLES - 1 set-up-only processes plus the
# measured process, whose set-up is timed the same way.
SETUP_SAMPLES = 7
# Wall-time budget of a whole run: a stuck worker is killed when it is spent.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same set and dict orders in every sample
    return env


def run_child(args, mode: str, deadline: float):
    """Start one worker; return its set-up record, with the seconds from the
    start of the process to inputs ready added, and its result record (None
    in set-up mode)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready_s = ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("ready "):
                ready_s = time.perf_counter() - t0
                ready = json.loads(line[len("ready "):])
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode == "measure" and result is None):
        raise BenchError(f"{mode} worker exited with code {code}")
    ready["setup_s"] = ready_s
    return ready, result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not LIBRARY.is_file() or not SPEC.is_file():
        print(f"no library at {LIBRARY} or no {SPEC.name}: run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        samples = [run_child(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        samples.append(run_child(args, "measure", deadline))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups = [s[0] for s in samples]
    result = samples[-1][1]
    setup_s = statistics.median(s["setup_s"] for s in setups)

    if args.trace:
        import_s = statistics.median(s["import_s"] for s in setups)
        values = dict(result["layers"])
        values.update({
            "setup.import_s": import_s,
            "setup.inputs_s": statistics.median(s["inputs_s"] for s in setups),
            "setup.import_share": import_s / setup_s,
        })
        correct = result["trace_digest_matches"]
        if result["missing_hooks"]:
            print("missing trace hooks: " + ", ".join(result["missing_hooks"]))
    else:
        values = {name: result[name] for name in
                  ("ops_per_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb")}
        values["setup_s"] = setup_s
        correct = True
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        print(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "numpy": result["versions"]["numpy"], "scipy": result["versions"]["scipy"],
           "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": commit()}
    print("env " + json.dumps(env))
    print(f"digest {args.workload} seed={args.seed} ops={result['digest_ops']} "
          f"sha256={result['digest']}")
    print(f"failed_op_share {failed}/{attempted} = {failed / attempted:.6g}")
    if not args.trace:
        print("unscaled " + json.dumps(result["unscaled"]))
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
