"""One benchmark process: import the library, build the inputs, and (in
measure mode) run the closed loop of ops.

``run.py`` starts this file in a fresh interpreter for every set-up sample
and for the measured run, so each sample pays the import a user pays.  It
prints ``ready {...}`` as soon as the inputs are built and, in measure mode,
``result {...}`` at the end.  Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# Ops folded into the determinism digest; every run makes at least this many.
DIGEST_OPS = 2
CALIBRATE_EVERY_S = 0.25


def import_library():
    """Import wagnersis from this checkout's ``src/`` and nowhere else."""
    t0 = time.perf_counter()
    import wagnersis
    t1 = time.perf_counter()
    src = ROOT / "src"
    if Path(wagnersis.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"wagnersis imported from {wagnersis.__file__}, not {src}")
    return wagnersis, t1 - t0


def for_seconds(seconds: float):
    """Op numbers 0, 1, ... until ``seconds`` have passed and at least
    DIGEST_OPS ops have run."""
    t_end = time.perf_counter() + seconds
    k = 0
    while k < DIGEST_OPS or time.perf_counter() < t_end:
        yield k
        k += 1


def run_ops(wl, ops, *, tracer=None, tamper=None, calibrator=None):
    """Closed loop, one client: each op starts after the previous op and its
    check have ended.  Only the op call is timed.  An op that raises or fails
    its check counts as failed and the loop goes on.

    With a ``calibrator`` the calibration kernel is timed before the first
    op, after the last and every CALIBRATE_EVERY_S in between, and each op
    time is also reported scaled by the mean kernel time at the two ends of
    its window.
    """
    latencies, windows, failed, digest, op_stats = [], [], 0, hashlib.sha256(), {}
    kernel_s = [calibrator.seconds()] if calibrator else []
    last_cal = time.perf_counter()
    for i, k in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(k)
        t0 = time.perf_counter()
        try:
            result = wl.run(k)
            err = None
        except Exception:  # an op failure is data, not a crash of the run
            result, err = None, traceback.format_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        latencies.append(t1 - t0)
        windows.append(len(kernel_s) - 1)
        if err is not None:
            failed += 1
            print(f"op {k} raised:\n{err}", file=sys.stderr)
        else:
            if tamper is not None:
                result = tamper(result)
            if not wl.check(k, result):
                failed += 1
                print(f"op {k} failed its output check", file=sys.stderr)
            op_stats[k] = wl.stats(result)
            if i < DIGEST_OPS:
                X, rest = wl.record(result)
                digest.update(repr(X.shape).encode())
                digest.update(X.astype("int64").tobytes())
                digest.update(json.dumps(rest, sort_keys=True).encode())
        if calibrator and time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
            kernel_s.append(calibrator.seconds())
            last_cal = time.perf_counter()
    scaled = []
    if calibrator:
        kernel_s.append(calibrator.seconds())
        scaled = [t * calibrator.REF_S * 2 / (kernel_s[w] + kernel_s[w + 1])
                  for t, w in zip(latencies, windows)]
    return {"latencies": latencies, "scaled": scaled, "failed": failed,
            "op_stats": op_stats, "digest": digest.hexdigest(),
            "digest_ops": min(DIGEST_OPS, len(latencies))}


def summary(lat) -> dict:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p95_ms": 1e3 * statistics.quantiles(lat, n=20, method="inclusive")[18],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    args = ap.parse_args(argv)

    wagnersis, import_s = import_library()
    from calibrate import Calibrator  # after the timed import: it loads NumPy
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    inputs_s = time.perf_counter() - t0
    print("ready " + json.dumps({"import_s": import_s, "inputs_s": inputs_s}), flush=True)
    if args.mode == "setup":
        return 0

    # One untimed op first, so lazy set-up inside the library is not timed.
    try:
        wl.run(-1)
    except Exception:
        traceback.print_exc()

    out = {}
    if not args.trace:
        run = run_ops(wl, for_seconds(args.seconds), calibrator=Calibrator())
        out.update(summary(run["scaled"]))
        out["unscaled"] = summary(run["latencies"])
    else:
        from tracing import Tracer, layer_metrics

        # Half the time untraced, then the same ops again traced: the ratio
        # of their scaled times is the tracing overhead, and the digests
        # must agree.
        calibrator = Calibrator()
        run = run_ops(wl, for_seconds(args.seconds / 2), calibrator=calibrator)
        ops = list(range(len(run["latencies"])))
        cache = getattr(wagnersis.dgauss, "_SAMPLER_CACHE", None)
        if isinstance(cache, dict):
            cache.clear()  # the replay starts as cold as the first pass did
        tracer = Tracer()
        tracer.install(wagnersis)
        try:
            traced = run_ops(wl, ops, tracer=tracer, calibrator=calibrator)
        finally:
            tracer.uninstall()
        out["layers"] = layer_metrics(tracer.spans, traced["op_stats"])
        out["layers"]["trace.overhead_share"] = \
            sum(traced["scaled"]) / sum(run["scaled"]) - 1.0
        out["trace_digest_matches"] = traced["digest"] == run["digest"]
        out["missing_hooks"] = tracer.missing
        run["failed"] += traced["failed"]
        run["latencies"] += traced["latencies"]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    out.update({
        "attempted": len(run["latencies"]),
        "failed": run["failed"],
        "digest": run["digest"],
        "digest_ops": run["digest_ops"],
        "versions": {"numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print("result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
