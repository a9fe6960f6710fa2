"""Benchmark of cesaronorm: one workload per call, metrics as JSON.

    python3 bench/run.py --workload radial-verdicts --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is taken from the
checkout's src/ and nowhere else.  Each call starts fresh single-threaded
interpreters (OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = MKL_NUM_THREADS = 1,
CESARO_THREADS unset): SETUP_SAMPLES of them only set up, then one runs
the workload.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The line before it holds the raw figures of the run.  Every
record is also written to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

from kernel import NOMINAL_S  # bench/ is first on sys.path when run as a script

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("radial-verdicts", "empirical-sampler", "operator-forms")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150
# op_tail_s is the latency with exactly this many operations above it
TAIL_BEYOND = 10
# each latency is scaled by the median of this many kernel times on either side
KERNEL_WINDOW = 3


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CESARO_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(args, mode: str, timeout: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--mode", mode,
    ]
    if args.small:
        cmd.append("--small")
    cmd += ["--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded {timeout} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.commonpath([out["package"], os.path.realpath(SRC)]) != os.path.realpath(SRC):
        raise BenchError(f"cesaronorm imported from {out['package']}, not from {SRC}")
    return out


def _tail(values: list[float]) -> float:
    """Latency with TAIL_BEYOND operations above it (the largest value if fewer)."""
    ordered = sorted(values)
    return ordered[-1 - TAIL_BEYOND] if len(ordered) > TAIL_BEYOND else ordered[-1]


def scaled_latencies(latencies: list[float], kernels: list[float]) -> list[float]:
    """Latencies in nominal seconds.

    kernels[i] was timed just before operation i and kernels[i + 1] just
    after it.  Operation i is scaled by the median of the KERNEL_WINDOW
    kernel times before it and the KERNEL_WINDOW after it, which follows the
    core's speed over a few operations rather than over the whole run.
    """
    out = []
    for i, t in enumerate(latencies):
        near = kernels[max(0, i + 1 - KERNEL_WINDOW): i + 1 + KERNEL_WINDOW]
        out.append(t * NOMINAL_S / statistics.median(near))
    return out


def run(args) -> tuple[dict, dict]:
    """Returns (final line, raw record)."""
    setups = [_worker(args, "setup", SETUP_TIMEOUT_S) for _ in range(SETUP_SAMPLES)]
    main = _worker(args, "run", RUN_TIMEOUT_S)
    lat = main["latencies_s"]
    scaled = scaled_latencies(lat, main["kernels_s"])
    setup_scaled = [s["setup_raw_s"] * NOMINAL_S / s["setup_kernel_s"] for s in setups]
    raw = {
        "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": _tail(lat),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": main["rounds"],
        "loop_s": main["loop_s"],
        "kernel_median_s": main["kernel_median_s"],
        "setup_kernel_s": [s["setup_kernel_s"] for s in setups],
        "raw": raw,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "wrong": main["wrong"],
        "failures": main["failures"],
        "latencies_s": lat,
        "kernels_s": main["kernels_s"],
        "labels": main["labels"],
    }
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in main["layers"].items()}
        record["spans"] = main["spans"]
        record["traced_ops_per_s"] = len(scaled) / sum(scaled)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "op_tail_s": {"value": _tail(scaled), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    record["metrics"] = metrics
    final = {
        "correct": main["wrong"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    return final, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cesaronorm", "__init__.py")):
        print(f"error: no cesaronorm package under {SRC}", file=sys.stderr)
        return 2
    try:
        final, record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}"
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    detail = {k: record[k] for k in ("workload", "seed", "rounds", "kernel_median_s", "raw")}
    detail["failures"] = dict(Counter(f"{f['label']}: {f['why']}" for f in record["failures"]))
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
