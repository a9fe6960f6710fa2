"""Run the benchmark over several seeds and report how steady each metric is.

    python3 bench/steady.py --workloads radial-verdicts,operator-forms --seeds 1-10 --seconds 20

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to the same figures for the raw, unscaled
timings.  It also prints the failed share of each run and, with
--traced-seeds, runs each of those seeds traced twice and prints whether
the counts repeat exactly and the tracing overhead (untraced over traced
median ops_per_s, minus one).
The runs are strictly one after another, so that they never share a core.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
RAW_KEYS = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"run-{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        return final, json.load(fh)


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default="radial-verdicts,empirical-sampler,operator-forms")
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--traced-seeds", default="", help="seeds for traced runs, e.g. 1-2")
    p.add_argument("--label", default="steady", help="name of the summary file in bench/out/")
    args = p.parse_args(argv)

    report = {}
    for workload in args.workloads.split(","):
        finals, records = [], []
        for seed in _seeds(args.seeds):
            final, record = _run(workload, seed, args.seconds, 0)
            finals.append(final)
            records.append(record)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in final["metrics"].items())
                + f", failed {final['failed']}/{final['attempted']}", flush=True)
        entry = {"metrics": {}, "raw": {}}
        for name in finals[0]["metrics"]:
            entry["metrics"][name] = _summary([f["metrics"][name]["value"] for f in finals])
        for name in RAW_KEYS:
            entry["raw"][name] = _summary([r["raw"][name] for r in records])
        entry["kernel_median_s"] = _summary([r["kernel_median_s"] for r in records])
        entry["failed_share"] = sorted({(f["failed"], f["attempted"]) for f in finals})
        entry["correct"] = all(f["correct"] for f in finals)
        if args.traced_seeds:
            # each traced seed twice: counts must repeat exactly for a given seed
            traced = [_run(workload, seed, args.seconds, 1) for seed in _seeds(args.traced_seeds) for _ in (0, 1)]
            counts = [{k: v["value"] for k, v in t[0]["metrics"].items() if v["unit"] == "count"} for t in traced]
            entry["traced"] = {k: v["value"] for k, v in traced[0][0]["metrics"].items()}
            entry["traced_counts_repeat"] = all(a == b for a, b in zip(counts[::2], counts[1::2]))
            traced_ops = statistics.median(t[1]["traced_ops_per_s"] for t in traced)
            entry["tracing_overhead"] = entry["metrics"]["ops_per_s"]["median"] / traced_ops - 1.0
        report[workload] = entry
        for name, s in entry["metrics"].items():
            raw = entry["raw"].get(name)
            raw_txt = f"   raw median {raw['median']:.5g} spread {raw['spread']:.3f}" if raw else ""
            print(f"  {name:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"spread {s['spread']:.3f}{raw_txt}")
        print(f"  failed/attempted {entry['failed_share']}  correct {entry['correct']}")
        if "tracing_overhead" in entry:
            print(f"  traced counts repeat: {entry['traced_counts_repeat']}; "
                  f"tracing overhead {entry['tracing_overhead']:.3f}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.label}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
