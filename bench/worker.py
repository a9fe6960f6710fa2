"""One fresh benchmark process: set-up, then a closed loop of operations.

Started by bench/run.py with PYTHONPATH pointing at the checkout's src/ and
one BLAS/OpenMP thread.  Prints one JSON object on its last stdout line.

    --mode setup  import cesaronorm, build round 0, time the reference
                  kernel, and exit: one set-up sample.
    --mode run    the same set-up, one untimed warm-up operation, then
                  whole rounds of operations, each timed next to one
                  kernel call.  Untraced, it starts another round only
                  if that round, taking as long as the last one, would
                  end within --seconds.  Traced, it runs exactly the
                  rounds needed for the workload's minimum number of
                  operations, so that counts repeat exactly.  Outputs
                  are checked after the loop.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback



def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--launched", type=float, required=True, help="time.monotonic() at launch")
    p.add_argument("--small", action="store_true")
    args = p.parse_args(argv)

    # --- set-up: everything from interpreter launch to the first inputs ---
    import workloads

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.small)
    ops = wl.ops(0)
    setup_raw = time.monotonic() - args.launched

    import cesaronorm
    from kernel import kernel, timed_kernel

    src = os.path.realpath(os.path.dirname(cesaronorm.__file__))
    kernel()
    setup_kernel = statistics.median(timed_kernel() for _ in range(5))
    result = {"setup_raw_s": setup_raw, "setup_kernel_s": setup_kernel, "package": src}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        op_nid = tracer.id_of(tracing.OP_SPAN)

    ops[0].run()  # warm-up: first-call costs inside numpy and the package
    if tracer is not None:
        tracer.reset()

    records, latencies, kernels = [], [], []
    started = time.perf_counter()
    rounds = 0
    while True:
        round_started = time.perf_counter()
        for op in ops:
            kernels.append(timed_kernel())
            rec = {"label": op.label, "inputs": op.inputs}
            if tracer is not None:
                tracer.current_op = len(records)
                span = tracer.open(op_nid)
            t0 = time.perf_counter()
            try:
                res = op.run()
                latencies.append(time.perf_counter() - t0)
                rec.update(op.collect(res))
            except Exception:  # an operation that raises is a failed operation
                latencies.append(time.perf_counter() - t0)
                rec["error"] = traceback.format_exc(limit=3)
            if tracer is not None:
                tracer.close(span)
            records.append(rec)
        rounds += 1
        now = time.perf_counter()
        if len(records) >= wl.min_ops:
            # traced: fixed work; untraced: no round that would end past --seconds
            if tracer is not None or now - started + (now - round_started) > args.seconds:
                break
        ops = wl.ops(rounds)
    kernels.append(timed_kernel())  # closes the last operation's window
    loop_s = time.perf_counter() - started
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checked = [r for r in records if "error" not in r]
    outcomes = iter(wl.check(checked))
    failures, wrong = [], 0
    for rec in records:
        if "error" in rec:
            failures.append({"label": rec["label"], "why": rec["error"].strip().splitlines()[-1]})
            continue
        o = next(outcomes)
        wrong += o.wrong
        if o.failed:
            failures.append({"label": rec["label"], "why": o.why})

    kernel_median = statistics.median(kernels)  # scales the traced self times
    result.update(
        {
            "rounds": rounds,
            "attempted": len(records),
            "failed": len(failures),
            "wrong": wrong,
            "failures": failures,
            "latencies_s": latencies,
            "kernels_s": kernels,
            "labels": [r["label"] for r in records],
            "kernel_median_s": kernel_median,
            "loop_s": loop_s,
            "peak_rss_kib": peak_rss_kib,
        }
    )
    if tracer is not None:
        import tracing
        from kernel import NOMINAL_S

        tracer.save(os.path.join(workloads.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz"))
        result["spans"] = len(tracer.start)
        result["layers"] = tracing.layer_metrics(tracer, NOMINAL_S / kernel_median)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
