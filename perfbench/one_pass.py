"""One pass of a workload in a fresh interpreter; prints one JSON record.

    python3 perfbench/one_pass.py --root DIR --workload NAME --seed N
        [--trace-dir DIR] [--setup-only]

`ready` in the record is the CLOCK_MONOTONIC time at which set-up (the
import of ospcoho and `adopted_table()`) is done and the first operation
can start; the parent subtracts its own clock reading taken just before
it started this interpreter. `--trace-dir` turns on the tracing
wrappers; a traced process pool writes its workers' totals there.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def _cpu_s():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import ospcoho
    from ospcoho import engine
    from ospcoho.algebra import adopted_table
    adopted_table()
    # Without the compiled kernel (and its BACKEND export) only the
    # Python kernel exists.
    record = {"ready": time.monotonic(),
              "backend": getattr(ospcoho, "BACKEND", "python"),
              "python": platform.python_version()}
    if args.setup_only:
        print(json.dumps(record))
        return

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    tracer = tracing.install(args.trace_dir) if args.trace_dir else None
    # Harness integrity: untraced passes run unwrapped code, and no pass
    # starts with a warm rank cache.
    record["wrapped"] = tracing.wrapped_count()
    record["cache_entries_at_start"] = len(getattr(engine, "_rank_cache", ()))
    cpu0 = _cpu_s()
    t0 = time.monotonic()
    try:
        result = wl.run(inputs)
        error = None
    except Exception:   # the whole pass failed; every operation counts
        result, error = None, traceback.format_exc()
    t1 = time.monotonic()
    record.update(ops_s=t1 - t0, cpu_s=_cpu_s() - cpu0,
                  peak_rss_mb=_peak_rss_mb())
    if tracer is not None:
        record["trace"] = tracer.snapshot()
        tracing.uninstall()
    record["summary"] = {"error": error} if error else wl.summarize(result)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
