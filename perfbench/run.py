"""End-to-end benchmark of ospcoho, with a traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out FILE]

Run it from the root of a checkout; the program is imported from
`src/` as it is (the pure-Python kernel needs no build). Workloads, and
why each exists, are listed in BENCHMARK.json; their definitions are in
workloads.py and their checksums in expected.json. workloads.py also
defines `grid-2w` (grid's points on a pool of two workers, its twin),
`deep` (few large blocks, elimination-bound) and `audit` (the bracket
table audit, printed then broken; only algebra runs), which run by name
but are left out of BENCHMARK.json: grid-2w's two busy workers on a
two-CPU machine spread too widely from run to run, and two workloads
leave time for runs long enough to be steady.

Every pass is a fresh interpreter, started cold, because every CLI user
pays the import and the empty rank cache. With `--trace 0` passes are
repeated until the next one would end after S seconds, and the metrics
are medians over the run's passes:

  ops_per_s     operations per second of a pass's wall time
  cpu_per_op_s  user + system CPU seconds per operation, pool workers
                included
  setup_s       interpreter start to the first operation (import of
                ospcoho and adopted_table()), over SETUP_PROBES extra
                set-up-only starts plus every pass
  peak_rss_mb   the largest ru_maxrss of the pass and its children

Operations whose output is wrong (bad checksum, `match` false, an
unexpected exception or a missing expected one) count as failed;
ops_failed_frac = failed / attempted is in the record. `--seed`
(default 1) draws certify's random cochains; the other workloads run
fixed inputs, which the seed leaves unchanged.

With `--trace 1` the run repeats rounds of one untraced and one traced
pass. A grid workload's round adds an untraced pass of its twin (the
same points at the other thread count), for the pool's scaling
efficiency, and a serial grid's round a traced pass of its pooled twin,
which counts the pool's workers. The metrics are the medians over the
rounds of the per-layer counts and self times of the traced pass, the
shares of self time per module, and the tracing overhead as traced over
untraced ops_per_s.

The last line of standard output is the result: correct, attempted,
failed and the metrics. The line before it holds the provenance (backend,
Python version, CPU count, git commit, seed), the per-pass values and the
sample counts; `--out FILE` appends that record to FILE, for compare.py.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
DEADLINE_S = 165      # every run must end within 180 s
TRACE_DIR = ".perfbench-trace"   # pool workers' trace totals, in the checkout


class PassFailed(RuntimeError):
    pass


def spawn(root, workload, seed, deadline, trace_dir=None, setup_only=False):
    """Run one_pass.py; returns its record with `setup_s` and `wall_s`."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--root", root,
           "--workload", workload, "--seed", str(seed)]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload}: pass did not end before the deadline")
    finally:
        if proc.poll() is None:     # also reaps a pool the pass left behind
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise PassFailed(f"{workload}: pass exited {proc.returncode}: "
                         + err.strip()[-2000:])
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - start
    record["wall_s"] = time.monotonic() - start
    return record


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"    # e.g. an exported checkout
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def median_and_tail(values, worse_is_high):
    """Median, and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "samples": n}
    if n >= 11:
        q = 100 * (n - 10) // n
        cut = statistics.quantiles(values, n=100, method="inclusive")
        out[f"p{q}" if worse_is_high else f"p{100 - q}"] = \
            cut[q - 1] if worse_is_high else cut[100 - q - 1]
    else:
        out["worst"] = max(values) if worse_is_high else min(values)
    return out


def rate(record):
    return record["ops"] / record["ops_s"]


def end_to_end(passes, setups):
    rates = [rate(p) for p in passes]
    cpu = [p["cpu_s"] / p["ops"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    detail = {
        "ops_per_s": median_and_tail(rates, worse_is_high=False),
        "cpu_per_op_s": median_and_tail(cpu, worse_is_high=True),
        "setup_s": median_and_tail(setups, worse_is_high=True),
        "peak_rss_mb": median_and_tail(rss, worse_is_high=True),
    }
    return {k: v["median"] for k, v in detail.items()}, detail


def scaling_eff(untraced, threads, twin, twin_threads):
    """Pooled ops_per_s over `threads` times serial ops_per_s."""
    if twin is None:
        return 0.0
    if threads == 1:
        untraced, twin, threads = twin, untraced, twin_threads
    return rate(untraced) / (threads * rate(twin))


def layer_metrics(snapshot, untraced, traced, scaling):
    stats, counters = snapshot["stats"], snapshot["counters"]
    out = dict(counters)
    for name, (calls, _total, self_s) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    rows = counters["kernels_py.echelon.rows_in"]
    out["kernels_py.echelon.pivot_ratio"] = \
        counters["kernels_py.echelon.pivots"] / rows if rows else 0.0
    checked = stats["algebra.is_jacobi"][0]
    out["algebra.is_jacobi.useful_ratio"] = \
        counters["algebra.is_jacobi.passed"] / checked if checked else 0.0
    out["engine.grid_reports.scaling_eff"] = scaling
    out["trace.ops_per_s_ratio"] = rate(traced) / rate(untraced)
    # Shares of busy self time, summed over the pass and its pool workers;
    # the parent's wait on the pool is not work.
    busy = {n: s[2] for n, s in stats.items() if n != tracing.POOL_WAIT_SPAN}
    total = sum(busy.values()) or 1.0
    for module in tracing.LAYERS:
        out[f"share.{module}"] = sum(
            v for n, v in busy.items() if n.startswith(module + ".")) / total
    out["share.assembly"] = sum(busy[n] for n in tracing.ASSEMBLY) / total
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    # A terminated run still stops its passes (see spawn's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    if not os.path.isfile(os.path.join(root, "src", "ospcoho",
                                       "__init__.py")):
        sys.exit("perfbench: no ospcoho source under ./src; "
                 "run from the root of a checkout")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected_all = workloads.load_expected()
    wl = workloads.WORKLOADS[args.workload]

    # The first start compiles bytecode; it is not a set-up sample.
    probe = spawn(root, args.workload, args.seed, deadline, setup_only=True)
    setups = [spawn(root, args.workload, args.seed, deadline,
                    setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]

    passes, problems = [], []
    attempted = failed = 0

    def one_pass(workload, trace_dir=None):
        nonlocal attempted, failed
        this = workloads.WORKLOADS[workload]
        n_ops = this.ops(expected_all[workload])
        attempted += n_ops
        try:
            rec = spawn(root, workload, args.seed, deadline, trace_dir)
        except PassFailed as exc:
            failed += n_ops
            problems.append(str(exc))
            return None
        rec["ops"] = n_ops
        rec["failed"] = this.failures(rec["summary"],
                                      expected_all[workload])
        failed += rec["failed"]
        if (rec["wrapped"] > 0) != bool(trace_dir):
            problems.append(f"{workload}: {rec['wrapped']} wrapped functions "
                            f"in a pass with trace={bool(trace_dir)}")
        if rec["cache_entries_at_start"]:
            problems.append(f"{workload}: pass started with a warm cache")
        passes.append({k: rec[k] for k in (
            "ops", "failed", "ops_s", "cpu_s", "peak_rss_mb", "setup_s",
            "wall_s", "wrapped", "cache_entries_at_start")})
        return rec

    if args.trace == 0:
        measured = []
        t0 = time.monotonic()
        while True:
            rec = one_pass(args.workload)
            if rec is None:
                break
            measured.append(rec)
            typical = statistics.median(r["wall_s"] for r in measured)
            if time.monotonic() - t0 + typical > args.seconds:
                break
        if not measured:
            sys.exit("perfbench: no pass completed:\n" + "\n".join(problems))
        values, detail = end_to_end(
            measured, setups + [r["setup_s"] for r in measured])
        spec = bench["end_to_end"]
    else:
        # Rounds of one untraced and one traced pass, in alternating
        # order, until the next round would end after S seconds; each
        # per-layer metric is the median over the rounds.
        threads = getattr(wl, "threads", 1)
        twin_name = getattr(wl, "twin", None)
        twin_threads = twin_name and workloads.WORKLOADS[twin_name].threads
        trace_dir = os.path.join(root, TRACE_DIR)
        twin_dir = os.path.join(trace_dir, "twin")    # not merged
        rounds = []
        t0 = time.monotonic()
        try:
            while True:
                start = time.monotonic()
                shutil.rmtree(trace_dir, ignore_errors=True)
                os.makedirs(twin_dir)
                if len(rounds) % 2:
                    traced = one_pass(args.workload, trace_dir)
                    untraced = one_pass(args.workload)
                else:
                    untraced = one_pass(args.workload)
                    traced = one_pass(args.workload, trace_dir)
                twin = pool = None
                if twin_name:
                    twin = one_pass(twin_name)
                    if threads == 1:
                        pool = one_pass(twin_name, twin_dir)
                if untraced is None or traced is None or (twin_name and (
                        twin is None or (threads == 1 and pool is None))):
                    sys.exit("perfbench: a pass failed:\n"
                             + "\n".join(problems))
                snapshot = tracing.merge_worker_dumps(traced["trace"],
                                                      trace_dir)
                if pool is not None:
                    key = "engine.grid_reports.workers"
                    snapshot["counters"][key] = pool["trace"]["counters"][key]
                rounds.append(layer_metrics(
                    snapshot, untraced, traced,
                    scaling_eff(untraced, threads, twin, twin_threads)))
                now = time.monotonic()
                if now - t0 + (now - start) > args.seconds:
                    break
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
        values = {k: statistics.median(r[k] for r in rounds)
                  for k in rounds[0]}
        detail = {"rounds": len(rounds), "spans": snapshot["stats"]}
        spec = bench["per_layer"]

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "backend": probe["backend"],
            "python": probe["python"],
            "nproc": os.cpu_count(),
            "commit": git_commit(root),
            "seed": args.seed,
        },
        "passes": passes,
        "detail": detail,
        "problems": problems,
        "ops_failed_frac": failed / attempted,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    record["metrics"] = metrics
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
