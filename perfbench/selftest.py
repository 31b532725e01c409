"""Self-test of the benchmark harness at toy size.

    python3 perfbench/selftest.py      (from the root of a checkout)

Runs a one-point grid, a short audit and the seeded coboundary solves
in fresh interpreters, the way run.py does, and checks that:

  1. a corrupted checksum is counted as failed operations, so it raises
     ops_failed_frac;
  2. untraced passes run unwrapped code, a traced pass wraps every
     target, and uninstall() restores every original;
  3. no pass inherits a warm rank cache, while a warm cache would show
     up as hits;
  4. the seed alone decides certify's cochains, and a second seed gives
     the same pass or fail outcome.

Exits 1 if any check fails. Takes a few seconds.
"""

import copy
import os
import shutil
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def namespace_objects():
    """(owner, name) -> object for every ospcoho attribute and method."""
    out = {}
    for ns in tracing._namespaces():
        for key, value in list(vars(ns).items()):
            out[(ns.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(ns.__name__, key, attr)] = member
    return out


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    expected = workloads.load_expected()
    deadline = time.monotonic() + 150
    trace_dir = os.path.join(root, run.TRACE_DIR)

    def traced_pass(name):
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        try:
            return run.spawn(root, name, 1, deadline, trace_dir)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)

    # 1. corrupted checksums
    grid = workloads.WORKLOADS["toy-grid"]
    plain = run.spawn(root, "toy-grid", 1, deadline)
    want = expected["toy-grid"]
    check(grid.failures(plain["summary"], want) == 0,
          "toy grid matches its recorded checksums")
    bad = copy.deepcopy(want)
    bad["csv_sha256"] = "0" * 64
    check(grid.failures(plain["summary"], bad) == grid.ops(bad),
          "a corrupted CSV hash fails every operation of the pass")
    bad = copy.deepcopy(want)
    bad["dims"]["0,1/2"][1] += 1
    check(grid.failures(plain["summary"], bad) == 1,
          "a corrupted dimension tuple fails its operation")
    audit = workloads.WORKLOADS["toy-audit"]
    audited = run.spawn(root, "toy-audit", 1, deadline)
    check(audit.failures(audited["summary"], expected["toy-audit"]) == 0,
          "short audit matches its recorded variant and changes")
    bad = copy.deepcopy(expected["toy-audit"])
    bad["printed"]["changes"].pop()
    check(audit.failures(audited["summary"], bad) == 1,
          "a corrupted audit checksum fails the audit operation")

    # 2. tracing wrappers
    check(plain["wrapped"] == 0 and audited["wrapped"] == 0,
          "untraced passes run unwrapped code")
    from ospcoho import engine
    before = namespace_objects()
    tracer = tracing.install()
    wrapped = len(tracer.installed)
    check(tracing.wrapped_count() == wrapped > 0,
          f"install() wraps {wrapped} of {len(tracing.TARGETS)} targets")
    traced = traced_pass("toy-grid")
    check(traced["wrapped"] == wrapped,
          f"a traced pass wraps the same {wrapped} targets")
    tracing.uninstall()
    after = namespace_objects()
    check(tracing.wrapped_count() == 0 and before.keys() == after.keys()
          and all(before[k] is after[k] for k in before),
          "uninstall() restores every original object")

    # 3. warm rank cache
    check(plain["cache_entries_at_start"] == 0
          and traced["cache_entries_at_start"] == 0,
          "every pass starts with an empty rank cache")
    again = traced_pass("toy-grid")
    keys = ("engine.rank_cache.hits", "engine.rank_cache.misses")
    check(all(again["trace"]["counters"][k] == traced["trace"]["counters"][k]
              for k in keys),
          "a second traced pass sees the same hits and misses as the first")
    if getattr(engine, "_rank_cache", None) is None:
        print("skip  the engine keeps no process-wide rank cache")
    else:
        seen = []
        tracer = tracing.install()
        try:
            for _ in range(2):
                engine.build_report(Fraction(0), Fraction(1, 2), nmax=2,
                                    wmax=Fraction(1, 2))
                seen.append([tracer.counters[k] for k in keys])
                tracer.reset()
        finally:
            tracing.uninstall()
        (_, first_misses), (hits, misses) = seen
        check(first_misses > 0 and misses == 0 and hits > 0,
              "in one process a repeated report is all cache hits, "
              "which fresh passes avoid")

    # 4. seeds
    one, two = workloads.coboundary_inputs(1), workloads.coboundary_inputs(2)
    check(one == workloads.coboundary_inputs(1) and one != two,
          "the same seed gives the same cochains, another seed others")
    certify = workloads.WORKLOADS["toy-certify"]
    outcomes = []
    for seed in (1, 2):
        rec = run.spawn(root, "toy-certify", seed, deadline)
        outcomes.append(certify.failures(rec["summary"],
                                         expected["toy-certify"]))
    check(outcomes == [0, 0],
          "certify passes on two seeds (same outcome)")

    print(f"{len(failures)} check(s) failed" if failures
          else "all harness checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
