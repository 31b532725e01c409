"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that `run.py --out FILE` appends, one per
run. For every workload and end-to-end metric this prints each side's
median and quartiles and the change of the medians, in the direction in
which the metric gets worse. It flags a change worse than the metric's
bound in BENCHMARK.json as WORSE, and a base whose own quartile spread
exceeds the bound as UNRESOLVED, unless every new run beats every base
run. Records made with different ospcoho backends (pure Python or
compiled) are not comparable: it refuses them.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if r["trace"] == 0]


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    backends = {r["provenance"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"refusing to compare runs of different backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)["end_to_end"]
    workloads = sorted({r["workload"] for r in base}
                       & {r["workload"] for r in new})
    for wl in workloads:
        for m in spec:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == wl]
            b = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == wl]
            qa, qb = summary(a), summary(b)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (qb[1] - qa[1]) / qa[1] + 0.0    # no "-0.000"
            spread = (qa[2] - qa[0]) / qa[1]
            all_better = all(sign * (x - y) < 0 for x in b for y in a)
            verdict = ("UNRESOLVED" if spread > m["bound"] and not all_better
                       else "WORSE" if worse > m["bound"] else "ok")
            print(f"{wl:8} {name:13} base {qa[1]:.5g} [{qa[0]:.5g}, "
                  f"{qa[2]:.5g}] n={len(a)}  new {qb[1]:.5g} [{qb[0]:.5g}, "
                  f"{qb[2]:.5g}] n={len(b)}  worse by {worse:+.3f} "
                  f"(bound {m['bound']})  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
