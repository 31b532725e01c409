"""The benchmark's workloads: what one pass runs and how its output is checked.

A pass runs in a fresh interpreter (see one_pass.py), because every CLI
user pays the cold cost and `engine._rank_cache` would otherwise turn a
second pass into cache hits. `run()` is the timed part; `summarize()`
turns its result into plain JSON after the clock has stopped; `failures()`
compares a summary with the recorded checksums in expected.json and
returns how many of the pass's operations were wrong.

ospcoho is imported inside the functions, so the parent process can
count and check operations without importing the program.
"""

import csv
import hashlib
import io
import json
import os
import random
import traceback
from fractions import Fraction as F

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _point(lam, mu):
    return f"{lam},{mu}"


def _halfint_pairs(lo, hi):
    vals = [F(j, 2) for j in range(2 * lo, 2 * hi + 1)]
    return [(a, b) for a in vals for b in vals]


def _error(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Grid:
    """`engine.grid_reports` over fixed points; one operation per point."""

    def __init__(self, pairs, K, nmax, wmax, threads, twin=None):
        self.pairs = pairs
        self.K = K
        self.nmax = nmax
        self.wmax = wmax
        self.threads = threads
        self.twin = twin   # the same points at the other thread count

    def ops(self, expected):
        return len(self.pairs)

    def inputs(self, seed):
        return None

    def run(self, inputs):
        from ospcoho import engine
        return engine.grid_reports(self.pairs, K=self.K, nmax=self.nmax,
                                   wmax=self.wmax, threads=self.threads)

    def summarize(self, reports):
        """Dimension tuples, the rank sum and the CSV hash of `dims`.

        The CSV is written as `ospcoho dims --format csv` writes it, so its
        SHA-256 equals that of the CLI's output file. Ranks are recovered
        from the reported dimensions and the public block sizes:
        dim H^n = cols_n - rank_n - rank_{n-1} per parity.
        """
        from ospcoho import cochains, engine
        from ospcoho.weightmod import TruncatedDlm
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=engine.CSV_FIELDS)
        writer.writeheader()
        points = {}
        rank_sum = 0
        for rep in reports:
            for row in rep.csv_rows():
                writer.writerow(row)
            mod = TruncatedDlm(rep.lam, rep.mu, rep.K)
            ranks_ok = True
            for w in sorted({w for row in rep.computed.values() for w in row}):
                for parity in (0, 1):
                    prev = 0
                    for n in sorted(rep.computed):
                        dc = rep.computed[n].get(w)
                        if dc is None:
                            break
                        cols = len(cochains.block_basis(mod, n, w, parity))
                        rank = cols - (dc.odd if parity else dc.even) - prev
                        ranks_ok &= 0 <= rank <= cols
                        rank_sum += rank
                        prev = rank
            points[_point(rep.lam, rep.mu)] = {
                "dims": [rep.computed[n][0].total
                         for n in range(rep.nmax + 1)],
                "match": rep.match,
                "ranks_ok": ranks_ok,
            }
        csv_text = buf.getvalue()
        return {"points": points, "rank_sum": rank_sum,
                "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest()}

    def failures(self, summary, expected):
        n_ops = self.ops(expected)
        if summary is None or "error" in summary:
            return n_ops
        if (summary["rank_sum"] != expected["rank_sum"]
                or summary["csv_sha256"] != expected["csv_sha256"]):
            return n_ops
        bad = 0
        for lam, mu in self.pairs:
            got = summary["points"].get(_point(lam, mu))
            if (got is None or not got["match"] or not got["ranks_ok"]
                    or got["dims"] != expected["dims"][_point(lam, mu)]):
                bad += 1
        return bad


ACCEPTANCE_GRID = [(F(0), F(0)), (F(1), F(1)), (F(5, 2), F(5, 2)),
                   (F(0), F(1, 2)), (F(-1, 2), F(1)), (F(-1), F(3, 2)),
                   (F(-3, 2), F(2)), (F(1, 3), F(0)), (F(0), F(2)),
                   (F(1), F(1, 2))]


def random_cochain(mod, degree, parity, rng, weights=(F(0), F(1, 2), F(-1))):
    """A random cochain with small rational values, drawn from `rng`."""
    from ospcoho import algebra
    from ospcoho.cochains import Cochain
    vals = {}
    for u in algebra.monomial_basis(degree):
        for w in weights:
            bvpar = (parity + algebra.monomial_parity(u)) % 2
            for bv in mod.weight_basis(w + algebra.monomial_weight(u),
                                       parity=bvpar):
                if rng.random() < 0.3:
                    c = F(rng.randint(-4, 4), rng.randint(1, 3))
                    if c:
                        vals.setdefault(u, {})[bv] = c
    return Cochain(mod, degree, parity, vals)


COCYCLES = 4    # degrees 0 and 1, both parities


def coboundary_inputs(seed):
    """The seeded cocycles f = dg that certify must prove exact."""
    from ospcoho.cochains import coboundary
    from ospcoho.weightmod import TruncatedDlm
    rng = random.Random(seed)
    mod = TruncatedDlm(F(0), F(1, 2), 3)
    return [coboundary(random_cochain(mod, degree, parity, rng))
            for degree in (0, 1) for parity in (0, 1)]


class Certify:
    """Primitives and class representatives, checked three ways.

    Operations: one restriction check per acceptance-grid point, one
    `is_coboundary` per seeded cocycle, and one per self-test check.
    """

    def __init__(self, points, K, nmax, selftest=True):
        self.points = points
        self.K = K
        self.nmax = nmax
        self.selftest = selftest

    def ops(self, expected):
        checks = expected["selftest_checks"] if self.selftest else 0
        return len(self.points) + COCYCLES + checks

    def inputs(self, seed):
        return coboundary_inputs(seed)

    def run(self, cocycles):
        from ospcoho import engine
        out = {"restriction": [], "primitives": [], "selftest": []}
        for lam, mu in self.points:
            try:
                out["restriction"].append(engine.restriction_injectivity_check(
                    lam, mu, K=self.K, nmax=self.nmax))
            except Exception as exc:    # an operation's failure is counted
                out["restriction"].append({"error": _error(exc)})
        for f in cocycles:
            try:
                out["primitives"].append((f, engine.is_coboundary(f)))
            except Exception as exc:
                out["primitives"].append((f, _error(exc)))
        if self.selftest:
            try:
                out["selftest"] = engine.selftest("all")
            except Exception as exc:
                out["selftest"] = [("selftest", False, _error(exc))]
        return out

    def summarize(self, out):
        from ospcoho.cochains import coboundary, Cochain
        restriction = {}
        for (lam, mu), rep in zip(self.points, out["restriction"]):
            restriction[_point(lam, mu)] = {
                "ok": rep.get("ok", False),
                "representatives": len(rep.get("classes", ())),
            }
        primitives = []
        for f, g in out["primitives"]:
            primitives.append(isinstance(g, Cochain)
                              and coboundary(g).sub(f).is_zero())
        return {"restriction": restriction,
                "primitives": primitives,
                "selftest": {name: ok for name, ok, _ in out["selftest"]}}

    def failures(self, summary, expected):
        if summary is None or "error" in summary:
            return self.ops(expected)
        bad = 0
        for lam, mu in self.points:
            got = summary["restriction"].get(_point(lam, mu))
            want = expected["representatives"][_point(lam, mu)]
            if got is None or not got["ok"] or got["representatives"] != want:
                bad += 1
        verified = sum(1 for ok in summary["primitives"] if ok)
        bad += expected["primitives"] - min(verified, expected["primitives"])
        if self.selftest:
            checks = summary["selftest"].values()
            bad += sum(1 for ok in checks if not ok)
            bad += max(0, expected["selftest_checks"] - len(checks))
        return bad


class Audit:
    """The bracket-table audit: the printed table, then a broken one.

    The broken table is the printed one with [A,A] emptied; no sign flip
    or rescaling repairs it, so the audit must raise NoConsistentRepair
    after its full search.
    """

    def __init__(self, broken=True):
        self.broken = broken

    def ops(self, expected):
        return 2 if self.broken else 1

    def inputs(self, seed):
        return None

    def run(self, inputs):
        from ospcoho import algebra, engine
        out = {}
        try:
            rep = engine.run_audit()
            out["printed"] = {"variant": rep.variant,
                              "changes": [list(c) for c in rep.changes]}
        except Exception as exc:
            out["printed"] = {"error": _error(exc)}
        if self.broken:
            printed = algebra.printed_table()
            rows = {pair: printed.row(pair) for pair in algebra.PAIR_ORDER}
            rows[("A", "A")] = {}
            try:
                rep = engine.run_audit(algebra.StructureTable(rows, "broken"))
                out["broken"] = {"variant": rep.variant}
            except algebra.NoConsistentRepair:
                out["broken"] = {"raised": "NoConsistentRepair"}
            except Exception as exc:
                out["broken"] = {"error": _error(exc)}
        return out

    def summarize(self, out):
        return out

    def failures(self, summary, expected):
        if summary is None or "error" in summary:
            return self.ops(expected)
        bad = int(summary.get("printed") != expected["printed"])
        if self.broken:
            bad += int(summary.get("broken") != expected["broken"])
        return bad


GRID_PAIRS = _halfint_pairs(-1, 1)
DEEP_PAIRS = [(F(-3, 2), F(2)), (F(0), F(0)), (F(1, 3), F(0))]

# Why each workload exists is recorded in BENCHMARK.json. The toy ones
# serve the harness self-test only.
WORKLOADS = {
    "grid": Grid(GRID_PAIRS, None, 4, F(2), threads=1, twin="grid-2w"),
    "grid-2w": Grid(GRID_PAIRS, None, 4, F(2), threads=2, twin="grid"),
    "deep": Grid(DEEP_PAIRS, 24, 4, F(0), threads=1),
    "certify": Certify(ACCEPTANCE_GRID, K=8, nmax=2),
    "audit": Audit(broken=True),
    "toy-grid": Grid([(F(0), F(1, 2))], None, 2, F(1, 2), threads=1),
    "toy-certify": Certify([(F(0), F(1, 2))], K=3, nmax=1, selftest=False),
    "toy-audit": Audit(broken=False),
}
