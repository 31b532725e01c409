"""Command-line front end.

Subcommands: `audit` (bracket-table consistency), `dims` (brute-force
dimension tables vs predictions over parameter grids), `cocycles`
(re-derived explicit cocycles with verification), `selftest` (invariant
suites). Rationals on the command line are exact "p/q" or integer
literals, negative ones included (`--lambda -1/2`); floats are rejected.

Each command computes its output and returns it with a verdict;
`main` alone writes it, to stdout or to --out. Exit codes: 0 all checks
pass; 1 a mathematical mismatch, either a check in the output that came
out false or an exact check that failed on the way (`ospcoho.Mismatch`),
the latter reported as one line `ospcoho <cmd>: <message>` with no
output written; 2 usage or input error, one line in the same form.
`dims` runs serially unless --threads asks for more workers.
"""

import argparse
import csv
import errno
import io
import json
import os
import re
import sys
from fractions import Fraction

from . import Mismatch, algebra, engine
from .cochains import (coboundary, cochain_to_json, is_reduced, make_f_k,
                       make_ftilde_k, make_h_lambda, restrict_sl2)
from .superdiff import op_str
from .weightmod import to_oppoly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

_NEGATIVE_FRACTION = re.compile(r"-\d+/\d+")
# the most points a halfints grid may list: 255^2, halfints:-64..63. A
# grid holds every report until it writes, about 19 KB per point
GRID_MAX = 255 ** 2


def parse_rational(text):
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise argparse.ArgumentTypeError(
            f"{text!r}: rationals must be exact p/q or integer literals")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            f"{text!r}: zero denominator") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def parse_grid(spec):
    """'halfints:LO..HI' -> all half-integer pairs; 'pairs:l,m;l,m' -> list.

    Raises argparse.ArgumentTypeError on a malformed or empty grid, or
    on a halfints bound that is not a multiple of 1/2. A halfints grid
    of more than GRID_MAX points is also rejected, before any point is
    listed.
    """
    kind, _, body = spec.partition(":")
    if kind == "halfints":
        lo_s, sep, hi_s = body.partition("..")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"grid {spec!r}: expected halfints:LO..HI")
        lo, hi = parse_rational(lo_s), parse_rational(hi_s)
        for bound in (lo, hi):
            if (2 * bound).denominator != 1:
                raise argparse.ArgumentTypeError(
                    f"grid {spec!r}: bound {bound} is not a half-integer")
        n = int(2 * (hi - lo)) + 1
        _require(n <= 0 or n * n <= GRID_MAX,
                 f"grid {spec!r} has {n * n} points, above {GRID_MAX}")
        vals = [lo + Fraction(j, 2) for j in range(n)]
        out = [(a, b) for a in vals for b in vals]
    elif kind == "pairs":
        out = []
        for chunk in body.split(";"):
            if not chunk.strip():
                continue
            parts = chunk.split(",")
            if len(parts) != 2:
                raise argparse.ArgumentTypeError(
                    f"grid {spec!r}: {chunk.strip()!r} is not a pair l,m")
            out.append((parse_rational(parts[0]), parse_rational(parts[1])))
    else:
        raise argparse.ArgumentTypeError(f"unknown grid spec {spec!r}")
    if not out:
        raise argparse.ArgumentTypeError(f"grid {spec!r} has no points")
    return out


def _require(ok, message):
    """Reject bad input; main() reports it on one line with exit 2."""
    if not ok:
        raise argparse.ArgumentTypeError(message)


def _check_out(path):
    """Reject, with `_emit`'s message, an --out path that cannot be
    written; checked before any work, nothing is created or truncated."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        err = errno.EACCES
    else:
        return
    raise argparse.ArgumentTypeError(
        f"cannot write {path}: {os.strerror(err)}")


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise argparse.ArgumentTypeError(
                f"cannot write {out_path}: {exc.strerror}") from None
    else:
        print(text)


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def cmd_audit(args):
    _require(args.no_repair or args.table == "printed",
             "--table repaired needs --no-repair: the audit always starts "
             "from the printed table")
    if args.no_repair:
        table = (algebra.printed_table() if args.table == "printed"
                 else algebra.adopted_table())
        failures = [(t, algebra.format_combo(d))
                    for t, d in table.jacobi_failures()]
        if args.format == "csv":
            text = _csv(["triple", "defect"],
                        [(" ".join(t), d) for t, d in failures])
        else:
            text = json.dumps({
                "variant": args.table,
                "jacobi_failures_printed": [
                    {"triple": list(t), "defect": d} for t, d in failures],
            }, indent=2)
        return text, not failures
    payload = engine.run_audit().to_json()
    if args.format == "csv":
        return _csv(["pair", "from", "to"],
                    [(ch["pair"], ch["from"], ch["to"])
                     for ch in payload["changes"]]), True
    return json.dumps(payload, indent=2), True


def cmd_dims(args):
    _require(args.kmax is None or args.kmax >= 0,
             f"--kmax must be >= 0, got {args.kmax}")
    _require(args.kmax is None or args.kmax <= engine.K_MAX,
             f"--kmax {args.kmax} is above {engine.K_MAX}")
    _require(args.threads >= 1,
             f"--threads must be >= 1, got {args.threads}")
    _require(0 <= args.wmax <= engine.W_MAX
             and (2 * args.wmax).denominator == 1,
             f"--wmax must be a multiple of 1/2 in [0, {engine.W_MAX}], "
             f"got {args.wmax}")
    _require(not args.grid or (args.lam is None and args.mu is None),
             "--grid cannot be combined with --lambda/--mu")
    _require(args.grid or (args.lam is not None and args.mu is not None),
             "provide --lambda/--mu or --grid")
    pairs = parse_grid(args.grid) if args.grid else [(args.lam, args.mu)]
    reports = engine.grid_reports(pairs, K=args.kmax, nmax=args.nmax,
                                  wmax=args.wmax, threads=args.threads)
    ok = all(r.match for r in reports)
    if args.format == "csv":
        return _csv(engine.CSV_FIELDS,
                    [[row[f] for f in engine.CSV_FIELDS]
                     for r in reports for row in r.csv_rows()]), ok
    payload = [r.to_json() for r in reports]
    return json.dumps(payload[0] if len(payload) == 1 else payload,
                      indent=2), ok


def _verify_cocycle(f):
    checks = {
        "closed": coboundary(f).is_zero(),
        "reduced": is_reduced(f),
        "nontrivial": engine.is_coboundary(f) is None,
    }
    res = restrict_sl2(f)
    checks["restriction_nontrivial"] = (
        not res.is_zero() and engine.is_coboundary(res) is None)
    return checks


def cmd_cocycles(args):
    _require(args.k is None or args.k >= 0,
             f"--k must be >= 0, got {args.k}")
    _require(args.kind == "h" or args.lam is None,
             f"--lambda applies to --kind h only, not --kind {args.kind}")
    _require(args.kind != "h" or args.k is None,
             "--k does not apply to --kind h")
    _require(args.kind != "h" or args.lam is not None,
             "--kind h needs --lambda")
    k = args.k or 0
    if args.kind == "cup":
        gf, omega = engine.gelfand_fuchs_check(k)
        slots = {
            algebra.monomial_str(u): op_str(to_oppoly(v))
            for u, v in sorted(omega.values.items())
        }
        checks = {
            "closed": coboundary(omega).is_zero(),
            "nontrivial": engine.is_coboundary(omega) is None,
            "restriction_nontrivial":
                engine.is_coboundary(restrict_sl2(omega)) is None,
        }
        payload = {"kind": "cup", "k": k, "slots": slots,
                   "cup_sign_variant": "printed",
                   "gelfand_fuchs": gf, "checks": checks}
        return json.dumps(payload, indent=2), all(checks.values())
    if args.kind == "h":
        f, ratios = make_h_lambda(args.lam)
    elif args.kind == "f":
        f, ratios = make_f_k(k)
    else:
        f, ratios = make_ftilde_k(k)
    checks = _verify_cocycle(f)
    payload = {
        "kind": args.kind,
        "k": k,
        "lambda": str(args.lam) if args.lam is not None else None,
        "slots": {algebra.monomial_str(u): op_str(to_oppoly(v))
                  for u, v in sorted(f.values.items())},
        "ratios_to_printed": {s: str(r) for s, r in sorted(ratios.items())},
        "checks": checks,
        "cochain": cochain_to_json(f),
    }
    return json.dumps(payload, indent=2), all(checks.values())


def cmd_selftest(args):
    results = engine.selftest(args.suite)
    payload = {
        "suite": args.suite,
        "results": [{"name": n, "ok": ok, "detail": d}
                    for n, ok, d in results],
        "ok": all(ok for _, ok, _ in results),
    }
    if not payload["ok"]:
        failing = [n for n, ok, _ in results if not ok]
        print(f"selftest failures: {', '.join(failing)}", file=sys.stderr)
    return json.dumps(payload, indent=2), payload["ok"]


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose own errors (an unknown flag or command, a
    missing or malformed value) are one line, `ospcoho <cmd>: <message>`,
    and exit 2, like the checks main() makes; its subparsers share it."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: {message}\n")


def build_parser():
    parser = _Parser(
        prog="ospcoho",
        description="Exact cohomology of osp(1|2) weight modules of "
                    "differential operators on the superline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="bracket-table consistency audit")
    p_audit.add_argument("--table", choices=("printed", "repaired"),
                         default="printed")
    p_audit.add_argument("--no-repair", action="store_true",
                         help="only list Jacobi failures of the table")
    p_audit.add_argument("--format", choices=("json", "csv"),
                         default="json")
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(func=cmd_audit)

    p_dims = sub.add_parser("dims", help="dimension tables vs predictions")
    p_dims.add_argument("--lambda", dest="lam", type=parse_rational,
                        default=None)
    p_dims.add_argument("--mu", type=parse_rational, default=None)
    p_dims.add_argument("--grid", default=None,
                        help="halfints:LO..HI or pairs:l,m;l,m;...")
    p_dims.add_argument("--kmax", type=int, default=None,
                        help="truncation depth K (deepened by the guard)")
    p_dims.add_argument("--nmax", type=int, default=engine.NMAX_DEFAULT,
                        choices=range(0, 7))
    p_dims.add_argument("--wmax", type=parse_rational,
                        default=engine.WMAX_DEFAULT,
                        help="half-integer weight window for n <= 2")
    p_dims.add_argument("--threads", type=int, default=1,
                        help="parallel grid workers (default 1: serial)")
    p_dims.add_argument("--format", choices=("json", "csv"),
                        default="json")
    p_dims.add_argument("--out", default=None)
    p_dims.set_defaults(func=cmd_dims)

    p_coc = sub.add_parser("cocycles", help="re-derived explicit cocycles")
    p_coc.add_argument("--kind", choices=("h", "f", "ftilde", "cup"),
                       required=True)
    p_coc.add_argument("--k", type=int, default=None,
                       help="k of --kind f, ftilde or cup (default 0)")
    p_coc.add_argument("--lambda", dest="lam", type=parse_rational,
                       default=None)
    p_coc.add_argument("--out", default=None)
    p_coc.set_defaults(func=cmd_cocycles)

    p_self = sub.add_parser("selftest", help="run invariant suites")
    p_self.add_argument("--suite", default="all",
                        choices=engine.SELFTEST_SUITES)
    p_self.add_argument("--out", default=None)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def _join_negative_fractions(argv):
    """`--opt -p/q` as `--opt=-p/q`.

    argparse reads a token that starts with '-' as an option unless it
    looks like a negative int or decimal, so a negative fraction needs
    the '=' form; the special points lambda = -k/2 are such values.
    """
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and out[-1] != "--"
                and "=" not in out[-1] and _NEGATIVE_FRACTION.fullmatch(tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_negative_fractions(argv))
    try:
        if args.out:
            _check_out(args.out)
        text, ok = args.func(args)
        _emit(text, args.out)
    except argparse.ArgumentTypeError as exc:
        print(f"ospcoho {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Mismatch as exc:
        print(f"ospcoho {args.command}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except BrokenPipeError:  # pragma: no cover
        return EXIT_OK
    return EXIT_OK if ok else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
