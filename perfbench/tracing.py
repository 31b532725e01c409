"""Per-layer tracing of ospcoho from outside the program.

`install()` replaces each function or method in TARGETS, in every
ospcoho namespace that holds it, by a wrapper that counts calls and
measures self time: the span's duration minus the part covered by the
traced spans it called. `uninstall()` puts the originals back. Spans are
aggregated per name in memory (a grid pass makes ~300k `act_basis`
calls, too many to keep one by one).

A traced process pool is supported through a wrapped executor class:
every worker resets the copy of the tracer it inherited, traces its own
jobs and writes its totals to a file after each report; the parent
merges those files with `merge_worker_dumps()`.
"""

import functools
import glob
import importlib
import json
import os
import sys
import time

# (module, class or None, attribute). The span is named "<layer>.<attr>",
# the layer being the module name without its leading underscore.
TARGETS = (
    ("weightmod", "TruncatedDlm", "act_basis"),
    ("weightmod", "TruncatedDlm", "kernel_slice"),
    ("weightmod", None, "module_axiom_holds"),
    ("cochains", None, "delta_matrix"),
    ("cochains", None, "block_basis"),
    ("cochains", None, "coboundary"),
    ("algebra", None, "canonicalize"),
    ("algebra", None, "audit_and_repair"),
    ("algebra", "StructureTable", "is_jacobi"),
    ("linalg", None, "_to_int_row"),
    ("linalg", None, "rank"),
    ("linalg", None, "kernel_basis"),
    ("linalg", None, "rref"),
    ("linalg", None, "solve"),
    ("linalg", None, "span_contains"),
    ("_kernels_py", None, "echelon"),
    ("superdiff", None, "derived_module_action"),
    ("engine", None, "h_dim"),
    ("engine", None, "predict_theorem"),
    ("engine", None, "predict_proposition"),
    ("engine", None, "build_report"),
    ("engine", None, "grid_reports"),
    ("engine", None, "restriction_injectivity_check"),
    ("engine", None, "is_coboundary"),
    ("engine", None, "selftest"),
    ("engine", None, "run_audit"),
)

LAYERS = ("weightmod", "cochains", "algebra", "linalg", "kernels_py",
          "superdiff", "engine")
ASSEMBLY = ("cochains.delta_matrix", "cochains.block_basis",
            "weightmod.act_basis", "algebra.canonicalize")
COUNTERS = (
    "cochains.delta_matrix.nnz", "cochains.delta_matrix.cells",
    "kernels_py.echelon.rows_in", "kernels_py.echelon.nnz_in",
    "kernels_py.echelon.pivots", "kernels_py.echelon.max_bits",
    "engine.rank_cache.hits", "engine.rank_cache.misses",
    "engine.rank_cache.entries", "engine.grid_reports.workers",
    "algebra.is_jacobi.passed",
)

# In the parent of a process pool this span's self time is the wait on
# the workers, not work.
POOL_WAIT_SPAN = "engine.grid_reports"

_active = None


def _rank_cache():
    """The engine's process-wide rank cache, or None once it is gone."""
    return getattr(sys.modules["ospcoho.engine"], "_rank_cache", None)


class Tracer:
    """Per-span [calls, total_s, self_s] plus named counters."""

    def __init__(self):
        self.stats = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stack = [0.0]      # child time of each open span
        self.dump_path = None   # set in pool workers
        self.installed = []     # names of the spans in place
        self._restore = []

    def add(self, name, value):
        self.counters[name] += value

    def reset(self):
        """Zero in place; wrappers hold references to these objects."""
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        self.stack[:] = [0.0]

    def snapshot(self):
        counters = dict(self.counters)
        counters["engine.rank_cache.entries"] = len(_rank_cache() or ())
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counters": counters}

    def wrap(self, name, fn, before=None, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                t = clock()
                state = before(self, args, kwargs)
                stack[-1] += clock() - t
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                stack[-1] += dur
            if after is not None:
                # Counting happens outside every span's self time.
                t = clock()
                after(self, state, args, result)
                stack[-1] += clock() - t
            return result

        wrapper.perfbench_span = name
        return wrapper


# --- counters taken at the span boundaries ---------------------------------

def _delta_after(tracer, state, args, result):
    m = result[2]
    tracer.add("cochains.delta_matrix.nnz", m.nnz())
    tracer.add("cochains.delta_matrix.cells", m.nrows * m.ncols)


def _echelon_before(tracer, args, kwargs):
    rows = args[0]
    tracer.add("kernels_py.echelon.rows_in", len(rows))
    tracer.add("kernels_py.echelon.nnz_in", sum(len(r) for r in rows))


def _echelon_after(tracer, state, args, result):
    pivots, out = result
    tracer.add("kernels_py.echelon.pivots", len(pivots))
    bits = max((abs(v).bit_length() for r in out for v in r.values()),
               default=0)
    counters = tracer.counters
    counters["kernels_py.echelon.max_bits"] = max(
        bits, counters["kernels_py.echelon.max_bits"])


def _h_dim_before(tracer, args, kwargs):
    cache = _rank_cache()
    return None if cache is None else len(cache)


def _h_dim_after(tracer, entries_before, args, result):
    if entries_before is None:
        return
    n = args[1]
    lookups = 4 if n > 0 else 2     # two parities, blocks n and n-1
    misses = len(_rank_cache()) - entries_before
    tracer.add("engine.rank_cache.misses", misses)
    tracer.add("engine.rank_cache.hits", lookups - misses)


def _is_jacobi_after(tracer, state, args, result):
    if result:
        tracer.add("algebra.is_jacobi.passed", 1)


def _build_report_after(tracer, state, args, result):
    if tracer.dump_path is not None:
        with open(tracer.dump_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


HOOKS = {
    "cochains.delta_matrix": (None, _delta_after),
    "kernels_py.echelon": (_echelon_before, _echelon_after),
    "engine.h_dim": (_h_dim_before, _h_dim_after),
    "algebra.is_jacobi": (None, _is_jacobi_after),
    "engine.build_report": (None, _build_report_after),
}


# --- installing and removing the wrappers ----------------------------------

def _namespaces():
    return [m for name, m in sys.modules.items()
            if name == "ospcoho" or name.startswith("ospcoho.")]


def install(dump_dir=None):
    """Wrap every target; returns the active Tracer."""
    global _active
    if _active is not None:
        raise RuntimeError("tracing is already installed")
    tracer = Tracer()
    for module, cls, attr in TARGETS:
        name = f"{module.lstrip('_')}.{attr}"
        tracer.stats[name] = [0, 0.0, 0.0]
        try:
            mod = importlib.import_module(f"ospcoho.{module}")
            owner = getattr(mod, cls) if cls else mod
            original = owner.__dict__[attr] if cls else getattr(mod, attr)
        except (ImportError, AttributeError, KeyError):
            continue    # gone from the program: its metrics read 0
        tracer.installed.append(name)
        before, after = HOOKS.get(name, (None, None))
        if cls is not None:
            setattr(owner, attr, tracer.wrap(name, original, before, after))
            tracer._restore.append((owner, attr, original))
            continue
        wrapper = tracer.wrap(name, original, before, after)
        for ns in _namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    tracer._restore.append((ns, key, original))
    engine = sys.modules["ospcoho.engine"]
    pool_cls = getattr(engine, "ProcessPoolExecutor", None)
    if pool_cls is not None:
        engine.ProcessPoolExecutor = _traced_pool(tracer, pool_cls, dump_dir)
        tracer._restore.append((engine, "ProcessPoolExecutor", pool_cls))
    _active = tracer
    return tracer


def uninstall():
    """Restore every original; a no-op when tracing is not installed."""
    global _active
    if _active is None:
        return
    for owner, attr, original in reversed(_active._restore):
        setattr(owner, attr, original)
    _active = None


def wrapped_count():
    """How many ospcoho functions are currently tracing wrappers."""
    found = set()
    for ns in _namespaces():
        for value in list(vars(ns).values()):
            members = vars(value).values() if isinstance(value, type) \
                else (value,)
            found.update(id(obj) for obj in members
                         if hasattr(obj, "perfbench_span"))
    return len(found)


# --- the traced process pool -----------------------------------------------

def _traced_pool(tracer, base, dump_dir):
    class TracedPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            key = "engine.grid_reports.workers"
            tracer.counters[key] = max(tracer.counters[key], max_workers or 0)
            kwargs.setdefault("initializer", _worker_init)
            kwargs.setdefault("initargs", (dump_dir,))
            super().__init__(max_workers, *args, **kwargs)

    return TracedPool


def _worker_init(dump_dir):
    """Start a worker's own trace: reset the inherited one, or install."""
    tracer = _active
    if tracer is None:          # a spawned worker imports afresh
        tracer = install(None)
    tracer.reset()
    tracer.dump_path = os.path.join(dump_dir, f"worker-{os.getpid()}.json")


def merge_worker_dumps(snapshot, dump_dir):
    """Add the totals of every worker in `dump_dir` to `snapshot`."""
    for path in sorted(glob.glob(os.path.join(dump_dir, "worker-*.json"))):
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
        for name, (calls, total, self_s) in dump["stats"].items():
            s = snapshot["stats"].setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += self_s
        counters = snapshot["counters"]
        for name, value in dump["counters"].items():
            if name == "kernels_py.echelon.max_bits":
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
    return snapshot
