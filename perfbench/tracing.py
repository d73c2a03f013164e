"""In-memory spans around the public functions of each weylfk layer.

Nothing here is imported by the library: a traced benchmark child calls
:func:`install` after importing weylfk, which replaces every module binding
of the wrapped functions (the CLI, bounds and commutator modules import
functions by name) and the methods on the classes that define them.

A span records name, start, end, parent span, op id, thread and counters.
A span opened on a thread with no open span of its own (an estimator worker
thread) attaches to the innermost open span of the thread that installed the
tracer, which is the estimator call waiting on that pool.  Self time is a
span's duration minus the union of its children's intervals, so children
running concurrently on two threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "counts")

    def __init__(self, id, name, start, end=None, parent=None, op=None, thread=0,
                 counts=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.thread = thread
        self.counts = counts if counts is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "thread": self.thread,
            "counts": self.counts,
        }


class Tracer:
    """Collects spans from the installing thread and the pools it waits on."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self):
        """Innermost open span of this thread, else of the installing thread."""
        stack = self._stack()
        if stack:
            return stack[-1]
        if threading.get_ident() != self._home and self._home_stack:
            return self._home_stack[-1]
        return None

    def open(self, name) -> Span:
        parent = self.top()
        # next() on a count and list.append are single C calls, atomic under the GIL
        span = Span(next(self._ids), name, self.clock(),
                    parent=parent.id if parent else None, op=self.op,
                    thread=threading.get_ident())
        self._stack().append(span)
        return span

    def close(self, span: Span):
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)

    def inside(self, name) -> bool:
        stack = self._stack()
        return bool(stack) and stack[-1].name == name


# ---------------------------------------------------------------------------
# self-time arithmetic

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans) -> dict:
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to its parent's interval."""
    kids = _children(spans)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in kids.get(s.id, ()) if c.end > s.start and c.start < s.end
        )
        out[s.id] = s.duration - covered
    return out


def op_accounting(spans, root_name="bench.op") -> list:
    """Per op: wall time of its root span, the sum of self times of every span
    carrying the op id, and the thread overlap among siblings.

    Sum of self times equals wall plus overlap exactly when every span of the
    op sits inside the op's root and inside its own parent; ``residual``
    measures the departure from that identity.
    """
    selfs = self_times(spans)
    kids = _children(spans)
    rows = []
    for root in (s for s in spans if s.name == root_name):
        members = [s for s in spans if s.op == root.op]
        overlap = 0.0
        for s in members:
            ch = kids.get(s.id, ())
            overlap += sum(c.duration for c in ch) - union_length(
                (c.start, c.end) for c in ch
            )
        self_sum = sum(selfs[s.id] for s in members)
        rows.append({
            "op": root.op,
            "wall_s": root.duration,
            "self_sum_s": self_sum,
            "overlap_s": overlap,
            "residual_s": self_sum - overlap - root.duration,
        })
    return rows


# ---------------------------------------------------------------------------
# installation

def wrap(tracer: Tracer, name: str, fn, counts=None, measure=None):
    """Wrap fn in a span called name.

    counts(bound_arguments, result) -> dict adds counters; measure, when
    given, is a context manager factory whose value is a dict merged into
    the counters after the call (CPU time, allocation peak).  Calls outside
    an op (``tracer.op is None``) and calls made directly inside a span of
    the same name (recursion) are not traced.
    """
    sig = inspect.signature(fn) if counts else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is None or tracer.inside(name):
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            if measure is None:
                result = fn(*args, **kwargs)
            else:
                with measure() as extra:
                    result = fn(*args, **kwargs)
                span.counts.update(extra)
            if counts is not None:
                span.counts.update(counts(sig.bind(*args, **kwargs).arguments, result))
            return result
        finally:
            tracer.close(span)

    return wrapper


def patch_everywhere(original, replacement, package="weylfk"):
    """Rebind every module-level name in the package that refers to original."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class _CpuAndAlloc:
    """Process CPU seconds and tracemalloc peak above the entry level."""

    def __enter__(self):
        self.extra = {}
        self._cpu0 = time.process_time()
        self._started = not tracemalloc.is_tracing()
        if self._started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self._base = tracemalloc.get_traced_memory()[0]
        return self.extra

    def __exit__(self, *exc):
        peak = tracemalloc.get_traced_memory()[1]
        if self._started:
            tracemalloc.stop()
        self.extra["cpu_s"] = time.process_time() - self._cpu0
        self.extra["peak_alloc_bytes"] = max(0, peak - self._base)
        return False


def _points(args, _):
    return {"points": int(np.prod(np.shape(args["x"])[:-1]))}


def _elements(args, _):
    return {"elements": int(np.size(args["y"]))}


def _path_points(_, est):
    return {"path_points": int(est.n_paths) * (int(est.n_steps) + 1)}


def _normals(args, _):
    return {"normals": int(args["n_paths"]) * int(args["n_steps"]) * int(args["n_sites"])}


def _centers(args, table):
    kept, total = 1, 1
    for idx in table.center_indices:
        kept *= len(idx)
        total *= table.grid.n_grid
    return {"centers_kept": kept, "centers_total": total}


def _dump_bytes(_, text):
    return {"bytes": len(text)}


def _written_bytes(args, _):
    return {"bytes": len(args["text"])}


ESTIMATORS = ("estimate_u", "estimate_xi_derivative", "estimate_x_derivative",
              "estimate_mixed_derivative")
BOUNDS = ("check_linf", "check_xi_derivative_bounds", "check_l1_bound",
          "check_mixed_derivative_bound", "class_membership")


def install(tracer: Tracer) -> list:
    """Wrap each layer's public functions; returns the names that were absent.

    Absent names leave their metrics at zero rather than failing, so the
    benchmark keeps running on versions of the library that drop a function.
    """
    from weylfk import (bounds, brownian, cli, commutator, faadibruno, multiindex,
                        oracle, potentials, symbol_estimator)

    missing = []

    def module_fn(mod, attr, name, **kw):
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{mod.__name__}.{attr}")
            return
        patch_everywhere(fn, wrap(tracer, name, fn, **kw))

    def method(cls, attr, name, **kw):
        fn = cls.__dict__.get(attr) if cls is not None else None
        if fn is None:
            missing.append(f"{getattr(cls, '__name__', cls)}.{attr}")
            return
        setattr(cls, attr, wrap(tracer, name, fn, **kw))

    module_fn(cli, "run_config", "cli.run_config")
    module_fn(cli, "validate_config", "cli.validate_config")
    module_fn(cli, "dumps", "cli.dumps", counts=_dump_bytes)
    module_fn(cli, "write_atomic", "cli.write_atomic", counts=_written_bytes)

    for attr in ESTIMATORS:
        module_fn(symbol_estimator, attr, "symbol_estimator",
                  counts=_path_points, measure=_CpuAndAlloc)
    module_fn(brownian, "sample_path_batch", "brownian.sample_path_batch",
              counts=_normals)

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for cls in subclasses(potentials.PotentialSpec):
        if "eval" in cls.__dict__:
            method(cls, "eval", "potentials.eval", counts=_points)
    method(potentials.ScalarFunction, "derivative", "potentials.scalar.derivative",
           counts=_elements)

    module_fn(oracle, "build_hamiltonian", "oracle.build_hamiltonian")
    grid_oracle = getattr(oracle, "GridOracle", None)
    method(grid_oracle, "__init__", "oracle.GridOracle.init")
    method(grid_oracle, "semigroup", "oracle.semigroup")
    method(grid_oracle, "symbol", "oracle.symbol", counts=_centers)
    module_fn(oracle, "matrix_weyl_symbol", "oracle.matrix_weyl_symbol")
    module_fn(oracle, "wigner", "oracle.wigner")
    module_fn(oracle, "pairing_check", "oracle.pairing_check")

    module_fn(commutator, "op_weyl_matrix", "commutator.op_weyl_matrix")
    module_fn(commutator, "commutator_trace", "commutator.commutator_trace")

    for attr in BOUNDS:
        module_fn(bounds, attr, f"bounds.{attr}")
    module_fn(faadibruno, "mixed_derivative_bound", "faadibruno.mixed_derivative_bound")
    module_fn(multiindex, "from_text", "multiindex.from_text")

    eigh = np.linalg.eigh

    @functools.wraps(eigh)
    def counted_eigh(a, *args, **kwargs):
        top = tracer.top()
        if top is not None:
            dim = int(np.shape(a)[-1])
            top.counts["eigh_dim_cubed"] = top.counts.get("eigh_dim_cubed", 0) + dim**3
        return eigh(a, *args, **kwargs)

    np.linalg.eigh = counted_eigh
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Aggregate the spans of one traced run into per-layer metric values."""
    selfs = self_times(spans)
    by = {}
    for s in spans:
        agg = by.setdefault(s.name, {"calls": 0, "busy": 0.0, "self": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["busy"] += s.duration
        agg["self"] += selfs[s.id]
        for k, v in s.counts.items():
            if k == "peak_alloc_bytes":
                agg["counts"][k] = max(agg["counts"].get(k, 0), v)
            else:
                agg["counts"][k] = agg["counts"].get(k, 0) + v

    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "counts": {}}

    def get(name):
        return by.get(name, empty)

    def count(name, key):
        return get(name)["counts"].get(key, 0)

    ev = get("potentials.eval")
    est = get("symbol_estimator")
    spb = get("brownian.sample_path_batch")
    sym = get("oracle.symbol")
    eigh_cubed = sum(s.counts.get("eigh_dim_cubed", 0) for s in spans)
    bounds_self = sum(a["self"] for n, a in by.items() if n.startswith("bounds."))
    return {
        "potentials.eval.calls": ev["calls"],
        "potentials.eval.busy_s": ev["busy"],
        "potentials.eval.points": count("potentials.eval", "points"),
        "potentials.eval.points_per_s": _ratio(count("potentials.eval", "points"), ev["busy"]),
        "potentials.eval.points_per_path_step": _ratio(
            count("potentials.eval", "points"), count("symbol_estimator", "path_points")),
        "potentials.scalar.derivative.elements": count("potentials.scalar.derivative", "elements"),
        "potentials.scalar.derivative.busy_s": get("potentials.scalar.derivative")["busy"],
        "symbol_estimator.calls": est["calls"],
        "symbol_estimator.busy_s": est["busy"],
        "symbol_estimator.self_s": est["self"],
        "symbol_estimator.path_steps": count("symbol_estimator", "path_points"),
        "symbol_estimator.path_steps_per_s": _ratio(
            count("symbol_estimator", "path_points"), est["busy"]),
        "symbol_estimator.cpu_per_wall": _ratio(count("symbol_estimator", "cpu_s"), est["busy"]),
        "symbol_estimator.peak_alloc_mb": count("symbol_estimator", "peak_alloc_bytes") / 2**20,
        "brownian.sample_path_batch.busy_s": spb["busy"],
        "brownian.sample_path_batch.normals_per_s": _ratio(
            count("brownian.sample_path_batch", "normals"), spb["busy"]),
        "oracle.build_hamiltonian.busy_s": get("oracle.build_hamiltonian")["busy"],
        "oracle.GridOracle.init.self_s": get("oracle.GridOracle.init")["self"],
        "oracle.eigh.dim_cubed_sum": eigh_cubed,
        "oracle.semigroup.busy_s": get("oracle.semigroup")["busy"],
        "oracle.matrix_weyl_symbol.busy_s": get("oracle.matrix_weyl_symbol")["busy"],
        "oracle.wigner.busy_s": get("oracle.wigner")["busy"],
        "oracle.pairing_check.self_s": get("oracle.pairing_check")["self"],
        "oracle.symbol.centers_kept_frac": _ratio(
            sym["counts"].get("centers_kept", 0), sym["counts"].get("centers_total", 0)),
        "commutator.op_weyl_matrix.busy_s": get("commutator.op_weyl_matrix")["busy"],
        "commutator.commutator_trace.self_s": get("commutator.commutator_trace")["self"],
        "bounds.self_s": bounds_self,
        "faadibruno.mixed_derivative_bound.busy_s": get("faadibruno.mixed_derivative_bound")["busy"],
        "multiindex.from_text.busy_s": get("multiindex.from_text")["busy"],
        "cli.validate_config.busy_s": get("cli.validate_config")["busy"],
        "cli.dumps.busy_s": get("cli.dumps")["busy"],
        "cli.output_bytes": count("cli.dumps", "bytes") + count("cli.write_atomic", "bytes"),
        "cli.run_config.self_s": get("cli.run_config")["self"],
    }
