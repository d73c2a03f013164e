"""One benchmark child: import weylfk from the checkout, build the workload's
inputs, run its ops back to back through ``weylfk.cli.run_config``, gate and
hash each op's output, and print one JSON line describing the run.

Usage (normally started by run.py):
    python3 perfbench/child.py '{"workload": "mc_free", "seed": 1, "mode": "timed",
                                 "nproc": 2, "tiny": false, "spawn_t": 0.0}'

Modes: ``setup`` stops when the first op is ready; ``timed`` runs every op
untraced; ``traced`` runs every op with spans installed; ``repeat`` runs the
workload's repeat ops at its repeat worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import weylfk.cli
    if not os.path.abspath(weylfk.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"weylfk imported from {weylfk.cli.__file__}, not from {src}")
    return weylfk.cli


def _read_csv(path):
    if not os.path.exists(path):
        return None, b""
    with open(path, "rb") as fh:
        raw = fh.read()
    os.remove(path)
    lines = raw.decode().strip().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines], raw


def _blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main(spec, cli) -> dict:
    import numpy as np
    import workloads

    wl = workloads.build(spec["workload"], spec["seed"], spec["nproc"], spec["tiny"])
    ops, workers = wl.ops, wl.workers
    if spec["mode"] == "repeat":
        ops = [op for op in wl.ops if op.label in wl.repeat]
        workers = wl.repeat_workers
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    ready = time.monotonic()
    out = {
        "setup_s": ready - spec["spawn_t"],
        "workers": workers,
        "numpy": np.__version__,
        "blas": _blas_name(np),
    }
    if spec["mode"] == "setup":
        return out

    tracer = None
    if spec["mode"] == "traced":
        import tracing
        tracer = tracing.Tracer()
        out["untraced_names"] = tracing.install(tracer)
    records = []
    for index, op in enumerate(ops):
        config = json.loads(json.dumps(op.config))
        csv_path = None
        if config.get("xi_sweep"):
            csv_path = os.path.join(tmp, f"{os.getpid()}-{op.label}.csv")
            config["csv_output"] = csv_path
        rec = {"label": op.label, "estimate": op.estimate}
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.op = index
                span = tracer.open("bench.op")
                try:
                    code, doc = cli.run_config(op.subcommand, config, workers)
                finally:
                    tracer.close(span)
                    tracer.op = None
            else:
                code, doc = cli.run_config(op.subcommand, config, workers)
        except Exception as err:  # an op that raises is a failed op, not a crash
            rec.update(wall_s=time.perf_counter() - t0, cpu_s=_cpu() - cpu0,
                       failures=[f"raised {type(err).__name__}: {err}"],
                       traceback=traceback.format_exc(limit=4))
            records.append(rec)
            continue
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = _cpu() - cpu0
        results = doc["results"]
        rows, raw_csv = _read_csv(csv_path) if csv_path else (None, b"")
        rec["hash"] = hashlib.sha256(cli.dumps(results).encode() + raw_csv).hexdigest()
        rec["failures"] = op.gate(op, code, results, rows)
        if op.estimate:
            stderrs = [results.get("stderr", math.inf)] + [r[3] for r in rows or []]
            rec["max_stderr"] = max(stderrs)
        if "pairing_residual" in results:
            rec["pairing_residual"] = results["pairing_residual"]
        records.append(rec)
    out["ops"] = records
    out["run_s"] = sum(r["wall_s"] for r in records)
    out["cpu_s"] = sum(r["cpu_s"] for r in records)
    out["peak_rss_mb"] = _rss_mb()
    if tracer is not None:
        import tracing
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["accounting"] = tracing.op_accounting(tracer.spans)
        spans_dir = os.path.join(ROOT, ".perfbench", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"{spec['workload']}-seed{spec['seed']}-{os.getpid()}.json")
        out["spans_file"] = os.path.relpath(path, ROOT)
        with open(path, "w") as fh:
            json.dump([s.to_json() for s in tracer.spans], fh)
    return out


if __name__ == "__main__":
    try:
        library_cli = _import_library()
    except ImportError as err:
        print(f"perfbench child: cannot import the library: {err}", file=sys.stderr)
        sys.exit(3)
    print(json.dumps(main(json.loads(sys.argv[1]), library_cli)))
