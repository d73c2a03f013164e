"""weylfk benchmark: one closed-loop client driving the CLI layer.

    python3 perfbench/run.py --workload mc_free --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each run of the workload's op sequence is a
fresh child process (perfbench/child.py), so peak RSS is per run.  Children
run one after another until ``--seconds`` have passed (at least one).  Before
them, a few set-up-only children measure the time from process start until
the first op is ready; after them, one untimed child re-runs the workload's
repeat ops and must reproduce their results hashes byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced children and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full report (machine
block, per-run figures, diagnostics).  The exit code is nonzero, with no
result line, when the library cannot be imported from the checkout.

This file uses only the standard library; the children import numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_interacting", "mc_free", "oracle_grid")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # every invocation ends within 180 s
MC_TARGET = 1e-3  # statistical error the time-to-accuracy is scaled to

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; the values come from tracing.layer_metrics except
# the three computed here from whole runs
PER_LAYER = {
    "potentials.eval.calls": "count",
    "potentials.eval.busy_s": "s",
    "potentials.eval.points": "count",
    "potentials.eval.points_per_s": "1/s",
    "potentials.eval.points_per_path_step": "count",
    "potentials.scalar.derivative.elements": "count",
    "potentials.scalar.derivative.busy_s": "s",
    "symbol_estimator.calls": "count",
    "symbol_estimator.busy_s": "s",
    "symbol_estimator.self_s": "s",
    "symbol_estimator.path_steps": "count",
    "symbol_estimator.path_steps_per_s": "1/s",
    "symbol_estimator.cpu_per_wall": "ratio",
    "symbol_estimator.peak_alloc_mb": "MB",
    "brownian.sample_path_batch.busy_s": "s",
    "brownian.sample_path_batch.normals_per_s": "1/s",
    "oracle.build_hamiltonian.busy_s": "s",
    "oracle.GridOracle.init.self_s": "s",
    "oracle.eigh.dim_cubed_sum": "count",
    "oracle.semigroup.busy_s": "s",
    "oracle.matrix_weyl_symbol.busy_s": "s",
    "oracle.wigner.busy_s": "s",
    "oracle.pairing_check.self_s": "s",
    "oracle.symbol.centers_kept_frac": "ratio",
    "commutator.op_weyl_matrix.busy_s": "s",
    "commutator.commutator_trace.self_s": "s",
    "bounds.self_s": "s",
    "faadibruno.mixed_derivative_bound.busy_s": "s",
    "multiindex.from_text.busy_s": "s",
    "cli.validate_config.busy_s": "s",
    "cli.dumps.busy_s": "s",
    "cli.output_bytes": "bytes",
    "cli.run_config.self_s": "s",
    "trace.overhead_frac": "ratio",
    "mc_tta_s": "s",
    "fail_frac": "ratio",
}


class SetupError(RuntimeError):
    """The library cannot be started from this checkout."""


def machine_block(nproc, blas_threads) -> dict:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            l3 = fh.read().strip()
    except OSError:
        l3 = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "memory_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "l3_cache": l3,
        "blas_threads": blas_threads,
    }


class Runner:
    def __init__(self, workload, seed, nproc, tiny, deadline, blas_threads):
        self.workload = workload
        self.seed = seed
        self.nproc = nproc
        self.tiny = tiny
        self.deadline = deadline
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))

    def child(self, mode) -> dict:
        """Run one child to completion; a crash or timeout returns {"error": ...}."""
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode,
                "nproc": self.nproc, "tiny": self.tiny}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"error": "deadline reached before the child started"}
        spec["spawn_t"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"{mode} child killed at the deadline"}
        if proc.returncode == 3:
            raise SetupError("the benchmark child could not import weylfk")
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"{mode} child exited with code {proc.returncode}"}
        return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def tally(runs, failures):
    """Count attempted and failed ops over (run, planned op count) pairs.

    A run that crashed fails every op it planned.  An op fails on its gate,
    or when its results hash differs from the first run of the same op.
    """
    hashes = {}
    attempted = failed = 0
    for run, planned in runs:
        if "error" in run:
            attempted += planned
            failed += planned
            failures.append(run["error"])
            continue
        for rec in run["ops"]:
            attempted += 1
            reasons = list(rec["failures"])
            if "hash" in rec and hashes.setdefault(rec["label"], rec["hash"]) != rec["hash"]:
                reasons.append("results hash differs from the first run")
            if reasons:
                failed += 1
                failures.append(f"{rec['label']}: " + "; ".join(reasons))
    return attempted, failed


def mc_tta(run) -> float:
    """Sum over estimate ops of wall time x (stderr / 1e-3)^2."""
    return sum(r["wall_s"] * (r["max_stderr"] / MC_TARGET) ** 2
               for r in run["ops"] if r.get("estimate") and "max_stderr" in r)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (the benchmark's own smoke test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "weylfk", "cli.py")):
        print("perfbench: src/weylfk is missing from this checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = min(2, nproc)
    runner = Runner(args.workload, args.seed, nproc, args.tiny,
                    time.monotonic() + DEADLINE_S, blas_threads)

    try:
        probes = ([] if args.trace else
                  [runner.child("setup") for _ in range(SETUP_PROBES)])
        timed, traced = [], []
        t_first = time.monotonic()
        while not timed or time.monotonic() - t_first < args.seconds:
            timed.append(runner.child("timed"))
            if args.trace:
                traced.append(runner.child("traced"))
            if "error" in timed[-1] or (traced and "error" in traced[-1]):
                break
        repeat = runner.child("repeat")
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    ok_timed = [r for r in timed if "error" not in r]
    ok_traced = [r for r in traced if "error" not in r]
    # a crashed child is charged the op count of a complete one, or one op
    n_ops = len(ok_timed[0]["ops"]) if ok_timed else 1
    failures = []
    attempted, failed = tally(
        [(r, n_ops) for r in timed + traced] + [(repeat, len(repeat.get("ops", [])) or 1)],
        failures,
    )

    accounting = [row for r in ok_traced for row in r["accounting"]]
    for row in accounting:
        if abs(row["residual_s"]) > 1e-6 * max(row["wall_s"], 1e-3):
            failures.append(f"op {row['op']}: self times do not add up to the op's wall")

    if args.trace == 0:
        setups = [r["setup_s"] for r in probes + timed if "error" not in r]
        values = {
            "setup_s": _median(setups),
            "run_s": _median([r["run_s"] for r in ok_timed]),
            "cpu_s": _median([r["cpu_s"] for r in ok_timed]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok_timed]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        values = {
            name: _median([r["layers"][name] for r in ok_traced])
            for name in PER_LAYER if ok_traced and name in ok_traced[0]["layers"]
        }
        untraced = _median([r["run_s"] for r in ok_timed])
        values["trace.overhead_frac"] = (
            _median([r["run_s"] for r in ok_traced]) / untraced - 1.0 if untraced else 0.0
        )
        values["mc_tta_s"] = _median([mc_tta(r) for r in ok_timed])
        values["fail_frac"] = failed / attempted if attempted else 1.0
        metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in PER_LAYER.items()}

    sample = ok_timed[0] if ok_timed else {}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {**machine_block(nproc, blas_threads), "blas": sample.get("blas"),
                    "numpy": sample.get("numpy"), "seed": args.seed,
                    "workers": sample.get("workers")},
        "runs": len(timed),
        "repeat": {"workers": repeat.get("workers"),
                   "ops": [rec["label"] for rec in repeat.get("ops", [])]},
        "setup_samples": [r.get("setup_s") for r in probes + timed],
        "run_s": [r.get("run_s") for r in timed],
        "peak_rss_mb": [r.get("peak_rss_mb") for r in timed],
        "fail_frac": failed / attempted if attempted else 1.0,
        "mc_tta_s": [mc_tta(r) for r in ok_timed],
        "op_wall_s": {rec["label"]: rec["wall_s"] for rec in sample.get("ops", [])},
        "diagnostics": {
            f"{rec['label']}.pairing_residual": rec["pairing_residual"]
            for rec in sample.get("ops", []) if "pairing_residual" in rec
        },
        "self_time_accounting": accounting,
        "untraced_names": sorted({n for r in ok_traced for n in r["untraced_names"]}),
        "spans_files": [r["spans_file"] for r in ok_traced],
        "failures": failures,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failures and failed == 0 and bool(ok_timed),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
