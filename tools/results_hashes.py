"""Print a hash of every benchmark op's results, to compare reruns byte for byte.

    python3 tools/results_hashes.py --seed 5 --workers 2 [--tiny]

Builds the ops of each workload in perfbench/workloads.py and runs each
through ``weylfk.cli.run_config`` from this checkout's ``src``, with
``emit_metadata`` false and a temporary ``csv_output``.  Prints one line per
op: workload, label, exit code, the sha256 of ``cli.dumps`` of its
``results`` block, the sha256 of its CSV (of no bytes when it writes none)
and the sha256 of ``cli.dumps`` of its echoed ``config`` without the
temporary ``csv_output``.  Equal lines from two checkouts, or two worker
counts, mean byte-identical results and config echoes.  Exits 1 when any
op's exit code is not 0.

    python3 tools/results_hashes.py --seed 5 --memory

adds to each line the op's ``tracemalloc`` peak in MiB, from start to end of
its ``run_config`` call (a workload's peak RSS shows only its largest op), and
the process's voluntary context switches across that call (``ru_nvcsw``,
counted while tracemalloc runs): at two workers, mostly GIL waits.

    python3 tools/results_hashes.py --seed 5 --drift OTHER_CHECKOUT

runs the ops on this checkout and on OTHER_CHECKOUT (its ``src`` and its
perfbench/workloads.py), each in a child process, and prints one line per
op instead: workload, label, exit code here, the largest relative
difference |a - b| / max(|a|, |b|) over every number in its ``results``
block and its CSV, 0 where all are equal, and the drift in standard errors.
The relative drift reads inf where the two differ in anything but a number
(a string, a key, a row count or the exit code) or a number is finite on
one side only.  The drift in standard errors is the largest |a - b| /
hypot(se_a, se_b) over the complex estimate (value_re, value_im, stderr)
of an op's ``results`` and the rows of its sweep CSV (xi, value_re,
value_im, stderr), and ``-`` for an op whose results carry no stderr.  A
change that moves results states both drifts; one that moves a random
stream reads the second against the gates' few standard errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mc_interacting", "mc_free", "oracle_grid")


def _load_workloads(root):
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def op_outputs(root, seed, workers, tiny, memory=False) -> list:
    """(workload, label, exit code, results block, CSV bytes, config echo
    without csv_output, tracemalloc peak in bytes or 0 without memory, voluntary
    context switches) of every op, run on the checkout at root."""
    sys.path.insert(0, os.path.join(root, "src"))
    from weylfk import cli

    workloads = _load_workloads(root)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "rows.csv")
        for name in WORKLOADS:
            for op in workloads.build(name, seed, workers, tiny).ops:
                config = json.loads(json.dumps(op.config))
                config.update(emit_metadata=False, csv_output=csv_path)
                if memory:
                    tracemalloc.start()
                switches = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
                code, doc = cli.run_config(op.subcommand, config, workers)
                switches = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw - switches
                peak = tracemalloc.get_traced_memory()[1] if memory else 0
                if memory:
                    tracemalloc.stop()
                raw = b""
                if os.path.exists(csv_path):
                    with open(csv_path, "rb") as fh:
                        raw = fh.read()
                    os.remove(csv_path)
                echo = {k: v for k, v in doc["config"].items() if k != "csv_output"}
                outputs.append((name, op.label, code, doc["results"], raw, echo, peak, switches))
    return outputs


def hash_lines(seed, workers, tiny, memory=False) -> list:
    outputs = op_outputs(ROOT, seed, workers, tiny, memory)
    from weylfk import cli  # importable once op_outputs put src on the path

    return [f"{name} {label} {code} {_sha256(cli.dumps(results).encode())} {_sha256(raw)} "
            f"{_sha256(cli.dumps(echo).encode())}"
            + (f" {peak / 2**20:.2f} {switches}" if memory else "")
            for name, label, code, results, raw, echo, peak, switches in outputs]


def _child_outputs(checkout, seed, workers, tiny) -> list:
    """op_outputs of a checkout, from a child process that imports its src;
    each as (workload, label, exit code, results, CSV text)."""
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import results_hashes as r; "
              "json.dump([(n, l, c, res, raw.decode()) for n, l, c, res, raw, *_ in "
              "r.op_outputs(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5] == "
              "'tiny')], sys.stdout)")
    out = subprocess.run([sys.executable, "-c", script, os.path.dirname(__file__), checkout,
                          str(seed), str(workers), "tiny" if tiny else "full"],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def _cells(text):
    # a CSV's cells, numbers as floats
    def cell(value):
        try:
            return float(value)
        except ValueError:
            return value
    return [[cell(value) for value in row] for row in csv.reader(io.StringIO(text))]


def drift(a, b) -> float:
    """Largest relative difference over the numbers at the same places of two
    JSON values, 0 where all are equal and inf where they differ otherwise."""
    if isinstance(a, dict) and isinstance(b, dict):
        return drift(sorted(a.items()), sorted(b.items()))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return math.inf
        return max((drift(x, y) for x, y in zip(a, b)), default=0.0)
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)]
    if not all(numbers):
        return 0.0 if a == b else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


ESTIMATE = ("value_re", "value_im", "stderr")


def _estimates(results, cells) -> list:
    """(re, im, se) of an op's estimate and of each row of its sweep CSV, given
    as cells; empty for an op whose results carry no stderr."""
    if not all(key in results for key in ESTIMATE):
        return []
    rows = cells[1:] if cells[:1] == [["xi", *ESTIMATE]] else []
    return [[results[key] for key in ESTIMATE]] + [row[1:] for row in rows]


def z_drift(a, b) -> float:
    """Largest |a - b| / hypot(se_a, se_b) over estimates (re, im, se) at the
    same places, 0 where all are equal and inf where an estimate moved with
    no standard error on either side, or the counts differ."""
    if len(a) != len(b):
        return math.inf
    largest = 0.0
    for (re, im, se), (re_b, im_b, se_b) in zip(a, b):
        gap, scale = math.hypot(re - re_b, im - im_b), math.hypot(se, se_b)
        if gap:
            largest = max(largest, gap / scale if scale else math.inf)
    return largest


def drift_lines(other, seed, workers, tiny) -> list:
    mine = _child_outputs(ROOT, seed, workers, tiny)
    theirs = _child_outputs(other, seed, workers, tiny)
    if [op[:2] for op in mine] != [op[:2] for op in theirs]:
        raise SystemExit(f"{other} runs other ops than {ROOT}")
    lines = []
    for (name, label, code, results, raw), (_, _, code_b, results_b, raw_b) in zip(mine, theirs):
        largest = z = math.inf
        cells, cells_b = _cells(raw), _cells(raw_b)
        estimates = _estimates(results, cells)
        if code == code_b:
            largest = max(drift(results, results_b), drift(cells, cells_b))
            z = z_drift(estimates, _estimates(results_b, cells_b))
        lines.append(f"{name} {label} {code} {largest:.3g} {f'{z:.3g}' if estimates else '-'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="the workloads' smoke-test sizes")
    parser.add_argument("--drift", metavar="OTHER_CHECKOUT",
                        help="print each op's largest relative difference from this checkout "
                        "and its largest difference in standard errors")
    parser.add_argument("--memory", action="store_true",
                        help="add each op's tracemalloc peak in MiB and voluntary "
                        "context switches to its hashes")
    args = parser.parse_args(argv)
    if args.drift and args.memory:
        parser.error("--memory adds to the hash lines, not to --drift")
    if args.drift:
        lines = drift_lines(args.drift, args.seed, args.workers, args.tiny)
    else:
        lines = hash_lines(args.seed, args.workers, args.tiny, args.memory)
    print("\n".join(lines))
    # any op that did not exit 0 fails the run, so scripted comparisons see it
    return 0 if all(line.split()[2] == "0" for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
