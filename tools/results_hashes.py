"""Print a hash of every benchmark op's results, to compare reruns byte for byte.

    python3 tools/results_hashes.py --seed 5 --workers 2 [--tiny]

Builds the ops of each workload in perfbench/workloads.py and runs each
through ``weylfk.cli.run_config`` from this checkout's ``src``, with
``emit_metadata`` false and a temporary ``csv_output``.  Prints one line per
op: workload, label, exit code, the sha256 of ``cli.dumps`` of its
``results`` block and the sha256 of its CSV (of no bytes when it writes
none).  Equal lines from two checkouts, or two worker counts, mean
byte-identical results.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mc_interacting", "mc_free", "oracle_grid")


def _load_workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_lines(seed, workers, tiny) -> list:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from weylfk import cli

    workloads = _load_workloads()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "rows.csv")
        for name in WORKLOADS:
            for op in workloads.build(name, seed, workers, tiny).ops:
                config = json.loads(json.dumps(op.config))
                config.update(emit_metadata=False, csv_output=csv_path)
                code, doc = cli.run_config(op.subcommand, config, workers)
                raw = b""
                if os.path.exists(csv_path):
                    with open(csv_path, "rb") as fh:
                        raw = fh.read()
                    os.remove(csv_path)
                results = _sha256(cli.dumps(doc["results"]).encode())
                lines.append(f"{name} {op.label} {code} {results} {_sha256(raw)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="the workloads' smoke-test sizes")
    args = parser.parse_args(argv)
    print("\n".join(hash_lines(args.seed, args.workers, args.tiny)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
