import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "results_hashes.py")


def _lines(workers):
    out = subprocess.run([sys.executable, SCRIPT, "--seed", "5", "--tiny",
                          "--workers", str(workers)],
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def test_every_op_hashes_the_same_at_one_and_two_workers():
    one, two = _lines(1), _lines(2)
    assert one == two
    # mc_interacting has four ops, mc_free two and oracle_grid three
    assert [line.split()[0] for line in one] == (
        ["mc_interacting"] * 4 + ["mc_free"] * 2 + ["oracle_grid"] * 3)
    assert all(line.split()[2] == "0" for line in one)  # exit codes
