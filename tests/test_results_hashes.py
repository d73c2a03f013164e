import importlib.util
import os
import subprocess
import sys

from weylfk import cli

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
    assert all(len(line.split()) == 6 for line in one)  # results, CSV and config hashes


def test_exits_1_when_an_op_exits_nonzero(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("results_hashes", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(cli, "run_config", lambda *args: (2, {"results": {}, "config": {}}))
    assert tool.main(["--seed", "5", "--tiny"]) == 1
    assert all(line.split()[2] == "2" for line in capsys.readouterr().out.splitlines())
