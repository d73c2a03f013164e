import importlib.util
import math
import os
import subprocess
import sys

import pytest

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


def test_memory_adds_each_ops_peak_to_its_hashes():
    out = subprocess.run([sys.executable, SCRIPT, "--seed", "5", "--tiny", "--memory"],
                         capture_output=True, text=True, check=True).stdout
    lines = [line.split() for line in out.splitlines()]
    assert [line[:6] for line in lines] == [line.split() for line in _lines(1)]
    assert all(len(line) == 8 for line in lines)
    assert all(0.0 < float(line[6]) < 100.0 for line in lines)  # MiB
    assert all(int(line[7]) >= 0 for line in lines)  # voluntary context switches


def test_memory_does_not_apply_to_drift():
    with pytest.raises(SystemExit) as exc:
        _tool().main(["--seed", "5", "--memory", "--drift", ROOT])
    assert exc.value.code == 2


def _tool():
    spec = importlib.util.spec_from_file_location("results_hashes", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_exits_1_when_an_op_exits_nonzero(monkeypatch, capsys):
    tool = _tool()
    monkeypatch.setattr(cli, "run_config", lambda *args: (2, {"results": {}, "config": {}}))
    assert tool.main(["--seed", "5", "--tiny"]) == 1
    assert all(line.split()[2] == "2" for line in capsys.readouterr().out.splitlines())


def test_a_checkout_does_not_drift_from_itself():
    out = subprocess.run([sys.executable, SCRIPT, "--seed", "5", "--tiny", "--drift", ROOT],
                         capture_output=True, text=True, check=True).stdout
    lines = [line.split() for line in out.splitlines()]
    assert [line[:2] for line in lines] == [line.split()[:2] for line in _lines(1)]
    assert all(line[2:4] == ["0", "0"] for line in lines)  # exit code, relative drift
    # the drift in standard errors of the estimate ops; the rest carry no stderr
    estimates = {"mean_field_16", "chain_32", "mixed_alpha_8", "free_sweep"}
    assert [line[4] for line in lines] == ["0" if line[1] in estimates else "-"
                                           for line in lines]


@pytest.mark.parametrize("a, b, expected", [
    ({"x": [1.0, 0.5], "s": "a"}, {"x": [1.0, 0.75], "s": "a"}, 1 / 3),
    ({"x": 0.0, "y": math.nan}, {"x": 0.0, "y": math.nan}, 0.0),
    ({"x": 1.0}, {"x": -1.0}, 2.0),
    ({"x": math.inf}, {"x": 1.0}, math.inf),
    ({"s": "a"}, {"s": "b"}, math.inf),
    ({"x": [1.0]}, {"x": [1.0, 2.0]}, math.inf),
    ({"x": 1.0}, {"y": 1.0}, math.inf),
], ids=["relative", "nan-and-zero", "sign", "infinite", "string", "length", "key"])
def test_drift_is_the_largest_relative_difference(a, b, expected):
    assert _tool().drift(a, b) == expected


_SWEEP = "xi,value_re,value_im,stderr\n"
_ESTIMATE = {"value_re": 1.0, "value_im": 0.0, "stderr": 0.3}


@pytest.mark.parametrize("mine, other, expected", [
    (({"x": 1.0}, "x\n1.0\n"), (0, {"x": 1.0}, "x\n1.0\n"), "0 -"),
    (({"x": 1.0}, "x\n1.0\n"), (0, {"x": 1.0}, "x\n0.5\n"), "0.5 -"),  # from the CSV
    # an exit code is not a number to compare
    (({"x": 1.0}, "x\n1.0\n"), (2, {"x": 1.0}, "x\n1.0\n"), "inf -"),
    # |a - b| = 1 over hypot(0.3, 0.4) = 0.5 standard errors
    ((_ESTIMATE, ""), (0, {"value_re": 1.0, "value_im": 1.0, "stderr": 0.4}, ""), "1 2"),
    # the sweep's second row moved hypot(9, 12) = 15 over hypot(3, 4) = 5
    ((_ESTIMATE, _SWEEP + "0.5,1,0,3\n1,1,0,3\n"),
     (0, _ESTIMATE, _SWEEP + "0.5,1,0,3\n1,10,12,4\n"), "1 3"),
    # a move with no standard error on either side
    (({**_ESTIMATE, "stderr": 0.0}, ""), (0, {**_ESTIMATE, "value_re": 2.0, "stderr": 0.0}, ""),
     "0.5 inf"),
], ids=["equal", "csv", "exit-code", "estimate-z", "sweep-z", "no-stderr-z"])
def test_drift_line_of_an_op(mine, other, expected, monkeypatch):
    tool = _tool()
    ops = {tool.ROOT: [("w", "op", 0, *mine)], "other": [("w", "op", *other)]}
    monkeypatch.setattr(tool, "_child_outputs", lambda checkout, *args: ops[checkout])
    assert tool.drift_lines("other", 5, 1, True) == [f"w op 0 {expected}"]
