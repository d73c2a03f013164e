"""Each correctness gate accepts a good output and rejects a perturbed one."""

import math

import pytest

import workloads


def op_by_label(workload, label, tiny=False):
    wl = workloads.build(workload, seed=5, nproc=2, tiny=tiny)
    (op,) = [o for o in wl.ops if o.label == label]
    return op


@pytest.fixture
def estimate_op():
    return op_by_label("mc_interacting", "mixed_alpha_8", tiny=True)


def good_estimate():
    return {"value_re": 0.4, "value_im": 1e-4, "stderr": 1e-3}


def test_interacting_estimate_gate(estimate_op):
    gate = estimate_op.gate
    assert gate(estimate_op, 0, good_estimate(), None) == []
    assert gate(estimate_op, 2, good_estimate(), None)
    for key, value in [("value_re", 1.01), ("value_re", -1.01), ("value_im", 5e-3),
                       ("value_re", math.nan), ("stderr", math.inf)]:
        assert gate(estimate_op, 0, {**good_estimate(), key: value}, None), (key, value)


def sweep_rows(op, shift=0.0):
    t = op.config["t"]
    sweep = op.config["xi_sweep"]
    n = sweep["count"]
    step = (sweep["stop"] - sweep["start"]) / (n - 1)
    xis = [sweep["start"] + k * step for k in range(n)]
    return [[xi, workloads.free_symbol(xi, t) + shift, 0.0, 1e-3] for xi in xis]


def test_free_sweep_gate():
    op = op_by_label("mc_free", "free_sweep", tiny=True)
    xi0 = op.config["xi"][0]
    main = {"value_re": workloads.free_symbol(xi0, op.config["t"]), "value_im": 0.0,
            "stderr": 1e-3}
    assert op.gate(op, 0, main, sweep_rows(op)) == []
    assert op.gate(op, 0, main, sweep_rows(op, shift=5e-3))
    assert op.gate(op, 0, {**main, "value_re": main["value_re"] + 5e-3}, sweep_rows(op))
    assert op.gate(op, 0, main, sweep_rows(op)[:-1])
    rows = sweep_rows(op)
    rows[1][2] = 5e-3
    assert op.gate(op, 0, main, rows)


def test_moments_gate():
    op = op_by_label("mc_free", "moments")
    assert op.gate(op, 0, {"deviation_in_stderr": 1.2}, None) == []
    assert op.gate(op, 0, {"deviation_in_stderr": 4.5}, None)
    assert op.gate(op, 0, {"deviation_in_stderr": math.nan}, None)


def test_mixed_deriv_gate():
    op = op_by_label("mc_interacting", "verify_mixed_deriv")
    good = {"violations": 0, "bound_is_size_independent": True}
    assert op.gate(op, 0, good, None) == []
    assert op.gate(op, 3, good, None)
    assert op.gate(op, 0, {**good, "violations": 1}, None)
    assert op.gate(op, 0, {**good, "bound_is_size_independent": False}, None)


def test_separable_oracle_gate():
    op = op_by_label("oracle_grid", "separable_64")
    trace = op.reference["trace"]
    good = {"trace": trace, "symbol_integral": trace, "max_abs_symbol": 0.78,
            "pairing_residual": 2e-14}
    assert op.gate(op, 0, good, None) == []
    for key, value in [("trace", trace * (1 + 1e-8)), ("symbol_integral", trace + 1e-9),
                       ("max_abs_symbol", 1.0 + 1e-9), ("pairing_residual", 1e-8)]:
        assert op.gate(op, 0, {**good, key: value}, None), key


def test_separable_reference_is_the_1d_trace_squared():
    # the 4096^2 oracle trace measured at n=64, L=8, t=0.5
    op = op_by_label("oracle_grid", "separable_64")
    assert op.reference["trace"] == pytest.approx(0.9382026036015618, rel=1e-10)


def test_coupled_oracle_reports_but_does_not_gate_pairing():
    op = op_by_label("oracle_grid", "coupled_32")
    good = {"trace": 0.6087, "symbol_integral": 0.6087, "max_abs_symbol": 0.37,
            "pairing_residual": 2.4e-4}
    assert op.gate(op, 0, good, None) == []
    assert op.gate(op, 0, {**good, "symbol_integral": 0.6088}, None)
    assert op.gate(op, 0, {**good, "max_abs_symbol": 1.5}, None)


def test_commutator_gate():
    op = op_by_label("oracle_grid", "commutator_1024")
    points = [{"t": t, "route_gap": 3e-17, "axis_residual": 7e-18}
              for t in op.config["t_list"]]
    good = {"state_trace": 1.0, "points": points}
    assert op.gate(op, 0, good, None) == []
    assert op.gate(op, 0, {**good, "state_trace": 1.0 + 1e-9}, None)
    assert op.gate(op, 0, {**good, "points": points[:-1]}, None)
    for key in ("route_gap", "axis_residual"):
        bad = [dict(p) for p in points]
        bad[0][key] = 1e-9
        assert op.gate(op, 0, {**good, "points": bad}, None), key


def test_inputs_follow_the_seed():
    a = workloads.build("mc_interacting", 1, 2)
    b = workloads.build("mc_interacting", 1, 2)
    c = workloads.build("mc_interacting", 2, 2)
    assert [o.config for o in a.ops] == [o.config for o in b.ops]
    assert a.ops[0].config["x"] != c.ops[0].config["x"]
    assert a.ops[0].config["seed"] != c.ops[0].config["seed"]
    assert a.ops[0].config["n_paths"] == c.ops[0].config["n_paths"]
