"""End-to-end acceptance checks, one per criterion, at their stated tolerances.

Each test prints a single PASS line once its criterion holds; run with -s (or
read the captured output) to see the summary.  Every random input is seeded,
so the suite is deterministic.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
import sympy

import weylfk as w
from weylfk import cli
from weylfk.multiindex import MultiIndex, sub_multiindices

from potential_helpers import zero_potential

mi = MultiIndex.of
GEN = w.VariancePreset.GENERATOR_LAPLACIAN
WIENER = w.VariancePreset.STANDARD_WIENER


def index_factorial(index):
    """The product of the factorials of an index's per-site orders."""
    return math.prod(math.factorial(o) for _, o in index.entries)


def ok(number, name, detail=""):
    print(f"ACCEPTANCE {number} ({name}): PASS {detail}")


def harmonic_1d():
    return w.NearestNeighborPotential(
        1, [(0,)], w.harmonic_function(), w.zero_function()
    )


def lorentzian_1d():
    return w.NearestNeighborPotential(
        1, [(0,)], w.lorentzian_function(), w.zero_function()
    )


def chain_2sites():
    return w.NearestNeighborPotential(
        1, [(0,), (1,)], w.gaussian_bump_function(), w.lorentzian_function(2.0, 2.0)
    )


def test_criterion_1_free_symbol_closed_form():
    start = time.perf_counter()
    V = zero_potential([0])
    worst = 0.0
    runs = 0
    for preset in (GEN, WIENER):
        sigma2 = preset.sigma2
        for xi in (0.25, 0.75, 1.25, 1.75, 2.5):
            for t in (0.1, 0.25, 0.5, 0.75, 1.0):
                est = w.estimate_mixed_derivative(
                    V, w.PhasePoint([0.0], [xi]), t, 200_000, 1,
                    seed=101 + runs, variance=preset,
                )
                exact = math.exp(-0.5 * sigma2 * t * xi * xi)
                assert abs(est.value - exact) <= 3.0 * est.stderr, (preset, xi, t)
                worst = max(worst, abs(est.value - exact) / est.stderr)
                runs += 1
    elapsed = time.perf_counter() - start
    assert runs == 50
    assert elapsed <= 30.0
    ok(1, "free-symbol closed form",
       f"[50 combos, worst {worst:.2f} stderr, {elapsed:.1f}s]")


def test_criterion_2_gaussian_moments():
    # unit-variance normalization so the closed form is t^(|b|/2) * prod A_k
    assert w.abs_moment_constant(0) == pytest.approx(1.0, abs=1e-15)
    assert w.abs_moment_constant(2) == pytest.approx(1.0, abs=1e-14)
    for m in (4, 5):
        assert w.abs_moment_max(m) == w.abs_moment_constant(m)
    rng = np.random.default_rng(424242)
    t = 0.8
    n = 100_000
    endpoints = np.abs(w.sample_path_batch(rng, n, t, 1, 3, WIENER)[:, -1, :])
    checked = 0
    worst = 0.0
    for b0 in range(7):
        for b1 in range(7 - b0):
            for b2 in range(7 - b0 - b1):
                if b0 + b1 + b2 == 0:
                    continue
                beta = mi({0: b0, 1: b1, 2: b2})
                samples = (
                    endpoints[:, 0] ** b0
                    * endpoints[:, 1] ** b1
                    * endpoints[:, 2] ** b2
                )
                exact = w.absolute_moment_product(beta, t, WIENER)
                stderr = samples.std(ddof=1) / math.sqrt(n)
                deviation = abs(samples.mean() - exact)
                assert deviation <= 4.0 * stderr, beta
                worst = max(worst, deviation / stderr)
                checked += 1
    assert checked == 83
    ok(2, "endpoint absolute moments",
       f"[{checked} orders, worst {worst:.2f} stderr]")


def test_criterion_3_sup_bound_sweep():
    potentials = [harmonic_1d(), lorentzian_1d(), chain_2sites()]
    rng = np.random.default_rng(33)
    probes = []
    for k in range(100):
        V = potentials[k % 3]
        point = w.PhasePoint(
            rng.uniform(-2, 2, V.n_sites), rng.uniform(-2, 2, V.n_sites)
        )
        t = float(rng.uniform(0.1, 1.0))
        probes.append((V, point, t, 7000 + k, mi({}), mi({})))
    unit = {"bound": ("symbol-sup-unit", 1.0, {})}
    (report,), _ = w.check_probes([(probes, unit)], 4096, 16, w.DEFAULT_PRESET, 1)
    assert report.n_samples == 100
    assert not report.violation

    grid1 = w.Grid(10.0, 512, 1)
    sup_values = []
    for V in (harmonic_1d(), lorentzian_1d()):
        oracle = w.GridOracle(V, grid1)
        tab = oracle.symbol(oracle.semigroup(0.5))
        sup_values.append(float(np.abs(tab.values).max()))
    oracle2 = w.GridOracle(chain_2sites(), w.Grid(6.0, 32, 2))
    tab2 = oracle2.symbol(oracle2.semigroup(0.25))
    sup_values.append(float(np.abs(tab2.values).max()))
    assert all(s <= 1.0 + 1e-8 for s in sup_values)
    ok(3, "unit sup bound",
       f"[worst margin {report.worst_margin:.4f}, oracle sup {max(sup_values):.4f}]")


def test_criterion_4_oracle_cross_validation():
    grid = w.Grid(10.0, 1024, 1)
    worst_ratio = 0.0
    worst_pairing = 0.0
    probes = 0
    seed = 500
    for name, V in (("zero", zero_potential([(0,)])), ("harmonic", harmonic_1d()),
                    ("lorentzian", lorentzian_1d())):
        oracle = w.GridOracle(V, grid)
        x = grid.axis()
        f = np.exp(-0.5 * x**2)
        f /= math.sqrt((f**2).sum() * grid.spacing)
        g = np.exp(-0.5 * (x - 0.4) ** 2)
        g /= math.sqrt((g**2).sum() * grid.spacing)
        for t in (0.1, 0.5, 1.0):
            S = oracle.semigroup(t)
            tab = oracle.symbol(S, pairing=(f, g) if t == 0.5 else None)
            if t == 0.5:
                worst_pairing = max(worst_pairing, tab.pairing_residual)
            n_steps = max(16, int(96 * t))
            xs = [tab.x[int(np.argmin(np.abs(tab.x - v)))]
                  for v in (-1.5, -0.75, 0.0, 0.75, 1.5)]
            xi_probes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
            for x in xs:
                # one path set serves the five frequencies at this position
                est = w.estimate_mixed_derivative(
                    V, w.PhasePoint([x], xi_probes[:, None]), t, 80_000, n_steps, seed=seed
                )
                seed += 1
                u_ref = w.semigroup_symbol_at(S, x, xi_probes)
                for xi, value, stderr, ref in zip(xi_probes, est.value, est.stderr, u_ref):
                    tolerance = max(3.0 * stderr, 5e-3)
                    assert abs(value - ref) <= tolerance, (name, t, x, xi)
                    worst_ratio = max(worst_ratio, abs(value - ref) / tolerance)
                    probes += 1
    assert probes == 225
    assert worst_pairing <= 1e-6
    ok(4, "estimator vs grid oracle",
       f"[{probes} probes, worst {worst_ratio:.2f} of tolerance, "
       f"pairing residual {worst_pairing:.1e}]")


def test_criterion_5_l1_bound():
    report = w.check_l1_bound(
        harmonic_1d(), 1.0, [-2.0, -1.0, 0.0, 1.0, 2.0], w.Grid(14.0, 1024, 1)
    )
    assert report.extra["right_side"] == pytest.approx(math.sqrt(math.pi), rel=1e-9)
    assert not report.violation
    assert report.worst_margin >= -1e-6
    ok(5, "position-integral bound",
       f"[right side {report.extra['right_side']:.6f}, "
       f"worst margin {report.worst_margin:.4f}]")


def test_criterion_6_exponential_derivatives():
    y = sympy.Symbol("y")
    worst = 0.0
    for coeffs in ((0.7, -0.3, 0.11, -0.05), (1.2, 0.4, -0.15, 0.02)):
        W = sum(c * y ** (i + 1) for i, c in enumerate(coeffs))
        point = sympy.Rational(2, 5)
        for order in range(1, 7):
            exact = float(
                (sympy.diff(sympy.exp(W), y, order) / sympy.exp(W)).subs(y, point)
            )
            derivs = {
                mi({1: k}): float(sympy.diff(W, y, k).subs(y, point))
                for k in range(1, order + 1)
            }
            ours = w.derivative_of_exponential(derivs, mi({1: order}))
            assert ours == pytest.approx(exact, rel=1e-12)
            worst = max(worst, abs(ours - exact) / abs(exact))
    # the recurrence against the Faa di Bruno sum over a brute-force
    # enumeration of multiplicity vectors, on seeded arrays
    rng = np.random.default_rng(6)
    for alpha in (mi({1: 2, 2: 1}), mi({1: 3, 2: 2}), mi({1: 1, 2: 1, 3: 1}), mi({1: 6})):
        subs = sub_multiindices(alpha)
        derivs = {b: rng.uniform(-2.0, 2.0, 32) for b in subs}
        reference = scale = 0.0
        for combo in itertools.product(
            *[range(alpha.order // b.order + 1) for b in subs]
        ):
            acc = {}
            for b, c in zip(subs, combo):
                for site, order in b.entries:
                    acc[site] = acc.get(site, 0) + c * order
            if acc == dict(alpha.entries):
                coeff = index_factorial(alpha) // math.prod(
                    math.factorial(c) * index_factorial(b)**c for b, c in zip(subs, combo)
                )
                term = coeff * math.prod(derivs[b] ** c for b, c in zip(subs, combo))
                reference, scale = reference + term, scale + np.abs(term)
        ours = w.derivative_of_exponential(derivs, alpha)
        assert np.all(np.abs(ours - reference) <= 1e-13 * scale)
    ok(6, "chain-rule expansion vs symbolic", f"[relative error <= {worst:.1e}]")


def test_criterion_7_mixed_derivative_bounds():
    start = time.perf_counter()
    families = {
        "chain": w.family_from_json({"family": "nearest_neighbor_chain",
                                     "F": {"name": "gaussian_bump"},
                                     "G": {"name": "gaussian_bump"}}),
        "mean_field": w.family_from_json({"family": "mean_field", "G": {"name": "lorentzian"}}),
    }
    cases = {
        1: [(mi({0: 1}), mi({})), (mi({}), mi({0: 1})), (mi({0: 1}), mi({1: 1}))],
        2: [(mi({0: 2}), mi({})), (mi({0: 1}), mi({0: 2}))],
    }
    t = 0.5
    sizes = [2, 4, 8]
    total = 0
    for name, family in families.items():
        for m, pairs in cases.items():
            for alpha, beta in pairs:
                groups = w.mixed_derivative_probes(family, m, t, alpha, beta, sizes,
                                                   seed=9100 + total, variance=w.DEFAULT_PRESET)
                reports, _ = w.check_probes(groups, n_paths=8192, n_steps=24,
                                            variance=w.DEFAULT_PRESET, n_workers=1)
                bounds = [r.extra["bound"] for r in reports]
                assert all(math.isfinite(b) for b in bounds)
                assert max(bounds) == min(bounds)  # literally size-independent
                assert not any(r.violation for r in reports), (name, m, alpha, beta)
                total += len(reports)
    elapsed = time.perf_counter() - start
    assert elapsed <= 600.0
    ok(7, "mixed-derivative bounds",
       f"[{total} size/index reports, {elapsed:.0f}s]")


def test_criterion_8_commutator_trace():
    grid = w.Grid(10.0, 1024, 1)
    V = harmonic_1d()
    oracle = w.GridOracle(V, grid)
    state = w.gaussian_state_symbol(grid, [0.6], [0.6], [1.0], [1.0])
    op = w.op_weyl_matrix(state)
    assert abs(np.trace(op).real - 1.0) <= 1e-8
    assert abs(np.trace(op).imag) <= 1e-10

    ts = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
    values = []
    for r in w.commutator_trace(oracle, state, [0.0, 1.0], 0, ts):
        assert r.route_gap <= 1e-6 * abs(r.trace_matrix), r.t
        assert r.axis_residual <= 1e-10
        values.append((r.t, r.trace_matrix))
    fit = w.scaling_fit(values)
    c_full = fit.coefficient
    c_low = max(abs(v) / math.sqrt(t) for t, v in values if t <= 0.1)
    assert abs(c_low - c_full) <= 0.2 * c_full
    for t, v in values:
        assert abs(v) <= c_full * math.sqrt(t) * (1 + 1e-12)
    assert fit.slope >= 0.4
    ok(8, "commutator trace scaling",
       f"[C={c_full:.4f}, half-range C={c_low:.4f}, slope={fit.slope:.2f}]")


def test_criterion_9_cli_determinism(tmp_path):
    out = tmp_path / "out.json"
    csv = tmp_path / "out.csv"
    estimate_config = {
        "potential": {
            "variant": "nearest_neighbor",
            "d": 1,
            "sites": [[0], [1]],
            "F": {"name": "gaussian_bump"},
            "G": {"name": "lorentzian"},
        },
        "x": [0.3, -0.1], "xi": [0.8, -0.4], "t": 0.6, "seed": 2718,
        "alpha": "", "beta": "0:1",
        "n_paths": 20_000, "n_steps": 12, "chunk_size": 1024,
        "xi_sweep": {"site_index": 0, "start": -1.5, "stop": 1.5, "count": 4},
        "output": str(out), "csv_output": str(csv),
        "emit_metadata": False,
    }
    verify_config = {
        "suite": "xi-deriv", "seed": 99, "n_points": 5,
        "n_paths": 4096, "n_steps": 8, "t": 0.5,
        "betas": ["0:1"], "output": str(out),
        "emit_metadata": False,
    }
    for name, config in (("estimate", estimate_config), ("verify", verify_config)):
        captures = []
        for workers in (1, 4, 2):
            code, _ = cli.run_config(name, config, n_workers=workers)
            assert code == 0
            payload = out.read_bytes()
            if name == "estimate":
                payload += csv.read_bytes()
            captures.append(payload)
        assert captures[1] == captures[0]
        assert captures[2] == captures[0]
    ok(9, "byte-identical reruns", "[estimate and verify at 3 worker counts]")
