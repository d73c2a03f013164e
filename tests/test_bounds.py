import math
from dataclasses import replace

import numpy as np
import pytest

from weylfk.bounds import (
    BoundReport,
    DivergentIntegralError,
    SymbolClassParams,
    check_l1_bound,
    check_linf,
    check_mixed_derivative_bound,
    check_xi_derivative_bounds,
    class_membership,
    default_sweep_potentials,
    linf_sweep,
    xi_derivative_sweep,
)
from weylfk.brownian import VariancePreset, abs_moment_max
from weylfk.multiindex import MultiIndex
from weylfk.oracle import Grid, GridOracle, GridSemigroup, decay_window, semigroup_symbol_at
from weylfk.potentials import (
    MeanFieldPotential,
    NearestNeighborPotential,
    family_from_json,
    harmonic_function,
    lorentzian_function,
    zero_function,
)
from weylfk.symbol_estimator import PhasePoint, SymbolEstimate, estimate_mixed_derivative

from potential_helpers import zero_potential

mi = MultiIndex.of
WIENER = VariancePreset.STANDARD_WIENER


def fake_estimate(value, stderr=0.01, t=1.0):
    return SymbolEstimate(complex(value), stderr, 1000, 10, "generator_laplacian", t)


class TestLinf:
    def test_free_sweep_clean(self):
        V = zero_potential([0])
        rng = np.random.default_rng(1)
        estimates = [
            estimate_mixed_derivative(
                V, PhasePoint([0.0], [float(rng.uniform(-2, 2))]),
                0.5, 4000, 1, seed=k,
            )
            for k in range(20)
        ]
        report = check_linf(estimates)
        assert not report.violation
        assert report.n_samples == 20

    def test_adversarial_flagged(self):
        report = check_linf([fake_estimate(1.5, stderr=0.01)])
        assert report.violation
        assert report.worst_margin == pytest.approx(-0.5)

    def test_slack_tolerates_noise(self):
        report = check_linf([fake_estimate(1.02, stderr=0.01)])
        assert not report.violation  # within three standard errors

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_linf([])


class TestSweeps:
    def test_linf_sweep(self):
        report = linf_sweep(4, 2000, 4, seed=3)
        assert report.inequality == "symbol-sup-unit"
        assert report.n_samples == 4
        assert not report.violation

    def test_xi_derivative_sweep_reports_both_bounds_per_beta(self):
        V = default_sweep_potentials()["lorentzian"]
        betas = [mi({0: 1}), mi({0: 2})]
        reports = xi_derivative_sweep(V, betas, 0.5, 3, 2000, 4, seed=4)
        assert [r.inequality for r in reports] == [
            "xi-derivative-moment-product", "xi-derivative-max-order",
        ] * 2
        assert all(r.n_samples == 3 and not r.violation for r in reports)
        # the point stream runs on across betas: the second beta alone sees
        # the first beta's points instead
        alone = xi_derivative_sweep(V, betas[1:], 0.5, 3, 2000, 4, seed=4)
        assert alone[0].worst_margin != reports[2].worst_margin


class TestXiDerivativeBounds:
    def test_empty_index_reduces_to_unit_bound(self):
        product, coarse = check_xi_derivative_bounds(
            [fake_estimate(0.7)], mi({}), 1.0, WIENER
        )
        assert product.extra["bound"] == 1.0
        assert coarse.extra["bound"] == 1.0
        assert not product.violation

    def test_second_order_unit_time(self):
        product, _ = check_xi_derivative_bounds(
            [fake_estimate(0.2)], mi({1: 2}), 1.0, WIENER
        )
        assert product.extra["bound"] == pytest.approx(1.0, rel=1e-14)

    def test_cross_order_quarter_time(self):
        product, _ = check_xi_derivative_bounds(
            [fake_estimate(0.01)], mi({1: 1, 2: 1}), 0.25, WIENER
        )
        assert product.extra["bound"] == pytest.approx(0.25 * 2 / math.pi, rel=1e-14)

    def test_coarse_never_tighter(self):
        for beta in (mi({1: 1}), mi({1: 2}), mi({1: 2, 2: 1}), mi({1: 3, 2: 3})):
            for t in (0.25, 1.0, 2.0):
                product, coarse = check_xi_derivative_bounds(
                    [fake_estimate(0.0)], beta, t, WIENER
                )
                assert coarse.extra["bound"] >= product.extra["bound"] * (1 - 1e-12)

    def test_violation_flagged(self):
        product, _ = check_xi_derivative_bounds(
            [fake_estimate(5.0, stderr=0.001)], mi({1: 1}), 1.0, WIENER
        )
        assert product.violation


class TestL1Bound:
    def test_harmonic_right_side_is_sqrt_pi(self):
        V = NearestNeighborPotential(1, [(0,)], harmonic_function(), zero_function())
        report = check_l1_bound(V, 1.0, [0.0, 1.0], Grid(14.0, 1024, 1))
        assert report.extra["right_side"] == pytest.approx(math.sqrt(math.pi), rel=1e-9)
        assert not report.violation
        assert report.worst_margin >= 0.0

    def test_zero_potential_divergent(self):
        V = zero_potential([(0,)])
        with pytest.raises(DivergentIntegralError):
            check_l1_bound(V, 1.0, [0.0], Grid(8.0, 256, 1))

    def test_two_site_bound(self):
        V = NearestNeighborPotential(
            1, [(0,), (1,)], harmonic_function(), zero_function()
        )
        report = check_l1_bound(
            V, 0.25, [[0.0, 0.0], [1.0, -0.5]], Grid(10.0, 64, 2)
        )
        assert report.extra["right_side"] == pytest.approx(4 * math.pi, rel=1e-9)
        assert not report.violation

    def test_two_site_separable_matches_dense_route(self, monkeypatch):
        # the factorized symbol window against the dense transform of the same matrix
        V = NearestNeighborPotential(
            1, [(0,), (1,)], harmonic_function(), zero_function()
        )
        grid = Grid(10.0, 32, 2)
        xis = [[0.0, 0.0], [1.0, -0.5], [0.3, 2.0]]
        factorized = [check_l1_bound(V, 1.0, [xi], grid).worst_margin for xi in xis]
        semigroup = GridOracle.semigroup

        def dense(oracle, t):
            S = semigroup(oracle, t)
            assert len(S.factors) == 2
            return GridSemigroup(S.grid, S.t, np.kron(*S.factors))

        monkeypatch.setattr(GridOracle, "semigroup", dense)
        reference = [check_l1_bound(V, 1.0, [xi], grid).worst_margin for xi in xis]
        assert np.abs(np.subtract(factorized, reference)).max() <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2])
    def test_frequencies_at_once_match_one_call_each(self, dim):
        # every frequency is read in one pointwise call per center
        F, G = harmonic_function(), lorentzian_function()
        V = NearestNeighborPotential(1, [(i,) for i in range(dim)], F, G)
        grid = Grid(10.0, 512, 1) if dim == 1 else Grid(8.0, 32, 2)
        xis = np.random.default_rng(dim).uniform(-2.0, 2.0, (5, dim)).tolist()
        report = check_l1_bound(V, 0.5, xis, grid)
        singles = [check_l1_bound(V, 0.5, [xi], grid) for xi in xis]
        assert report.n_samples == len(xis)
        assert report.extra == singles[0].extra
        assert report.worst_margin == pytest.approx(
            min(s.worst_margin for s in singles), rel=1e-13)

    def test_two_site_off_grid_frequency_is_product_of_axis_sums(self):
        # a separable symbol is the product of its axis symbols, so the 2-d left
        # side at a frequency off the grid is the product of 1-d sums over the
        # same centers (reading the nearest grid frequency gave 11.3215)
        V = NearestNeighborPotential(1, [(0,), (1,)], harmonic_function(), zero_function())
        grid, t = Grid(10.0, 32, 2), 0.25
        report = check_l1_bound(V, t, [[1.0, -0.5]], grid)
        left = report.extra["right_side"] - report.worst_margin
        axis = replace(grid, dim=1)
        S = GridOracle(NearestNeighborPotential(1, [(0,)], harmonic_function(), zero_function()),
                       axis).semigroup(t)
        xs = axis.axis()[decay_window(GridOracle(V, grid).semigroup(t).factors, grid, t)]
        sums = [np.abs([semigroup_symbol_at(S, x, xi) for x in xs]).sum() * grid.spacing
                for xi in (1.0, -0.5)]
        assert left == pytest.approx(sums[0] * sums[1], rel=1e-13)
        assert left == pytest.approx(11.040697252621598, rel=1e-12)

    def test_frequency_needs_one_coordinate_per_axis(self):
        one_site = NearestNeighborPotential(1, [(0,)], harmonic_function(), zero_function())
        two_sites = NearestNeighborPotential(
            1, [(0,), (1,)], harmonic_function(), zero_function()
        )
        assert check_l1_bound(one_site, 1.0, [[0.0]], Grid(14.0, 256, 1)).n_samples == 1
        with pytest.raises(ValueError, match="has 1 coordinates, the grid has 2"):
            check_l1_bound(two_sites, 1.0, [0.0], Grid(10.0, 16, 2))
        with pytest.raises(ValueError, match="has 2 coordinates, the grid has 1"):
            check_l1_bound(one_site, 1.0, [[0.0, 1.0]], Grid(14.0, 256, 1))


class TestMixedDerivativeBoundCheck:
    def test_mean_field_sweep(self):
        family = family_from_json({"family": "mean_field", "G": {"name": "lorentzian"}})
        reports = check_mixed_derivative_bound(
            family, 1, 0.5, mi({0: 1}), mi({}), [2, 4], 2000, 8, seed=5
        )
        assert len(reports) == 2
        assert not any(r.violation for r in reports)
        bounds = {r.extra["bound"] for r in reports}
        assert len(bounds) == 1  # literally size-independent

    def test_nearest_neighbor_sweep(self):
        family = family_from_json(
            {"family": "nearest_neighbor_chain", "G": {"name": "lorentzian"}}
        )
        reports = check_mixed_derivative_bound(
            family, 1, 0.5, mi({0: 1}), mi({1: 1}), [2, 4], 2000, 8, seed=6
        )
        assert not any(r.violation for r in reports)

    def test_size_dependent_budget_moves_the_bound(self):
        # a builder whose certified budget grows with the site count: each size
        # takes its own potential's budget, so the bounds differ across sizes
        class Growing(MeanFieldPotential):
            def certified_cm(self, m):
                return float(self.n_sites)

        reports = check_mixed_derivative_bound(
            lambda n: Growing(range(n), lorentzian_function()),
            1, 0.5, mi({0: 1}), mi({}), [2, 4], 200, 2, seed=5,
        )
        assert [r.extra["c_m"] for r in reports] == [2.0, 4.0]
        bounds = [r.extra["bound"] for r in reports]
        assert bounds == [math.exp(0.5 * 2.0), math.exp(0.5 * 4.0)]

    def test_margins_do_not_degrade_with_size(self):
        family = family_from_json({"family": "mean_field", "G": {"name": "lorentzian"}})
        reports = check_mixed_derivative_bound(
            family, 1, 0.5, mi({0: 1}), mi({}), [2, 4, 8], 2000, 8, seed=7
        )
        margins = [r.worst_margin for r in reports]
        slack = max(r.worst_slack for r in reports)
        assert margins[1] >= margins[0] - 2 * slack
        assert margins[2] >= margins[0] - 2 * slack


class TestClassMembership:
    def test_parameters_formula(self):
        family = family_from_json({"family": "mean_field", "G": {"name": "lorentzian"}})
        c1 = family(3).certified_cm(1)
        params, reports = class_membership(
            family, 1, 0.5, 2000, 8, seed=3, lambda_size=3,
            variance=WIENER,
        )
        assert params.max_norm == 1.0
        assert np.allclose(params.rho, 1.0 * math.exp(0.5 * c1))
        assert np.allclose(params.delta, abs_moment_max(1) * math.sqrt(0.5))
        assert len(set(params.rho)) == 1 and len(set(params.delta)) == 1
        assert not any(r.violation for r in reports)

    def test_bound_for_expansion(self):
        params = SymbolClassParams(1.0, [2.0, 2.0], [0.5, 0.5], 1)
        value = params.bound_for(mi({0: 1}), mi({1: 1}))
        assert value == pytest.approx(2.0 * 0.5)

    def test_zero_budget_params(self):
        # a constant interaction has a zero derivative budget: unit position
        # growth factors, frequency factors B_m * sqrt(sigma2 * t)
        family = family_from_json(
            {"family": "mean_field", "G": {"name": "constant", "amplitude": 0.7}}
        )
        params, reports = class_membership(
            family, 1, 1.0, 1000, 4, seed=1, lambda_size=2,
            variance=WIENER,
        )
        assert np.allclose(params.rho, 1.0)
        assert np.allclose(params.delta, abs_moment_max(1) * 1.0)
        assert not any(r.violation for r in reports)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            SymbolClassParams(-1.0, [1.0], [1.0], 1)
