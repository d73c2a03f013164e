import math
import tracemalloc
from functools import partial, reduce

import numpy as np
import pytest

from weylfk.commutator import (
    GaussianAxisFactor,
    WeylObservable,
    commutator_trace,
    gaussian_state_symbol,
    op_weyl_matrix,
    scaling_fit,
)
from weylfk.oracle import (
    Grid,
    GridOracle,
    GridSemigroup,
    SupportError,
    build_hamiltonian,
    decay_window,
    matrix_symbol_bands,
)
from weylfk.potentials import (
    NearestNeighborPotential,
    harmonic_function,
    lorentzian_function,
    zero_function,
)

from potential_helpers import zero_potential


@pytest.fixture(scope="module")
def harmonic_setup():
    grid = Grid(10.0, 512, 1)
    V = NearestNeighborPotential(1, [(0,)], harmonic_function(), zero_function())
    oracle = GridOracle(V, grid)
    state = gaussian_state_symbol(grid, [0.6], [0.6], [1.0], [1.0])
    op = op_weyl_matrix(state)
    return grid, V, oracle, state, op


class TestState:
    def test_trace_one(self, harmonic_setup):
        grid, V, oracle, state, op = harmonic_setup
        assert state.trace_quadrature() == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(op).real - 1.0) <= 1e-8
        assert abs(np.trace(op).imag) <= 1e-12

    def test_nonnegative(self, harmonic_setup):
        grid, V, oracle, state, op = harmonic_setup
        for f in state.axes:
            assert f.x_profile(grid.axis()).min() >= 0.0
            assert f.xi_profile(grid.xi_axis()).min() >= 0.0
        assert state.norm_const > 0.0

    def test_trace_quadrature_forms_no_table(self):
        # a 2-d state read as one factor, as for a coupled oracle: its (centers x
        # frequencies) table at n = 64 is 64^4 floats, 128 MiB, while the
        # quadrature needs only per-axis profiles of n entries (a few KiB
        # measured); 1 MiB lies far from both
        state = gaussian_state_symbol(Grid(4.0, 64, 2), [0.2, -0.1], [0.3, 0.1],
                                      [0.4, 0.4], [0.5, 0.5])
        tracemalloc.start()
        try:
            trace = state.trace_quadrature()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace == pytest.approx(1.0, abs=1e-12)
        assert peak < 2**20

    def test_peak_scales_with_width(self):
        grid = Grid(10.0, 256, 1)
        wide = gaussian_state_symbol(grid, [0.0], [0.0], [1.0], [1.0])
        narrow = gaussian_state_symbol(grid, [0.0], [0.0], [0.5], [0.5])
        # trace-one normalization: halving both widths quadruples the peak
        ratio = narrow.norm_const / wide.norm_const
        assert ratio == pytest.approx(4.0, rel=1e-6)

    def test_support_violations(self):
        grid = Grid(4.0, 64, 1)
        with pytest.raises(SupportError):
            gaussian_state_symbol(grid, [3.9], [0.0], [1.0], [1.0])
        with pytest.raises(SupportError):
            gaussian_state_symbol(grid, [0.0], [0.0], [1.0], [50.0])


class TestQuantization:
    def test_hermitian(self, harmonic_setup):
        grid, V, oracle, state, op = harmonic_setup
        assert np.abs(op - op.conj().T).max() <= 1e-10

    def test_constant_symbol_is_identity(self):
        # a symbol flat across phase space quantizes to a multiple of the identity
        grid = Grid(10.0, 128, 1)
        state = WeylObservable(grid, (GaussianAxisFactor(0.0, 0.0, 1e6, 1e6),), 1.0)
        op = op_weyl_matrix(state)
        c = state.norm_const  # the constant symbol value
        assert np.abs(op - c * np.eye(grid.n_grid)).max() <= 1e-9 * c

    @pytest.mark.parametrize("grid, state", [
        (Grid(10.0, 128, 1), ([0.6], [0.6], [1.0], [1.0])),
        (Grid(10.0, 128, 1), ([-1.3], [-2.0], [0.8], [0.7])),
        (Grid(10.0, 512, 1), ([0.6], [0.6], [1.0], [1.0])),
        (Grid(10.0, 512, 1), ([-1.3], [-2.0], [0.8], [0.7])),
        (Grid(4.0, 16, 2), ([0.2, -0.1], [0.1, -0.1], [0.5, 0.5], [0.3, 0.3])),
    ], ids=["n128-a", "n128-b", "n512-a", "n512-b", "2d-n16"])
    def test_matches_direct_quadrature(self, grid, state):
        # reference: the frequency integral at every index difference as one
        # dense phase matrix, and the (sum, difference) table it fills
        p = gaussian_state_symbol(grid, *state)
        n, dx = grid.n_grid, grid.spacing
        dxi = math.pi / (n * dx)
        xi_band = (np.arange(2 * n) - n) * dxi
        half_centers = (np.arange(2 * n - 1) + 1.0) * dx / 2.0 - grid.half_width
        diffs = np.arange(-(n - 1), n) * dx
        phases = np.exp(1j * np.outer(xi_band, diffs)) * dxi / (2.0 * math.pi)
        a = np.arange(n)
        reference = np.ones((1, 1))
        for factor in p.axes:
            M = factor.x_profile(half_centers)[:, None] * (factor.xi_profile(xi_band) @ phases)
            reference = np.kron(reference, dx * M[a[:, None] + a, a[:, None] - a + (n - 1)])
        reference *= p.norm_const
        op = op_weyl_matrix(p)  # the kernel's transpose, in the order the traces read
        assert op.flags.c_contiguous
        assert op.shape == reference.shape
        assert np.abs(op.T - reference).max() <= 1e-15 * np.abs(reference).max()


class TestTrace:
    def test_small_time_limit(self, harmonic_setup):
        grid, V, oracle, state, op = harmonic_setup
        (r,) = commutator_trace(oracle, state, [0.0, 1.0], 0, [1e-4])
        assert abs(r.trace_matrix) <= 0.1 * math.sqrt(1e-4) * 10.0

    def test_parity_zero_for_free_centered_state(self):
        grid = Grid(8.0, 256, 1)
        oracle = GridOracle(zero_potential([(0,)]), grid)
        state = gaussian_state_symbol(grid, [0.0], [0.0], [1.0], [1.0])
        (r,) = commutator_trace(oracle, state, [0.0, 1.0], 0, [0.5])
        assert abs(r.trace_matrix) <= 1e-8
        assert abs(r.trace_symbol) <= 1e-8

    def test_routes_agree(self, harmonic_setup):
        grid, V, oracle, state, op = harmonic_setup
        for r in commutator_trace(oracle, state, [0.0, 1.0], 0, [0.01, 0.1, 1.0]):
            assert r.route_gap <= 1e-6 * max(1e-30, abs(r.trace_matrix))
            assert r.axis_residual <= 1e-10

    def test_sqrt_scaling(self, harmonic_setup):
        grid, V, oracle, state, op = harmonic_setup
        ts = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
        results = commutator_trace(oracle, state, [0.0, 1.0], 0, ts)
        assert [r.t for r in results] == ts
        for r in results:
            # the symbol sup itself obeys the square-root envelope
            assert r.symbol_sup <= 2.0 * math.sqrt(r.t)
        values = [(r.t, r.trace_matrix) for r in results]
        fit = scaling_fit(values)
        assert fit.slope >= 0.4
        for t, v in values:
            assert abs(v) <= fit.coefficient * math.sqrt(t) * (1 + 1e-12)

    def test_one_time_matches_sweep(self, harmonic_setup):
        # every time is computed alone: a sweep entry equals a one-time call
        grid, V, oracle, state, op = harmonic_setup
        sweep = commutator_trace(oracle, state, [0.0, 1.0], 0, [0.05, 0.5])
        (single,) = commutator_trace(oracle, state, [0.0, 1.0], 0, [0.5])
        assert single == sweep[1]

    def test_degree_cap(self, harmonic_setup):
        grid, V, oracle, state, op = harmonic_setup
        with pytest.raises(ValueError):
            commutator_trace(oracle, state, [0.0] * 6, 0, [0.1])

    def test_empty_polynomial_rejected(self, harmonic_setup):
        grid, V, oracle, state, op = harmonic_setup
        with pytest.raises(ValueError, match="at least one coefficient"):
            commutator_trace(oracle, state, [], 0, [0.1])

    def test_state_on_another_grid_rejected(self, harmonic_setup):
        grid, V, oracle, state, op = harmonic_setup
        other = gaussian_state_symbol(Grid(10.0, 256, 1), [0.6], [0.6], [1.0], [1.0])
        with pytest.raises(ValueError, match="different grid"):
            commutator_trace(oracle, other, [0.0, 1.0], 0, [0.1])

    def test_separable_two_sites_match_dense(self, monkeypatch):
        # the products of per-axis-factor traces against one dense eigh.
        # At this spacing the route gap is grid bias (3e-5 down to 2e-8); it
        # drops below 1e-12 only from n = 64, a 4096^2 dense commutator, so
        # here both semigroups must give the same gap
        grid = Grid(4.0, 32, 2)
        V = NearestNeighborPotential(1, [(0,), (1,)], harmonic_function(), zero_function())
        state = gaussian_state_symbol(grid, [0.2, -0.1], [0.3, 0.1], [0.4, 0.4], [0.5, 0.5])
        oracle = GridOracle(V, grid)
        times = [0.05, 0.1, 0.2]
        factorized = commutator_trace(oracle, state, [0.0, 1.0, 0.5], 1, times)
        w, Q = np.linalg.eigh(build_hamiltonian(V, grid))

        def dense(t):  # one dense factor
            M = (Q * np.exp(-t * w)) @ Q.T
            return GridSemigroup(grid, t, 0.5 * (M + M.T))

        monkeypatch.setattr(oracle, "semigroup", dense)
        monkeypatch.setattr(oracle, "factor_grid", grid)  # one factor on both axes
        reference = commutator_trace(oracle, state, [0.0, 1.0, 0.5], 1, times)
        assert factorized[-1].route_gap <= 1e-7
        for got, ref in zip(factorized, reference):
            assert got.route_gap == pytest.approx(ref.route_gap, abs=1e-12)
            assert got.axis_residual <= 1e-12
            assert got.trace_matrix == pytest.approx(ref.trace_matrix, abs=1e-12)
            assert got.trace_symbol == pytest.approx(ref.trace_symbol, abs=1e-12)
            assert got.symbol_sup == pytest.approx(ref.symbol_sup, abs=1e-12)


def full_table_traces(oracle, state, poly, site_axis, t):
    """Both traces and the window sup from the commutator's whole symbol table,
    paired with the state's whole table, built from its per-axis profiles."""
    grid = oracle.grid
    a = np.polynomial.polynomial.polyval(grid.points()[:, site_axis], poly)
    (M,) = oracle.semigroup(t).factors
    C = M * np.subtract.outer(a, a)
    F = np.concatenate([band for _, band in matrix_symbol_bands(C, grid)])
    ax, xi = grid.axis(), grid.xi_axis()
    profiles = [np.outer(f.x_profile(ax), f.xi_profile(xi)) for f in state.axes]
    table = state.norm_const * reduce(partial(np.einsum, "ak,bl->abkl"), profiles)
    cell = grid.cell_volume * grid.xi_cell_volume / (2.0 * math.pi) ** grid.dim
    centers = decay_window((C,), grid, t)
    window = F[np.ix_(*(centers,) * grid.dim)]
    return ((C * op_weyl_matrix(state)).sum().imag, ((table * F).sum() * cell).imag,
            np.abs(window).max())


class TestStreamedReduction:
    @pytest.mark.parametrize("poly", [[0.0, 1.0], [0.5, -1.0, 0.25, 0.1]])
    def test_1d_matches_full_table(self, harmonic_setup, poly):
        grid, V, oracle, state, op = harmonic_setup
        times = [0.01, 0.1, 1.0]
        for r, t in zip(commutator_trace(oracle, state, poly, 0, times), times):
            tr_matrix, tr_symbol, sup = full_table_traces(oracle, state, poly, 0, t)
            assert r.trace_matrix == pytest.approx(tr_matrix, rel=1e-14)
            assert r.trace_symbol == pytest.approx(tr_symbol, rel=1e-14)
            assert r.symbol_sup == sup

    @pytest.mark.parametrize("site_axis", [0, 1])
    def test_2d_matches_full_table(self, site_axis):
        grid = Grid(4.0, 32, 2)
        V = NearestNeighborPotential(1, [(0,), (1,)], harmonic_function(), lorentzian_function())
        oracle = GridOracle(V, grid)
        state = gaussian_state_symbol(grid, [0.2, -0.1], [0.3, 0.1], [0.4, 0.4], [0.5, 0.5])
        poly = [0.0, 1.0, 0.5]
        times = [0.05, 0.2]
        for r, t in zip(commutator_trace(oracle, state, poly, site_axis, times), times):
            tr_matrix, tr_symbol, sup = full_table_traces(oracle, state, poly, site_axis, t)
            assert r.trace_matrix == pytest.approx(tr_matrix, rel=1e-14)
            assert r.trace_symbol == pytest.approx(tr_symbol, rel=1e-14)
            assert r.symbol_sup == sup


class TestScalingFit:
    def test_exact_sqrt_data(self):
        points = [(t, 2.0 * math.sqrt(t)) for t in (0.01, 0.03, 0.1, 0.3, 1.0)]
        fit = scaling_fit(points)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.coefficient == pytest.approx(2.0, rel=1e-12)

    def test_linear_data(self):
        points = [(t, 3.0 * t) for t in (0.01, 0.03, 0.1, 0.3, 1.0)]
        fit = scaling_fit(points)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        # linear decay is consistent with a square-root envelope on (0, 1]
        for t, v in points:
            assert v <= fit.coefficient * math.sqrt(t) * (1 + 1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            scaling_fit([(0.1, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError):
            scaling_fit([(t, 1.0) for t in (0.1, 0.2, 0.3, 0.4, 0.5)])
