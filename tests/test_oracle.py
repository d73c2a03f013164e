import math
import re
from dataclasses import replace
from functools import partial, reduce
from itertools import product

import numpy as np
import pytest

from weylfk.oracle import (
    DecayError,
    Grid,
    GridOracle,
    GridSemigroup,
    SupportError,
    build_hamiltonian,
    decay_window,
    gaussian_test_functions,
    grid_edge_max,
    matrix_symbol_bands,
    semigroup_symbol_at,
)
from weylfk import oracle as oracle_module
from weylfk.oracle import _gram, _pairing_table, _spectrum, _symbol_pass
from weylfk.potentials import (
    MeanFieldPotential,
    NearestNeighborPotential,
    PairPotential,
    ScalarFunction,
    cosine_function,
    gaussian_bump_function,
    harmonic_function,
    lorentzian_function,
    zero_function,
)

from potential_helpers import CustomPotential, zero_potential


def harmonic_potential():
    return NearestNeighborPotential(1, [(0,)], harmonic_function(), zero_function())


def normalized_gaussian(grid, center=0.0, width=1.0):
    pts = grid.points()
    f = np.exp(-0.5 * (((pts - center) / width) ** 2).sum(axis=1))
    f /= math.sqrt((np.abs(f) ** 2).sum() * grid.spacing**grid.dim)
    return f


def symbol_table(matrix, grid):
    """The complex symbol of a kernel matrix on the full window of centers,
    from its streamed bands."""
    return np.concatenate([band for _, band in matrix_symbol_bands(matrix, grid)])


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(8.0, 100, 1)  # not a power of two
        with pytest.raises(ValueError):
            Grid(8.0, 8, 1)  # too small
        with pytest.raises(ValueError):
            Grid(8.0, 64, 3)
        with pytest.raises(ValueError):
            Grid(-1.0, 64, 1)

    def test_axis_symmetry(self):
        ax = Grid(8.0, 64, 1).axis()
        assert np.allclose(ax + ax[::-1], 0.0)


class TestHamiltonian:
    def test_free_spectrum(self):
        grid = Grid(8.0, 512, 1)
        H = build_hamiltonian(zero_potential([(0,)]), grid)
        w = np.linalg.eigvalsh(H)
        L_eff = grid.half_width  # Dirichlet box [-L, L]
        for k in range(1, 5):
            expected = (math.pi * k / (2 * L_eff)) ** 2
            assert w[k - 1] == pytest.approx(expected, rel=0.01)

    def test_harmonic_ground_energy(self):
        grid = Grid(8.0, 512, 1)
        H = build_hamiltonian(harmonic_potential(), grid)
        w = np.linalg.eigvalsh(H)
        assert w[0] == pytest.approx(1.0, abs=1e-3)

    def test_symmetric(self):
        grid = Grid(6.0, 32, 2)
        V = NearestNeighborPotential(
            1, [(0,), (1,)], gaussian_bump_function(), lorentzian_function()
        )
        H = build_hamiltonian(V, grid)
        assert np.abs(H - H.T).max() == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian(zero_potential([0, 1]), Grid(8.0, 64, 1))

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("V", [
        NearestNeighborPotential(1, [(0,), (1,)], harmonic_function(), lorentzian_function()),
        zero_potential([0, 1]),
        CustomPotential([0, 1], lambda x: (x[..., 0] + 2.0 * x[..., 1] + 1.0) ** 2),
    ], ids=["coupled", "zero", "custom"])
    def test_2d_stencil_equals_kronecker_sum(self, V, n):
        # the five-point stencil against the Kronecker sum of two 1-d Laplacians;
        # only the signs of zero entries may differ
        grid = Grid(6.0, n, 2)
        lap = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
               - np.diag(np.ones(n - 1), -1)) / grid.spacing**2
        reference = np.kron(lap, np.eye(n)) + np.kron(np.eye(n), lap)
        reference[np.diag_indices_from(reference)] += V.eval(grid.points())
        assert np.array_equal(build_hamiltonian(V, grid), reference)


    @pytest.mark.parametrize("n", [16, 1024])
    def test_1d_stencil_bitwise_equals_diagonal_sum(self, n):
        # the three-point stencil written onto one zeroed array, against the sum
        # of np.diag matrices that built it before: every bit, zero signs too
        V = NearestNeighborPotential(1, [(0,)], gaussian_bump_function(), zero_function())
        grid = Grid(6.0, n, 1)
        lap = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
               - np.diag(np.ones(n - 1), -1)) / grid.spacing**2
        reference = lap + np.diag(V.eval(grid.points()))
        assert same_bits(build_hamiltonian(V, grid), reference)


class TestSemigroup:
    def test_near_identity_at_small_time(self):
        oracle = GridOracle(harmonic_potential(), Grid(8.0, 16, 1))
        S = oracle.semigroup(1e-6)
        assert np.abs(S.factors[0] - np.eye(16)).max() <= 1e-3

    def test_semigroup_law(self):
        oracle = GridOracle(harmonic_potential(), Grid(8.0, 64, 1))
        S1 = oracle.semigroup(0.3)
        S2 = oracle.semigroup(0.45)
        S3 = oracle.semigroup(0.75)
        assert np.abs(S1.factors[0] @ S2.factors[0] - S3.factors[0]).max() <= 1e-10

    def test_spectrum_in_unit_interval(self):
        oracle = GridOracle(zero_potential([(0,)]), Grid(8.0, 64, 1))
        S = oracle.semigroup(0.5)
        eigs = np.linalg.eigvalsh(S.factors[0])
        assert eigs.min() > 0.0
        assert eigs.max() <= 1.0 + 1e-8

    @pytest.mark.parametrize("t", [0.2, 0.5, 1.0])
    def test_subnormal_terms_flushed_bitwise(self, t):
        # dropping the subnormal entries of B = Q exp(-t w / 2), and the columns
        # left all zero, leaves every bit of M = B B^T (B has none at t = 0.1)
        oracle = GridOracle(harmonic_potential(), Grid(10.0, 1024, 1))
        w, Q = np.linalg.eigh(build_hamiltonian(harmonic_potential(), oracle.grid))
        B = Q * np.exp(-0.5 * t * w)
        tiny = np.finfo(float).tiny
        assert np.count_nonzero((B != 0.0) & (np.abs(B) < tiny)) > 0
        assert np.array_equal(oracle.semigroup(t).factors[0], B @ B.T)

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 2.0, 1e4])
    def test_gram_equals_mask_and_trim_bitwise(self, t):
        # the flush and the trim decided from each column's |Q| extent against
        # flushing |B| < tiny entry by entry and trimming the trailing zero
        # columns, sign bits included, on factors built to hit every case
        rng = np.random.default_rng(5)
        n = 48
        w = np.sort(rng.uniform(0.0, 1400.0, n))
        Q = rng.standard_normal((n, n)) * 10.0 ** -rng.uniform(0.0, 12.0, (n, n))
        Q[:, 10] *= 1e-300  # a dead column amid live ones
        Q[:, -3] *= 1e-300
        # row 0 near 1e-300 and subnormal in columns 15-29, so that a subnormal
        # left unflushed there moves the bits of M's row 0
        Q[0] = 1e-300 * rng.standard_normal(n)
        Q[0, 15:30] *= 1e-10
        for column in (4, 20, n - 1):  # exact zeros of both signs
            Q[::3, column] = 0.0
            Q[1::3, column] = -0.0
        tiny = np.finfo(float).tiny
        B = Q * np.exp(-0.5 * t * w)
        B[np.abs(B) < tiny] = 0.0
        live = np.flatnonzero(B.any(axis=0))
        B = B[:, : live[-1] + 1 if live.size else 0]
        expected = B @ B.T
        got = _gram(*_spectrum(w, Q), t)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_nonpositive_time_rejected(self):
        oracle = GridOracle(zero_potential([(0,)]), Grid(8.0, 16, 1))
        with pytest.raises(ValueError):
            oracle.semigroup(0.0)


class TestSymbolExtraction:
    def test_free_symbol_uniform(self):
        grid = Grid(8.0, 1024, 1)
        oracle = GridOracle(zero_potential([(0,)]), grid)
        t = 0.5
        tab = oracle.symbol(oracle.semigroup(t))
        mask = np.abs(tab.xi) <= 2.0
        exact = np.exp(-t * tab.xi[mask] ** 2)
        assert np.abs(tab.values[:, mask] - exact[None, :]).max() <= 1e-4

    def test_symbol_real(self):
        grid = Grid(10.0, 256, 1)
        oracle = GridOracle(harmonic_potential(), grid)
        tab = oracle.symbol(oracle.semigroup(0.5))
        assert tab.max_imag <= 1e-10

    def test_trace_identity(self):
        grid = Grid(10.0, 256, 1)
        oracle = GridOracle(harmonic_potential(), grid)
        S = oracle.semigroup(1.0)
        (M,) = S.factors
        full = symbol_table(M, grid)
        integral = (
            full.real.sum()
            * grid.cell_volume
            * grid.xi_cell_volume
            / (2 * math.pi) ** grid.dim
        )
        assert integral == pytest.approx(float(np.trace(M)), abs=1e-6)

    def test_unit_sup_bound(self):
        grid = Grid(10.0, 256, 1)
        oracle = GridOracle(harmonic_potential(), grid)
        for t in (0.1, 0.5, 1.0):
            tab = oracle.symbol(oracle.semigroup(t))
            assert np.abs(tab.values).max() <= 1.0 + 1e-8

    def test_decay_error_when_grid_too_small(self):
        for dim, n in ((1, 64), (2, 16)):
            grid = Grid(2.0, n, dim)  # time horizon too long for this box
            oracle = GridOracle(zero_potential([(k,) for k in range(dim)]), grid)
            with pytest.raises(DecayError):
                oracle.symbol(oracle.semigroup(1.0))

    def test_refinement_convergence(self):
        # matched half-grid centers nest across refinement
        t = 0.25
        xi = np.array([0.0, 0.7, 1.4])
        values = {}
        for n in (512, 1024):
            oracle = GridOracle(harmonic_potential(), Grid(8.0, n, 1))
            S = oracle.semigroup(t)
            values[n] = np.stack(
                [semigroup_symbol_at(S, x, xi) for x in (0.0, 0.5, 1.0)]
            )
        assert np.abs(values[512] - values[1024]).max() <= 1e-4

    def test_2d_free_symbol(self):
        grid = Grid(6.0, 32, 2)
        oracle = GridOracle(zero_potential([(0,), (1,)]), grid)
        t = 0.25
        tab = oracle.symbol(oracle.semigroup(t))
        # coarse grid: second-order dispersion dominates the comparison
        k = np.nonzero(np.abs(tab.xi) <= 1.5)[0]
        xi = tab.xi[k]
        exact = np.exp(-t * (xi[:, None] ** 2 + xi[None, :] ** 2))
        sub = tab.values[:, :, k[:, None], k[None, :]]
        assert np.abs(sub - exact[None, None]).max() <= 2e-2


class TestGridEdge:
    def test_ends_in_1d(self):
        grid = Grid(8.0, 16, 1)
        values = np.zeros(16)
        values[5] = 9.0
        values[-1] = -2.0
        assert grid_edge_max(values, grid) == 2.0

    def test_four_faces_in_2d(self):
        grid = Grid(8.0, 16, 2)
        for face in (np.s_[0, 7], np.s_[-1, 7], np.s_[7, 0], np.s_[7, -1]):
            square = np.zeros((16, 16))
            square[8, 8] = 9.0  # interior values never count
            square[face] = -3.0
            assert grid_edge_max(square.ravel(), grid) == 3.0


def modulated_gaussian(grid, center=0.0, width=1.0, frequency=0.5):
    """A normalized Gaussian times exp(i frequency x_0): complex, unlike its modulus."""
    return normalized_gaussian(grid, center, width) * np.exp(1j * frequency * grid.points()[:, 0])


class TestWigner:
    """The pairing's cross-Wigner table: dx/(2 pi) times the symbol of f conj(g)^T."""

    def test_gaussian_nonnegative_and_normalized(self):
        grid = Grid(8.0, 256, 1)
        f = normalized_gaussian(grid)
        W = _pairing_table(f, f, grid)
        assert W.real.min() >= -1e-12
        assert np.abs(W.imag).max() <= 1e-12
        total = W.real.sum() * grid.cell_volume * grid.xi_cell_volume
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_zero_function(self):
        grid = Grid(8.0, 64, 1)
        f = normalized_gaussian(grid)
        W = _pairing_table(f, np.zeros(grid.n_points), grid)
        assert np.all(W == 0.0)

    def test_swap_conjugate_symmetry(self):
        grid = Grid(8.0, 64, 1)
        f = normalized_gaussian(grid, center=0.4)
        g = modulated_gaussian(grid, center=-0.2, width=0.9)
        W_fg = _pairing_table(f, g, grid)
        W_gf = _pairing_table(g, f, grid)
        assert np.abs(W_fg - np.conj(W_gf)).max() <= 1e-12

    def test_support_violation(self):
        grid = Grid(4.0, 64, 1)
        f = np.ones(grid.n_points)
        with pytest.raises(SupportError):
            _pairing_table(f, f, grid)

    def test_test_functions_on_a_grid_coarser_than_them(self):
        # every cell centre lies 6e148 or more from the peaks, where both
        # Gaussians are 0: their normalisation would be 0 / 0
        grid = Grid(1e150, 16, 1)
        with pytest.raises(SupportError, match="every cell of spacing 1.25e[+]149"):
            gaussian_test_functions(grid)


class TestPairing:
    @pytest.mark.parametrize("t", [0.1, 0.5])
    def test_free_pairing(self, t):
        grid = Grid(8.0, 256, 1)
        oracle = GridOracle(zero_potential([(0,)]), grid)
        f = normalized_gaussian(grid, center=0.3)
        g = normalized_gaussian(grid, center=-0.5, width=0.8)
        tab = oracle.symbol(oracle.semigroup(t), "full", pairing=(f, g))
        assert tab.pairing_residual <= 1e-6

    def test_harmonic_pairing(self):
        grid = Grid(8.0, 256, 1)
        oracle = GridOracle(harmonic_potential(), grid)
        f = normalized_gaussian(grid, center=0.4)
        g = normalized_gaussian(grid, center=0.1, width=0.9)
        tab = oracle.symbol(oracle.semigroup(0.5), "full", pairing=(f, g))
        assert tab.pairing_residual <= 1e-6

    def test_small_time_limit(self):
        grid = Grid(8.0, 128, 1)
        oracle = GridOracle(harmonic_potential(), grid)
        f = normalized_gaussian(grid)
        S = oracle.semigroup(1e-8)
        lhs = grid.spacing * np.vdot(f, S.factors[0] @ f)
        assert lhs == pytest.approx(1.0, abs=1e-5)

    def test_2d_pairing(self):
        # spacing must keep the cross-parity aliasing below the tolerance
        grid = Grid(4.5, 32, 2)
        V = NearestNeighborPotential(
            1, [(0,), (1,)], gaussian_bump_function(), lorentzian_function(2.0, 2.0)
        )
        oracle = GridOracle(V, grid)
        # the axis factors of the Gaussians centred at (0.2, 0.2) and (-0.1, -0.1)
        f = normalized_gaussian(replace(grid, dim=1), center=0.2, width=0.55)
        g = normalized_gaussian(replace(grid, dim=1), center=-0.1, width=0.55)
        S = oracle.semigroup(0.5)
        assert oracle.symbol(S, "full", pairing=(f, g)).pairing_residual <= 1e-6

    @pytest.mark.parametrize("case", ["1-d", "separable", "coupled"])
    def test_one_pass_matches_full_tables(self, case):
        # the window, the symbol integral and the pairing of one pass over the
        # bands, against the full-window tables and the n^4 Wigner table
        n = 64 if case == "1-d" else 16
        grid = Grid(4.5, n, 1 if case == "1-d" else 2)
        sites = [(0,)] if case == "1-d" else [(0,), (1,)]
        G = lorentzian_function(2.0, 2.0) if case == "coupled" else zero_function()
        oracle = GridOracle(NearestNeighborPotential(1, sites, gaussian_bump_function(), G), grid)
        axis = replace(grid, dim=1)
        f = normalized_gaussian(axis, center=0.2, width=0.55)
        g = normalized_gaussian(axis, center=-0.1, width=0.5)
        S = oracle.semigroup(0.05)
        tab = oracle.symbol(S, pairing=(f, g))
        tables = [symbol_table(M, S.factor_grid) for M in S.factors]
        full = reduce(partial(np.einsum, "ak,bl->abkl"), tables)
        W = reduce(partial(np.einsum, "ak,bl->abkl"), [reference_wigner(f, g, axis)] * grid.dim)
        cell = grid.cell_volume * grid.xi_cell_volume
        integral = full.sum().real * cell / (2 * math.pi) ** grid.dim
        fM, gM = (reduce(np.multiply.outer, [h] * grid.dim).ravel() for h in (f, g))
        lhs = grid.cell_volume * np.vdot(gM, reduce(np.kron, S.factors) @ fM)
        residual = abs(lhs - (full * W).sum() * cell)
        window = full[np.ix_(*tab.center_indices)]
        assert tab.symbol_integral == pytest.approx(integral, abs=1e-13)
        assert tab.pairing_residual == pytest.approx(residual, abs=1e-13)
        assert np.abs(tab.values - window.real).max() <= 1e-15
        assert tab.max_imag == pytest.approx(np.abs(window.imag).max(), abs=1e-15)

    @pytest.mark.parametrize("case", ["1-d", "separable", "coupled"])
    def test_complex_pairing(self, case):
        # modulated test functions: a table that dropped the conjugate of g
        # would fail here, while real Gaussians cannot tell
        grid = Grid(8.0, 256, 1) if case == "1-d" else Grid(4.5, 32, 2)
        axis = replace(grid, dim=1)
        G = lorentzian_function(2.0, 2.0) if case == "coupled" else zero_function()
        sites = [(0,), (1,)][: grid.dim]
        oracle = GridOracle(NearestNeighborPotential(1, sites, gaussian_bump_function(), G), grid)
        f = modulated_gaussian(axis, center=0.2, width=0.55)
        g = modulated_gaussian(axis, center=-0.1, width=0.55, frequency=-0.3)
        S = oracle.semigroup(0.5)
        tab = oracle.symbol(S, "full", pairing=(f, g))
        assert tab.pairing_residual <= 1e-6

    def test_one_pair_of_axis_functions(self):
        # the pairing takes one pair of 1-d grid functions for every axis: the
        # old per-axis tuples, 2-d grid functions and a wrong length all raise
        grid = Grid(4.5, 16, 2)
        f = normalized_gaussian(replace(grid, dim=1))
        oracle = GridOracle(zero_potential([(0,), (1,)]), grid)
        S = oracle.semigroup(0.5)
        for pairing in (((f, f), (f, f)), ((f,), (f,)), (normalized_gaussian(grid), f),
                        (f, f[:-1])):
            with pytest.raises(ValueError, match="1-d arrays of n_grid = 16 values"):
                oracle.symbol(S, "full", pairing=pairing)


# Reference transforms: one center at a time, with shifted copies, as the
# oracle computed them before the shared antidiagonal transform.

def _reference_offsets(i, n):
    m = np.arange(n) - n // 2
    plus, minus = i + m, i - m
    valid = (plus >= 0) & (plus < n) & (minus >= 0) & (minus < n)
    return plus.clip(0, n - 1), minus.clip(0, n - 1), valid


def _reference_antidiagonal(matrix, grid, idx):
    """Kernel entries (center + m, center - m) through one center, m centred."""
    n = grid.n_grid
    if grid.dim == 1:
        a, b, valid = _reference_offsets(idx[0], n)
        return np.where(valid, matrix[a, b], 0.0)
    a0, b0, v0 = _reference_offsets(idx[0], n)
    a1, b1, v1 = _reference_offsets(idx[1], n)
    rows = a0[:, None] * n + a1[None, :]
    cols = b0[:, None] * n + b1[None, :]
    return np.where(v0[:, None] & v1[None, :], matrix[rows, cols], 0.0)


def reference_symbol(matrix, grid, centers):
    n = grid.n_grid
    values = np.empty((len(centers),) * grid.dim + (n,) * grid.dim, dtype=complex)
    for pos in product(range(len(centers)), repeat=grid.dim):
        block = _reference_antidiagonal(matrix, grid, [centers[p] for p in pos])
        values[pos] = 2.0**grid.dim * np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(block)))
    return values


def reference_decay_edge(matrix, grid, centers):
    """Largest |kernel| at the last on-grid offset of any kept antidiagonal."""
    n = grid.n_grid
    half = n // 2
    worst = 0.0
    for idx in product(centers, repeat=grid.dim):
        block = np.abs(_reference_antidiagonal(matrix, grid, idx))
        for axis, i in enumerate(idx):
            mm = min(i, n - 1 - i, half - 1)
            for k in (half - mm, half + mm):
                worst = max(worst, np.take(block, k, axis=axis).max())
    return worst


def reference_wigner(f, g, grid):
    n = grid.n_grid
    scale = grid.spacing / math.pi * n
    if grid.dim == 1:
        values = np.empty((n, n), dtype=complex)
        for i in range(n):
            hi, lo, valid = _reference_offsets(i, n)
            line = np.where(valid, f[lo] * np.conj(g[hi]), 0.0)
            values[i] = scale * np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(line)))
        return values
    f2, g2 = f.reshape(n, n), g.reshape(n, n)
    values = np.empty((n,) * 4, dtype=complex)
    for i0 in range(n):
        hi0, lo0, valid0 = _reference_offsets(i0, n)
        for i1 in range(n):
            hi1, lo1, valid1 = _reference_offsets(i1, n)
            block = np.where(
                valid0[:, None] & valid1[None, :],
                f2[lo0[:, None], lo1[None, :]] * np.conj(g2[hi0[:, None], hi1[None, :]]),
                0.0,
            )
            values[i0, i1] = scale**2 * np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(block)))
    return values


def reference_symbol_at(matrix, grid, j, xi):
    """The symbol at the center -L + j * dx / 2 per axis and one frequency, as
    a sum over every kernel entry (a, b) with a + b = j - 1 on each axis."""
    n, dx = grid.n_grid, grid.spacing
    total = 0j
    for a in product(range(n), repeat=grid.dim):
        b = [k - 1 - ak for k, ak in zip(j, a)]
        if all(0 <= bk < n for bk in b):
            phase = sum((ak - bk) * x for ak, bk, x in zip(a, b, xi))
            total += (matrix[np.ravel_multi_index(a, (n,) * grid.dim),
                             np.ravel_multi_index(b, (n,) * grid.dim)]
                      * np.exp(-1j * dx * phase))
    return 2.0**grid.dim * total.real


def two_site_harmonic(case):
    """Harmonic wells on two sites, with no pair term or a Lorentzian one."""
    G = zero_function() if case == "separable" else lorentzian_function()
    return NearestNeighborPotential(1, [(0,), (1,)], harmonic_function(), G)


def coupled_oracle(n):
    V = NearestNeighborPotential(
        1, [(0,), (1,)], gaussian_bump_function(), lorentzian_function(2.0, 2.0)
    )
    return GridOracle(V, Grid(4.5, n, 2))


def whole_array_transform(matrix, grid):
    """The antidiagonal transform of every center at once: gather, weight, FFT."""
    n = grid.n_grid
    m = np.fft.ifftshift(np.arange(n) - n // 2)
    centers = np.arange(n)[:, None]
    plus, minus = centers + m, centers - m
    valid = (plus >= 0) & (plus < n) & (minus >= 0) & (minus < n)
    plus, minus = plus.clip(0, n - 1), minus.clip(0, n - 1)
    weight = np.where(valid, 2.0 * (-1.0) ** m, 0.0)
    if grid.dim == 1:
        values = np.multiply(matrix[plus, minus], weight, out=np.empty((n, n), complex))
        return np.fft.fftn(values, axes=(-1,))
    # axes (first center, second center, first offset, second offset)
    rows = plus[:, None, :, None] * n + plus[None, :, None, :]
    cols = minus[:, None, :, None] * n + minus[None, :, None, :]
    values = matrix[rows, cols]
    values *= weight[:, None, :, None] * weight[None, :, None, :]
    return np.fft.fftn(values, axes=(-2, -1))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestTransformBands:
    @pytest.mark.parametrize("band", [1, 7, 16, 64, 100])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_1d_bands_equal_whole_array_bitwise(self, band, kind, monkeypatch):
        monkeypatch.setattr(oracle_module, "ROW_BAND", band)
        grid = Grid(8.0, 64, 1)
        rng = np.random.default_rng(band)
        matrix = rng.standard_normal((64, 64))
        if kind == "complex":
            matrix = matrix + 1j * rng.standard_normal((64, 64))
        whole = whole_array_transform(matrix, grid)
        starts, bands = [], []
        for lo, values in matrix_symbol_bands(matrix, grid):
            starts.append(lo)
            bands.append(values)
        assert starts == list(range(0, 64, band))
        assert all(len(b) == min(band, 64 - lo) for lo, b in zip(starts, bands))
        assert same_bits(np.concatenate(bands), whole)
        assert same_bits(symbol_table(matrix, grid), whole)

    def test_2d_bands_equal_whole_array_bitwise(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "ROW_BAND", 5)  # 2-d bands are one center
        grid = Grid(6.0, 16, 2)
        matrix = np.random.default_rng(2).standard_normal((256, 256))
        whole = whole_array_transform(matrix, grid)
        starts, bands = [], []
        for lo, values in matrix_symbol_bands(matrix, grid):
            starts.append(lo)
            bands.append(values)
        assert starts == list(range(16))
        assert same_bits(np.concatenate(bands), whole)
        assert same_bits(symbol_table(matrix, grid), whole)

    @pytest.mark.parametrize("grid", [Grid(8.0, 256, 1), Grid(6.0, 16, 2)], ids=["1d", "2d"])
    def test_bands_are_not_overwritten(self, grid):
        # every band is its own array: a later band leaves the earlier ones as they were
        matrix = np.random.default_rng(4).standard_normal((grid.n_points,) * 2)
        copied = [(lo, values.copy()) for lo, values in matrix_symbol_bands(matrix, grid)]
        kept = list(matrix_symbol_bands(matrix, grid))
        assert len(kept) == len(copied) > 1
        for (lo, values), (lo_copy, copy) in zip(kept, copied):
            assert lo == lo_copy and same_bits(values, copy)

    def test_rejects_mismatched_matrix(self):
        with pytest.raises(ValueError, match="does not match"):
            next(matrix_symbol_bands(np.eye(32), Grid(8.0, 16, 1)))


class TestTransformReference:
    @pytest.mark.parametrize("n", [16, 32])
    def test_2d_symbol_full_and_windowed(self, n):
        oracle = coupled_oracle(n)
        t = 0.05
        S = oracle.semigroup(t)
        (M,) = S.factors
        full = symbol_table(M, oracle.grid)
        assert np.abs(full - reference_symbol(M, oracle.grid, range(n))).max() <= 1e-13
        tab = oracle.symbol(S)
        (centers, _) = tab.center_indices
        assert 0 < len(centers) < n
        ref = reference_symbol(M, oracle.grid, centers)
        assert np.abs(tab.values - ref.real).max() <= 1e-13
        assert tab.max_imag == pytest.approx(np.abs(ref.imag).max(), abs=1e-13)

    @pytest.mark.parametrize("n", [16, 32])
    def test_2d_wigner(self, n):
        # dx^2 / (2 pi)^2 times the symbol of f conj(g)^T is the 2-d cross-Wigner function
        grid = Grid(4.5, n, 2)
        f = normalized_gaussian(grid, center=0.2, width=0.55)
        g = normalized_gaussian(grid, center=-0.1, width=0.55) * np.exp(1j * grid.points()[:, 0])
        W = symbol_table(np.outer(f, np.conj(g)), grid) * (grid.spacing / (2 * math.pi)) ** 2
        assert np.abs(W - reference_wigner(f, g, grid)).max() <= 1e-13

    def test_1d_symbol_and_wigner(self):
        grid = Grid(8.0, 64, 1)
        S = GridOracle(harmonic_potential(), grid).semigroup(0.3)
        (M,) = S.factors
        full = symbol_table(M, grid)
        assert np.abs(full - reference_symbol(M, grid, range(64))).max() <= 1e-13
        f = modulated_gaussian(grid, center=0.4)
        g = modulated_gaussian(grid, center=-0.2, width=0.9, frequency=-0.3)
        for a, b in ((f, g), (f.real, g), (f, g.real)):
            assert np.abs(_pairing_table(a, b, grid) - reference_wigner(a, b, grid)).max() <= 1e-13

    @pytest.mark.parametrize("case", ["1-d", "coupled-16", "coupled-32", "one-axis"])
    def test_decay_error_in_the_reference_cases(self, case):
        # a window raises exactly when the reference edge check fails
        if case == "1-d":
            oracle = GridOracle(harmonic_potential(), Grid(4.5, 64, 1))
        elif case == "one-axis":
            # confining only the first axis makes the second axis's edges the larger
            V = CustomPotential([0, 1], lambda x: 40.0 * x[..., 0] ** 2)
            oracle = GridOracle(V, Grid(4.5, 16, 2))
        else:
            oracle = coupled_oracle(int(case.split("-")[1]))
        grid = oracle.grid
        outcomes = set()
        for t in (0.02, 0.05, 0.2):
            S = oracle.semigroup(t)
            (M,) = S.factors
            max_abs = np.abs(M).max()
            for region in (1.0, 2.0, 3.0, 4.5):
                centers = np.nonzero(np.abs(grid.axis()) <= region)[0]
                fails = reference_decay_edge(M, grid, centers) > 1e-12 * max_abs
                outcomes.add(fails)
                if fails:
                    with pytest.raises(DecayError):
                        oracle.symbol(S, region=region)
                else:
                    tab = oracle.symbol(S, region=region)
                    assert np.array_equal(tab.center_indices[0], centers)
        assert outcomes == {True, False}

    def test_grid_centers_match_pointwise_values(self):
        # the pointwise symbol at every window center, with one frequency array
        # per axis broadcast over the grid frequencies, against the window: in
        # 1-d, and in 2-d on two factors and on one coupled factor
        for case in ("1-d", "separable", "coupled"):
            if case == "1-d":
                oracle, t = GridOracle(harmonic_potential(), Grid(8.0, 128, 1)), 0.4
            else:
                oracle, t = GridOracle(two_site_harmonic(case), Grid(10.0, 32, 2)), 0.5
            S = oracle.semigroup(t)
            assert len(S.factors) == (2 if case == "separable" else 1)
            tab = oracle.symbol(S)
            dim = oracle.grid.dim
            xi = np.ix_(*(tab.xi,) * dim)
            for at in product(range(len(tab.x)), repeat=dim):
                pointwise = semigroup_symbol_at(S, tab.x[list(at)], *xi)
                assert np.abs(tab.values[at] - pointwise).max() <= 1e-13

    @pytest.mark.parametrize("case", ["separable", "coupled"])
    def test_2d_half_grid_center(self, case):
        # a center midway between grid points on both axes, against the sum over
        # every kernel entry whose two points average to it; off the half-grid
        # a center is rejected
        grid = Grid(10.0, 32, 2)
        S = GridOracle(two_site_harmonic(case), grid).semigroup(0.5)
        j = (28, 36)  # even: midway between grid points, the center -L + j * dx / 2
        center = [-grid.half_width + k * grid.spacing / 2.0 for k in j]
        xi = np.array([[0.0, 1.0], [-0.5, 2.3]])
        got = semigroup_symbol_at(S, center, xi, xi.T)
        dense = reduce(np.kron, S.factors)
        for k in np.ndindex(xi.shape):
            expected = reference_symbol_at(dense, grid, j, (xi[k], xi.T[k]))
            assert got[k] == pytest.approx(expected, abs=1e-13)
        with pytest.raises(ValueError, match="half-grid"):
            semigroup_symbol_at(S, (center[0], center[1] + grid.spacing / 4.0), xi, xi)
        with pytest.raises(ValueError, match="one center and one frequency array"):
            semigroup_symbol_at(S, center[0], xi)

    @pytest.mark.parametrize("case", ["1-d", "coupled", "separable"])
    def test_half_grid_ends_match_reference(self, case):
        # the pointwise symbol at the first and last half-grid indices on every
        # axis, where only a few kernel entries average to the center, against
        # the sum over every such entry: a wrong offset range misses or adds one
        n, rng = 16, np.random.default_rng(3)
        dim = 1 if case == "1-d" else 2
        grid = Grid(4.0, n, dim)
        shapes = [(n, n)] * 2 if case == "separable" else [(n**dim, n**dim)]
        S = GridSemigroup(grid, 0.5, *(rng.standard_normal(shape) for shape in shapes))
        dense = reduce(np.kron, S.factors)
        scale = 2.0**dim * np.abs(dense).max()  # the size of one entry's term
        ends = (1, 2, 3, n, 2 * n - 3, 2 * n - 2, 2 * n - 1)
        for j in product(ends, repeat=dim):
            center = [-grid.half_width + k * grid.spacing / 2.0 for k in j]
            for xi in ((0.0, 0.0), (0.7, -1.3), (-2.1, 0.4)):
                got = semigroup_symbol_at(S, center, *xi[:dim])
                expected = reference_symbol_at(dense, grid, j, xi[:dim])
                assert abs(got - expected) <= 1e-13 * scale

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("region", ["auto", "full"])
    def test_semigroup_on_another_grid_rejected(self, dim, region):
        # same size, other half-width: the table would be read on the wrong axes
        sites = [(k,) for k in range(dim)]
        other = GridOracle(zero_potential(sites), Grid(4.0, 64, dim)).semigroup(0.5)
        oracle = GridOracle(zero_potential(sites), Grid(8.0, 64, dim))
        with pytest.raises(ValueError, match="built on"):
            oracle.symbol(other, region=region)


# Separable 2-site potentials: the oracle decomposes one n x n axis Hamiltonian
# and keeps its semigroup M_1 as the Kronecker factor of each axis.

SEPARABLE = {
    "harmonic-zero-G": lambda: NearestNeighborPotential(
        1, [(0,), (1,)], harmonic_function(), zero_function()),
    "zero": lambda: zero_potential([(0,), (1,)]),
    "mean-field-zero-G": lambda: MeanFieldPotential([0, 1], zero_function()),
    "non-adjacent": lambda: NearestNeighborPotential(
        1, [(0,), (2,)], harmonic_function(), lorentzian_function()),
    "zero-amplitude-G": lambda: NearestNeighborPotential(
        1, [(0,), (1,)], gaussian_bump_function(), lorentzian_function(0.0)),
    "no-pairs-divisor-constant": lambda: PairPotential(
        [0, 1], harmonic_function(), lorentzian_function(), [], divisor=2, constant=0.5),
}


def dense_semigroup(V, grid, t):
    """exp(-tH) from one eigendecomposition of the full n^2 x n^2 Hamiltonian."""
    w, Q = np.linalg.eigh(build_hamiltonian(V, grid))
    B = Q * np.exp(-0.5 * t * w)
    return B @ B.T


@pytest.fixture
def eigh_shapes(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


class TestSeparable:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("case", sorted(SEPARABLE))
    def test_kronecker_matches_dense(self, case, n, eigh_shapes):
        V, grid, t = SEPARABLE[case](), Grid(6.0, n, 2), 0.25
        S = GridOracle(V, grid).semigroup(t)
        assert eigh_shapes == [(n, n)]
        reference = dense_semigroup(V, grid, t)
        kron = np.kron(*S.factors)
        assert np.abs(kron - reference).max() <= 1e-13
        assert np.array_equal(kron, kron.T)
        full = symbol_table(reference, grid)
        assert np.abs(symbol_table(kron, grid) - full).max() <= 1e-13

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("case", sorted(SEPARABLE))
    def test_factorized_route_matches_dense(self, case, n):
        # the dense route on the same Kronecker matrix is the reference: its
        # window and decay check must agree exactly, its values to roundoff
        V, grid = SEPARABLE[case](), Grid(6.0, n, 2)
        oracle = GridOracle(V, grid)
        axis = replace(grid, dim=1)
        f, g = normalized_gaussian(axis, 0.2, 0.7), normalized_gaussian(axis, 0.1, 0.75)
        outcomes = set()
        for t in (0.05, 0.25, 2.0):
            S = oracle.semigroup(t)
            assert len(S.factors) == 2
            dense = GridSemigroup(grid, t, np.kron(*S.factors))
            assert S.trace == pytest.approx(dense.trace, abs=1e-13)
            # the integral and pairing of one pass over the full window of each
            integral, residual = _symbol_pass(S, np.arange(n), f, g)[:2]
            dense_integral, dense_residual = _symbol_pass(dense, np.arange(n), f, g)[:2]
            assert integral == pytest.approx(dense_integral, abs=1e-13)
            assert residual == pytest.approx(dense_residual, abs=1e-13)
            for region in ("auto", 1.5, 3.0, 6.0):
                try:
                    centers = decay_window(dense.factors, grid, t, region)
                except DecayError as err:
                    outcomes.add(True)
                    with pytest.raises(DecayError) as raised:
                        oracle.symbol(S, region=region)
                    assert str(raised.value) == str(err)
                    continue
                outcomes.add(False)
                tab = oracle.symbol(S, region=region)
                assert all(np.array_equal(c, centers) for c in tab.center_indices)
                ref = symbol_table(*dense.factors, grid)[np.ix_(centers, centers)]
                assert np.abs(tab.values - ref.real).max() <= 1e-13
                assert tab.max_imag == pytest.approx(np.abs(ref.imag).max(), abs=1e-13)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("case", sorted(SEPARABLE))
    def test_unequal_factors_decay_like_kronecker(self, case, n):
        # X kron Y with X = [A, M_1], A = x + x^2/2, and Y = M_1, in both orders:
        # the factored check against the dense check of np.kron(X, Y), message
        # and centers bitwise
        grid = Grid(6.0, n, 2)
        oracle = GridOracle(SEPARABLE[case](), grid)
        a = np.polynomial.polynomial.polyval(replace(grid, dim=1).axis(), [0.0, 1.0, 0.5])
        outcomes = set()
        for t in (0.05, 0.25, 2.0):
            M = oracle.semigroup(t).factors[0]
            C = np.subtract.outer(a, a) * M
            for X, Y in ((C, M), (M, C)):
                for region in ("auto", 1.5, 3.0, 6.0):
                    try:
                        centers = decay_window((np.kron(X, Y),), grid, t, region)
                    except DecayError as err:
                        outcomes.add(True)
                        with pytest.raises(DecayError) as raised:
                            decay_window([X, Y], grid, t, region)
                        assert str(raised.value) == str(err)
                        continue
                    outcomes.add(False)
                    assert np.array_equal(decay_window([X, Y], grid, t, region), centers)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("case", ["custom"])
    def test_coupled_and_custom_stay_dense(self, case, eigh_shapes):
        # a coupled custom potential with neither inversion nor exchange symmetry;
        # symmetric coupled potentials are covered by TestSymmetryBlocks
        n = 16
        V = CustomPotential([0, 1], lambda x: (x[..., 0] + 2.0 * x[..., 1] + 1.0) ** 2)
        oracle = GridOracle(V, Grid(4.5, n, 2))
        assert eigh_shapes == [(n * n, n * n)]
        S = oracle.semigroup(0.25)
        assert np.array_equal(*S.factors, dense_semigroup(V, oracle.grid, 0.25))

    def test_negative_on_site_rejected(self):
        negative = ScalarFunction("negative", lambda k, y: np.full_like(y, -1.0 if k == 0 else 0.0),
                                  lambda k: 1.0 if k == 0 else 0.0)
        V = NearestNeighborPotential(1, [(0,), (1,)], negative, zero_function())
        assert V.separable_axis() is not None
        with pytest.raises(ValueError, match="negative"):
            GridOracle(V, Grid(6.0, 16, 2))

    def test_site_count_checked(self):
        with pytest.raises(ValueError, match="sites"):
            GridOracle(zero_potential([(0,), (1,)]), Grid(6.0, 16, 1))
        with pytest.raises(ValueError, match="sites"):
            GridOracle(zero_potential([(0,)]), Grid(6.0, 16, 2))


# Coupled 2-site potentials invariant under inversion (x1, x2) -> (-x1, -x2)
# and site exchange: the oracle decomposes H on the orbit basis of those
# symmetries, one eigh per character, against one dense n^2 x n^2 eigh.

SYMMETRIC = {
    "nn-harmonic-lorentzian": lambda: NearestNeighborPotential(
        1, [(0,), (1,)], harmonic_function(), lorentzian_function()),
    "nn-bump-lorentzian": lambda: NearestNeighborPotential(
        1, [(0,), (1,)], gaussian_bump_function(), lorentzian_function(2.0, 2.0)),
    "nn-cosine-bump": lambda: NearestNeighborPotential(
        1, [(0,), (1,)], cosine_function(), gaussian_bump_function()),
    "mean-field-lorentzian": lambda: MeanFieldPotential([0, 1], lorentzian_function()),
}

ONE_SYMMETRY = {  # (potential, block sizes at n = 16)
    "inversion-only": (lambda: CustomPotential(
        [0, 1], lambda x: x[..., 0] ** 2 + 2.0 * x[..., 1] ** 2), [128, 128]),
    "exchange-only": (lambda: CustomPotential(
        [0, 1], lambda x: (x[..., 0] + x[..., 1] + 1.0) ** 2), [136, 120]),
}


def _decay_report(err):
    """(kernel mass, named center) of a DecayError message, or (message, ()) if
    it names no center."""
    found = re.search(r"kernel mass (\S+) .* center x=\((.*)\) exceeds", str(err))
    if found is None:
        return str(err), ()
    mass, center = found.groups()
    return mass, tuple(float(x) for x in center.split(", "))


class TestSymmetryBlocks:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("case", sorted(SYMMETRIC))
    def test_blocks_match_dense(self, case, n, eigh_shapes):
        V, grid = SYMMETRIC[case](), Grid(6.0, n, 2)
        oracle = GridOracle(V, grid)
        # (n^2 - 2n)/4 orbits of 4 points, n/2 on the diagonal and n/2 on the
        # antidiagonal of 2 points each; the characters (inversion, exchange) =
        # (+, +), (-, +), (+, -), (-, -) keep all, the diagonal ones, none, and
        # the antidiagonal ones of the latter: 272, 256, 240, 256 at n = 32
        generic = (n * n - 2 * n) // 4
        sizes = [generic + n, generic + n // 2, generic, generic + n // 2]
        assert eigh_shapes == [(m, m) for m in sizes]
        assert sum(sizes) == n * n
        outcomes = set()
        for t in (0.05, 0.25, 2.0):
            S = oracle.semigroup(t)
            assert len(S.factors) == 1
            dense = GridSemigroup(grid, t, dense_semigroup(V, grid, t))
            (M,), (dense_M,) = S.factors, dense.factors
            assert np.abs(M - dense_M).max() <= 1e-13
            assert np.array_equal(M, M.T)
            for region in ("auto", 1.5, 3.0, 6.0):
                try:
                    centers = decay_window(dense.factors, grid, t, region)
                except DecayError as err:
                    outcomes.add(True)
                    with pytest.raises(DecayError) as raised:
                        oracle.symbol(S, region=region)
                    # M is exactly symmetric, so a tie between mirror-image
                    # centers may break the other way than in the dense matrix
                    mass, center = _decay_report(err)
                    got_mass, got = _decay_report(raised.value)
                    assert got_mass == mass
                    assert got in {center, center[::-1], tuple(-x for x in center),
                                   tuple(-x for x in center[::-1])}
                    continue
                outcomes.add(False)
                tab = oracle.symbol(S, region=region)
                assert all(np.array_equal(c, centers) for c in tab.center_indices)
                ref = symbol_table(*dense.factors, grid)[np.ix_(centers, centers)]
                assert np.abs(tab.values - ref.real).max() <= 1e-13
        assert outcomes == {True, False}

    @pytest.mark.parametrize("make", [SYMMETRIC["nn-harmonic-lorentzian"],
                                      ONE_SYMMETRY["exchange-only"][0]], ids=["both", "exchange"])
    def test_assembled_at_slots_equals_tiles_bitwise(self, make):
        # M written block by block at the points' slots, against tiling the
        # products L_e by group element and gathering the rows and columns at
        # the slots
        oracle = GridOracle(make(), Grid(4.5, 16, 2))
        n_orbits = oracle._kept[0].size
        for t in (0.05, 0.5):
            products = []
            for spectrum, kept in zip(oracle._spectra, oracle._kept):
                K = np.zeros((n_orbits, n_orbits))
                K[np.ix_(kept, kept)] = _gram(*spectrum, t)
                products.append(K)
            sums = [sum(x * K for x, K in zip(signs, products)) for signs in oracle._characters.T]
            tiles = np.block([[sums[g ^ h] for h in range(len(sums))] for g in range(len(sums))])
            expected = tiles.take(oracle._slots, axis=0).take(oracle._slots, axis=1)
            assert same_bits(*oracle.semigroup(t).factors, expected)

    @pytest.mark.parametrize("case", sorted(ONE_SYMMETRY))
    def test_one_symmetry_gives_two_blocks(self, case, eigh_shapes):
        make, sizes = ONE_SYMMETRY[case]
        V, grid = make(), Grid(4.5, 16, 2)
        oracle = GridOracle(V, grid)
        assert eigh_shapes == [(m, m) for m in sizes]
        for t in (0.05, 0.25):
            S = oracle.semigroup(t)
            (M,) = S.factors
            assert np.abs(M - dense_semigroup(V, grid, t)).max() <= 1e-13
            assert np.array_equal(M, M.T)
