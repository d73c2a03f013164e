import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from weylfk import potentials, symbol_estimator
from weylfk.brownian import VariancePreset, mean_and_stderr, sample_path_batch
from weylfk.multiindex import MultiIndex, from_text
from weylfk.potentials import (
    MeanFieldPotential,
    NearestNeighborPotential,
    PairPotential,
    constant_function,
    cosine_function,
    gaussian_bump_function,
    harmonic_function,
    lorentzian_function,
    zero_function,
)
from weylfk.symbol_estimator import (
    PhasePoint,
    estimate_mixed_derivative,
)

from potential_helpers import CustomPotential, zero_potential

mi = MultiIndex.of
GEN = VariancePreset.GENERATOR_LAPLACIAN
WIENER = VariancePreset.STANDARD_WIENER


def harmonic_1site():
    def partial(alpha, x):
        order = alpha.get(0)
        if order == 1:
            return 2.0 * x[..., 0]
        if order == 2:
            return np.full(x.shape[:-1], 2.0)
        return np.zeros(x.shape[:-1])

    return CustomPotential(
        [0], lambda x: x[..., 0] ** 2, partial, smoothness_order=99, name="x^2"
    )


class TestPathAction:
    # the action is the trapezoid integral of V along each path inside the estimator
    def test_zero_potential(self):
        # a potential that is zero everywhere adds nothing to the action
        p = PhasePoint([0.7], [0.9])
        free = estimate_mixed_derivative(zero_potential([0]), p, 1.0, 2000, 32, seed=3)
        zero = estimate_mixed_derivative(MeanFieldPotential([0], constant_function(0.0)),
                                         p, 1.0, 2000, 32, seed=3)
        assert zero == free

    def test_constant_potential_exact(self):
        c, t = 0.9, 0.7
        V = MeanFieldPotential([0], constant_function(c))  # V == c everywhere
        p = PhasePoint([0.0], [0.8])
        est = estimate_mixed_derivative(V, p, t, 2000, 17, seed=5)
        free = estimate_mixed_derivative(zero_potential([0]), p, t, 2000, 17, seed=5)
        assert est.value == pytest.approx(math.exp(-c * t) * free.value, rel=1e-12)
        assert est.stderr == pytest.approx(math.exp(-c * t) * free.stderr, rel=1e-12)

    def test_straight_line_square_well(self):
        # path w(s) = s on [0, 1]; integrand (s - 1/2)^2 integrates to 1/12
        n = 100
        s = np.linspace(0.0, 1.0, n + 1)
        x = 0.0 - s[-1] / 2.0 + s  # the estimator's bridge from x - w(t)/2
        values = harmonic_1site().eval(x[:, None])
        action = symbol_estimator._trapezoid(values, 1.0 / n)
        assert action == pytest.approx(1.0 / 12.0, abs=1e-3)

    def test_site_mismatch(self):
        V = zero_potential([0, 1])
        with pytest.raises(ValueError):
            estimate_mixed_derivative(V, PhasePoint([0.0], [0.0]), 1.0, 2, 4, seed=1)


class TestFreeCase:
    def test_generator_preset_closed_form(self):
        V = zero_potential([0])
        p = PhasePoint([0.3], [1.0])
        est = estimate_mixed_derivative(V, p, 0.5, 100_000, 1, seed=11, variance=GEN)
        assert abs(est.value - math.exp(-0.5)) <= 3 * est.stderr

    def test_wiener_preset_closed_form(self):
        V = zero_potential([0])
        p = PhasePoint([0.3], [1.0])
        est = estimate_mixed_derivative(V, p, 0.5, 100_000, 1, seed=11, variance=WIENER)
        assert abs(est.value - math.exp(-0.25)) <= 3 * est.stderr

    def test_zero_frequency_real_unit(self):
        V = MeanFieldPotential([0, 1], lorentzian_function())
        p = PhasePoint([0.2, -0.4], [0.0, 0.0])
        est = estimate_mixed_derivative(V, p, 0.8, 2000, 16, seed=2)
        assert est.value.imag == 0.0
        assert 0.0 < est.value.real <= 1.0


class TestEstimateProperties:
    def test_unit_bound_with_slack(self):
        rng = np.random.default_rng(8)
        V = NearestNeighborPotential(
            1, [(0,), (1,)], zero_function(), lorentzian_function()
        )
        for k in range(10):
            p = PhasePoint(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            t = float(rng.uniform(0.1, 1.0))
            est = estimate_mixed_derivative(V, p, t, 2000, 8, seed=k)
            assert abs(est.value) <= 1.0 + 3 * est.stderr

    def test_imaginary_part_statistically_zero(self):
        V = harmonic_1site()
        p = PhasePoint([0.5], [1.3])
        est = estimate_mixed_derivative(V, p, 0.5, 40_000, 32, seed=4)
        assert abs(est.value.imag) <= 3 * est.stderr

    def test_stderr_scales_with_paths(self):
        V = zero_potential([0])
        p = PhasePoint([0.0], [1.2])
        prev = estimate_mixed_derivative(V, p, 0.5, 10_000, 1, seed=3).stderr
        for n in (20_000, 40_000):
            cur = estimate_mixed_derivative(V, p, 0.5, n, 1, seed=3).stderr
            ratio = prev / cur
            assert math.sqrt(2) / 1.5 <= ratio <= math.sqrt(2) * 1.5
            prev = cur

    def test_step_doubling_consistency(self):
        V = harmonic_1site()
        p = PhasePoint([0.4], [0.8])
        a = estimate_mixed_derivative(V, p, 0.5, 100_000, 24, seed=9)
        b = estimate_mixed_derivative(V, p, 0.5, 100_000, 48, seed=10)
        assert abs(a.value - b.value) <= 3 * (a.stderr + b.stderr)

    def test_determinism_across_workers_and_chunks(self):
        V = MeanFieldPotential([0, 1, 2], lorentzian_function())
        p = PhasePoint([0.1, 0.2, 0.3], [0.5, -0.5, 0.25])
        ref = estimate_mixed_derivative(V, p, 0.4, 10_000, 8, seed=77, n_workers=1)
        for workers in (2, 4):
            out = estimate_mixed_derivative(V, p, 0.4, 10_000, 8, seed=77,
                                            n_workers=workers)
            assert out.value == ref.value
            assert out.stderr == ref.stderr

    def test_invalid_sizes(self):
        V = zero_potential([0])
        p = PhasePoint([0.0], [0.0])
        with pytest.raises(ValueError):
            estimate_mixed_derivative(V, p, 1.0, 3, 4, seed=0)  # odd path count
        with pytest.raises(ValueError):
            estimate_mixed_derivative(V, p, 0.0, 4, 4, seed=0)
        with pytest.raises(ValueError):
            estimate_mixed_derivative(V, p, 1.0, 4, 0, seed=0)
        for chunk_size in (0, -5):  # once a ZeroDivisionError and an IndexError
            with pytest.raises(ValueError, match="chunk_size"):
                estimate_mixed_derivative(V, p, 1.0, 4, 4, seed=0, chunk_size=chunk_size)


def reference_sampler(rng, n_paths, t, n_steps, n_sites, variance, out=None):
    """Paths written out directly: scaled normals in (path, step, site) order, summed;
    out is ignored, so the estimator must use the returned paths."""
    increments = rng.standard_normal((n_paths, n_steps, n_sites)) * math.sqrt(
        variance.sigma2 * (t / n_steps))
    paths = np.zeros((n_paths, n_steps + 1, n_sites))
    paths[:, 1:, :] = np.cumsum(increments, axis=1)
    return paths


class TestSampler:
    def test_estimate_byte_identical_to_reference_sampler(self, monkeypatch):
        # 8 steps, and one step, where the sampler copies instead of summing
        V = CustomPotential(range(3), lambda x: 0.3 * (x**2).sum(axis=-1))
        point = PhasePoint(np.array([0.2, -0.1, 0.4]), np.array([0.5, 0.0, -0.3]))

        def digest(n_steps):
            est = estimate_mixed_derivative(V, point, 0.5, 6000, n_steps, seed=7,
                                            chunk_size=1000, n_workers=2)
            return hashlib.sha256(repr((est.value, est.stderr)).encode()).hexdigest()

        shared = [digest(n_steps) for n_steps in (8, 1)]
        monkeypatch.setattr(symbol_estimator, "sample_path_batch", reference_sampler)
        assert [digest(n_steps) for n_steps in (8, 1)] == shared


class TestFrequencyDerivative:
    def test_empty_index_identical_to_plain(self):
        V = harmonic_1site()
        p = PhasePoint([0.3], [0.9])
        a = estimate_mixed_derivative(V, p, 0.5, 4000, 16, seed=21)
        b = estimate_mixed_derivative(V, p, 0.5, 4000, 16, seed=21, beta=mi({}))
        assert a.value == b.value and a.stderr == b.stderr

    def test_free_first_derivative_closed_form(self):
        # with unit-variance paths the free symbol is exp(-t xi^2 / 2)
        V = zero_potential([0])
        t, xi = 1.0, 1.0
        p = PhasePoint([0.0], [xi])
        est = estimate_mixed_derivative(
            V, p, t, 200_000, 1, seed=6, beta=mi({0: 1}), variance=WIENER
        )
        exact = -t * xi * math.exp(-t * xi * xi / 2.0)
        assert abs(est.value - exact) <= 3 * est.stderr

    def test_zero_frequency_pure_imaginary(self):
        V = harmonic_1site()
        p = PhasePoint([0.4], [0.0])
        est = estimate_mixed_derivative(V, p, 0.5, 4000, 16, seed=13, beta=mi({0: 1}))
        assert est.value.real == 0.0  # odd order: exact cancellation per pair

    def test_moment_bound(self):
        from weylfk.brownian import absolute_moment_product

        V = MeanFieldPotential([0, 1], lorentzian_function())
        beta = mi({0: 2, 1: 1})
        t = 0.6
        p = PhasePoint([0.1, -0.2], [0.7, 0.3])
        est = estimate_mixed_derivative(V, p, t, 20_000, 16, seed=3, beta=beta)
        bound = absolute_moment_product(beta, t, GEN)
        assert abs(est.value) <= bound + 3 * est.stderr


def estimate_position_derivative(V, point, t, alpha, n_paths, n_steps, seed):
    return estimate_mixed_derivative(V, point, t, n_paths, n_steps, seed, alpha=alpha)


def mehler_x_derivative(order, t, x, xi):
    """d^order/dx^order of sech(t) exp(-tanh(t)(x^2 + xi^2)), the V = x^2 symbol."""
    a = math.tanh(t)
    poly = {1: -2 * a * x, 2: 4 * a * a * x * x - 2 * a,
            3: -8 * a**3 * x**3 + 12 * a * a * x}[order]
    return poly * math.exp(-a * (x * x + xi * xi)) / math.cosh(t)


class TestPositionDerivative:
    def test_empty_index_identical_to_plain(self):
        V = harmonic_1site()
        p = PhasePoint([0.3], [0.9])
        a = estimate_mixed_derivative(V, p, 0.5, 4000, 16, seed=21)
        b = estimate_position_derivative(V, p, 0.5, mi({}), 4000, 16, seed=21)
        assert a.value == b.value and a.stderr == b.stderr

    def test_free_symbol_position_independent(self):
        V = zero_potential([0])
        p = PhasePoint([0.7], [0.8])
        est = estimate_position_derivative(V, p, 0.5, mi({0: 1}), 20_000, 1, seed=5)
        assert abs(est.value) <= max(3 * est.stderr, 1e-12)

    def test_matches_oracle_derivative(self):
        # compare against centered differences of the grid oracle's symbol
        from weylfk.oracle import Grid, GridOracle, semigroup_symbol_at

        V = harmonic_1site()
        t = 0.25
        grid = Grid(10.0, 512, 1)
        oracle = GridOracle(
            NearestNeighborPotential(1, [(0,)], harmonic_function(), zero_function()),
            grid,
        )
        S = oracle.semigroup(t)
        tab = oracle.symbol(S)
        ix = int(np.argmin(np.abs(tab.x - 0.75)))
        x, xi = float(tab.x[ix]), 0.6
        du_oracle = (
            semigroup_symbol_at(S, tab.x[ix + 1], xi) - semigroup_symbol_at(S, tab.x[ix - 1], xi)
        ) / (tab.x[ix + 1] - tab.x[ix - 1])
        est = estimate_position_derivative(V, PhasePoint([x], [xi]), t, mi({0: 1}),
                                           100_000, 32, seed=12)
        assert abs(est.value - du_oracle) <= max(3 * est.stderr, 1e-2)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_mehler_closed_form(self, order):
        # per-site orders above two need no special case in the chain rule
        t, x, xi = 0.25, 0.6, 0.5
        est = estimate_position_derivative(harmonic_1site(), PhasePoint([x], [xi]),
                                           t, mi({0: order}), 100_000, 32,
                                           seed=40 + order)
        assert abs(est.value - mehler_x_derivative(order, t, x, xi)) <= 3 * est.stderr

    def test_custom_without_partials_rejected(self):
        V = CustomPotential([0], lambda x: x[..., 0] ** 2)
        p = PhasePoint([0.2], [0.3])
        estimate_position_derivative(V, p, 0.5, mi({}), 100, 4, seed=0)  # needs none
        with pytest.raises(ValueError, match="derivatives only up to order 0"):
            estimate_position_derivative(V, p, 0.5, mi({0: 1}), 100, 4, seed=0)

    def test_unknown_site_rejected(self):
        V = harmonic_1site()
        with pytest.raises(ValueError, match="is not a site position"):
            estimate_position_derivative(V, PhasePoint([0.0], [0.0]), 0.5,
                                         mi({7: 1}), 100, 4, seed=0)


def stencil_reference(V, point, t, alpha, n_paths, n_steps, seed):
    """The central-difference estimator the chain rule replaced, written out.

    Per-site orders 1 and 2, step 0.01 * sqrt(sigma2 t); every stencil corner
    reuses the estimator's first-chunk paths (common random numbers).
    """
    h = 0.01 * math.sqrt(GEN.sigma2 * t)
    axes = []
    for i, order in alpha.entries:
        if order == 1:
            axes.append([(i, h, 0.5 / h), (i, -h, -0.5 / h)])
        else:
            axes.append([(i, h, 1.0 / h**2), (i, 0.0, -2.0 / h**2), (i, -h, 1.0 / h**2)])
    pairs = n_paths // 2
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    w = sample_path_batch(rng, pairs, t, n_steps, V.n_sites, GEN)
    endpoint = w[:, -1, :]
    phase = np.exp(-1j * (endpoint @ point.xi))
    dt = t / n_steps
    combined = np.zeros(pairs, dtype=complex)
    for corner in itertools.product(*axes):
        base = point.x.copy()
        weight = 1.0
        for i, shift, factor in corner:
            base[i] += shift
            weight *= factor
        forward = (base - endpoint / 2.0)[:, None, :] + w
        backward = (base + endpoint / 2.0)[:, None, :] - w
        act_f = symbol_estimator._trapezoid(V.eval(forward), dt)
        act_b = symbol_estimator._trapezoid(V.eval(backward), dt)
        combined += weight * 0.5 * (
            phase * np.exp(-act_f) + np.conj(phase) * np.exp(-act_b)
        )
    return combined.mean()


class TestStencilReference:
    @pytest.mark.parametrize("alpha", ["0:1", "0:2", "0:1,1:1"])
    @pytest.mark.parametrize("V", [
        MeanFieldPotential(range(8), lorentzian_function()),
        NearestNeighborPotential(1, [(i,) for i in range(8)], harmonic_function(),
                                 lorentzian_function()),
    ], ids=["mean_field_8", "harmonic_lorentzian_chain_8"])
    def test_common_random_numbers_agree(self, V, alpha):
        # on the same paths the two estimators differ only by the stencil's
        # O(h^2) bias, far below the statistical error
        alpha = from_text(alpha)
        rng = np.random.default_rng(5)
        point = PhasePoint(rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8))
        est = estimate_position_derivative(V, point, 0.5, alpha, 4000, 16, seed=19)
        reference = stencil_reference(V, point, 0.5, alpha, 4000, 16, seed=19)
        assert abs(est.value - reference) <= 0.05 * est.stderr


class TestSiteLabels:
    def test_labels_do_not_change_positional_derivatives(self):
        # a mean field's site labels only name its sites: indices address
        # positions, so relabelling changes no bit of a partial or an estimate
        G = lorentzian_function(1.3, 0.8)
        labelled, plain = (MeanFieldPotential(sites, G) for sites in ([5, 3, 9], range(3)))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        point = PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        for alpha, beta in [(mi({0: 1}), mi({2: 1})), (mi({1: 1, 2: 1}), mi({0: 2}))]:
            assert labelled.partial(alpha, x).tobytes() == plain.partial(alpha, x).tobytes()
            a, b = (estimate_mixed_derivative(V, point, 0.5, 200, 8, seed=4,
                                              alpha=alpha, beta=beta)
                    for V in (labelled, plain))
            assert (a.value, a.stderr) == (b.value, b.stderr)


class TestMixedDerivative:
    def test_reduces_to_pieces(self):
        V = harmonic_1site()
        p = PhasePoint([0.3], [0.9])
        mixed = estimate_mixed_derivative(
            V, p, 0.5, 4000, 16, seed=31, alpha=mi({}), beta=mi({0: 1})
        )
        direct = estimate_mixed_derivative(V, p, 0.5, 4000, 16, seed=31, beta=mi({0: 1}))
        assert mixed.value == direct.value

    def test_free_mixed_derivative(self):
        # d/dx of the free symbol vanishes, whatever beta multiplies it
        V = zero_potential([0, 1])
        p = PhasePoint([0.1, 0.2], [0.5, 0.9])
        est = estimate_mixed_derivative(
            V, p, 0.5, 20_000, 1, seed=8, alpha=mi({0: 1}), beta=mi({1: 1})
        )
        assert abs(est.value) <= max(3 * est.stderr, 1e-12)


_BATCH_CASES = {
    "zero_1site": (lambda: zero_potential([0]), [0.3], "", ""),
    # the case where one (k, pairs) matmul phase moves the last bits
    "mean_field_lorentzian_3": (
        lambda: MeanFieldPotential([0, 1, 2], lorentzian_function()),
        [0.1, -0.2, 0.3], "0:1,1:1", "2:1"),
}


def assert_rows_equal_single_calls(case, n_xi, chunk_size, workers):
    make, x, alpha, beta = _BATCH_CASES[case]
    V = make()
    xis = np.random.default_rng(4).uniform(-2.0, 2.0, (n_xi, V.n_sites))
    kwargs = dict(alpha=from_text(alpha), beta=from_text(beta), chunk_size=chunk_size,
                  n_workers=workers)
    batch = estimate_mixed_derivative(V, PhasePoint(x, xis), 0.5, 4000, 8, seed=17, **kwargs)
    for k, xi in enumerate(xis):
        single = estimate_mixed_derivative(V, PhasePoint(x, xi.copy()), 0.5, 4000, 8,
                                           seed=17, **kwargs)
        assert batch.value[k] == single.value
        assert batch.stderr[k] == single.stderr


class TestFrequencyBatch:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(_BATCH_CASES))
    def test_rows_bitwise_equal_single_calls(self, case, workers):
        # 4000 paths in chunks of 1000 pairs: two chunks
        assert_rows_equal_single_calls(case, 5, 1000, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(_BATCH_CASES))
    def test_rows_spanning_blocks_bitwise_equal_single_calls(self, case, workers,
                                                             monkeypatch):
        # chunks of 1500 and 500 pairs, the second in leading views of the
        # working set; a budget of 12000 floats holds blocks of 2 and 6 rows,
        # so the 7 rows span 4 and 2 blocks
        monkeypatch.setattr(symbol_estimator, "SUB_BATCH_ELEMENTS", 12000)
        assert [symbol_estimator._phase_rows(7, p) for p in (1500, 500)] == [2, 6]
        assert_rows_equal_single_calls(case, 7, 1500, workers)

    def test_phase_scratch_does_not_grow_with_the_rows(self):
        # one 4096-pair chunk at 256 frequencies peaked at 9.39 MiB: theta
        # (8 MiB), one budget of phase scratch (1 MiB) and the two path buffers
        # of the zero potential's one-step paths (128 KiB).  Phase arrays for
        # every row would add 15 MiB
        V = zero_potential([0])
        point = PhasePoint([0.1], np.linspace(-2.0, 2.0, 256)[:, None])
        estimate_mixed_derivative(V, point, 0.5, 8192, 32, seed=3)  # numpy's first-call caches
        tracemalloc.start()
        try:
            est = estimate_mixed_derivative(V, point, 0.5, 8192, 32, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(est.stderr))
        assert peak < 1.2 * 9.39 * 2**20  # the measured peak plus 20%

    def test_batch_keeps_one_estimate_with_integer_provenance(self):
        # per-call counters (perfbench/tracing.py) read n_paths and n_steps off
        # whatever the estimator returns, batch or not
        V = zero_potential([0])
        batch = estimate_mixed_derivative(V, PhasePoint([0.0], [[0.0], [0.5], [1.0]]),
                                          0.5, 200, 4, seed=1)
        assert isinstance(batch, symbol_estimator.SymbolEstimate)
        assert type(batch.n_paths) is int and type(batch.n_steps) is int
        assert batch.value.shape == (3,) and batch.stderr.shape == (3,)
        single = estimate_mixed_derivative(V, PhasePoint([0.0], [0.5]), 0.5, 200, 4, seed=1)
        assert type(single.value) is complex and type(single.stderr) is float

    @pytest.mark.parametrize("xi", [np.zeros((0, 2)), np.zeros((2, 3)), np.zeros((1, 1, 2))],
                             ids=["empty", "wrong_width", "3d"])
    def test_bad_batch_rejected(self, xi):
        with pytest.raises(ValueError):
            PhasePoint([0.0, 0.0], xi)


_SUB_BATCH_CASES = {
    "mean_field_16": (lambda: MeanFieldPotential(range(16), lorentzian_function()),
                      "0:1,1:1", "", 3),
    # a frequency derivative at several frequencies: the beta moment and the
    # phase angles are reduced sub-batch by sub-batch
    "mean_field_6_beta": (lambda: MeanFieldPotential(range(6), lorentzian_function()),
                          "", "0:2,3:1,5:3", 4),
    "harmonic_lorentzian_chain_8": (
        lambda: NearestNeighborPotential(1, [(i,) for i in range(8)], harmonic_function(),
                                         lorentzian_function()),
        "0:1", "", 1),
    # at one sub-batch per chunk the pair block (69 columns) and the on-site sum
    # (70) each span several stores of _block_sum; at the other sizes each is
    # one store
    "harmonic_lorentzian_chain_70": (
        lambda: NearestNeighborPotential(1, [(i,) for i in range(70)], harmonic_function(),
                                         lorentzian_function()),
        "0:1", "", 1),
}


class TestSubBatches:
    @pytest.mark.parametrize("case", sorted(_SUB_BATCH_CASES))
    def test_estimate_independent_of_sub_batch_size(self, case, monkeypatch):
        make, alpha, beta, n_xi = _SUB_BATCH_CASES[case]
        V = make()
        rng = np.random.default_rng(8)
        point = PhasePoint(rng.uniform(-1, 1, V.n_sites),
                           rng.uniform(-1, 1, (n_xi, V.n_sites)))
        digests = []
        # 400 pairs in chunks of 300 and 100, at 32 steps: one pair per sub-batch;
        # 7, so both chunks end on a ragged sub-batch (6 and 2 pairs) held in a
        # prefix of the chunk's buffers; the default; one sub-batch per chunk,
        # whose 300 x 33 path points take at most 64 columns per _block_sum store
        assert potentials.SUB_BATCH_ELEMENTS // (300 * 33) <= 64
        pair = 33 * V.n_sites  # the coordinates of one path
        for elements in (pair, 7 * pair, symbol_estimator.SUB_BATCH_ELEMENTS, 1 << 30):
            monkeypatch.setattr(symbol_estimator, "SUB_BATCH_ELEMENTS", elements)
            est = estimate_mixed_derivative(V, point, 0.5, 800, 32, seed=13,
                                            alpha=from_text(alpha), beta=from_text(beta),
                                            chunk_size=300, n_workers=2)
            digests.append(hashlib.sha256(
                repr((est.value.tolist(), est.stderr.tolist())).encode()).hexdigest())
        assert len(set(digests)) == 1

    def test_sub_batches_reuse_the_chunk_buffers(self, monkeypatch):
        buffers = []
        sample = symbol_estimator.sample_path_batch

        def recorded(*args):
            buffers.append(args[-1])
            return sample(*args)

        monkeypatch.setattr(symbol_estimator, "sample_path_batch", recorded)
        monkeypatch.setattr(symbol_estimator, "SUB_BATCH_ELEMENTS", 7 * 9 * 3)
        V = MeanFieldPotential(range(3), lorentzian_function())
        estimate_mixed_derivative(V, PhasePoint(np.zeros(3), np.ones(3)), 0.5, 200, 8,
                                  seed=1, chunk_size=50, n_workers=1)
        # two chunks of 50 pairs, each in sub-batches of 7 pairs (the last of
        # 1), in the one working set of the one worker
        assert len(buffers) == 16
        assert all(b is buffers[0] for b in buffers)
        assert buffers[0].shape == (2, 7 * 9 * 3)
        # five chunks (the last of 10 pairs) on two workers: at most two sets
        buffers.clear()
        estimate_mixed_derivative(V, PhasePoint(np.zeros(3), np.ones(3)), 0.5, 420, 8,
                                  seed=1, chunk_size=50, n_workers=2)
        assert len(buffers) == 4 * 8 + 2
        assert len({id(b) for b in buffers}) <= 2  # the list keeps each one alive

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_chain_memory_bounded_in_sites(self, n):
        # 2048 pairs in one chunk.  Sub-batches of a fixed number of path points
        # peaked at 3.5, 10.6 and 39.6 MiB at 16, 64 and 256 sites; of 2^18 path
        # coordinates, with the chunk's endpoints kept for the phases, at 7.8,
        # 7.6, 8.8 and 20.5 MiB (1024 sites); with them reduced per sub-batch of
        # 2^17, at 3.8, 3.4, 3.2 and 3.2 MiB.  At amplitude 1 the weights of 1024
        # sites underflow
        amplitude = 0.01 if n == 1024 else 1.0
        V = NearestNeighborPotential(1, [(i,) for i in range(n)], harmonic_function(amplitude),
                                     lorentzian_function(amplitude))
        rng = np.random.default_rng(2)
        point = PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        tracemalloc.start()
        try:
            est = estimate_mixed_derivative(V, point, 0.5, 4096, 8, seed=3, n_workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(est.stderr)
        assert peak < 4.6 * 2**20  # the largest measured peak plus 20%


def uncertified(f):
    """f, certifying no sup bound at order 1: a potential evaluating it is not
    constant, so the estimator shifts and weights its paths."""
    return dataclasses.replace(f, sup_fn=lambda k: None if k == 1 else f.sup_fn(k))


def _same(f):
    return f


def chain(n, F, G):
    return NearestNeighborPotential(1, [(i,) for i in range(n)], F, G)


def zero_sites(n):
    # the zero variant evaluates no function: its path route adds the zero
    # function on site, which gives the same +0.0 at every point
    return lambda f: PairPotential(range(n), None if f is _same else f(zero_function()),
                                   zero_function(), [])


# each case builds a potential from a function map: _same gives the constant
# route, uncertified the path route
_CONSTANT_CASES = {
    "zero_1": zero_sites(1),
    "zero_3": zero_sites(3),
    "chain_4_constant_F": lambda f: chain(4, f(constant_function(0.7)), f(zero_function())),
    "mean_field_5_constant_G": lambda f: MeanFieldPotential(range(5), f(constant_function(0.3))),
}
_AMPLITUDE_0_CASES = {
    "bump_F_lorentzian_G": lambda f: chain(3, f(gaussian_bump_function(0.0, 0.8)),
                                           f(lorentzian_function(0.0))),
    "cosine_F_bump_G": lambda f: chain(3, f(cosine_function(0.0, 0.5)),
                                       f(gaussian_bump_function(0.0))),
    "lorentzian_F_cosine_G": lambda f: chain(3, f(lorentzian_function(0.0, 2.0)),
                                             f(cosine_function(0.0))),
}


def assert_routes_agree(case, alphas, betas, workers, chunk_size):
    """The constant route of a case against its path route.  At one step both
    sample alike, to the same bits.  At 8 steps the constant route still
    samples one step, so where V is zero, and every weight exactly 1, it is
    bitwise the path route at one step; and it agrees with the path route at
    8 steps, a different stream, within 3 combined standard errors, and
    reports the 8 steps asked for."""
    constant, paths = case(_same), case(uncertified)
    assert constant.constant and not paths.constant
    n = constant.n_sites
    rng = np.random.default_rng(6)
    point = PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-2, 2, (3, n)))
    zero = not constant.eval(np.broadcast_to(point.x, (1, 2, n))).any()
    for alpha, beta, variance in itertools.product(alphas, betas, [GEN, WIENER]):
        fast, slow = ({n_steps: estimate_mixed_derivative(
            V, point, 0.5, 1200, n_steps, seed=9, alpha=alpha, beta=beta(n), variance=variance,
            chunk_size=chunk_size, n_workers=workers) for n_steps in (1, 8)}
            for V in (constant, paths))
        for a, b in [(fast[1], slow[1])] + ([(fast[8], slow[1])] if zero else []):
            assert a.value.tobytes() == b.value.tobytes()
            assert a.stderr.tobytes() == b.stderr.tobytes()
        gap = np.abs(fast[8].value - slow[8].value)
        assert np.all(gap <= 3.0 * np.hypot(fast[8].stderr, slow[8].stderr))
        assert fast[8].n_steps == 8  # the requested grid, not the sampled one


_BETAS = [lambda n: mi({}), lambda n: mi({0: 2}), lambda n: mi({0: 1, n - 1: 1})]
_WORKER_CHUNKS = pytest.mark.parametrize("workers, chunk_size", [(1, 4096), (2, 300)],
                                         ids=["1_worker", "2_workers"])


class TestConstantRoute:
    # a constant V weights every path by one _weight call on the constant path
    # at x and samples one-step paths; the path route shifts and weights each
    # path of the requested steps

    @_WORKER_CHUNKS
    @pytest.mark.parametrize("case", sorted(_CONSTANT_CASES))
    def test_bitwise_equal_to_path_route(self, case, workers, chunk_size):
        assert_routes_agree(_CONSTANT_CASES[case], [mi({}), mi({0: 1}), mi({0: 2})], _BETAS,
                            workers, chunk_size)

    @_WORKER_CHUNKS
    @pytest.mark.parametrize("case", sorted(_AMPLITUDE_0_CASES))
    def test_amplitude_0_chain_bitwise_equal_to_path_route(self, case, workers, chunk_size):
        alphas = [mi({}), mi({1: 1}), mi({0: 1, 1: 2}), mi({2: 3})]
        assert_routes_agree(_AMPLITUDE_0_CASES[case], alphas, _BETAS[::2], workers, chunk_size)

    def test_underflow_raises_the_path_route_line(self):
        # exp(-2000) underflows to 0 on every path
        messages = []
        for f in (_same, uncertified):
            V = MeanFieldPotential([0], f(constant_function(2000.0)))
            with pytest.raises(FloatingPointError) as raised:
                estimate_mixed_derivative(V, PhasePoint([0.1], [0.3]), 1.0, 400, 4, seed=1)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("the largest path weight exp(-A) of a chunk at 1 sites is 0,")


class TestHalfAnglePhase:
    SPECIAL = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 1e3, -1e3, 1e6, -1e6,
               *(2 * np.pi * k for k in range(-4, 5)), 2 * np.pi * 1e5]

    @pytest.mark.parametrize("angles", [
        np.array(SPECIAL),
        np.random.default_rng(6).uniform(-300.0, 300.0, 1 << 16),
    ], ids=["special", "uniform"])
    def test_matches_numpy_cos_and_sin(self, angles):
        cos, sin = np.empty_like(angles), np.empty_like(angles)
        symbol_estimator._half_angle_phase(angles, cos, sin)
        assert np.max(np.abs(cos - np.cos(angles))) <= 4 * 2.0**-52
        assert np.max(np.abs(sin - np.sin(angles))) <= 4 * 2.0**-52

    def test_nan_angle_is_nan(self):
        angles = np.array([0.5, np.nan, -1.0])
        cos, sin = np.empty(3), np.empty(3)
        symbol_estimator._half_angle_phase(angles, cos, sin)
        assert np.isnan(cos).tolist() == np.isnan(sin).tolist() == [False, True, False]

    @pytest.mark.parametrize("parity", [1.0, -1.0])
    @pytest.mark.parametrize("with_moment", [False, True])
    def test_pair_sums_match_complex_exponentials(self, parity, with_moment):
        # the pair value 0.5 moment (exp(-i theta) f + parity exp(i theta) b)
        rng = np.random.default_rng(8)
        theta, weights = rng.uniform(-30.0, 30.0, (5, 300)), rng.uniform(0.1, 1.0, (2, 300))
        moment = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        scratch = np.empty(symbol_estimator.PHASE_ARRAYS * theta.size)
        n, totals, m2 = symbol_estimator._pair_sums(
            theta, moment if with_moment else None, weights, parity, scratch)
        factor = moment if with_moment else 1.0
        values = 0.5 * factor * (np.exp(-1j * theta) * weights[0]
                                 + parity * np.exp(1j * theta) * weights[1])
        reference = [chunk_stats(row) for row in values]
        assert n == 300
        np.testing.assert_allclose(totals, [total[0] for _, total, _ in reference],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(m2, [dev[0] for _, _, dev in reference], rtol=1e-12)


def chunk_stats(values):
    """A chunk's entry for mean_and_stderr, as _pair_sums forms it from its pair values."""
    total = values.sum()
    dev = values - total / len(values)
    return len(values), np.array([total]), np.array([(dev.real**2).sum() + (dev.imag**2).sum()])


def exact_reduce(chunks):
    """Mean and standard error of every chunk's pair values together: the
    mean of the totals added in chunk order, the spread exactly rounded."""
    values = np.concatenate(chunks)
    total = 0.0 + 0.0j
    for chunk in chunks:
        total += np.complex128(chunk.sum())
    mean = total / len(values)
    ref_re, ref_im = math.fsum(values.real) / len(values), math.fsum(values.imag) / len(values)
    var = math.fsum(np.concatenate([(values.real - ref_re) ** 2, (values.imag - ref_im) ** 2]))
    return mean, math.sqrt(var / (len(values) - 1) / len(values))


class TestReducer:
    # at a spread of 1e-9 about 0.3 the raw second moment minus the squared
    # mean cancels to nothing; the centred merge keeps the spread, to the
    # roundoff of the chunk means, eps * 0.36 / 1e-9 = 8e-8 of it at most
    @pytest.mark.parametrize("spread, rel", [(1.0, 1e-14), (1e-9, 1e-8)])
    @pytest.mark.parametrize("n_chunks", [1, 3, 17])
    def test_matches_an_exact_reference(self, n_chunks, spread, rel):
        rng = np.random.default_rng(n_chunks)
        chunks = [0.3 - 0.2j + spread * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                  for n in rng.integers(1, 2000, n_chunks)]
        mean, stderr = mean_and_stderr([chunk_stats(c) for c in chunks])
        ref_mean, ref_stderr = exact_reduce(chunks)
        assert mean.tobytes() == np.array([ref_mean]).tobytes()
        assert abs(stderr[0] - ref_stderr) <= rel * ref_stderr

    def test_near_deterministic_pair_values_keep_their_stderr(self):
        # the raw-moment reduction reported 0 here; the pair value's variance is
        # expm1(-xi^2)^2 / 2 for the free symbol at small xi
        xi, n_paths = 1e-4, 200_000
        est = estimate_mixed_derivative(zero_potential([0]), PhasePoint([0.3], [xi]),
                                        0.5, n_paths, 4, seed=5)
        analytic = math.sqrt(math.expm1(-xi * xi) ** 2 / 2 / (n_paths // 2))
        assert est.stderr == pytest.approx(analytic, rel=0.05)

    def test_single_pair_has_infinite_stderr(self):
        _, stderr = mean_and_stderr([(1, np.full(2, 0.5 + 0.5j), np.zeros(2))])
        assert np.all(np.isinf(stderr))
        est = estimate_mixed_derivative(zero_potential([0]), PhasePoint([0.0], [0.5]),
                                        0.5, 2, 4, seed=3)
        assert est.stderr == math.inf

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowed_second_moment_is_nan(self):
        chunk = (2, np.ones(3, dtype=complex), np.full(3, 1e308))
        _, stderr = mean_and_stderr([chunk, chunk])
        assert np.all(np.isnan(stderr))

