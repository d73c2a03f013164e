import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from weylfk import symbol_estimator
from weylfk.brownian import VariancePreset, sample_path_batch
from weylfk.multiindex import MultiIndex, from_text
from weylfk.potentials import (
    MeanFieldPotential,
    NearestNeighborPotential,
    constant_function,
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


class TestFrequencyBatch:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(_BATCH_CASES))
    def test_rows_bitwise_equal_single_calls(self, case, workers):
        make, x, alpha, beta = _BATCH_CASES[case]
        V = make()
        xis = np.random.default_rng(4).uniform(-2.0, 2.0, (5, V.n_sites))
        # 4000 paths in chunks of 1000 pairs: two chunks
        kwargs = dict(alpha=from_text(alpha), beta=from_text(beta), chunk_size=1000,
                      n_workers=workers)
        batch = estimate_mixed_derivative(V, PhasePoint(x, xis), 0.5, 4000, 8, seed=17,
                                          **kwargs)
        for k, xi in enumerate(xis):
            single = estimate_mixed_derivative(V, PhasePoint(x, xi.copy()), 0.5, 4000, 8,
                                               seed=17, **kwargs)
            assert batch.value[k] == single.value
            assert batch.stderr[k] == single.stderr

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
                      "0:1,1:1", 3),
    "harmonic_lorentzian_chain_8": (
        lambda: NearestNeighborPotential(1, [(i,) for i in range(8)], harmonic_function(),
                                         lorentzian_function()),
        "0:1", 1),
}


class TestSubBatches:
    @pytest.mark.parametrize("case", sorted(_SUB_BATCH_CASES))
    def test_estimate_independent_of_sub_batch_size(self, case, monkeypatch):
        make, alpha, n_xi = _SUB_BATCH_CASES[case]
        V = make()
        rng = np.random.default_rng(8)
        point = PhasePoint(rng.uniform(-1, 1, V.n_sites),
                           rng.uniform(-1, 1, (n_xi, V.n_sites)))
        digests = []
        # 400 pairs in chunks of 300 and 100, at 32 steps: one pair per sub-batch;
        # 7, so both chunks end on a ragged sub-batch (6 and 2 pairs) held in a
        # prefix of the chunk's buffers; the default; one sub-batch per chunk
        for points in (33, 7 * 33, symbol_estimator.SUB_BATCH_POINTS, 1 << 30):
            monkeypatch.setattr(symbol_estimator, "SUB_BATCH_POINTS", points)
            est = estimate_mixed_derivative(V, point, 0.5, 800, 32, seed=13,
                                            alpha=from_text(alpha),
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
        monkeypatch.setattr(symbol_estimator, "SUB_BATCH_POINTS", 7 * 9)
        V = MeanFieldPotential(range(3), lorentzian_function())
        estimate_mixed_derivative(V, PhasePoint(np.zeros(3), np.ones(3)), 0.5, 200, 8,
                                  seed=1, chunk_size=50, n_workers=1)
        # two chunks of 50 pairs, each in sub-batches of 7 pairs (the last of 1)
        assert len(buffers) == 16
        for chunk in (buffers[:8], buffers[8:]):
            assert all(b is chunk[0] for b in chunk)
            assert chunk[0].shape == (2, 7 * 9 * 3)

    def test_chain_256_memory_bounded(self):
        # 2048 pairs in one chunk: weighting the whole chunk at once peaked at
        # 180 MB; sub-batches of SUB_BATCH_POINTS path points peak at 40 MB
        n = 256
        V = NearestNeighborPotential(1, [(i,) for i in range(n)], harmonic_function(),
                                     lorentzian_function())
        rng = np.random.default_rng(2)
        point = PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        tracemalloc.start()
        try:
            est = estimate_mixed_derivative(V, point, 0.5, 4096, 8, seed=3, n_workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(est.stderr)
        assert peak < 48 * 2**20  # the measured peak plus 20%


def scalar_reduce(chunk_sums, count):
    """The estimator's former reduction: one Python loop per frequency over
    the chunks' (k, 6) pair sums, in chunk order."""
    means, stderrs = [], []
    for by_chunk in zip(*chunk_sums):
        total = 0.0 + 0.0j
        sum_re = sum_im = sum_re2 = sum_im2 = 0.0
        for s_re, s_im, sre, sim, sre2, sim2 in by_chunk:
            total += np.complex128(complex(s_re, s_im))
            sum_re += sre
            sum_im += sim
            sum_re2 += sre2
            sum_im2 += sim2
        means.append(complex(total / count))
        if count > 1:
            var_re = (sum_re2 - sum_re**2 / count) / (count - 1)
            var_im = (sum_im2 - sum_im**2 / count) / (count - 1)
            var = (max(0.0, var_re) + max(0.0, var_im)
                   if math.isfinite(var_re + var_im) else math.nan)
            stderrs.append(math.sqrt(var / count))
        else:
            stderrs.append(math.inf)
    return np.array(means), np.array(stderrs)


class TestReducer:
    @staticmethod
    def assert_bitwise(chunk_sums, count):
        mean, stderr = symbol_estimator._reduce(chunk_sums, count)
        ref_mean, ref_stderr = scalar_reduce(chunk_sums, count)
        assert mean.tobytes() == ref_mean.tobytes()
        assert stderr.tobytes() == ref_stderr.tobytes()
        return stderr

    @pytest.mark.parametrize("n_chunks", [1, 3, 17])
    def test_bitwise_equal_to_scalar_loop(self, n_chunks):
        rng = np.random.default_rng(n_chunks)
        count = 1000 * n_chunks
        chunk_sums = []
        for _ in range(n_chunks):
            sums = rng.uniform(-300.0, 300.0, (5, 6))
            sums[:, 4:] = rng.uniform(0.0, 400.0, (5, 2))  # sums of squares
            sums[0, :4] = -0.0  # signed zeros start from zero, as the loop did
            chunk_sums.append(sums)
        self.assert_bitwise(chunk_sums, count)

    def test_single_pair_has_infinite_stderr(self):
        stderr = self.assert_bitwise([np.full((2, 6), 0.5)], 1)
        assert np.all(np.isinf(stderr))
        est = estimate_mixed_derivative(zero_potential([0]), PhasePoint([0.0], [0.5]),
                                        0.5, 2, 4, seed=3)
        assert est.stderr == math.inf

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowed_second_moment_is_nan(self):
        sums = np.array([[1.0, 0.0, 1.0, 0.0, 1e308, 0.0]] * 3)
        stderr = self.assert_bitwise([sums, sums], 4)
        assert np.all(np.isnan(stderr))

    def test_small_negative_variance_clamped(self):
        # n equal values: the second moment falls one ulp below sum^2 / n
        count, value = 3, 0.1
        sum_re = value * count
        sum_re2 = np.nextafter(sum_re**2 / count, 0.0)
        sums = np.array([[sum_re, 0.0, sum_re, 0.0, sum_re2, 0.0]])
        stderr = self.assert_bitwise([sums], count)
        assert (sum_re2 - sum_re**2 / count) < 0.0
        assert stderr.tolist() == [0.0]
