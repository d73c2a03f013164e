import math
import tracemalloc

import numpy as np
import pytest

from weylfk import brownian
from weylfk.brownian import (
    VariancePreset,
    abs_moment_constant,
    abs_moment_max,
    absolute_moment_estimate,
    absolute_moment_product,
    sample_path_batch,
)
from weylfk.multiindex import MultiIndex

WIENER = VariancePreset.STANDARD_WIENER
GEN = VariancePreset.GENERATOR_LAPLACIAN


class TestMomentConstants:
    def test_order_zero_is_one(self):
        assert abs_moment_constant(0) == pytest.approx(1.0, abs=1e-15)

    def test_order_two_is_one(self):
        # E Z^2 = 1 for the standard normal
        assert abs_moment_constant(2) == pytest.approx(1.0, abs=1e-14)

    def test_order_one(self):
        # mean absolute value of the standard normal
        assert abs_moment_constant(1) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-15)

    def test_order_four_is_three(self):
        assert abs_moment_constant(4) == pytest.approx(3.0, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            abs_moment_constant(-1)

    def test_overflow_names_the_order(self):
        # 6.5e307 at order 301; at 302 the product overflows to inf, and from
        # 343 on math.gamma raises: both name the order
        assert abs_moment_constant(301) < math.inf
        for k in (302, 400):
            with pytest.raises(OverflowError, match=f"^the order-{k} absolute moment constant"):
                abs_moment_constant(k)

    def test_max_examples(self):
        assert abs_moment_max(0) == pytest.approx(1.0)
        assert abs_moment_max(1) == pytest.approx(1.0)  # max(1, sqrt(2/pi))
        assert abs_moment_max(4) == pytest.approx(3.0, rel=1e-14)

    def test_max_equals_constant_from_order_four(self):
        for m in (4, 5, 6):
            assert abs_moment_max(m) == abs_moment_constant(m)

    def test_max_nondecreasing(self):
        values = [abs_moment_max(m) for m in range(9)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestMomentProduct:
    def test_empty_product(self):
        assert absolute_moment_product(MultiIndex.of({}), 2.0, WIENER) == 1.0

    def test_second_moment_unit(self):
        assert absolute_moment_product(
            MultiIndex.of({1: 2}), 1.0, WIENER
        ) == pytest.approx(1.0, rel=1e-14)

    def test_cross_first_moments(self):
        value = absolute_moment_product(MultiIndex.of({1: 1, 2: 1}), 4.0, WIENER)
        assert value == pytest.approx(4.0 * 2.0 / math.pi, rel=1e-14)

    def test_variance_scaling(self):
        beta = MultiIndex.of({1: 2})
        assert absolute_moment_product(beta, 1.0, GEN) == pytest.approx(
            2.0 * absolute_moment_product(beta, 1.0, WIENER), rel=1e-14
        )


class TestSampling:
    def test_same_seed_same_path(self):
        a = sample_path_batch(np.random.default_rng(7), 3, 1.0, 16, 2, WIENER)
        b = sample_path_batch(np.random.default_rng(7), 3, 1.0, 16, 2, WIENER)
        assert np.array_equal(a, b)

    def test_starts_at_zero(self):
        p = sample_path_batch(np.random.default_rng(1), 4, 0.5, 8, 3)
        assert np.all(p[:, 0, :] == 0.0)

    def test_empty_sites(self):
        p = sample_path_batch(np.random.default_rng(1), 2, 1.0, 4, 0)
        assert p.shape == (2, 5, 0)

    def test_bad_inputs(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            sample_path_batch(rng, 1, 0.0, 4, 1)
        with pytest.raises(ValueError):
            sample_path_batch(rng, 1, 1.0, 0, 1)

    def test_batch_endpoint_variance(self):
        rng = np.random.default_rng(123)
        t = 0.7
        paths = sample_path_batch(rng, 100_000, t, 1, 1, WIENER)
        var = paths[:, -1, 0].var()
        assert var == pytest.approx(t, rel=0.05)


class TestSamplerBuffers:
    def test_out_bitwise_equal_to_allocating_call(self):
        n_paths, n_steps, n_sites, t = 5, 7, 3, 0.6
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        # buffers larger than one batch needs, as a chunk's are for its ragged
        # last sub-batch; two calls on one generator continue one stream
        buffers = np.full((2, 2 * n_paths * (n_steps + 1) * n_sites), np.nan)
        for _ in range(2):
            ref = sample_path_batch(rng_a, n_paths, t, n_steps, n_sites)
            got = sample_path_batch(rng_b, n_paths, t, n_steps, n_sites, out=buffers)
            assert np.shares_memory(got, buffers[0])
            assert not np.shares_memory(got, buffers[1])
            assert got.shape == ref.shape and got.strides == ref.strides
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("n_sites", [1, 3, 16])
    @pytest.mark.parametrize("n_steps", [1, 2, 32])
    @pytest.mark.parametrize("use_out", [False, True], ids=["allocating", "out"])
    def test_paths_bitwise_equal_to_cumsum_of_increments(self, n_steps, use_out, n_sites):
        # the running sums are np.cumsum's sequential additions along time; the
        # increments are the scaled normals in draw order
        n_paths, t = 6, 0.7
        increments = np.random.default_rng(9).standard_normal((n_paths, n_steps, n_sites))
        increments *= math.sqrt(GEN.sigma2 * t / n_steps)
        ref = np.zeros((n_paths, n_steps + 1, n_sites))
        np.cumsum(increments, axis=1, out=ref[:, 1:])
        out = np.full((2, n_paths * (n_steps + 1) * n_sites), np.nan) if use_out else None
        got = sample_path_batch(np.random.default_rng(9), n_paths, t, n_steps, n_sites,
                                GEN, out)
        assert np.ascontiguousarray(got).tobytes() == ref.tobytes()


class TestSampledMoments:
    def test_moment_products_match_sampled_means(self):
        # every multi-order up to total order six on at most three sites
        rng = np.random.default_rng(2024)
        t = 0.8
        n = 100_000
        endpoints = sample_path_batch(rng, n, t, 1, 3, WIENER)[:, -1, :]
        abs_endpoints = np.abs(endpoints)
        checked = 0
        for b0 in range(7):
            for b1 in range(7 - b0):
                for b2 in range(7 - b0 - b1):
                    if b0 + b1 + b2 == 0:
                        continue
                    beta = MultiIndex.of({0: b0, 1: b1, 2: b2})
                    samples = (
                        abs_endpoints[:, 0] ** b0
                        * abs_endpoints[:, 1] ** b1
                        * abs_endpoints[:, 2] ** b2
                    )
                    exact = absolute_moment_product(beta, t, WIENER)
                    stderr = samples.std(ddof=1) / math.sqrt(n)
                    assert abs(samples.mean() - exact) <= 4.0 * stderr, beta
                    checked += 1
        assert checked == 83


def moment_samples(rng, beta, n, t):
    """Every sample of brownian._moment_samples, copied out of its reused array."""
    return np.concatenate([samples.copy() for samples in
                           brownian._moment_samples(rng, beta, n, t, GEN)])


def one_batch_samples(seed, beta, n, t):
    """The one-shot reference: every path from one sample_path_batch call,
    reduced site by site with a scalar power, s *= |x_j(t)| ** beta_j."""
    orders = [order for _, order in beta.entries]
    paths = sample_path_batch(np.random.default_rng(seed), n, t, 1, max(len(orders), 1))
    samples = np.ones(n)
    for j, order in enumerate(orders):
        samples *= np.abs(paths[:, -1, j]) ** order
    return samples


CHUNK_ENTRIES = [{}, {0: 2}, {0: 1, 1: 2, 2: 1}, {1: 3, 4: 1}]


class TestMomentSamples:
    # the default budget, and a small odd one that splits the paths unevenly
    @pytest.mark.parametrize("budget", [brownian.SUB_BATCH_ELEMENTS, 999])
    @pytest.mark.parametrize("n", [4096, 4097, 10_007, 2 * (1 << 16) + 5, 3 * (1 << 16) - 1])
    @pytest.mark.parametrize("entries", CHUNK_ENTRIES)
    def test_bitwise_equal_to_one_batch(self, entries, n, budget, monkeypatch):
        beta, t = MultiIndex.of(entries), 0.7
        monkeypatch.setattr(brownian, "SUB_BATCH_ELEMENTS", budget)
        samples = moment_samples(np.random.default_rng(5), beta, n, t)
        assert samples.tobytes() == one_batch_samples(5, beta, n, t).tobytes()

    @staticmethod
    def _recorded_calls(monkeypatch, entries, n):
        """The sub-batches of a call and the (n_paths, buffers) of each sampler call."""
        calls = []
        sample = brownian.sample_path_batch

        def recorded(rng, n_paths, *args):
            calls.append((n_paths, args[-1]))
            return sample(rng, n_paths, *args)

        monkeypatch.setattr(brownian, "sample_path_batch", recorded)
        sub_batches = list(brownian._moment_samples(np.random.default_rng(5),
                                                    MultiIndex.of(entries), n, 0.7, GEN))
        return sub_batches, calls

    @pytest.mark.parametrize("entries, n_sites", [({0: 1, 1: 2}, 2), ({1: 3}, 1), ({}, 1)])
    def test_no_sampler_call_above_the_budget(self, monkeypatch, entries, n_sites):
        n = 3 * (1 << 16) - 1
        sub_batches, calls = self._recorded_calls(monkeypatch, entries, n)
        sizes = [n_paths for n_paths, _ in calls]
        # one-step paths: 2 floats a path and site, at most one budget a call
        assert max(sizes) * 2 * n_sites <= brownian.SUB_BATCH_ELEMENTS
        assert sum(sizes) == n
        assert [len(samples) for samples in sub_batches] == sizes

    def test_sub_batches_share_one_pair_of_buffers(self, monkeypatch):
        _, calls = self._recorded_calls(monkeypatch, {0: 1, 1: 2}, 3 * (1 << 16) - 1)
        buffers = calls[0][1]
        assert len(calls) > 2 and all(pair is buffers for _, pair in calls)
        # one budget each, whatever the number of paths
        assert buffers.shape == (2, brownian.SUB_BATCH_ELEMENTS)

    def test_few_paths_take_buffers_of_their_size(self, monkeypatch):
        _, calls = self._recorded_calls(monkeypatch, {0: 1, 1: 2}, 10)
        assert [(n_paths, pair.shape) for n_paths, pair in calls] == [(10, (2, 40))]


class TestMomentEstimate:
    @pytest.mark.parametrize("n", [2, 10_007, 2 * (1 << 16) + 5, 3 * (1 << 16) - 1])
    @pytest.mark.parametrize("entries", CHUNK_ENTRIES)
    def test_matches_an_exactly_rounded_reference(self, entries, n):
        beta, t = MultiIndex.of(entries), 0.5
        samples = one_batch_samples(9, beta, n, t)
        ref_mean = math.fsum(samples) / n
        ref_stderr = math.sqrt(math.fsum((samples - ref_mean) ** 2) / (n - 1) / n)
        mean, stderr = absolute_moment_estimate(np.random.default_rng(9), beta, n, t)
        assert abs(mean - ref_mean) <= 1e-14 * abs(ref_mean)
        assert abs(stderr - ref_stderr) <= 1e-14 * ref_stderr

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_fewer_than_one_path_is_named(self, n_paths, monkeypatch):
        def sample(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(brownian, "sample_path_batch", sample)
        with pytest.raises(ValueError, match=f"n_paths must be >= 1, not {n_paths}"):
            absolute_moment_estimate(np.random.default_rng(1), MultiIndex.of({0: 1}), n_paths, 0.5)

    def test_single_path_has_infinite_stderr(self):
        _, stderr = absolute_moment_estimate(np.random.default_rng(1),
                                             MultiIndex.of({0: 1}), 1, 0.5)
        assert stderr == math.inf

    # the measured tracemalloc peaks plus 20%; a table of |x(t)| columns over
    # 2^16-path chunks peaked at 3.5 and 4.5 MiB, and sampling each chunk in
    # one call at 6.5 and 12.5 MiB
    @pytest.mark.parametrize("entries, measured_mib", [
        ({0: 2, 1: 1}, 2.76), ({0: 1, 1: 2, 2: 1, 3: 3}, 2.39)], ids=["2-site", "4-site"])
    def test_memory_bounded_in_paths(self, entries, measured_mib):
        # a first call also counts 0.7 MB of numpy's lazy set-up, so warm it
        beta, peaks = MultiIndex.of(entries), []
        absolute_moment_estimate(np.random.default_rng(4), beta, 2, 0.5)
        for n in ((1 << 18) + 5, (1 << 20) + 5):
            tracemalloc.start()
            try:
                absolute_moment_estimate(np.random.default_rng(4), beta, n, 0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert max(peaks) < 1.2 * measured_mib * 2**20
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


class TestPresets:
    def test_tags(self):
        assert (WIENER.sigma2, WIENER.tag) == (1.0, "standard_wiener")
        assert (GEN.sigma2, GEN.tag) == (2.0, "generator_laplacian")
