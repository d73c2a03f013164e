"""Brownian path sampling, exact Gaussian absolute moments, and chunked sample statistics.

Paths vanish at time zero and accumulate independent Gaussian increments on a
uniform time grid, summed along time in np.cumsum's order by one np.add.accumulate
over the whole batch.  The per-unit-time coordinate variance is an explicit
parameter, variance, one of the two :class:`VariancePreset` values.  Loops over
batches hand the sampler two buffers as ``out`` and reuse them, bit for bit;
SUB_BATCH_ELEMENTS bounds each buffer of every budgeted caller.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .multiindex import MultiIndex


class VariancePreset(enum.Enum):
    """Per-unit-time coordinate variance of the sampled paths.

    STANDARD_WIENER uses unit variance; the free-case symbol estimate then
    converges to exp(-t|xi|^2/2), the multiplier of the semigroup generated
    by half the Laplacian.  GENERATOR_LAPLACIAN doubles the variance so the
    free-case symbol is exp(-t|xi|^2), matching the semigroup of the full
    Laplacian, which is the convention the grid oracle realizes.
    """

    STANDARD_WIENER = 1.0
    GENERATOR_LAPLACIAN = 2.0

    @property
    def sigma2(self) -> float:
        return self.value

    @property
    def tag(self) -> str:
        return self.name.lower()


DEFAULT_PRESET = VariancePreset.GENERATOR_LAPLACIAN
# floats of points x sites in one working array: the sampler calls of the Monte
# Carlo estimator and of absolute_moment_estimate (each call one chunk of its
# statistics), and the store of columns potentials._block_sum evaluates at once
SUB_BATCH_ELEMENTS = 1 << 17


def sample_path_batch(rng, n_paths, t, n_steps, n_sites, variance=DEFAULT_PRESET, out=None):
    """Sample a batch of paths; returns shape (n_paths, n_steps + 1, n_sites).

    This is the sampler the Monte Carlo estimator is built on.  Every path
    vanishes at time zero.  The increments of one path are drawn
    contiguously, so each path depends only on the generator state and its
    place in the batch, and consecutive calls continue one stream.  The
    result is a view of site-major storage (each x[..., j] is a contiguous
    (n_paths, n_steps + 1) block), so callers must not assume C-contiguity;
    it is bitwise the np.cumsum of the increments along time.
    out, a pair of flat float buffers of at least n_paths * (n_steps + 1) *
    n_sites elements, takes the paths in a prefix of the first (the result
    views it) and the normals in the second, scratch afterwards; the paths
    are bitwise equal to the allocating call's.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = t / n_steps
    size = n_paths * (n_steps + 1) * n_sites
    storage, scratch = np.empty((2, size)) if out is None else out
    increments = scratch[: n_paths * n_steps * n_sites].reshape(n_paths, n_steps, n_sites)
    rng.standard_normal(out=increments)
    increments *= math.sqrt(variance.sigma2 * dt)
    paths = np.moveaxis(storage[:size].reshape(n_sites, n_paths, n_steps + 1), 0, -1)
    paths[:, 0, :] = 0.0
    # one call, so an estimator worker gives up the GIL once a sub-batch, not once a
    # time point; a one-step path is a copy, which accumulate runs far slower
    if n_steps == 1:
        np.copyto(paths[:, 1:, :], increments)
    else:
        np.add.accumulate(increments, axis=1, out=paths[:, 1:, :])
    return paths


def _moment_samples(rng, beta: MultiIndex, n_paths, t, variance):
    """Yield prod_j |x_j(t)|^(beta_j) (1 where beta is zero) at n_paths endpoints of
    one-step paths, a sampler call of SUB_BATCH_ELEMENTS // (2 k) paths over the k
    sites of beta at a time, into one pair of buffers.  Built site by site,
    s *= |x_j(t)| ** beta_j with a scalar order, each sample is bitwise that of one
    batch at any budget."""
    orders = [order for _, order in beta.entries]
    n_sites = max(len(orders), 1)
    step = min(max(1, SUB_BATCH_ELEMENTS // (2 * n_sites)), n_paths)
    buffers = np.empty((2, 2 * n_sites * step))
    for lo in range(0, n_paths, step):
        paths = sample_path_batch(rng, min(step, n_paths - lo), t, 1, n_sites, variance, buffers)
        samples = np.ones(len(paths))
        for j, order in enumerate(orders):
            samples *= np.abs(paths[:, -1, j]) ** order
        yield samples


def mean_and_stderr(chunks):
    """Mean and standard error (inf for one sample, NaN for an overflowed second
    moment) of chunks given in order as (count, total, sum of squared moduli about
    the chunk mean), merged by Chan, Golub & LeVeque's (1983) cancellation-free update."""
    count, total, m2 = 0, 0.0, 0.0
    for n, chunk_total, chunk_m2 in chunks:
        if count:
            delta = chunk_total / n - total / count
            m2 = m2 + abs(delta) ** 2 * (count * n / (count + n))
        count, total, m2 = count + n, total + chunk_total, m2 + chunk_m2
    mean = total / count
    if count == 1:
        return mean, np.full_like(m2, math.inf)
    var = m2 / (count - 1)
    return mean, np.sqrt(np.where(np.isfinite(var), var, np.nan) / count)


def absolute_moment_estimate(rng, beta: MultiIndex, n_paths, t, variance=DEFAULT_PRESET):
    """Mean of prod_j |x_j(t)|^(beta_j) over n_paths sampled endpoints and its
    standard error, merged over the sub-batches of _moment_samples, within one
    budget's buffer pair plus a sub-batch's samples and two of its columns."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, not {n_paths!r}")

    def centred(samples):  # in place, and no BLAS: np.dot would run its threads
        n, total = len(samples), samples.sum()
        samples -= total / n
        return n, total, np.multiply(samples, samples, out=samples).sum()

    mean, stderr = mean_and_stderr(map(centred, _moment_samples(rng, beta, n_paths, t, variance)))
    return float(mean), float(stderr)


def abs_moment_constant(k: int) -> float:
    """k-th absolute moment of the standard normal: 2^(k/2) Gamma((k+1)/2) / sqrt(pi).
    Beyond double range, from order 302 on, an OverflowError names the order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    try:
        value = 2.0 ** (k / 2.0) * math.gamma((k + 1) / 2.0) / math.sqrt(math.pi)
    except OverflowError:  # math.gamma's, from order 343 on
        value = math.inf
    if value == math.inf:
        raise OverflowError(f"the order-{k} absolute moment constant of the standard normal, "
                            "2^(k/2) Gamma((k+1)/2) / sqrt(pi), overflows a float")
    return value


def abs_moment_max(m: int) -> float:
    """Largest absolute moment constant over orders 0..m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return max(abs_moment_constant(k) for k in range(m + 1))


def absolute_moment_product(beta: MultiIndex, t, variance=DEFAULT_PRESET) -> float:
    """Exact expectation of prod_j |path_j(t)|^(beta_j).

    The path endpoint is Gaussian with per-coordinate variance sigma2 * t, so
    the product of absolute moments factorizes into
    (sigma2 t)^(|beta|/2) * prod_j abs_moment_constant(beta_j).  A product
    beyond double range raises an OverflowError naming beta, also where each
    factor is finite.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    try:
        out = (variance.sigma2 * t) ** (beta.order / 2.0)
    except OverflowError:  # the float power's
        out = math.inf
    for _, order in beta.entries:
        out *= abs_moment_constant(order)
    if not math.isfinite(out):  # inf, or NaN from an underflowed power times inf
        raise OverflowError(f"the absolute moment product E prod_j |w_j(t)|^(beta_j) at beta "
                            f"{beta.to_text()}, t {t:g} leaves double range")
    return out
