"""Discretized Brownian path sampling and exact Gaussian absolute moments.

Paths vanish at time zero and accumulate independent Gaussian increments on a
uniform time grid.  The per-unit-time coordinate variance is an explicit
parameter, variance, one of the two :class:`VariancePreset` values.  Loops over
batches hand the sampler two buffers as ``out`` and reuse them, bit for bit.
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
ENDPOINT_CHUNK = 1 << 16  # paths per chunk of absolute_moment_samples


def sample_path_batch(rng, n_paths, t, n_steps, n_sites, variance=DEFAULT_PRESET, out=None):
    """Sample a batch of paths; returns shape (n_paths, n_steps + 1, n_sites).

    This is the sampler the Monte Carlo estimator is built on.  Every path
    vanishes at time zero.  The increments of one path are drawn
    contiguously, so each path depends only on the generator state and its
    place in the batch, and consecutive calls continue one stream.  The
    result is a view of site-major storage (each x[..., j] is a contiguous
    (n_paths, n_steps + 1) block), so callers must not assume C-contiguity.
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
    if n_steps == 1:  # a cumsum over one step is a copy, at a tenth of its cost
        np.copyto(paths[:, 1:, :], increments)
    else:
        np.cumsum(increments, axis=1, out=paths[:, 1:, :])
    return paths


def absolute_moment_samples(rng, beta: MultiIndex, n_paths, t, variance=DEFAULT_PRESET):
    """prod_j |x_j(t)|^(beta_j) at n_paths sampled endpoints (1 where beta is zero).

    The endpoints are those of one-step paths, sampled in chunks into one
    pair of buffers so memory stays bounded; consecutive chunks continue one
    stream.  Each chunk holds at least ENDPOINT_CHUNK paths (the remainder
    joins the last one): numpy rounds an array power differently on a few
    thousand elements than on many, and chunks this large keep the samples
    bitwise equal to one batch.
    """
    orders = np.array([order for _, order in beta.entries], dtype=int)
    n_sites = max(len(orders), 1)
    samples = np.empty(n_paths)
    cuts = list(range(ENDPOINT_CHUNK, n_paths - ENDPOINT_CHUNK + 1, ENDPOINT_CHUNK))
    chunks = list(zip([0] + cuts, cuts + [n_paths]))
    buffers = np.empty((2, 2 * n_sites * (chunks[-1][1] - chunks[-1][0])))  # the largest
    for lo, hi in chunks:
        paths = sample_path_batch(rng, hi - lo, t, 1, n_sites, variance, buffers)
        np.prod(np.abs(paths[:, -1, : len(orders)]) ** orders, axis=1, out=samples[lo:hi])
    return samples


def absolute_moment_estimate(rng, beta: MultiIndex, n_paths, t, variance=DEFAULT_PRESET):
    """Mean of absolute_moment_samples and its standard error (inf for one path); the
    variance is samples.std(ddof=1)'s operations, bitwise, in place on the samples."""
    samples = absolute_moment_samples(rng, beta, n_paths, t, variance)
    mean = samples.mean()
    if n_paths < 2:
        return float(mean), math.inf
    samples -= mean
    np.multiply(samples, samples, out=samples)
    return float(mean), float(np.sqrt(samples.sum() / (n_paths - 1)) / math.sqrt(n_paths))


def abs_moment_constant(k: int) -> float:
    """k-th absolute moment of the standard normal: 2^(k/2) Gamma((k+1)/2) / sqrt(pi)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 2.0 ** (k / 2.0) * math.gamma((k + 1) / 2.0) / math.sqrt(math.pi)


def abs_moment_max(m: int) -> float:
    """Largest absolute moment constant over orders 0..m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return max(abs_moment_constant(k) for k in range(m + 1))


def absolute_moment_product(beta: MultiIndex, t, variance=DEFAULT_PRESET) -> float:
    """Exact expectation of prod_j |path_j(t)|^(beta_j).

    The path endpoint is Gaussian with per-coordinate variance sigma2 * t, so
    the product of absolute moments factorizes into
    (sigma2 t)^(|beta|/2) * prod_j abs_moment_constant(beta_j).
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    out = (variance.sigma2 * t) ** (beta.order / 2.0)
    for _, order in beta.entries:
        out *= abs_moment_constant(order)
    return out
