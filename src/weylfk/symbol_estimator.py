"""Monte Carlo estimation of the semigroup phase-space symbol and its derivatives.

The estimator averages exp(-i w(t).xi) * exp(-action) over sampled paths,
where the action is the time integral of the potential along the trajectory
x - w(t)/2 + w(s), whose start and end points are symmetric about x.  Every
path is paired with its reflection (antithetic pairing), which cancels the
imaginary part of the free factor at the pair level; standard errors are
computed over pair averages so they stay unbiased.

Sampling is split into fixed-size chunks with seeds derived from
(master seed, chunk index), and partial sums are reduced in chunk order, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .brownian import DEFAULT_PRESET, resolve_variance, sample_path_batch
from .multiindex import MultiIndex, ZERO_INDEX

DEFAULT_CHUNK_SIZE = 4096  # antithetic pairs per chunk


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, xi) in phase space, indexed by the same site list."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)
        if x.shape != xi.shape or x.ndim != 1:
            raise ValueError("x and xi must be 1-d arrays of equal length")


@dataclass(frozen=True)
class SymbolEstimate:
    """A complex Monte Carlo estimate with its standard error and provenance."""

    value: complex
    stderr: float
    n_paths: int
    n_steps: int
    variance_preset: str
    t: float


def _trapezoid(values, dt):
    # uniform-grid trapezoid along the last axis
    return dt * (
        0.5 * values[..., 0] + values[..., 1:-1].sum(axis=-1) + 0.5 * values[..., -1]
    )


def _difference_stencil(alpha: MultiIndex, h: float, sites) -> list:
    """Tensor-product central-difference stencil for the x-derivative order alpha.

    Per-site orders are limited to 1 and 2; the returned list holds pairs of
    (offset vector, weight) covering all stencil corners.
    """
    if not h > 0.0:
        raise ValueError("finite-difference step h must be positive")
    pos = {site: i for i, site in enumerate(sites)}
    axes = []
    for site, order in alpha.entries:
        if site not in pos:
            raise ValueError(f"multi-index site {site!r} is not a potential site")
        i = pos[site]
        if order == 1:
            axes.append([(i, h, 0.5 / h), (i, -h, -0.5 / h)])
        elif order == 2:
            axes.append([(i, h, 1.0 / h**2), (i, 0.0, -2.0 / h**2), (i, -h, 1.0 / h**2)])
        else:
            raise ValueError(
                "x-derivatives support per-site orders 1 and 2; nest calls for more"
            )
    stencil = []
    for combo in product(*axes):
        offset = np.zeros(len(sites))
        weight = 1.0
        for i, shift, w in combo:
            offset[i] = shift
            weight *= w
        stencil.append((offset, weight))
    return stencil


def _chunk_sizes(n_pairs, chunk_size):
    full, rest = divmod(n_pairs, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def _estimate(V, point, t, beta, stencil, n_paths, n_steps, seed, variance,
              chunk_size, n_workers):
    if not t > 0.0:
        raise ValueError("t must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_paths < 2 or n_paths % 2:
        raise ValueError("n_paths must be an even number >= 2 (antithetic pairs)")
    if point.x.shape != (V.n_sites,):
        raise ValueError(
            f"phase point has {point.x.shape[0]} coordinates, potential has {V.n_sites}"
        )
    for site in beta.support:
        if site not in V.sites:
            raise ValueError(f"multi-index site {site!r} is not a potential site")

    _, tag = resolve_variance(variance)
    n_sites = V.n_sites
    n_pairs = n_paths // 2
    dt = t / n_steps
    beta_vec = np.array([beta.get(s) for s in V.sites], dtype=int)
    beta_total = beta.order
    x0, xi = point.x, point.xi

    def run_chunk(args):
        index, pairs = args
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        w = sample_path_batch(rng, pairs, t, n_steps, n_sites, variance)
        endpoint = w[:, -1, :]
        phase = np.exp(-1j * (endpoint @ xi))
        if beta_total:
            moment = np.prod((-1j * endpoint) ** beta_vec, axis=-1)
            moment_reflected = moment * (-1.0) ** beta_total
        else:
            moment = moment_reflected = np.ones(pairs, dtype=complex)
        combined = np.zeros(pairs, dtype=complex)
        for offset, weight in stencil:
            base = x0 + offset
            forward = (base - endpoint / 2.0)[:, None, :] + w
            backward = (base + endpoint / 2.0)[:, None, :] - w
            act_f = _trapezoid(V.eval(forward), dt)
            act_b = _trapezoid(V.eval(backward), dt)
            pair_mean = 0.5 * (
                moment * phase * np.exp(-act_f)
                + moment_reflected * np.conj(phase) * np.exp(-act_b)
            )
            combined += weight * pair_mean
        return (
            pairs,
            combined.sum(),
            combined.real.sum(),
            combined.imag.sum(),
            (combined.real**2).sum(),
            (combined.imag**2).sum(),
        )

    tasks = list(enumerate(_chunk_sizes(n_pairs, chunk_size)))
    if n_workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run_chunk, tasks))
    else:
        results = [run_chunk(task) for task in tasks]

    # fixed-order reduction: results arrive indexed by chunk
    count = 0
    total = 0.0 + 0.0j
    sum_re = sum_im = sum_re2 = sum_im2 = 0.0
    for pairs, s, sre, sim, sre2, sim2 in results:
        count += pairs
        total += s
        sum_re += sre
        sum_im += sim
        sum_re2 += sre2
        sum_im2 += sim2
    mean = total / count
    if count > 1:
        var_re = max(0.0, (sum_re2 - sum_re**2 / count) / (count - 1))
        var_im = max(0.0, (sum_im2 - sum_im**2 / count) / (count - 1))
        stderr = math.sqrt((var_re + var_im) / count)
    else:
        stderr = math.inf
    return SymbolEstimate(complex(mean), stderr, n_paths, n_steps, tag, float(t))


def _zero_stencil(n_sites):
    return [(np.zeros(n_sites), 1.0)]


def estimate_u(V, point: PhasePoint, t, n_paths, n_steps, seed,
               variance=DEFAULT_PRESET, chunk_size=DEFAULT_CHUNK_SIZE, n_workers=1):
    """Estimate the symbol value at one phase point."""
    return _estimate(V, point, t, ZERO_INDEX, _zero_stencil(V.n_sites),
                     n_paths, n_steps, seed, variance, chunk_size, n_workers)


def estimate_xi_derivative(V, point: PhasePoint, t, beta: MultiIndex, n_paths,
                           n_steps, seed, variance=DEFAULT_PRESET,
                           chunk_size=DEFAULT_CHUNK_SIZE, n_workers=1):
    """Estimate a frequency derivative by inserting prod_j (-i w_j(t))^(beta_j).

    The estimate's modulus is bounded by the exact absolute-moment product of
    the endpoint law, up to statistical noise.
    """
    return _estimate(V, point, t, beta, _zero_stencil(V.n_sites),
                     n_paths, n_steps, seed, variance, chunk_size, n_workers)


def default_x_step(t, variance=DEFAULT_PRESET) -> float:
    sigma2, _ = resolve_variance(variance)
    return 0.01 * math.sqrt(sigma2 * t)


def estimate_x_derivative(V, point: PhasePoint, t, alpha: MultiIndex, n_paths,
                          n_steps, seed, h=None, variance=DEFAULT_PRESET,
                          chunk_size=DEFAULT_CHUNK_SIZE, n_workers=1):
    """Estimate a position derivative by central differences.

    All stencil corners reuse one common random stream, so the difference is
    smooth in h and the standard error reflects the differenced estimator.
    """
    if h is None:
        h = default_x_step(t, variance)
    return _estimate(V, point, t, ZERO_INDEX, _difference_stencil(alpha, h, V.sites),
                     n_paths, n_steps, seed, variance, chunk_size, n_workers)


def estimate_mixed_derivative(V, point: PhasePoint, t, alpha: MultiIndex,
                              beta: MultiIndex, n_paths, n_steps, seed, h=None,
                              variance=DEFAULT_PRESET, chunk_size=DEFAULT_CHUNK_SIZE,
                              n_workers=1):
    """Position differences applied to the frequency-derivative estimator."""
    if h is None:
        h = default_x_step(t, variance)
    return _estimate(V, point, t, beta, _difference_stencil(alpha, h, V.sites),
                     n_paths, n_steps, seed, variance, chunk_size, n_workers)
