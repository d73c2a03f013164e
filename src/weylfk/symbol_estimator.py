"""Monte Carlo estimation of the semigroup phase-space symbol and its derivatives.

The estimator averages exp(-i w(t).xi) * exp(-action) over sampled paths,
where the action is the time integral of the potential along the trajectory
x - w(t)/2 + w(s), whose start and end points are symmetric about x.  Every
path is paired with its reflection (antithetic pairing), which cancels the
imaginary part of the free factor at the pair level; standard errors are
computed over pair averages so they stay unbiased.

Frequency derivatives insert powers of the endpoint w(t).  Position
derivatives differentiate exp(-action) along each path by the chain rule
(the pathwise derivative estimator), using the exact partials of the
potential, so they carry no finite-difference step.

Sampling is split into fixed-size chunks with seeds derived from
(master seed, chunk index), and partial sums are reduced in chunk order, so
results are bit-identical for any worker count.  A chunk samples and weights
its paths in site-major sub-batches of SUB_BATCH_POINTS path points that
continue one stream, bit-identical to weighting the whole chunk at once, in
two path buffers the chunk owns (a ragged last one in their prefixes).  The
weight exp(-action) does not depend on xi, so a batch of frequencies shares
one path set, each value bit-identical to its lone call.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .brownian import DEFAULT_PRESET, sample_path_batch
from .faadibruno import derivative_of_exponential
from .multiindex import MultiIndex, ZERO_INDEX, sub_multiindices

DEFAULT_CHUNK_SIZE = 4096  # antithetic pairs per chunk
SUB_BATCH_POINTS = 1 << 13  # path points (paths x time points) weighted at once


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, xi) in phase space, or a (k, n_sites) batch of xi at one x."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)
        if x.ndim != 1 or xi.ndim > 2 or xi.shape[-1:] != x.shape or not xi.size:
            raise ValueError("x must be 1-d and xi one or more rows of the same length")


@dataclass(frozen=True)
class SymbolEstimate:
    """A complex Monte Carlo estimate, its standard error and provenance; for a
    batch of k frequencies, value and stderr have shape (k,)."""

    value: complex | np.ndarray
    stderr: float | np.ndarray
    n_paths: int
    n_steps: int
    variance_preset: str
    t: float


def _trapezoid(values, dt):
    # uniform-grid trapezoid along the last axis
    return dt * (
        0.5 * values[..., 0] + values[..., 1:-1].sum(axis=-1) + 0.5 * values[..., -1]
    )


def _chunk_sizes(n_pairs, chunk_size):
    full, rest = divmod(n_pairs, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def estimate_mixed_derivative(V, point: PhasePoint, t, n_paths, n_steps, seed, *,
                              alpha: MultiIndex = ZERO_INDEX,
                              beta: MultiIndex = ZERO_INDEX,
                              variance=DEFAULT_PRESET, chunk_size=DEFAULT_CHUNK_SIZE,
                              n_workers=1):
    """Estimate d_x^alpha d_xi^beta of the symbol at one phase point.

    With both indices zero this is the symbol value; a (k, n_sites) point.xi
    gives k of them from one path set, each equal to its lone call.  A
    frequency derivative inserts prod_j (-i w_j(t))^(beta_j), so its modulus
    is bounded by the exact absolute-moment product of the endpoint law, up
    to statistical noise.  Each path's weight exp(-A) is differentiated
    exactly (the multivariate chain rule, by its binomial recurrence over the
    actions of the partials of V along the same path), so the estimate has no
    step-size bias.  V.partial must supply every nonzero sub-index of alpha.
    A second moment that overflows gives a NaN standard error, not zero.
    """
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
    for site in alpha.support + beta.support:
        if site not in V.sites:
            raise ValueError(f"multi-index site {site!r} is not a potential site")

    n_sites = V.n_sites
    n_pairs = n_paths // 2
    dt = t / n_steps
    beta_vec = np.array([beta.get(s) for s in V.sites], dtype=int)
    beta_total = beta.order
    x0, xis = point.x, np.atleast_2d(point.xi)
    alpha_subs = () if alpha.is_zero() else sub_multiindices(alpha)

    def weight(path):
        # exp(-A) times (d^alpha exp(-A)) / exp(-A): x enters the path only as a
        # uniform shift, so d^gamma A is the action of d^gamma V on the same path
        value = np.exp(-_trapezoid(V.eval(path), dt))
        if alpha_subs:
            w_derivs = {g: -_trapezoid(V.partial(g, path), dt) for g in alpha_subs}
            value = value * derivative_of_exponential(w_derivs, alpha)
        return value

    def run_chunk(args):
        index, pairs = args
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        endpoint = np.empty((pairs, n_sites))
        weight_forward, weight_backward = np.empty(pairs), np.empty(pairs)
        step = max(1, SUB_BATCH_POINTS // (n_steps + 1))
        # w in the first, the shifted paths in the second (the normals before them)
        buffers = np.empty((2, min(step, pairs) * (n_steps + 1) * n_sites))
        for lo in range(0, pairs, step):
            hi = min(lo + step, pairs)
            w = sample_path_batch(rng, hi - lo, t, n_steps, n_sites, variance, buffers)
            endpoint[lo:hi] = w[:, -1, :]
            half = endpoint[lo:hi, None, :] / 2.0
            path = np.ndarray(w.shape, buffer=buffers[1], strides=w.strides)  # like w
            # the shifts are formed on site-major views, so that each inner
            # loop runs along one path's time points
            sites = [np.moveaxis(a, -1, 0) for a in (w, path)]
            np.add(np.moveaxis(x0 - half, -1, 0), sites[0], out=sites[1])
            weight_forward[lo:hi] = weight(path)
            np.subtract(np.moveaxis(x0 + half, -1, 0), sites[0], out=sites[1])
            weight_backward[lo:hi] = weight(path)
        if beta_total:
            moment = np.prod((-1j * endpoint) ** beta_vec, axis=-1)
            moment_reflected = moment * (-1.0) ** beta_total
        else:
            moment = moment_reflected = np.ones(pairs, dtype=complex)
        # one reduction per frequency over the same paths; the phase of each
        # is its own matrix-vector product, so its bits match a lone call
        sums = []
        for xi in xis:
            phase = np.exp(-1j * (endpoint @ xi))
            combined = 0.5 * (
                moment * phase * weight_forward
                + moment_reflected * np.conj(phase) * weight_backward
            )
            re, im = combined.real, combined.imag
            sums.append((combined.sum(), re.sum(), im.sum(), (re**2).sum(), (im**2).sum()))
        return pairs, sums

    tasks = list(enumerate(_chunk_sizes(n_pairs, chunk_size)))
    if n_workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run_chunk, tasks))
    else:
        results = [run_chunk(task) for task in tasks]

    # fixed-order reduction per frequency: results arrive indexed by chunk
    count = sum(pairs for pairs, _ in results)
    means, stderrs = [], []
    for by_chunk in zip(*(sums for _, sums in results)):
        total = 0.0 + 0.0j
        sum_re = sum_im = sum_re2 = sum_im2 = 0.0
        for s, sre, sim, sre2, sim2 in by_chunk:
            total += s
            sum_re += sre
            sum_im += sim
            sum_re2 += sre2
            sum_im2 += sim2
        means.append(complex(total / count))
        if count > 1:
            var_re = (sum_re2 - sum_re**2 / count) / (count - 1)
            var_im = (sum_im2 - sum_im**2 / count) / (count - 1)
            # a small negative variance is roundoff; an overflowed one is unknown
            var = (max(0.0, var_re) + max(0.0, var_im)
                   if math.isfinite(var_re + var_im) else math.nan)
            stderrs.append(math.sqrt(var / count))
        else:
            stderrs.append(math.inf)
    if point.xi.ndim == 2:
        return SymbolEstimate(np.array(means), np.array(stderrs), n_paths, n_steps,
                              variance.tag, float(t))
    return SymbolEstimate(means[0], stderrs[0], n_paths, n_steps, variance.tag, float(t))
