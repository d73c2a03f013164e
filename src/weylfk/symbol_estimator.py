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

A chunk of pairs runs three steps.  _shifted_paths samples w with a seed
derived from (master seed, chunk index), in site-major sub-batches of
SUB_BATCH_POINTS path points held in two buffers the chunk owns, and shifts
it about x forward, then backward; _weight gives exp(-action), or its alpha
derivative, on each; _pair_sums forms the beta moment, one phase per xi and
the pair averages, and returns six sums per frequency.  _reduce adds the
chunks in order and forms every mean and standard error at once, so results
are bit-identical for any worker count or sub-batch size, and each of a batch
of frequencies (sharing one path set) is bit-identical to its lone call.
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


def _shifted_paths(rng, pairs, t, n_steps, x0, variance):
    """Yield (lo, hi, endpoints, path) twice per sub-batch of a chunk's pairs:
    the path x - w(t)/2 + w(s), then x + w(t)/2 - w(s), in the same buffer."""
    n_sites = len(x0)
    step = max(1, SUB_BATCH_POINTS // (n_steps + 1))
    # w in the first, the shifted paths in the second (the normals before them)
    buffers = np.empty((2, min(step, pairs) * (n_steps + 1) * n_sites))
    for lo in range(0, pairs, step):
        hi = min(lo + step, pairs)
        w = sample_path_batch(rng, hi - lo, t, n_steps, n_sites, variance, buffers)
        half = w[:, -1:, :] / 2.0
        path = np.ndarray(w.shape, buffer=buffers[1], strides=w.strides)  # like w
        # shifts on site-major views, so each inner loop runs along one path's time points
        sites = [np.moveaxis(a, -1, 0) for a in (w, path)]
        np.add(np.moveaxis(x0 - half, -1, 0), sites[0], out=sites[1])
        yield lo, hi, w[:, -1, :], path
        np.subtract(np.moveaxis(x0 + half, -1, 0), sites[0], out=sites[1])
        yield lo, hi, w[:, -1, :], path


def _weight(V, path, dt, alpha, alpha_subs):
    # exp(-A) times (d^alpha exp(-A)) / exp(-A): x enters the path only as a
    # uniform shift, so d^gamma A is the action of d^gamma V on the same path
    value = np.exp(-_trapezoid(V.eval(path), dt))
    if alpha_subs:
        w_derivs = {g: -_trapezoid(V.partial(g, path), dt) for g in alpha_subs}
        value = value * derivative_of_exponential(w_derivs, alpha)
    return value


def _pair_sums(endpoint, weights, beta_vec, xis):
    """Per xi: the pair averages' sum (re, im), sums of re and im, and of their squares."""
    forward, backward = weights
    if beta_vec.any():
        moment = np.prod((-1j * endpoint) ** beta_vec, axis=-1)
        reflected = moment * (-1.0) ** int(beta_vec.sum())
    else:
        moment = reflected = np.ones(len(endpoint), dtype=complex)
    sums = np.empty((len(xis), 6))
    for row, xi in zip(sums, xis):
        # each phase is its own matrix-vector product, so its bits match a lone call
        phase = np.exp(-1j * (endpoint @ xi))
        combined = 0.5 * (moment * phase * forward + reflected * np.conj(phase) * backward)
        re, im, total = combined.real, combined.imag, combined.sum()
        row[:] = total.real, total.imag, re.sum(), im.sum(), (re**2).sum(), (im**2).sum()
    return sums


def _reduce(chunk_sums, count):
    """Per-xi means and standard errors of (chunks, k, 6) pair sums, added in chunk order."""
    total_re, total_im, re, im, re2, im2 = np.sum(chunk_sums, axis=0).T
    mean = (total_re + 1j * total_im) / count
    if count == 1:
        return mean, np.full(len(mean), math.inf)
    var_re = (re2 - re**2 / count) / (count - 1)
    var_im = (im2 - im**2 / count) / (count - 1)
    # a small negative variance is roundoff; an overflowed one is unknown
    var = np.where(np.isfinite(var_re + var_im),
                   np.maximum(var_re, 0.0) + np.maximum(var_im, 0.0), np.nan)
    return mean, np.sqrt(var / count)


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
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if point.x.shape != (V.n_sites,):
        raise ValueError(
            f"phase point has {point.x.shape[0]} coordinates, potential has {V.n_sites}"
        )
    V.check_positions(alpha, beta)

    dt = t / n_steps
    beta_vec = np.array([beta.get(j) for j in range(V.n_sites)], dtype=int)
    alpha_subs = () if alpha.is_zero() else sub_multiindices(alpha)

    def run_chunk(args):
        index, pairs = args
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        endpoint, weights = np.empty((pairs, V.n_sites)), np.empty((2, pairs))
        paths = _shifted_paths(rng, pairs, t, n_steps, point.x, variance)
        for i, (lo, hi, ends, path) in enumerate(paths):  # forward, backward in turn
            endpoint[lo:hi] = ends
            weights[i % 2, lo:hi] = _weight(V, path, dt, alpha, alpha_subs)
        return _pair_sums(endpoint, weights, beta_vec, np.atleast_2d(point.xi))

    tasks = list(enumerate(_chunk_sizes(n_paths // 2, chunk_size)))
    if n_workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            chunk_sums = list(pool.map(run_chunk, tasks))
    else:
        chunk_sums = [run_chunk(task) for task in tasks]
    means, stderrs = _reduce(chunk_sums, n_paths // 2)  # in chunk order
    if point.xi.ndim == 1:
        means, stderrs = complex(means[0]), float(stderrs[0])
    return SymbolEstimate(means, stderrs, n_paths, n_steps, variance.tag, float(t))
