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
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .brownian import DEFAULT_PRESET, resolve_variance, sample_path_batch
from .faadibruno import derivative_of_exponential
from .multiindex import MultiIndex, ZERO_INDEX, sub_multiindices

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


def _chunk_sizes(n_pairs, chunk_size):
    full, rest = divmod(n_pairs, chunk_size)
    return [chunk_size] * full + ([rest] if rest else [])


def _estimate(V, point, t, alpha, beta, n_paths, n_steps, seed, variance,
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
    for site in alpha.support + beta.support:
        if site not in V.sites:
            raise ValueError(f"multi-index site {site!r} is not a potential site")

    _, tag = resolve_variance(variance)
    n_sites = V.n_sites
    n_pairs = n_paths // 2
    dt = t / n_steps
    beta_vec = np.array([beta.get(s) for s in V.sites], dtype=int)
    beta_total = beta.order
    x0, xi = point.x, point.xi
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
        w = sample_path_batch(rng, pairs, t, n_steps, n_sites, variance)
        endpoint = w[:, -1, :]
        phase = np.exp(-1j * (endpoint @ xi))
        if beta_total:
            moment = np.prod((-1j * endpoint) ** beta_vec, axis=-1)
            moment_reflected = moment * (-1.0) ** beta_total
        else:
            moment = moment_reflected = np.ones(pairs, dtype=complex)
        forward = (x0 - endpoint / 2.0)[:, None, :] + w
        backward = (x0 + endpoint / 2.0)[:, None, :] - w
        combined = 0.5 * (
            moment * phase * weight(forward)
            + moment_reflected * np.conj(phase) * weight(backward)
        )
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


def estimate_mixed_derivative(V, point: PhasePoint, t, n_paths, n_steps, seed, *,
                              alpha: MultiIndex = ZERO_INDEX,
                              beta: MultiIndex = ZERO_INDEX,
                              variance=DEFAULT_PRESET, chunk_size=DEFAULT_CHUNK_SIZE,
                              n_workers=1):
    """Estimate d_x^alpha d_xi^beta of the symbol at one phase point.

    With both indices zero this is the symbol value.  A frequency derivative
    inserts prod_j (-i w_j(t))^(beta_j), so its modulus is bounded by the
    exact absolute-moment product of the endpoint law, up to statistical
    noise.  Each path's weight exp(-A) is differentiated exactly (Faa di
    Bruno over the actions of the partials of V along the same path), so the
    estimate has no step-size bias.  V.partial must supply every nonzero
    sub-index of alpha.
    """
    return _estimate(V, point, t, alpha, beta, n_paths, n_steps, seed, variance,
                     chunk_size, n_workers)
