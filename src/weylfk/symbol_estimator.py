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

A chunk of pairs runs one loop over site-major sub-batches of
SUB_BATCH_ELEMENTS path coordinates (paths x time points x sites, so the
buffers keep one size at any site count and few sites get many paths per numpy
call).  At two workers each large numpy call may wait to take back the GIL it
gave up, so the sampler and the potential's sums make a few a sub-batch.  It
samples each sub-batch's w with a seed derived from (master seed, chunk index)
and reduces its endpoints w(t) to what _pair_sums reads, the phase angle
w(t).xi of each xi and the beta moment.  Only for a position-dependent V does
_shift move w about x, forward, then backward, and _weight give exp(-action),
or its alpha derivative, on each shifted path.  A constant V
(PotentialSpec.constant) takes one value at every point, and _trapezoid, exp
and the alpha factor act row by row, so one _weight call on the constant path
at x gives every path's weight, bit for bit.  Such an estimate reads a path
only at w(t), whose law N(0, sigma^2 t) per site is the same at any step
count, so a constant V samples one-step paths: the free case draws one normal
per pair and site.  Besides the path buffers a chunk holds a few numbers per
pair, at any site count.
_pair_sums forms the pair averages of blocks of whole xi rows, in real
arithmetic, and returns per-xi totals and centred sums of squares.
brownian.mean_and_stderr merges chunks in order, so results are bit-identical
for any worker count or sub-batch size, and each of a batch of frequencies
(sharing one path set) is bit-identical to its lone call.

Each phase comes from the half-angle tangent (_half_angle_phase): on an
AVX-512 x86-64 machine numpy 2.4 runs float64 sin and cos one element at a
time (about 20 ns each, 35 ns for the complex exp) and tan vectorized (1.5
ns), which made the phases a third of a 21-frequency sweep's time.

Every array a chunk uses lives in a working set (_WorkingSet): the two path
buffers, the phase angles, the beta moments, the weights and the phase
scratch, sized for the largest chunk.  A call allocates one set per worker
up front and a chunk borrows one; the short last chunk takes leading views.
Blocks of a few MiB that were freed and allocated again chunk by chunk
crossed glibc's dynamic trim threshold and went back to the kernel, to be
page-faulted in again by the next chunk.
"""

from __future__ import annotations

import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .brownian import DEFAULT_PRESET, SUB_BATCH_ELEMENTS, mean_and_stderr, sample_path_batch
from .faadibruno import derivative_of_exponential
from .multiindex import MultiIndex, ZERO_INDEX, sub_multiindices

DEFAULT_CHUNK_SIZE = 4096  # antithetic pairs per chunk
UNDERFLOW_FLOOR = np.sqrt(np.finfo(float).tiny)  # smallest weight whose square is normal
PHASE_ARRAYS = 4  # (rows, pairs) arrays in a block of _pair_sums


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


def _shift(w, x0, side, buffer):
    """The forward path x - w(t)/2 + w(s) of a sub-batch w for side 0, the
    backward path x + w(t)/2 - w(s) for side 1, laid out like w in buffer,
    the second path buffer (sample_path_batch drew w's normals there)."""
    half = w[:, -1:, :] / 2.0
    start, op = (x0 - half, np.add) if side == 0 else (x0 + half, np.subtract)
    path = np.ndarray(w.shape, buffer=buffer, strides=w.strides)
    # on site-major views, so each inner loop runs along one path's time points
    op(start.transpose(2, 0, 1), w.transpose(2, 0, 1), out=path.transpose(2, 0, 1))
    return path


def _sub_batch(n_steps, n_sites):
    # pairs per sub-batch: SUB_BATCH_ELEMENTS path coordinates, at least one path
    return max(1, SUB_BATCH_ELEMENTS // ((n_steps + 1) * n_sites))


def _weight(V, path, dt, alpha, alpha_subs, out):
    # exp(-A) times (d^alpha exp(-A)) / exp(-A) into out, returning the largest
    # exp(-A): x enters the path only as a uniform shift, so d^gamma A is the
    # action of d^gamma V on the same path
    np.exp(-_trapezoid(V.eval(path), dt), out=out)
    largest = out.max()
    if alpha_subs:
        w_derivs = {g: -_trapezoid(V.partial(g, path), dt) for g in alpha_subs}
        out *= derivative_of_exponential(w_derivs, alpha)
    return largest


def _endpoint_terms(ends, xis, support, orders, theta, moment):
    """Reduce a sub-batch's endpoints w(t), one row per pair, to what _pair_sums
    reads: theta[k] = w(t).xi_k, and the beta moment prod_j (-i w_j(t))^(beta_j)
    (the empty product, beta = 0, is exactly 1) into moment.  Each is a
    fixed-order reduction along a row of a C-ordered copy, so its bits do not
    depend on how many rows a sub-batch holds; BLAS's @ would round by them."""
    ends = np.ascontiguousarray(ends)
    for angle, xi in zip(theta, xis):
        np.sum(ends * xi, axis=-1, out=angle)
    np.prod((-1j * ends[:, support]) ** orders, axis=-1, out=moment)


def _half_angle_phase(theta, cos, sin):
    """cos theta into cos and sin theta into sin, elementwise, from the half-angle
    tangent t = tan(theta / 2): with r = 2 / (1 + t^2), cos theta = r - 1 =
    (1 - t^2) / (1 + t^2) and sin theta = t r.  A NaN angle gives NaN."""
    np.multiply(theta, 0.5, out=sin)
    np.tan(sin, out=sin)
    np.multiply(sin, sin, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    sin *= cos
    cos -= 1.0


def _phase_rows(n_xi, pairs):
    # xi rows per block of _pair_sums: PHASE_ARRAYS (rows, pairs) arrays in one
    # budget of SUB_BATCH_ELEMENTS floats, at least one row
    return min(n_xi, max(1, SUB_BATCH_ELEMENTS // (PHASE_ARRAYS * pairs)))


def _pair_sums(theta, moment, weights, parity, scratch):
    """The chunk's entry for mean_and_stderr from its phase angles theta (a row
    per xi), beta moments (None for beta = 0) and weights, with parity
    (-1)^|beta|: pair count, per-xi totals and centred m2.

    A pair's mean is moment (cos theta (f + parity b) - i sin theta (f - parity b)) / 2
    for the forward and backward weights f and b.  Blocks of whole xi rows,
    (rows, pairs) arrays of the flat scratch (two of them without a moment),
    hold the real and imaginary parts, so each row's bits do not depend on
    the block."""
    forward, backward = weights
    n_xi, pairs = theta.shape
    even = 0.5 * (forward + parity * backward)
    odd = 0.5 * (parity * backward - forward)  # the imaginary part's, sign included
    rows = _phase_rows(n_xi, pairs)
    blocks = scratch[: PHASE_ARRAYS * rows * pairs].reshape(PHASE_ARRAYS, rows, pairs)
    if moment is not None:
        even, odd = moment * even, moment * odd
    totals, m2 = np.empty(n_xi, dtype=complex), np.empty(n_xi)
    for lo in range(0, n_xi, rows):
        hi = min(lo + rows, n_xi)
        cos, sin = blocks[0, : hi - lo], blocks[1, : hi - lo]
        _half_angle_phase(theta[lo:hi], cos, sin)
        if moment is None:
            re, im = np.multiply(cos, even, out=cos), np.multiply(sin, odd, out=sin)
        else:  # times the moment: cos even.real - sin odd.imag, cos even.imag + sin odd.real
            re, im, other = cos, blocks[2, : hi - lo], blocks[3, : hi - lo]
            np.multiply(cos, even.imag, out=im)
            np.multiply(sin, odd.real, out=other)
            im += other
            re *= even.real
            np.multiply(sin, odd.imag, out=other)
            re -= other
        for part, total in ((re, totals.real), (im, totals.imag)):
            np.sum(part, axis=-1, out=total[lo:hi])
            part -= (total[lo:hi] / pairs)[:, None]
            np.square(part, out=part)
        m2[lo:hi] = re.sum(axis=-1) + im.sum(axis=-1)
    return pairs, totals, m2


class _WorkingSet:
    """One worker's arrays for every chunk of a call, each sized for the largest
    chunk: the two path buffers (for paths of the sampled step count, one for
    a constant V), the phase angles, the beta moments, the weights and the
    flat phase scratch.  A chunk of fewer pairs takes leading views, so no
    chunk allocates or frees a block."""

    def __init__(self, sizes, n_xi, n_steps, n_sites):
        pairs = max(sizes)
        self.paths = np.empty((2, min(_sub_batch(n_steps, n_sites), pairs)
                               * (n_steps + 1) * n_sites))
        self.theta = np.empty(n_xi * pairs)
        self.moment = np.empty(pairs, dtype=complex)
        self.weights = np.empty(2 * pairs)
        self.phase = np.empty(max(PHASE_ARRAYS * _phase_rows(n_xi, p) * p for p in sizes))

    def views(self, n_xi, pairs):
        """theta (n_xi, pairs), moment (pairs,) and weights (2, pairs), contiguous."""
        return (self.theta[: n_xi * pairs].reshape(n_xi, pairs), self.moment[:pairs],
                self.weights[: 2 * pairs].reshape(2, pairs))


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
    A second moment that overflows gives a NaN standard error, not zero; one
    that underflows, every weight exp(-A) of a chunk below UNDERFLOW_FLOOR,
    raises FloatingPointError, as the estimate would read as exact.
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
    xis = np.atleast_2d(point.xi)
    beta_vec = np.array([beta.get(j) for j in range(V.n_sites)], dtype=int)
    support = np.flatnonzero(beta_vec)
    orders, parity = beta_vec[support], (-1.0) ** int(beta_vec.sum())
    alpha_subs = () if alpha.is_zero() else sub_multiindices(alpha)

    # sampled steps: a constant V's estimate reads w(t) only, whose law one step draws exactly
    steps = 1 if V.constant else n_steps
    sizes = _chunk_sizes(n_paths // 2, chunk_size)
    sets = queue.SimpleQueue()  # one for each chunk that runs at once
    for _ in range(min(n_workers, len(sizes))):
        sets.put(_WorkingSet(sizes, len(xis), steps, V.n_sites))
    step, sides = _sub_batch(steps, V.n_sites), (0, 1)  # forward, backward
    start = 0.0  # exp(-A), before the alpha factor and the beta moment; NaN stays
    if V.constant:  # V is the same at every point: the constant path at x weights every path
        sides, constant = (), np.empty(1)
        start = _weight(V, np.broadcast_to(point.x, (1, n_steps + 1, V.n_sites)), dt,
                        alpha, alpha_subs, constant)

    def run_chunk(args):
        index, pairs = args
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        work = sets.get()
        try:
            theta, moment, weights = work.views(len(xis), pairs)
            largest = start
            for lo in range(0, pairs, step):
                hi = min(lo + step, pairs)
                w = sample_path_batch(rng, hi - lo, t, steps, V.n_sites, variance, work.paths)
                _endpoint_terms(w[:, -1, :], xis, support, orders, theta[:, lo:hi], moment[lo:hi])
                for side in sides:
                    path = _shift(w, point.x, side, work.paths[1])
                    largest = np.maximum(largest, _weight(V, path, dt, alpha, alpha_subs,
                                                          weights[side, lo:hi]))
            if V.constant:
                weights[...] = constant
            if largest < UNDERFLOW_FLOOR:
                raise FloatingPointError(
                    f"the largest path weight exp(-A) of a chunk at {V.n_sites} sites is "
                    f"{largest:.3g}, below {UNDERFLOW_FLOOR:.3g}: its second moment underflows")
            return _pair_sums(theta, moment if support.size else None, weights, parity,
                              work.phase)
        finally:
            sets.put(work)

    tasks = list(enumerate(sizes))
    if n_workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            chunk_stats = list(pool.map(run_chunk, tasks))
    else:
        chunk_stats = [run_chunk(task) for task in tasks]
    means, stderrs = mean_and_stderr(chunk_stats)  # in chunk order
    if point.xi.ndim == 1:
        means, stderrs = complex(means[0]), float(stderrs[0])
    return SymbolEstimate(means, stderrs, n_paths, n_steps, variance.tag, float(t))
