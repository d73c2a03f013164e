"""Sweeps estimates and oracle tables against the closed-form inequalities.

Every check produces a report with the worst margin (bound minus observed;
negative means violation) and a violation flag that allows three standard
errors of statistical slack on Monte Carlo inputs.  Exact oracle quantities
get a small fixed numerical slack instead.

The four Monte Carlo suites differ only in how they draw their probes, each
a (potential, phase point, time, seed, alpha, beta); one pool estimates every
probe of a suite and one report builder turns the estimates into margins.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .brownian import DEFAULT_PRESET, abs_moment_max, absolute_moment_product
from .faadibruno import mixed_derivative_bound
from .multiindex import MultiIndex, ZERO_INDEX
from .oracle import Grid, GridOracle, decay_window, grid_edge_max, semigroup_symbol_at
from .potentials import (
    NearestNeighborPotential,
    PotentialSpec,
    gaussian_bump_function,
    harmonic_function,
    lorentzian_function,
    zero_function,
)
from .symbol_estimator import PhasePoint, estimate_mixed_derivative

STAT_SLACK = 3.0  # standard errors of slack on Monte Carlo comparisons
L1_NUMERIC_SLACK = 1e-6  # slack on the exact grid quadratures of the L1 check
DIVERGENCE_TOL = 1e-8  # largest exp(-tV) the L1 check accepts on the grid boundary
SWEEP_HALFWIDTH = 2.0  # linf and xi-deriv points lie in [-2, 2] per coordinate
SPAWNED_PROBES = 2  # probes per report in the mixed-derivative and class suites
SPAWNED_HALFWIDTH = 1.5  # their points lie in [-1.5, 1.5] per coordinate
# the (alpha, beta) pairs that the class suite samples
CLASS_INDEX_PAIRS = (
    (ZERO_INDEX, ZERO_INDEX),
    (MultiIndex.of({0: 1}), ZERO_INDEX),
    (ZERO_INDEX, MultiIndex.of({0: 1})),
    (MultiIndex.of({0: 1}), MultiIndex.of({1: 1})),
)


class DivergentIntegralError(RuntimeError):
    """The comparison integral does not converge on this potential."""


@dataclass(frozen=True)
class SymbolClassParams:
    """Dimension-independent symbol-class parameters certified for a family."""

    max_norm: float
    rho: np.ndarray    # per-site position-derivative growth factors
    delta: np.ndarray  # per-site frequency-derivative growth factors
    m: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "delta", delta)
        if self.max_norm < 0 or np.any(rho < 0) or np.any(delta < 0):
            raise ValueError("class parameters must be nonnegative")

    def bound_for(self, alpha: MultiIndex, beta: MultiIndex) -> float:
        out = self.max_norm
        for j, order in alpha.entries:
            out *= self.rho[j] ** order
        for j, order in beta.entries:
            out *= self.delta[j] ** order
        return out


@dataclass(frozen=True)
class BoundReport:
    inequality: str
    n_samples: int
    worst_margin: float
    worst_slack: float
    violation: bool
    extra: dict = field(default_factory=dict)

    @staticmethod
    def from_margins(inequality, margins, slacks, extra=None) -> "BoundReport":
        margins = np.asarray(margins, dtype=float)
        slacks = np.asarray(slacks, dtype=float)
        if margins.size == 0:
            raise ValueError("empty sweep")
        worst = int(np.argmin(margins + slacks))  # most violating after slack
        return BoundReport(
            inequality=inequality,
            n_samples=int(margins.size),
            worst_margin=float(margins[worst]),
            worst_slack=float(slacks[worst]),
            violation=bool(np.any(margins < -slacks)),
            extra=extra or {},
        )

    def to_json(self) -> dict:
        return {
            "inequality": self.inequality,
            "n_samples": self.n_samples,
            "worst_margin": self.worst_margin,
            "worst_slack": self.worst_slack,
            "violation": self.violation,
            **({"extra": self.extra} if self.extra else {}),
        }


def default_sweep_potentials() -> dict:
    """The one-site harmonic and Lorentzian wells and a two-site bump chain."""
    return {
        "harmonic": NearestNeighborPotential(
            1, [(0,)], harmonic_function(), zero_function()
        ),
        "lorentzian": NearestNeighborPotential(
            1, [(0,)], lorentzian_function(), zero_function()
        ),
        "chain2": NearestNeighborPotential(
            1, [(0,), (1,)], gaussian_bump_function(), lorentzian_function(2.0, 2.0)
        ),
    }


def _report(inequality, bound, estimates, extra=None) -> BoundReport:
    """Bound minus |estimate| per estimate, with STAT_SLACK standard errors of slack."""
    estimates = list(estimates)
    return BoundReport.from_margins(
        inequality,
        [bound - abs(e.value) for e in estimates],
        [STAT_SLACK * e.stderr for e in estimates],
        extra,
    )


def _estimate_probes(probes, n_paths, n_steps, variance, n_workers) -> list:
    """One mixed-derivative estimate per probe (V, point, t, seed, alpha, beta), in
    order; the probes run concurrently, one worker each, and each depends only on
    its probe."""
    def estimate(probe):
        V, point, t, seed, alpha, beta = probe
        return estimate_mixed_derivative(V, point, t, n_paths, n_steps, seed,
                                         alpha=alpha, beta=beta, variance=variance)

    with ThreadPoolExecutor(max_workers=max(1, n_workers)) as pool:
        return list(pool.map(estimate, probes))


def _uniform_point(rng, n_sites, halfwidth) -> PhasePoint:
    return PhasePoint(
        rng.uniform(-halfwidth, halfwidth, n_sites),
        rng.uniform(-halfwidth, halfwidth, n_sites),
    )


def _spawned_probes(V, t, seed, key, seed_stride, alpha, beta) -> list:
    """Probe i draws its point with the spawn key (key, i), its paths from
    the seed seed + seed_stride * i."""
    return [
        (V, _uniform_point(
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, i))),
            V.n_sites, SPAWNED_HALFWIDTH,
        ), t, seed + seed_stride * i, alpha, beta)
        for i in range(SPAWNED_PROBES)
    ]


def _per_report(estimates, n) -> list:
    """A suite's estimates cut into consecutive groups of n, one group per report."""
    return [estimates[i:i + n] for i in range(0, len(estimates), n)]


def check_linf(estimates) -> BoundReport:
    """Unit bound on the symbol modulus, with statistical slack."""
    return _report("symbol-sup-unit", 1.0, estimates)


def _xi_derivative_bounds(beta: MultiIndex, t, variance) -> tuple:
    """The exact moment product bound and its max-order coarsening; an order
    whose constants leave double range raises OverflowError."""
    m = beta.max_order
    coarse = abs_moment_max(m) ** beta.order * (variance.sigma2 * t) ** (beta.order / 2.0)
    return absolute_moment_product(beta, t, variance), coarse


def check_xi_derivative_bounds(estimates, beta: MultiIndex, t,
                               variance=DEFAULT_PRESET):
    """Frequency-derivative bounds: the exact moment product and its max-order coarsening."""
    estimates = list(estimates)
    product_bound, coarse_bound = _xi_derivative_bounds(beta, t, variance)
    return (
        _report("xi-derivative-moment-product", product_bound, estimates,
                {"bound": product_bound}),
        _report("xi-derivative-max-order", coarse_bound, estimates,
                {"bound": coarse_bound}),
    )


def linf_sweep(n_points, n_paths, n_steps, seed, variance=DEFAULT_PRESET,
               n_workers=1) -> BoundReport:
    """The unit sup bound at n_points probes, cycling through the sweep potentials.

    One stream seeded by seed draws each probe's point and its time in
    [0.1, 1]; probe k samples its paths from the seed seed + k.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    potentials = list(default_sweep_potentials().values())
    probes = []
    for k in range(n_points):
        V = potentials[k % len(potentials)]
        point = _uniform_point(rng, V.n_sites, SWEEP_HALFWIDTH)
        probes.append((V, point, float(rng.uniform(0.1, 1.0)), seed + k, ZERO_INDEX, ZERO_INDEX))
    return check_linf(_estimate_probes(probes, n_paths, n_steps, variance, n_workers))


def xi_derivative_sweep(V: PotentialSpec, betas, t, n_points, n_paths, n_steps,
                        seed, variance=DEFAULT_PRESET, n_workers=1) -> list:
    """Both frequency-derivative bounds for each beta, at n_points probes.

    Each beta addresses coordinates by site position.  One stream seeded by
    seed draws the points and keeps running across betas; probe k of every
    beta samples its paths from the seed seed + 31 k.  Every bound is computed
    before any path is sampled, so an order whose bound overflows fails at
    once; a position beyond the site count fails at its first estimate.  All
    probes of all betas share one pool.
    """
    for beta in betas:
        _xi_derivative_bounds(beta, t, variance)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    probes = [(V, _uniform_point(rng, V.n_sites, SWEEP_HALFWIDTH), t, seed + 31 * k,
               ZERO_INDEX, beta)
              for beta in betas for k in range(n_points)]
    estimates = _estimate_probes(probes, n_paths, n_steps, variance, n_workers)
    return [report for beta, group in zip(betas, _per_report(estimates, n_points))
            for report in check_xi_derivative_bounds(group, beta, t, variance)]


def check_l1_bound(V: PotentialSpec, t, xi_list, grid: Grid) -> BoundReport:
    """Position integral of |symbol| against the integral of exp(-t V).

    Each frequency in xi_list is a number or a list of grid.dim numbers; the
    symbol is evaluated pointwise (:func:`semigroup_symbol_at`) at every
    decay-checked center, for all frequencies at once.  Both sides use the same grid
    quadrature.  A non-decaying integrand at the boundary means the right side
    diverges and is reported as an error.  Grid bias is not budgeted, so a
    coarse grid can fail the bound: with the harmonic potential at L = 10 and
    t = 0.25, n_grid 32 gives a margin of -0.20 in 1-d and -1.46 in 2-d, and
    n_grid 64 passes.
    """
    xis = [np.atleast_1d(np.asarray(xi, dtype=float)) for xi in xi_list]
    for xi in xis:
        if xi.shape != (grid.dim,):
            raise ValueError(
                f"frequency {xi.tolist()} has {xi.size} coordinates, "
                f"the grid has {grid.dim}"
            )
    oracle = GridOracle(V, grid)
    weights = np.exp(-t * V.eval(grid.points()))
    edge = grid_edge_max(weights, grid)
    if edge > DIVERGENCE_TOL:
        raise DivergentIntegralError(
            f"exp(-tV) is {edge:.3e} at the grid boundary; "
            "the comparison integral does not converge"
        )
    right_side = float(weights.sum() * grid.spacing**grid.dim)
    S = oracle.semigroup(t)
    centers = list(product(grid.axis()[decay_window(S.factors, grid, S.t)], repeat=grid.dim))
    values = np.array([semigroup_symbol_at(S, x, *np.transpose(xis)) for x in centers])
    # one contiguous |u| row per frequency, so each sum is pairwise
    sums = np.ascontiguousarray(np.abs(values).T).sum(axis=1)
    margins = [right_side - float(s * grid.spacing**grid.dim) for s in sums]
    return BoundReport.from_margins(
        "l1-against-exp-potential",
        margins,
        [L1_NUMERIC_SLACK] * len(margins),
        extra={"right_side": right_side},
    )


def check_mixed_derivative_bound(family, m, t, alpha, beta,
                                 lambda_sizes, n_paths, n_steps, seed,
                                 variance=DEFAULT_PRESET, n_workers=1):
    """Mixed-derivative estimates against the closed-form bound, across site counts.

    family maps a site count to a potential.  alpha and beta address sites by
    their position in its site list, so the same derivative pattern is applied
    at every size.  Each size's bound takes the budget c_m that its own
    potential certifies; reports record both per size, so the caller can check
    that they do not move.  Each size gets SPAWNED_PROBES probes, spawned
    under the key size.  Every bound is computed before any path is sampled,
    and all probes share one pool.
    """
    sizes = []
    for size in lambda_sizes:
        V = family(size)
        c_m = V.certified_cm(m)
        sizes.append((size, V, c_m, mixed_derivative_bound(alpha, beta, m, t, c_m, variance)))
    probes = [probe for size, V, _, _ in sizes
              for probe in _spawned_probes(V, t, seed, size, 7919, alpha, beta)]
    estimates = _estimate_probes(probes, n_paths, n_steps, variance, n_workers)
    return [
        _report(f"mixed-derivative-bound[size={size}]", bound, group,
                {"bound": bound, "size": int(size), "c_m": c_m})
        for (size, _, c_m, bound), group in zip(sizes, _per_report(estimates, SPAWNED_PROBES))
    ]


def class_membership(family, m, t, n_paths, n_steps, seed,
                     variance=DEFAULT_PRESET, lambda_size=4, n_workers=1):
    """Certified symbol-class parameters plus sampled verification reports.

    family maps a site count to a potential; c_m is certified by the one it
    builds at lambda_size.  The growth factors are uniform across sites:
    m * exp(t * c_m) per position order and B_m * sqrt(sigma2 * t) per
    frequency order.  Each pair of CLASS_INDEX_PAIRS gets SPAWNED_PROBES
    probes, spawned under its position; all probes share one pool.
    """
    V = family(lambda_size)
    c_m = V.certified_cm(m)
    rho = np.full(lambda_size, m * math.exp(t * c_m))
    delta = np.full(lambda_size, abs_moment_max(m) * math.sqrt(variance.sigma2 * t))
    params = SymbolClassParams(1.0, rho, delta, m)
    probes = [probe for pair_index, (alpha, beta) in enumerate(CLASS_INDEX_PAIRS)
              for probe in _spawned_probes(V, t, seed, pair_index, 104729, alpha, beta)]
    estimates = _estimate_probes(probes, n_paths, n_steps, variance, n_workers)
    reports = []
    for (alpha, beta), group in zip(CLASS_INDEX_PAIRS, _per_report(estimates, SPAWNED_PROBES)):
        bound = params.bound_for(alpha, beta)
        label = f"class-bound[alpha={alpha.to_text() or '0'};beta={beta.to_text() or '0'}]"
        reports.append(_report(label, bound, group, {"bound": bound}))
    return params, reports
