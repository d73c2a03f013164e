"""Sweeps estimates and oracle tables against the closed-form inequalities.

Every check produces a report with the worst margin (bound minus observed;
negative means violation) and a violation flag that allows three standard
errors of statistical slack on Monte Carlo inputs.  Exact oracle quantities
get a small fixed numerical slack instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .brownian import (
    DEFAULT_PRESET,
    abs_moment_max,
    absolute_moment_product,
    resolve_variance,
)
from .faadibruno import mixed_derivative_bound
from .multiindex import MultiIndex
from .oracle import Grid, GridOracle, semigroup_symbol_at
from .potentials import PotentialFamily, PotentialSpec
from .symbol_estimator import PhasePoint, estimate_mixed_derivative

STAT_SLACK = 3.0  # standard errors of slack on Monte Carlo comparisons


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

    def bound_for(self, alpha: MultiIndex, beta: MultiIndex, sites) -> float:
        pos = {site: i for i, site in enumerate(sites)}
        out = self.max_norm
        for site, order in alpha.entries:
            out *= self.rho[pos[site]] ** order
        for site, order in beta.entries:
            out *= self.delta[pos[site]] ** order
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


def check_linf(estimates) -> BoundReport:
    """Unit bound on the symbol modulus, with statistical slack."""
    estimates = list(estimates)
    if not estimates:
        raise ValueError("empty sweep")
    margins = [1.0 - abs(e.value) for e in estimates]
    slacks = [STAT_SLACK * e.stderr for e in estimates]
    return BoundReport.from_margins("symbol-sup-unit", margins, slacks)


def check_xi_derivative_bounds(estimates, beta: MultiIndex, t,
                               variance=DEFAULT_PRESET):
    """Frequency-derivative bounds: the exact moment product and its max-order coarsening."""
    estimates = list(estimates)
    if not estimates:
        raise ValueError("empty sweep")
    sigma2, _ = resolve_variance(variance)
    product_bound = absolute_moment_product(beta, t, sigma2)
    m = beta.max_order
    coarse_bound = abs_moment_max(m) ** beta.order * (sigma2 * t) ** (beta.order / 2.0)
    slacks = [STAT_SLACK * e.stderr for e in estimates]
    product_report = BoundReport.from_margins(
        "xi-derivative-moment-product",
        [product_bound - abs(e.value) for e in estimates],
        slacks,
        extra={"bound": product_bound},
    )
    coarse_report = BoundReport.from_margins(
        "xi-derivative-max-order",
        [coarse_bound - abs(e.value) for e in estimates],
        slacks,
        extra={"bound": coarse_bound},
    )
    return product_report, coarse_report


def check_l1_bound(V: PotentialSpec, t, xi_list, grid: Grid,
                   numeric_slack=1e-6, divergence_tol=1e-8,
                   oracle: GridOracle = None) -> BoundReport:
    """Position integral of |symbol| against the integral of exp(-t V).

    Both sides use the same grid quadrature.  A non-decaying integrand at the
    boundary means the right side diverges and is reported as an error.
    """
    if oracle is None:
        oracle = GridOracle(V, grid)
    weights = np.exp(-t * V.eval(grid.points()))
    if grid.dim == 1:
        edge = max(weights[0], weights[-1])
    else:
        square = weights.reshape(grid.n_grid, grid.n_grid)
        edge = max(square[0, :].max(), square[-1, :].max(),
                   square[:, 0].max(), square[:, -1].max())
    if edge > divergence_tol:
        raise DivergentIntegralError(
            f"exp(-tV) is {edge:.3e} at the grid boundary; "
            "the comparison integral does not converge"
        )
    right_side = float(weights.sum() * grid.spacing**grid.dim)
    S = oracle.semigroup(t)
    table = oracle.symbol(t, semigroup=S)
    margins = []
    for xi in xi_list:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if grid.dim == 1:
            values = np.array([semigroup_symbol_at(S, x, xi[0]) for x in table.x])
            left = float(np.abs(values).sum() * grid.spacing)
        else:
            k = [int(np.argmin(np.abs(ax - c))) for ax, c in zip(table.xi_axes, xi)]
            left = float(
                np.abs(table.values[:, :, k[0], k[1]]).sum() * grid.spacing**2
            )
        margins.append(right_side - left)
    return BoundReport.from_margins(
        "l1-against-exp-potential",
        margins,
        [numeric_slack] * len(margins),
        extra={"right_side": right_side},
    )


def _probe_margins(V, bound, t, alpha, beta, n_paths, n_steps, seed, key,
                   seed_stride, n_probes, halfwidth, variance, n_workers):
    """Bound minus |mixed-derivative estimate|, and its slack, at sampled points.

    Probe i draws its phase point uniformly from [-halfwidth, halfwidth] per
    coordinate with the spawn key (key, i), and its paths from the seed
    seed + seed_stride * i.
    """
    margins, slacks = [], []
    for probe in range(n_probes):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, probe)))
        point = PhasePoint(
            rng.uniform(-halfwidth, halfwidth, V.n_sites),
            rng.uniform(-halfwidth, halfwidth, V.n_sites),
        )
        est = estimate_mixed_derivative(
            V, point, t, alpha, beta, n_paths, n_steps, seed + seed_stride * probe,
            variance=variance, n_workers=n_workers,
        )
        margins.append(bound - abs(est.value))
        slacks.append(STAT_SLACK * est.stderr)
    return margins, slacks


def check_mixed_derivative_bound(family: PotentialFamily, m, t, alpha, beta,
                                 lambda_sizes, n_paths, n_steps, seed,
                                 variance=DEFAULT_PRESET, n_probes=2,
                                 probe_halfwidth=1.5, n_workers=1):
    """Mixed-derivative estimates against the closed-form bound, across site counts.

    alpha and beta address sites by their position in the built potential's
    site list, so the same derivative pattern is applied at every size.  The
    bound itself carries no size dependence; reports record it per size so the
    caller can assert it literally does not move.
    """
    reports = []
    c_m = family.certified_cm(m)
    for size in lambda_sizes:
        V = family.build(size)
        alpha_sites, beta_sites = V.at_slots(alpha), V.at_slots(beta)
        bound = mixed_derivative_bound(alpha_sites, beta_sites, m, t, c_m, variance)
        margins, slacks = _probe_margins(
            V, bound, t, alpha_sites, beta_sites, n_paths, n_steps, seed,
            key=size, seed_stride=7919, n_probes=n_probes,
            halfwidth=probe_halfwidth, variance=variance, n_workers=n_workers,
        )
        reports.append(BoundReport.from_margins(
            f"mixed-derivative-bound[size={size}]",
            margins,
            slacks,
            extra={"bound": bound, "size": int(size), "c_m": c_m},
        ))
    return reports


def class_membership(family: PotentialFamily, m, t, n_paths, n_steps, seed,
                     variance=DEFAULT_PRESET, lambda_size=4, index_pairs=None,
                     n_probes=2, n_workers=1):
    """Certified symbol-class parameters plus sampled verification reports.

    The growth factors are uniform across sites: m * exp(t * c_m) per position
    order and B_m * sqrt(sigma2 * t) per frequency order.
    """
    sigma2, _ = resolve_variance(variance)
    c_m = family.certified_cm(m)
    V = family.build(lambda_size)
    rho = np.full(lambda_size, m * math.exp(t * c_m))
    delta = np.full(lambda_size, abs_moment_max(m) * math.sqrt(sigma2 * t))
    params = SymbolClassParams(1.0, rho, delta, m)
    if index_pairs is None:
        index_pairs = [
            (MultiIndex(), MultiIndex()),
            (MultiIndex.of({0: 1}), MultiIndex()),
            (MultiIndex(), MultiIndex.of({0: 1})),
            (MultiIndex.of({0: 1}), MultiIndex.of({1: 1})),
        ]
    reports = []
    for pair_index, (alpha, beta) in enumerate(index_pairs):
        alpha_sites, beta_sites = V.at_slots(alpha), V.at_slots(beta)
        bound = params.bound_for(alpha_sites, beta_sites, V.sites)
        margins, slacks = _probe_margins(
            V, bound, t, alpha_sites, beta_sites, n_paths, n_steps, seed,
            key=pair_index, seed_stride=104729, n_probes=n_probes, halfwidth=1.5,
            variance=variance, n_workers=n_workers,
        )
        label = f"class-bound[alpha={alpha.to_text() or '0'};beta={beta.to_text() or '0'}]"
        reports.append(BoundReport.from_margins(
            label, margins, slacks, extra={"bound": bound},
        ))
    return params, reports
