"""Sweeps estimates and oracle tables against the closed-form inequalities.

Every check produces a report with the worst margin (bound minus observed;
negative means violation) and a violation flag that allows three standard
errors of statistical slack on Monte Carlo inputs.  Exact oracle quantities
get a small fixed numerical slack instead.

Each Monte Carlo suite is a probe generator: it returns groups of probes,
each a (potential, phase point, time, seed, alpha, beta), with the bounds the
group is checked against.  One engine, check_probes, estimates every probe of
a suite in one pool and returns a report per group and bound, and one row per
probe.  The class suite is the mixed-derivative generator at one site count
over CLASS_INDEX_PAIRS.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .brownian import abs_moment_max, absolute_moment_product
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
# the (alpha, beta) pairs that the class suite samples; its parameters are read
# from the bounds of the first three
CLASS_INDEX_PAIRS = (
    (ZERO_INDEX, ZERO_INDEX),
    (MultiIndex.of({0: 1}), ZERO_INDEX),
    (ZERO_INDEX, MultiIndex.of({0: 1})),
    (MultiIndex.of({0: 1}), MultiIndex.of({1: 1})),
)
# the leading columns of a probe row; one bound column per check follows
PROBE_COLUMNS = ("group", "n_sites", "t", "seed", "value_re", "value_im", "stderr")


class DivergentIntegralError(ArithmeticError):
    """The comparison integral does not converge on this potential."""


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
            # every margin is infinite only against an infinite bound, which tests nothing
            **({"untested": True} if self.worst_margin == np.inf else {}),
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


def check_probes(groups, n_paths, n_steps, variance, n_workers):
    """Estimate every probe of every group and check it against its group's bounds.

    groups is a list of (probes, checks): each probe a (V, point, t, seed,
    alpha, beta) for estimate_mixed_derivative, and checks a dict from a bound
    column to an (inequality, bound, extra) triple, the same columns in every
    group.  All probes run concurrently in one pool, one worker each, and each
    estimate depends only on its probe.  Returns the reports, one per group and
    check in order, with margins bound - |value| and STAT_SLACK standard errors
    of slack, and the rows as (header, rows): one row per probe, PROBE_COLUMNS
    then the group's bounds.
    """
    def estimate(probe):
        V, point, t, seed, alpha, beta = probe
        return estimate_mixed_derivative(V, point, t, n_paths, n_steps, seed,
                                         alpha=alpha, beta=beta, variance=variance)

    with ThreadPoolExecutor(max_workers=max(1, n_workers)) as pool:
        estimates = iter(list(pool.map(estimate, [p for probes, _ in groups for p in probes])))
    reports, rows = [], []
    for index, (probes, checks) in enumerate(groups):
        found = [next(estimates) for _ in probes]
        bounds = [bound for _, bound, _ in checks.values()]
        rows += [(index, V.n_sites, t, seed, e.value.real, e.value.imag, e.stderr, *bounds)
                 for (V, _, t, seed, _, _), e in zip(probes, found)]
        reports += [BoundReport.from_margins(inequality, [bound - abs(e.value) for e in found],
                                             [STAT_SLACK * e.stderr for e in found], extra)
                    for inequality, bound, extra in checks.values()]
    return reports, (PROBE_COLUMNS + tuple(groups[0][1]), rows)


def _uniform_point(rng, n_sites, halfwidth) -> PhasePoint:
    return PhasePoint(
        rng.uniform(-halfwidth, halfwidth, n_sites),
        rng.uniform(-halfwidth, halfwidth, n_sites),
    )


def linf_probes(n_points, seed) -> list:
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
    return [(probes, {"bound": ("symbol-sup-unit", 1.0, {})})]


def xi_derivative_probes(V: PotentialSpec, betas, t, n_points, seed, variance) -> list:
    """Both frequency-derivative bounds for each beta, at n_points probes: the
    exact moment product and its max-order coarsening.

    Each beta addresses coordinates by site position.  One stream seeded by
    seed draws the points and keeps running across betas; probe k of every
    beta samples its paths from the seed seed + 31 k.  An order whose bound
    leaves double range raises OverflowError before any path is sampled; a
    position beyond the site count fails at its first estimate.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    groups = []
    for beta in betas:
        exact = absolute_moment_product(beta, t, variance)
        try:
            coarse = (abs_moment_max(beta.max_order) ** beta.order
                      * (variance.sigma2 * t) ** (beta.order / 2.0))
        except OverflowError:  # a float power's
            coarse = math.inf
        if not math.isfinite(coarse):
            raise OverflowError(f"the max-order bound B_m^|beta| (sigma2 t)^(|beta|/2) at beta "
                                f"{beta.to_text()}, t {t:g} leaves double range")
        probes = [(V, _uniform_point(rng, V.n_sites, SWEEP_HALFWIDTH), t, seed + 31 * k,
                   ZERO_INDEX, beta) for k in range(n_points)]
        groups.append((probes, {
            "moment_product_bound": ("xi-derivative-moment-product", exact, {"bound": exact}),
            "max_order_bound": ("xi-derivative-max-order", coarse, {"bound": coarse}),
        }))
    return groups


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
    right_side = float(weights.sum() * grid.cell_volume)
    S = oracle.semigroup(t)
    centers = list(product(grid.axis()[decay_window(S.factors, grid, S.t)], repeat=grid.dim))
    values = np.array([semigroup_symbol_at(S, x, *np.transpose(xis)) for x in centers])
    # one contiguous |u| row per frequency, so each sum is pairwise
    sums = np.ascontiguousarray(np.abs(values).T).sum(axis=1)
    margins = [right_side - float(s * grid.cell_volume) for s in sums]
    return BoundReport.from_margins(
        "l1-against-exp-potential",
        margins,
        [L1_NUMERIC_SLACK] * len(margins),
        extra={"right_side": right_side},
    )


def _mixed_derivative_groups(family, m, t, seed, seed_stride, variance, cases) -> list:
    """One group per case (inequality, alpha, beta, size, key), checked against
    mixed_derivative_bound with the budget c_m that family(size) certifies.

    The extra of each report records the bound, the size and c_m, so the
    caller can check that they do not move.  A case has SPAWNED_PROBES probes;
    probe i draws its point with the spawn key (key, i) and its paths from the
    seed seed + seed_stride * i.  Every bound is computed before any path is
    sampled.
    """
    groups = []
    for inequality, alpha, beta, size, key in cases:
        V = family(size)
        c_m = V.certified_cm(m)
        bound = mixed_derivative_bound(alpha, beta, m, t, c_m, variance)
        probes = [(V, _uniform_point(
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, i))),
            V.n_sites, SPAWNED_HALFWIDTH,
        ), t, seed + seed_stride * i, alpha, beta) for i in range(SPAWNED_PROBES)]
        groups.append((probes, {"bound": (inequality, bound,
                                          {"bound": bound, "size": int(size), "c_m": c_m})}))
    return groups


def mixed_derivative_probes(family, m, t, alpha, beta, lambda_sizes, seed, variance) -> list:
    """Mixed-derivative estimates against the closed-form bound, across site counts.

    family maps a site count to a potential.  alpha and beta address sites by
    their position in its site list, so the same derivative pattern is applied
    at every size, and each size's bound takes its own potential's budget.
    Size n's probes are spawned under the key n.
    """
    return _mixed_derivative_groups(family, m, t, seed, 7919, variance, [
        (f"mixed-derivative-bound[size={n}]", alpha, beta, n, n) for n in lambda_sizes])


def class_probes(family, m, t, lambda_size, seed, variance) -> list:
    """The mixed-derivative groups of each pair of CLASS_INDEX_PAIRS at lambda_size.

    Their bounds certify the symbol class: the (0, 0) bound is the sup norm,
    and the (e_0, 0) and (0, e_0) bounds are the growth factors per position
    and per frequency order, m exp(t c_m) and B_m sqrt(sigma2 t), uniform
    across sites.  Pair i's probes are spawned under the key i.
    """
    return _mixed_derivative_groups(family, m, t, seed, 104729, variance, [
        (f"class-bound[alpha={alpha.to_text() or '0'};beta={beta.to_text() or '0'}]",
         alpha, beta, lambda_size, i) for i, (alpha, beta) in enumerate(CLASS_INDEX_PAIRS)])
