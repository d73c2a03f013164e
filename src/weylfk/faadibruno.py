"""Multivariate chain rule for derivatives of exp(W), and the mixed-derivative bound.

Differentiating exp(W) once at a site and the rest by the Leibniz rule gives
each derivative of exp(W) from lower ones (the complete-Bell recurrence),
with positive integer coefficients.  The closed-form sup bound for mixed
phase-space derivatives of the semigroup symbol lives here too, since its
combinatorial content is the same expansion.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping

from .brownian import DEFAULT_PRESET, abs_moment_max
from .multiindex import MultiIndex, sub_multiindices


def derivative_of_exponential(w_derivs: Mapping, alpha: MultiIndex):
    """Exact value of (d^alpha exp(W)) / exp(W) from the derivatives of W.

    w_derivs must supply the derivative of W for every nonzero beta <= alpha,
    as scalars or as arrays of one common shape (the result then has that
    shape).  The value is B_alpha of the recurrence B_0 = 1,
    B_delta = sum over gamma <= delta - e_j of
    C(delta - e_j, gamma) W_(gamma + e_j) B_(delta - e_j - gamma), with j the
    first site of delta and C a product of per-site binomials, so every
    coefficient is a positive integer.
    """
    subs = sub_multiindices(alpha)
    for beta in subs:
        if beta not in w_derivs:
            raise ValueError(f"missing derivative entry for {beta.to_text()!r}")
    # the canonical order lists sub-index k at mixed-radix code k, so the
    # difference of two sub-indices is the difference of their codes
    radii = [order + 1 for _, order in alpha.entries]
    strides = [math.prod(radii[:i]) for i in range(len(radii))]
    w = [None] + [w_derivs[beta] for beta in subs]
    b = [1.0]
    for code, delta in enumerate(subs, start=1):
        lower = [delta.get(site) for site in alpha.support]
        j = next(i for i, order in enumerate(lower) if order)
        lower[j] -= 1
        total = 0.0
        for gamma in itertools.product(*(range(order + 1) for order in lower)):
            g = sum(d * stride for d, stride in zip(gamma, strides))
            coeff = math.prod(math.comb(n, d) for n, d in zip(lower, gamma))
            total = total + coeff * w[g + strides[j]] * b[code - strides[j] - g]
        b.append(total)
    return b[-1]


def mixed_derivative_bound(alpha: MultiIndex, beta: MultiIndex, m: int, t,
                           c_m, variance=DEFAULT_PRESET) -> float:
    """Closed-form sup bound for mixed phase-space derivatives of the symbol.

    Requires per-site orders of alpha and beta at most m and a site-uniform
    derivative budget c_m for the potential family.  The value is
    m^|S(alpha)| * exp(t c_m |S(alpha)|) * B_m^|S(beta)| * (sigma2 t)^(|beta|/2)
    with B_m the largest Gaussian absolute-moment constant up to order m.
    The leading factor dominates the per-site chain-rule sums of alpha only
    when every position order is at most two, so larger orders are rejected.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if alpha.max_order > m or beta.max_order > m:
        raise ValueError("alpha and beta must have per-site orders at most m")
    if alpha.max_order > 2:
        raise ValueError(
            "the bound is certified only for per-site position orders at most 2"
        )
    if not t > 0.0:
        raise ValueError("t must be positive")
    if c_m < 0.0:
        raise ValueError("c_m must be >= 0")
    n_alpha = len(alpha.support)
    n_beta = len(beta.support)
    moment_max = abs_moment_max(m) if m else 1.0
    log_value = (
        (n_alpha * math.log(m) if n_alpha else 0.0)
        + t * c_m * n_alpha
        + n_beta * math.log(moment_max)
        + 0.5 * beta.order * math.log(variance.sigma2 * t)
    )
    # certified budgets can push the exponent past double range; the bound
    # is then unrepresentable and reported as infinite
    return math.exp(log_value) if log_value < 709.0 else math.inf
