"""Multivariate chain-rule combinatorics for derivatives of exp(W).

A derivative of exp(W) of multi-index order alpha expands over all ways of
writing alpha as a multiset of nonzero sub-indices with multiplicities;
each term carries an exact integer coefficient.  The closed-form sup bound
for mixed phase-space derivatives of the semigroup symbol lives here too,
since its combinatorial content is the same expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .brownian import DEFAULT_PRESET, abs_moment_max, resolve_variance
from .multiindex import MultiIndex, has_max_order, sub_multiindices, subtract


@dataclass(frozen=True)
class FaaDiBrunoTerm:
    """Multiplicities phi over nonzero sub-indices, with sum phi(beta)*beta = alpha."""

    counts: tuple  # ((MultiIndex, multiplicity >= 1), ...) in canonical order


def multiindex_partitions(alpha: MultiIndex) -> list:
    """Enumerate every multiplicity assignment once, in canonical order.

    Recursive descent over the canonical sub-index order, memoized on the
    (position, residual) pair.  For a single site of order k the count equals
    the number of integer partitions of k.
    """
    if alpha.is_zero():
        raise ValueError("the zero multi-index has no partitions")
    subs = sub_multiindices(alpha)
    memo = {}

    def descend(i: int, residual: MultiIndex):
        if residual.is_zero():
            return ((),)
        if i == len(subs):
            return ()
        key = (i, residual)
        if key in memo:
            return memo[key]
        beta = subs[i]
        out = []
        multiplicity = 0
        rest = residual
        while True:
            head = ((beta, multiplicity),) if multiplicity else ()
            for tail in descend(i + 1, rest):
                out.append(head + tail)
            if beta <= rest:
                rest = subtract(rest, beta)
                multiplicity += 1
            else:
                break
        memo[key] = tuple(out)
        return memo[key]

    return [FaaDiBrunoTerm(counts) for counts in descend(0, alpha)]


def derivative_of_exponential(w_derivs: Mapping, alpha: MultiIndex):
    """Exact value of (d^alpha exp(W)) / exp(W) from the derivatives of W.

    w_derivs must supply the derivative of W for every nonzero beta <= alpha,
    as scalars or as arrays of one common shape (the result then has that
    shape).  All combinatorial factors are computed in exact integer
    arithmetic before any floating-point multiplication.
    """
    for beta in sub_multiindices(alpha):
        if beta not in w_derivs:
            raise ValueError(f"missing derivative entry for {beta.to_text()!r}")
    alpha_factorial = alpha.factorial
    total = 0.0
    for term in multiindex_partitions(alpha):
        coeff = Fraction(alpha_factorial)
        value = 1.0
        for beta, k in term.counts:
            coeff /= math.factorial(k) * beta.factorial**k
            value = value * w_derivs[beta] ** k
        total += float(coeff) * value
    return total


def mixed_derivative_bound(alpha: MultiIndex, beta: MultiIndex, m: int, t,
                           c_m, variance_scale=DEFAULT_PRESET) -> float:
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
    if not has_max_order(alpha, m) or not has_max_order(beta, m):
        raise ValueError("alpha and beta must have per-site orders at most m")
    if not has_max_order(alpha, 2):
        raise ValueError(
            "the bound is certified only for per-site position orders at most 2"
        )
    if not t > 0.0:
        raise ValueError("t must be positive")
    if c_m < 0.0:
        raise ValueError("c_m must be >= 0")
    sigma2, _ = resolve_variance(variance_scale)
    n_alpha = len(alpha.support)
    n_beta = len(beta.support)
    moment_max = abs_moment_max(m) if m else 1.0
    log_value = (
        (n_alpha * math.log(m) if n_alpha else 0.0)
        + t * c_m * n_alpha
        + n_beta * math.log(moment_max)
        + 0.5 * beta.order * math.log(sigma2 * t)
    )
    # certified budgets can push the exponent past double range; the bound
    # is then unrepresentable and reported as infinite
    return math.exp(log_value) if log_value < 709.0 else math.inf
