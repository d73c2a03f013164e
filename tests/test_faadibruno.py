import itertools
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from weylfk.brownian import abs_moment_max
from weylfk.faadibruno import (
    FaaDiBrunoTerm,
    derivative_of_exponential,
    mixed_derivative_bound,
    multiindex_partitions,
)
from weylfk.multiindex import MultiIndex, sub_multiindices

mi = MultiIndex.of


def brute_force_partitions(alpha):
    """Independent enumeration: bounded multiplicity vectors over all sub-indices."""
    subs = sub_multiindices(alpha)
    target = dict(alpha.entries)
    ranges = [range(alpha.order // beta.order + 1) for beta in subs]
    found = set()
    for combo in itertools.product(*ranges):
        acc = {}
        for beta, k in zip(subs, combo):
            for site, order in beta.entries:
                acc[site] = acc.get(site, 0) + k * order
        if acc == target:
            found.add(tuple((b, k) for b, k in zip(subs, combo) if k))
    return found


def reconstructs(term, alpha):
    """Re-verify the defining constraint: sum of multiplicity * sub-index is alpha."""
    acc = {}
    for beta, k in term.counts:
        for site, order in beta.entries:
            acc[site] = acc.get(site, 0) + k * order
    return MultiIndex.of(acc) == alpha


class TestEnumeration:
    def test_single_order_one(self):
        terms = multiindex_partitions(mi({1: 1}))
        assert len(terms) == 1
        assert terms[0].counts == ((mi({1: 1}), 1),)

    def test_single_order_two(self):
        terms = multiindex_partitions(mi({1: 2}))
        assert {tuple(t.counts) for t in terms} == {
            ((mi({1: 1}), 2),),
            ((mi({1: 2}), 1),),
        }

    @pytest.mark.parametrize("k,expected", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)])
    def test_single_site_counts_are_integer_partitions(self, k, expected):
        assert len(multiindex_partitions(mi({1: k}))) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            multiindex_partitions(mi({}))

    @pytest.mark.parametrize("alpha", [
        mi({1: 3}), mi({1: 1, 2: 1}), mi({1: 2, 2: 1}), mi({1: 2, 2: 2}),
        mi({1: 1, 2: 1, 3: 1}), mi({1: 4}),
    ])
    def test_matches_brute_force(self, alpha):
        terms = multiindex_partitions(alpha)
        as_sets = {tuple(t.counts) for t in terms}
        assert len(as_sets) == len(terms)  # no duplicates
        assert as_sets == brute_force_partitions(alpha)

    @pytest.mark.parametrize("alpha", [
        mi({1: 4}), mi({1: 2, 2: 2}), mi({1: 3, 2: 1}),
    ])
    def test_constraint_reverified(self, alpha):
        for term in multiindex_partitions(alpha):
            assert reconstructs(term, alpha)


class TestDerivativeOfExponential:
    def test_first_order(self):
        assert derivative_of_exponential({mi({1: 1}): 3.0}, mi({1: 1})) == 3.0

    def test_second_order(self):
        derivs = {mi({1: 1}): 2.0, mi({1: 2}): 5.0}
        # (exp W)'' / exp W = (W')^2 + W''
        assert derivative_of_exponential(derivs, mi({1: 2})) == pytest.approx(9.0)

    def test_mixed_second(self):
        derivs = {mi({1: 1}): 2.0, mi({2: 1}): 7.0, mi({1: 1, 2: 1}): -3.0}
        # d1 d2 exp(W) / exp(W) = W1 W2 + W12
        value = derivative_of_exponential(derivs, mi({1: 1, 2: 1}))
        assert value == pytest.approx(2.0 * 7.0 - 3.0)

    def test_arrays_evaluate_elementwise(self):
        # the estimator passes one derivative value per path
        alpha = mi({1: 2, 2: 1})
        rng = np.random.default_rng(4)
        derivs = {beta: rng.normal(size=5) for beta in sub_multiindices(alpha)}
        values = derivative_of_exponential(derivs, alpha)
        assert values.shape == (5,)
        for i in range(5):
            scalar = {beta: float(d[i]) for beta, d in derivs.items()}
            assert values[i] == derivative_of_exponential(scalar, alpha)
        assert isinstance(derivative_of_exponential(scalar, alpha), float)

    def test_missing_entry(self):
        with pytest.raises(ValueError):
            derivative_of_exponential({mi({1: 1}): 1.0}, mi({1: 2}))

    @pytest.mark.parametrize("coeffs", [
        (0.7, -0.3, 0.11, -0.05),
        (1.5, 0.0, -0.2, 0.0),
        (-0.4, 0.9, 0.0, 0.25),
    ])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_univariate_against_symbolic(self, coeffs, order):
        # W a degree-4 polynomial; symbolic differentiation is the oracle
        y = sympy.Symbol("y")
        W = sum(c * y ** (i + 1) for i, c in enumerate(coeffs))
        point = sympy.Rational(3, 7)
        exact = sympy.diff(sympy.exp(W), y, order) / sympy.exp(W)
        exact_val = float(exact.subs(y, point))
        derivs = {
            mi({1: k}): float(sympy.diff(W, y, k).subs(y, point))
            for k in range(1, order + 1)
        }
        ours = derivative_of_exponential(derivs, mi({1: order}))
        assert ours == pytest.approx(exact_val, rel=1e-12)

    def test_bivariate_against_symbolic(self):
        y0, y1 = sympy.symbols("y0 y1")
        W = sympy.Rational(1, 2) * y0**2 * y1 - y0 * y1 + sympy.Rational(1, 3) * y1**3
        point = {y0: sympy.Rational(1, 3), y1: sympy.Rational(-2, 5)}
        alpha = mi({0: 2, 1: 2})
        derivs = {}
        for beta in sub_multiindices(alpha):
            expr = sympy.diff(W, y0, beta.get(0), y1, beta.get(1))
            derivs[beta] = float(expr.subs(point))
        exact = sympy.diff(sympy.exp(W), y0, 2, y1, 2) / sympy.exp(W)
        assert derivative_of_exponential(derivs, alpha) == pytest.approx(
            float(exact.subs(point)), rel=1e-12
        )

    @given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_inputs_below_exponential_sum(self, values):
        # the expansion with nonnegative entries is dominated by
        # alpha! * exp(sum of entry/beta! over nonzero beta <= alpha)
        alpha = mi({1: 2, 2: 1})
        subs = sub_multiindices(alpha)
        derivs = dict(zip(subs, itertools.cycle(values)))
        lhs = 0.0
        for term in multiindex_partitions(alpha):
            prod = 1.0
            coeff = 1.0
            for beta, k in term.counts:
                coeff /= math.factorial(k)
                prod *= (derivs[beta] / beta.factorial) ** k
            lhs += coeff * prod
        rhs = math.exp(sum(derivs[b] / b.factorial for b in subs))
        assert lhs <= rhs * (1 + 1e-12)


class TestMixedDerivativeBound:
    def test_trivial_pair_is_one(self):
        assert mixed_derivative_bound(mi({}), mi({}), 1, 1.0, 2.0, 1.0) == 1.0

    def test_frequency_only(self):
        # two frequency orders at one site, unit time, unit variance:
        # the coarse moment constant at order two is one
        value = mixed_derivative_bound(mi({}), mi({1: 2}), 2, 1.0, 4.0, 1.0)
        assert value == pytest.approx(abs_moment_max(2) ** 1 * 1.0, rel=1e-14)
        assert value == pytest.approx(1.0, rel=1e-14)

    def test_position_only(self):
        value = mixed_derivative_bound(mi({1: 1}), mi({}), 1, 1.0, 2.0, 1.0)
        assert value == pytest.approx(math.exp(2.0), rel=1e-14)

    def test_variance_scaling(self):
        beta = mi({1: 2})
        v1 = mixed_derivative_bound(mi({}), beta, 2, 1.0, 0.0, 1.0)
        v2 = mixed_derivative_bound(mi({}), beta, 2, 1.0, 0.0, 2.0)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_class_violations_rejected(self):
        with pytest.raises(ValueError):
            mixed_derivative_bound(mi({1: 3}), mi({}), 2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mixed_derivative_bound(mi({}), mi({1: 3}), 2, 1.0, 1.0, 1.0)
        # order three is inside the class at m = 3 but beyond the certified form
        with pytest.raises(ValueError, match="at most 2"):
            mixed_derivative_bound(mi({1: 3}), mi({}), 3, 1.0, 1.0, 1.0)

    def test_size_never_enters(self):
        # same per-site pattern, different ambient site sets: same bound
        a = mixed_derivative_bound(mi({1: 1}), mi({2: 1}), 1, 0.5, 3.0, 2.0)
        b = mixed_derivative_bound(mi({901: 1}), mi({77: 1}), 1, 0.5, 3.0, 2.0)
        assert a == b
