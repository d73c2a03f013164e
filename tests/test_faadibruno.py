import itertools
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from weylfk.brownian import VariancePreset, abs_moment_max
from weylfk.faadibruno import derivative_of_exponential, mixed_derivative_bound
from weylfk.multiindex import MultiIndex, ZERO_INDEX, sub_multiindices

mi = MultiIndex.of
WIENER = VariancePreset.STANDARD_WIENER
GEN = VariancePreset.GENERATOR_LAPLACIAN


def index_factorial(index):
    """The product of the factorials of an index's per-site orders."""
    return math.prod(math.factorial(o) for _, o in index.entries)


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


def reconstructs(counts, alpha):
    """Re-verify the defining constraint: sum of multiplicity * sub-index is alpha."""
    acc = {}
    for beta, k in counts:
        for site, order in beta.entries:
            acc[site] = acc.get(site, 0) + k * order
    return MultiIndex.of(acc) == alpha


def partition_sum(derivs, alpha):
    """The Faa di Bruno sum: over every partition, alpha! / prod(k! beta!^k)
    times prod(W_beta^k), the reference the recurrence is checked against."""
    total = 0.0
    for counts in brute_force_partitions(alpha):
        coeff = index_factorial(alpha) // math.prod(
            math.factorial(k) * index_factorial(beta)**k for beta, k in counts
        )
        total = total + coeff * math.prod(derivs[beta] ** k for beta, k in counts)
    return total


def assert_matches_partition_sum(alpha, derivs):
    # relative to the sum of the terms' moduli, so that a value near
    # cancellation is held to the roundoff of its terms
    ours = derivative_of_exponential(derivs, alpha)
    scale = partition_sum({beta: np.abs(d) for beta, d in derivs.items()}, alpha)
    assert np.all(np.abs(ours - partition_sum(derivs, alpha)) <= 1e-13 * scale)


def random_derivs(alpha, seed, low=-2.0, high=2.0):
    rng = np.random.default_rng(seed)
    return {beta: rng.uniform(low, high, 64) for beta in sub_multiindices(alpha)}


class TestEnumeration:
    """The recurrence against the partition sum over an independent enumeration."""

    def test_single_order_one(self):
        alpha = mi({1: 1})
        derivs = random_derivs(alpha, 1)
        assert np.array_equal(derivative_of_exponential(derivs, alpha), derivs[alpha])
        assert_matches_partition_sum(alpha, derivs)

    def test_single_order_two(self):
        alpha = mi({1: 2})
        assert {tuple(c) for c in brute_force_partitions(alpha)} == {
            ((mi({1: 1}), 2),),
            ((mi({1: 2}), 1),),
        }
        assert_matches_partition_sum(alpha, random_derivs(alpha, 2))

    @pytest.mark.parametrize("k,expected", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)])
    def test_single_site_counts_are_integer_partitions(self, k, expected):
        # the reference enumerates the integer partitions of k
        assert len(brute_force_partitions(mi({1: k}))) == expected
        assert_matches_partition_sum(mi({1: k}), random_derivs(mi({1: k}), k))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            derivative_of_exponential({}, ZERO_INDEX)

    @pytest.mark.parametrize("alpha", [
        mi({1: 3}), mi({1: 1, 2: 1}), mi({1: 2, 2: 1}), mi({1: 2, 2: 2}),
        mi({1: 1, 2: 1, 3: 1}), mi({1: 4}),
    ])
    def test_matches_brute_force(self, alpha):
        assert_matches_partition_sum(alpha, random_derivs(alpha, alpha.order))

    @pytest.mark.parametrize("alpha", [
        mi({1: 4}), mi({1: 2, 2: 2}), mi({1: 3, 2: 1}),
    ])
    def test_constraint_reverified(self, alpha):
        for counts in brute_force_partitions(alpha):
            assert reconstructs(counts, alpha)
        # nonnegative entries: every term adds, so the sums agree to roundoff
        derivs = random_derivs(alpha, 7, low=0.0)
        np.testing.assert_allclose(derivative_of_exponential(derivs, alpha),
                                   partition_sum(derivs, alpha), rtol=1e-13)


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
        lhs = derivative_of_exponential(derivs, alpha) / index_factorial(alpha)
        rhs = math.exp(sum(derivs[b] / index_factorial(b) for b in subs))
        assert lhs <= rhs * (1 + 1e-12)

    def test_order_200_of_a_linear_exponent(self):
        # W linear: d^k exp(W) / exp(W) = (W')^k, far beyond any partition count
        alpha = mi({0: 200})
        derivs = {beta: 1.01 if beta.order == 1 else 0.0 for beta in sub_multiindices(alpha)}
        assert derivative_of_exponential(derivs, alpha) == pytest.approx(1.01**200, rel=1e-12)

    def test_first_derivatives_only_factorize(self):
        # W linear in two sites: the derivative is prod_j w_j^alpha_j
        alpha = mi({0: 3, 1: 4})
        rng = np.random.default_rng(5)
        slopes = {0: rng.normal(size=16), 1: rng.normal(size=16)}
        derivs = {
            beta: slopes[beta.support[0]] if beta.order == 1 else np.zeros(16)
            for beta in sub_multiindices(alpha)
        }
        np.testing.assert_allclose(derivative_of_exponential(derivs, alpha),
                                   slopes[0] ** 3 * slopes[1] ** 4, rtol=1e-13)


class TestMixedDerivativeBound:
    def test_trivial_pair_is_one(self):
        assert mixed_derivative_bound(mi({}), mi({}), 1, 1.0, 2.0, WIENER) == 1.0

    def test_frequency_only(self):
        # two frequency orders at one site, unit time, unit variance:
        # the coarse moment constant at order two is one
        value = mixed_derivative_bound(mi({}), mi({1: 2}), 2, 1.0, 4.0, WIENER)
        assert value == pytest.approx(abs_moment_max(2) ** 1 * 1.0, rel=1e-14)
        assert value == pytest.approx(1.0, rel=1e-14)

    def test_position_only(self):
        value = mixed_derivative_bound(mi({1: 1}), mi({}), 1, 1.0, 2.0, WIENER)
        assert value == pytest.approx(math.exp(2.0), rel=1e-14)

    def test_variance_scaling(self):
        beta = mi({1: 2})
        v1 = mixed_derivative_bound(mi({}), beta, 2, 1.0, 0.0, WIENER)
        v2 = mixed_derivative_bound(mi({}), beta, 2, 1.0, 0.0, GEN)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_class_violations_rejected(self):
        with pytest.raises(ValueError):
            mixed_derivative_bound(mi({1: 3}), mi({}), 2, 1.0, 1.0, WIENER)
        with pytest.raises(ValueError):
            mixed_derivative_bound(mi({}), mi({1: 3}), 2, 1.0, 1.0, WIENER)
        # order three is inside the class at m = 3 but beyond the certified form
        with pytest.raises(ValueError, match="at most 2"):
            mixed_derivative_bound(mi({1: 3}), mi({}), 3, 1.0, 1.0, WIENER)

    def test_size_never_enters(self):
        # same per-site pattern, different ambient site sets: same bound
        a = mixed_derivative_bound(mi({1: 1}), mi({2: 1}), 1, 0.5, 3.0, GEN)
        b = mixed_derivative_bound(mi({901: 1}), mi({77: 1}), 1, 0.5, 3.0, GEN)
        assert a == b
