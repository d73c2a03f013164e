import inspect
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylfk.multiindex import MultiIndex, sub_multiindices
from weylfk.potentials import (
    MeanFieldPotential,
    MissingSupBoundError,
    NearestNeighborPotential,
    ScalarFunction,
    constant_function,
    cosine_function,
    gaussian_bump_function,
    harmonic_function,
    family_from_json,
    lorentzian_function,
    potential_from_json,
    scalar_from_json,
    zero_function,
)
from weylfk.potentials import _pair_blocks, _pair_sum

from potential_helpers import CustomPotential, zero_potential

mi = MultiIndex.of
LORENTZIAN = {"name": "lorentzian"}
BUMP = {"name": "gaussian_bump"}


def site_major(x):
    """The same values as x, stored with the last (site) axis outermost."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)


def finite_difference(fn, x, alpha, h=1e-4):
    """Central finite differences of a scalar callable, one site order at a time."""
    site, order = alpha.entries[0]
    rest = MultiIndex.of(dict(alpha.entries[1:]))

    def reduced(y):
        if rest.is_zero():
            return fn(y)
        return finite_difference(fn, y, rest, h)

    idx = site

    def shifted(delta):
        y = np.array(x, dtype=float)
        y[idx] += delta
        return reduced(y)

    if order == 1:
        return (shifted(h) - shifted(-h)) / (2 * h)
    if order == 2:
        return (shifted(h) - 2 * reduced(np.array(x, float)) + shifted(-h)) / h**2
    raise NotImplementedError


class TestScalarFunctions:
    @pytest.mark.parametrize("builder", [
        gaussian_bump_function, lorentzian_function, cosine_function,
    ])
    def test_derivatives_match_finite_differences(self, builder):
        f = builder(1.3, 0.9)
        ys = np.linspace(-3, 3, 11)
        h = 1e-5
        for k in range(4):
            numeric = (f.derivative(k, ys + h) - f.derivative(k, ys - h)) / (2 * h)
            exact = f.derivative(k + 1, ys)
            assert np.allclose(numeric, exact, rtol=1e-6, atol=1e-7), (builder, k)

    @pytest.mark.parametrize("builder", [
        gaussian_bump_function, lorentzian_function, cosine_function,
    ])
    def test_sup_bounds_hold_on_samples(self, builder):
        f = builder(2.0, 1.5)
        ys = np.linspace(-20, 20, 4001)
        for k in range(7):
            assert np.abs(f.derivative(k, ys)).max() <= f.sup_fn(k) * (1 + 1e-12)

    def test_nonnegative_values(self):
        ys = np.linspace(-10, 10, 201)
        for builder in (gaussian_bump_function, lorentzian_function, cosine_function):
            assert np.all(builder().value(ys) >= 0)

    def test_harmonic_missing_sup(self):
        f = harmonic_function()
        assert f.sup_fn(1) is None
        with pytest.raises(MissingSupBoundError):
            f.max_sup(1, 2)

    def test_parse_matches_direct_construction(self):
        cases = [
            ({"name": "zero"}, zero_function()),
            ({"name": "constant", "amplitude": 0.7}, constant_function(0.7)),
            ({"name": "harmonic", "amplitude": 1.2}, harmonic_function(1.2)),
            ({"name": "gaussian_bump", "amplitude": 1.3, "width": 0.9},
             gaussian_bump_function(1.3, 0.9)),
            ({"name": "lorentzian", "amplitude": 2.0, "width": 3.0},
             lorentzian_function(2.0, 3.0)),
            ({"name": "cosine", "amplitude": 1.3, "width": 0.9}, cosine_function(1.3, 0.9)),
        ]
        y = np.random.default_rng(2).normal(scale=3.0, size=50)
        for obj, direct in cases:
            parsed = scalar_from_json(obj)
            assert parsed.name == direct.name
            for k in range(4):
                assert np.array_equal(parsed.derivative(k, y), direct.derivative(k, y))
                assert parsed.sup_fn(k) == direct.sup_fn(k)
        with pytest.raises(ValueError):
            scalar_from_json({"name": "nope"})

    @pytest.mark.parametrize("builder, key", [
        (constant_function, "amplitude"), (harmonic_function, "amplitude"),
        (gaussian_bump_function, "amplitude"), (gaussian_bump_function, "width"),
        (lorentzian_function, "amplitude"), (lorentzian_function, "width"),
        (cosine_function, "amplitude"), (cosine_function, "width"),
    ])
    @pytest.mark.parametrize("value", [
        math.inf, math.nan,
        # integers beyond float range are out of range, not arithmetic errors
        pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400"),
    ])
    def test_non_finite_parameter_is_value_error(self, builder, key, value):
        with pytest.raises(ValueError, match=key):
            builder(**{key: value})


ZERO = {"variant": "zero", "sites": [0, 1, 2]}


def positive_zeros(values) -> bool:
    """Whether every value is +0.0: zero, and without the sign bit."""
    return not np.any(values) and not np.any(np.signbit(values))


class TestEval:
    def test_zero(self):
        V = potential_from_json(ZERO)
        x = np.random.default_rng(1).normal(size=(4, 5, 3))
        assert V.eval(x).shape == (4, 5)
        assert positive_zeros(V.eval(x)) and positive_zeros(V.eval(x[0, 0]))

    def test_zero_separates_to_one_site(self):
        axis = potential_from_json(ZERO).separable_axis()
        assert axis.sites == (0,)
        assert positive_zeros(axis.eval(np.linspace(-3.0, 3.0, 7)[:, None]))

    def test_mean_field_constant(self):
        # all-pairs average of a constant c over n sites gives c*n
        n, c = 5, 0.7
        V = MeanFieldPotential(range(n), constant_function(c))
        assert V.eval(np.zeros(n)) == pytest.approx(c * n, rel=1e-14)

    def test_nearest_neighbor_square_pair(self):
        G = scalar_from_json({"name": "harmonic"})
        chain = NearestNeighborPotential(1, [(0,), (1,)], zero_function(), G)
        # both ordered pairs contribute: G(-1) + G(1) = 2
        assert chain.eval([0.0, 1.0]) == pytest.approx(2.0, rel=1e-14)

    def test_dimension_mismatch(self):
        V = zero_potential([0, 1])
        with pytest.raises(ValueError):
            V.eval([1.0])

    def test_mean_field_permutation_invariance(self):
        rng = np.random.default_rng(5)
        V = MeanFieldPotential(range(4), lorentzian_function())
        x = rng.normal(size=4)
        base = V.eval(x)
        for perm in itertools.permutations(range(4)):
            assert V.eval(x[list(perm)]) == pytest.approx(base, rel=1e-13)

    def test_mean_field_diagonal_flag(self):
        G = gaussian_bump_function()
        x = np.array([0.3, -0.5, 1.1])
        with_diag = MeanFieldPotential(range(3), G, include_diagonal=True)
        without = MeanFieldPotential(range(3), G, include_diagonal=False)
        # the diagonal contributes exactly G(0) overall
        assert with_diag.eval(x) - without.eval(x) == pytest.approx(
            float(G.value(0.0)), rel=1e-13
        )

    def test_vectorized_eval(self):
        V = MeanFieldPotential(range(3), lorentzian_function())
        xs = np.random.default_rng(0).normal(size=(10, 7, 3))
        out = V.eval(xs)
        assert out.shape == (10, 7)
        assert out[2, 3] == pytest.approx(float(V.eval(xs[2, 3])), rel=1e-14)


BUILTIN_BUILDERS = [zero_function, constant_function, harmonic_function,
                    gaussian_bump_function, lorentzian_function, cosine_function]
BUILTIN_SCALARS = [
    zero_function(), constant_function(0.7), harmonic_function(1.2),
    gaussian_bump_function(1.3, 0.9), lorentzian_function(1.3, 0.9),
    cosine_function(1.3, 0.9),
]


def dense_mean_field(G, x, include_diagonal):
    """sum_{j,k} G(x_j - x_k) / n over the full n x n difference tensor."""
    n = x.shape[-1]
    vals = G.value(x[..., :, None] - x[..., None, :])
    if not include_diagonal:
        vals = vals * (1.0 - np.eye(n))
    return vals.sum(axis=(-2, -1)) / n


def adjacent_ordered_pairs(sites):
    """Every ordered pair (j, k) of lattice sites at sup-norm distance one."""
    return [
        (j, k)
        for j, sj in enumerate(sites)
        for k, sk in enumerate(sites)
        if j != k and max(abs(a - b) for a, b in zip(sj, sk)) == 1
    ]


def ordered_pair_loop(sites, F, G, x):
    """On-site terms plus G(x_j - x_k) over every ordered adjacent pair."""
    total = F.value(x).sum(axis=-1)
    for j, k in adjacent_ordered_pairs(sites):
        total = total + G.value(x[..., j] - x[..., k])
    return total


def ordered_pair_partial(ordered_pairs, F, G, divisor, alpha, x):
    """The chain rule term by term: F^(m) at a lone active site, plus one
    signed G^(m)(x_j - x_k) for every ordered pair (j, k) covering the support."""
    support = set(alpha.support)
    total = np.zeros(x.shape[:-1])
    if len(support) == 1 and F is not None:
        (j,) = support
        total = total + F.derivative(alpha.order, x[..., j])
    if len(support) <= 2:
        for j, k in ordered_pairs:
            if support <= {j, k}:
                sign = -1.0 if alpha.get(k) % 2 else 1.0
                total = total + sign * G.derivative(alpha.order, x[..., j] - x[..., k])
    return total / divisor


def cosh_like_function():
    """An even pair function that is not built in, given by its own derivative
    callable: the pair machinery takes any G on the even contract."""
    return ScalarFunction(
        "cosh_like", lambda k, y: 0.3**k * (np.sinh if k % 2 else np.cosh)(0.3 * y),
        lambda k: None
    )


PAIR_FUNCTIONS = [lorentzian_function(1.3, 0.8), cosine_function(0.9, 0.7),
                  cosh_like_function()]


NN_LAYOUTS = [
    [(i,) for i in range(9)],                          # 1-d chain in site order
    [(2,), (0,), (4,), (1,), (3,)],                    # chain in shuffled order
    [(i, j) for i in range(3) for j in range(4)],     # 2-d lattice
    [(0, 0), (2, 1), (1, 1), (0, 1), (2, 0), (1, 0)],  # 2-d, shuffled
]


class TestPairEvaluation:
    @pytest.mark.parametrize("G", PAIR_FUNCTIONS)
    @pytest.mark.parametrize("include_diagonal", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_mean_field_matches_dense_reference(self, G, include_diagonal, n):
        x = np.random.default_rng(n).normal(size=(5, 4, n))
        V = MeanFieldPotential(range(n), G, include_diagonal)
        ref = dense_mean_field(G, x, include_diagonal)
        np.testing.assert_allclose(V.eval(x), ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("G", PAIR_FUNCTIONS, ids=lambda G: G.name)
    @pytest.mark.parametrize("sites", NN_LAYOUTS)
    def test_nearest_neighbor_matches_pair_loop(self, G, sites):
        F = gaussian_bump_function(0.8, 1.1)
        x = np.random.default_rng(len(sites)).normal(size=(5, 4, len(sites)))
        V = NearestNeighborPotential(len(sites[0]), sites, F, G)
        ref = ordered_pair_loop(sites, F, G, x)
        np.testing.assert_allclose(V.eval(x), ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("builder", BUILTIN_BUILDERS, ids=lambda b: b.__name__)
    @given(amplitude=st.floats(0.0, 1e3), width=st.floats(1e-3, 1e3),
           y=st.floats(-1e3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_builtins_are_even_bit_for_bit(self, builder, amplitude, width, y):
        # the pair sum evaluates G once per unordered pair on this contract
        params = inspect.signature(builder).parameters
        f = builder(**{k: v for k, v in {"amplitude": amplitude, "width": width}.items()
                       if k in params})
        ys = np.append(np.random.default_rng(3).normal(scale=3.0, size=1000), y)
        assert f.value(-ys).tobytes() == f.value(ys).tobytes()

    def test_lorentzian_value_matches_partial_fraction_form(self):
        a, w = 1.3, 0.9
        f = lorentzian_function(a, w)
        y = np.random.default_rng(4).normal(scale=5.0, size=1000)
        partial_fraction = -a * np.imag((y / w + 1j) ** -1)
        np.testing.assert_allclose(f.value(y), partial_fraction, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_lorentzian_derivatives_match_complex_power_form(self, k):
        # the real Horner form against (-1)^(k+1) k! Im((u+i)^(-k-1))
        a, w = 1.3, 0.8
        f = lorentzian_function(a, w)
        y = np.concatenate([np.linspace(-20.0, 20.0, 2001),
                            np.random.default_rng(6).normal(scale=3.0, size=2000)])
        complex_form = a * w ** (-k) * (-1.0) ** (k + 1) * math.factorial(k) * np.imag(
            (y / w + 1j) ** (-(k + 1)))
        assert np.abs(f.derivative(k, y) - complex_form).max() <= 1e-15 * f.sup_fn(k)

    def test_mean_field_working_set_linear_in_sites(self):
        def peak(n):
            V = MeanFieldPotential(range(n), lorentzian_function())
            x = np.random.default_rng(n).normal(size=(64, 33, n))
            tracemalloc.start()
            try:
                V.eval(x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # linear growth gives about 31/7 from n=8 to n=32; an n^2 tensor gives 16
        assert peak(32) / peak(8) < 8.0


MANY_SITES = [
    MeanFieldPotential(range(40), lorentzian_function()),
    NearestNeighborPotential(1, [(i,) for i in range(300)], harmonic_function(),
                             lorentzian_function()),
    NearestNeighborPotential(2, [(i, j) for i in range(12) for j in range(12)],
                             gaussian_bump_function(), cosine_function()),
]
MANY_SITE_IDS = ["mean_field_40", "chain_300", "lattice_144"]


class TestSiteSum:
    @pytest.mark.parametrize("V", MANY_SITES, ids=MANY_SITE_IDS)
    def test_eval_bitwise_equal_for_any_layout(self, V):
        x = np.random.default_rng(V.n_sites).normal(size=(6, 9, V.n_sites))
        assert np.array_equal(V.eval(site_major(x)), V.eval(x))

    @pytest.mark.parametrize("V", MANY_SITES, ids=MANY_SITE_IDS)
    def test_eval_within_running_sum_bound_of_exact_sum(self, V):
        # m terms added in turn into 8 accumulators, which are then added in
        # turn: about m/8 + 8 roundings of at most 2^-53 of the sum of |terms|
        x = np.random.default_rng(V.n_sites).normal(size=(6, 9, V.n_sites))
        j, k = np.transpose([(j, k) for j in range(V.n_sites) for k in V._partners[j] if j < k])
        diff = x[..., k] - x[..., j]
        terms = [V.pair.value(diff), V.pair.value(-diff), np.full(x.shape[:-1] + (1,), V._constant)]
        if V.on_site is not None:
            terms.append(V.on_site.value(x))
        terms = np.concatenate(terms, axis=-1)
        m = terms.shape[-1]
        terms = terms.reshape(-1, m)
        exact = np.array([math.fsum(t) for t in terms]) / V._divisor
        scale = np.array([math.fsum(np.abs(t)) for t in terms]) / V._divisor
        assert np.all(np.abs(V.eval(x).ravel() - exact) <= (m / 8 + 10) * 2.0**-53 * scale)


def per_pair_reference(G, x, pairs):
    """The order _pair_sum documents, pair by pair: in blocks of one offset k - j
    with consecutive j, in order of offset, column c of a block adds
    G(x_k - x_j) into accumulator c mod 8; the 8 accumulators are then added
    in turn into zeros, and the total is doubled."""
    acc = np.zeros(x.shape[:-1] + (8,))
    c, prev = 0, None
    for j, k in sorted(pairs, key=lambda p: (p[1] - p[0], p[0])):
        c = c + 1 if prev == (j - 1, k - 1) else 0
        prev = (j, k)
        diff = x[..., k] - x[..., j]
        acc[..., c % 8] += G.value(diff)
    total = np.zeros(x.shape[:-1])
    for c in range(8):
        total += acc[..., c]
    return 2.0 * total


# widest blocks just below, at and above one and two 8-column groups
BLOCK_WIDTHS = (7, 8, 9, 16, 17)


class TestInPlaceEvaluation:
    @pytest.mark.parametrize("f", BUILTIN_SCALARS + [lorentzian_function(1.3),
                                                     cosh_like_function()],
                             ids=lambda f: f"{f.name}-{f.in_place}")
    @pytest.mark.parametrize("k", range(5))
    def test_derivative_into_out_bitwise_equal(self, f, k):
        y = np.random.default_rng(k).normal(scale=3.0, size=(4, 3, 6))
        ref = f.derivative(k, y)
        for layout in (np.copy, site_major):
            out = layout(np.full_like(y, np.nan))
            same = layout(y)
            assert f.derivative(k, layout(y), out=out) is out
            assert f.derivative(k, same, out=same) is same
            for got in (out, same):
                assert np.ascontiguousarray(got).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("pairs", [
        [(j, j + 1) for j in range(31)],
        [(j, j + 1) for j in range(139)],
        list(itertools.combinations(range(16), 2)),
    ] + [[(j, j + 1) for j in range(w)] for w in BLOCK_WIDTHS],
        ids=["chain_32", "chain_140", "mean_field_16"] + [f"block_{w}" for w in BLOCK_WIDTHS])
    @pytest.mark.parametrize("G", PAIR_FUNCTIONS, ids=lambda G: G.name)
    def test_pair_sum_bitwise_equal_to_per_pair_reference(self, pairs, G):
        n = pairs[-1][1] + 1
        x = np.random.default_rng(n).normal(size=(6, 9, n))
        ref = per_pair_reference(G, x, pairs)
        for layout in (np.copy, site_major):
            total = _pair_sum(G, layout(x), _pair_blocks(pairs))
            assert total.tobytes() == ref.tobytes()


def partial_indices(n_sites, ordered_pairs):
    """Single-site orders 1-3, an adjacent and a non-adjacent two-site index,
    and a three-site index, as far as the site count allows."""
    out = [mi({j: m}) for j in (0, n_sites // 2) for m in (1, 2, 3)]
    adjacent = {tuple(sorted(p)) for p in ordered_pairs}
    two_site = list(itertools.combinations(range(n_sites), 2))
    for j, k in [p for p in two_site if p in adjacent][:1]:
        out += [mi({j: 1, k: 1}), mi({j: 2, k: 1}), mi({j: 1, k: 2})]
    for j, k in [p for p in two_site if p not in adjacent][:1]:
        out.append(mi({j: 1, k: 1}))
    if n_sites >= 3:
        out.append(mi({0: 1, 1: 1, 2: 1}))
    return out


class TestPairPartial:
    """Partials against the term-by-term chain rule over ordered pairs, which
    takes G^(m) at both x_j - x_k and x_k - x_j, on every TestPairEvaluation
    layout."""

    @staticmethod
    def assert_matches(V, ordered_pairs, F, G, divisor, x):
        for alpha in partial_indices(V.n_sites, ordered_pairs):
            ref = ordered_pair_partial(ordered_pairs, F, G, divisor, alpha, x)
            scale = max(float(np.abs(ref).max()), 1e-300)
            np.testing.assert_allclose(V.partial(alpha, x), ref, rtol=1e-13,
                                       atol=1e-13 * scale, err_msg=str(alpha))

    @pytest.mark.parametrize("G", PAIR_FUNCTIONS, ids=lambda G: G.name)
    @pytest.mark.parametrize("include_diagonal", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_mean_field(self, G, include_diagonal, n):
        x = np.random.default_rng(n).normal(size=(5, 4, n))
        V = MeanFieldPotential(range(n), G, include_diagonal)
        ordered = [(j, k) for j in range(n) for k in range(n) if j != k]
        self.assert_matches(V, ordered, None, G, n, x)

    @pytest.mark.parametrize("G", PAIR_FUNCTIONS, ids=lambda G: G.name)
    @pytest.mark.parametrize("sites", NN_LAYOUTS)
    def test_nearest_neighbor(self, G, sites):
        F = gaussian_bump_function(0.8, 1.1)
        x = np.random.default_rng(len(sites)).normal(size=(5, 4, len(sites)))
        V = NearestNeighborPotential(len(sites[0]), sites, F, G)
        self.assert_matches(V, adjacent_ordered_pairs(sites), F, G, 1, x)


class TestPartial:
    def test_zeroth_is_eval(self):
        V = MeanFieldPotential(range(3), lorentzian_function())
        x = np.array([0.1, 0.2, -0.3])
        assert V.partial(mi({}), x) == pytest.approx(float(V.eval(x)))

    def test_zero_potential_derivatives_vanish(self):
        V = potential_from_json(ZERO)
        x = np.random.default_rng(2).normal(size=(4, 5, 3))
        for alpha in (mi({0: 1}), mi({2: 2}), mi({0: 1, 1: 1})):
            assert positive_zeros(V.partial(alpha, x)), alpha

    def test_nearest_neighbor_hand_value(self):
        # d/dx0 of (x0-x1)^2 + (x1-x0)^2 = 4 (x0 - x1); at (0, 1) this is -4
        G = scalar_from_json({"name": "harmonic"})
        chain = NearestNeighborPotential(1, [(0,), (1,)], zero_function(), G)
        value = chain.partial(mi({0: 1}), [0.0, 1.0])
        assert value == pytest.approx(-4.0, rel=1e-13)

    @pytest.mark.parametrize("make", [
        lambda: NearestNeighborPotential(
            1, [(0,), (1,), (2,)], gaussian_bump_function(1.1, 0.8),
            lorentzian_function(0.9, 1.2),
        ),
        lambda: MeanFieldPotential(range(3), gaussian_bump_function(1.5, 1.1)),
    ])
    def test_partials_match_finite_differences(self, make):
        V = make()
        rng = np.random.default_rng(11)
        alphas = [mi({0: 1}), mi({1: 1}), mi({0: 2}), mi({0: 1, 2: 1})]
        for _ in range(4):
            x = rng.uniform(-2, 2, V.n_sites)
            for alpha in alphas:
                fd = finite_difference(lambda y: float(V.eval(y)), x, alpha)
                exact = float(V.partial(alpha, x))
                assert exact == pytest.approx(fd, rel=1e-6, abs=5e-7), (alpha, x)

    def test_unsupported_site_rejected(self):
        V = MeanFieldPotential(range(2), lorentzian_function())
        with pytest.raises(ValueError, match="is not a site position"):
            V.partial(mi({2: 1}), [0.0, 0.0])

    def test_custom_needs_declared_order(self):
        V = CustomPotential([0], lambda x: x[..., 0] ** 2)
        with pytest.raises(ValueError):
            V.partial(mi({0: 1}), [1.0])


def summed_partials(V, alpha, x):
    """Sum of |partial derivative| over all nonzero beta <= alpha."""
    return sum(np.abs(V.partial(beta, x)) for beta in sub_multiindices(alpha))


class TestCertifiedBudget:
    def test_zero_functions_give_zero(self):
        V = NearestNeighborPotential(1, [(0,), (1,)], zero_function(), zero_function())
        assert V.certified_cm(2) == 0.0

    def test_constant_pair_function(self):
        V = MeanFieldPotential(range(3), constant_function(0.7))
        assert V.certified_cm(1) == 0.0
        assert float(summed_partials(V, mi({0: 1}), np.zeros(3))) == 0.0

    def test_missing_sup_bound_raises(self):
        V = NearestNeighborPotential(1, [(0,)], harmonic_function(), zero_function())
        with pytest.raises(MissingSupBoundError):
            V.certified_cm(1)

    @pytest.mark.parametrize("family,m", [
        ({"family": "nearest_neighbor_chain", "G": LORENTZIAN}, 1),
        ({"family": "nearest_neighbor_chain", "F": BUMP, "G": LORENTZIAN}, 2),
        ({"family": "mean_field", "G": LORENTZIAN}, 1),
        ({"family": "mean_field",
          "G": {"name": "gaussian_bump", "amplitude": 0.8, "width": 1.3}}, 2),
    ])
    def test_budget_inequality_random_sweep(self, family, m):
        rng = np.random.default_rng(99)
        for n_sites in (3, 8):
            V = family_from_json(family)(n_sites)
            c_m = V.certified_cm(m)
            for _ in range(125):
                x = rng.uniform(-4, 4, n_sites)
                k = rng.integers(1, 4)
                chosen = rng.choice(n_sites, size=min(k, n_sites), replace=False)
                alpha = mi({int(i): int(rng.integers(1, m + 1)) for i in chosen})
                lhs = float(summed_partials(V, alpha, x))
                assert lhs <= c_m * len(alpha.support) * (1 + 1e-12), (alpha, x)

    @pytest.mark.parametrize("family", [
        {"family": "nearest_neighbor_chain", "F": BUMP, "G": LORENTZIAN},
        {"family": "mean_field", "G": LORENTZIAN},
    ])
    def test_budget_independent_of_size(self, family):
        # the substance of the hypothesis: enlarging the site set cannot grow
        # the per-active-site derivative budget (matched draws per size)
        sups = {}
        for n_sites in (4, 16):
            rng = np.random.default_rng(17)
            V = family_from_json(family)(n_sites)
            alpha = mi({0: 1, 1: 1})
            worst = 0.0
            for _ in range(1000):
                x = rng.uniform(-3, 3, n_sites)
                worst = max(worst, float(summed_partials(V, alpha, x)))
            sups[n_sites] = worst
        assert sups[16] <= sups[4] * 1.01

    def test_family_budget_same_at_all_sizes(self):
        family = family_from_json({"family": "mean_field", "G": LORENTZIAN})
        assert family(2).certified_cm(2) == family(8).certified_cm(2)


class TestJson:
    def test_parse_matches_direct_construction(self):
        cases = [
            ({"variant": "zero", "sites": [0, 1]}, zero_potential([0, 1])),
            (
                {
                    "variant": "nearest_neighbor",
                    "d": 1,
                    "sites": [[0], [1]],
                    "F": {"name": "gaussian_bump", "amplitude": 1.0, "width": 1.0},
                    "G": {"name": "lorentzian", "amplitude": 1.0, "width": 1.0},
                },
                NearestNeighborPotential(
                    1, [(0,), (1,)], gaussian_bump_function(), lorentzian_function()
                ),
            ),
            (
                {
                    "variant": "mean_field",
                    "sites": [0, 1, 2],
                    "G": {"name": "cosine", "amplitude": 1.0, "width": 1.0},
                    "include_diagonal": False,
                },
                MeanFieldPotential(range(3), cosine_function(), include_diagonal=False),
            ),
        ]
        rng = np.random.default_rng(8)
        for spec, direct in cases:
            V = potential_from_json(spec)
            assert type(V) is type(direct) and V.sites == direct.sites
            x = rng.normal(size=(6, V.n_sites))
            assert np.array_equal(V.eval(x), direct.eval(x))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            potential_from_json({"variant": "magic", "sites": []})

    NN = {"variant": "nearest_neighbor", "d": 1, "sites": [[0], [1]],
          "F": {"name": "zero"}, "G": LORENTZIAN}
    MF = {"variant": "mean_field", "sites": [0, 1], "G": LORENTZIAN}
    CHAIN = {"family": "nearest_neighbor_chain", "G": LORENTZIAN}

    @pytest.mark.parametrize("build, base, change, named", [
        # a required key is missing
        (potential_from_json, MF, {"sites": None}, "requires sites"),
        (potential_from_json, NN, {"d": None}, "requires d"),
        (potential_from_json, NN, {"F": None}, "requires F"),
        (potential_from_json, MF, {"G": None}, "requires G"),
        (family_from_json, CHAIN, {"G": None}, "requires G"),
        (scalar_from_json, {"name": "lorentzian"}, {"name": None}, "'name'"),
        # sites is not a list
        (potential_from_json, MF, {"sites": 2}, "'sites'"),
        (potential_from_json, MF, {"sites": "ab"}, "'sites'"),
        # a site is not an integer or a nonempty list of integers
        (potential_from_json, MF, {"sites": ["a", "b"]}, "site 'a'"),
        (potential_from_json, MF, {"sites": [True, False]}, "site True"),
        (potential_from_json, NN, {"sites": [[0.5], [1.5]]}, "site [0.5]"),
        (potential_from_json, NN, {"sites": [[True], [1]]}, "site [True]"),
        (potential_from_json, MF, {"sites": [[], [1]]}, "site []"),
        (potential_from_json, MF, {"sites": [[[0]], [1]]}, "site [[0]]"),
        (potential_from_json, MF, {"sites": [0, [1]]}, "all integers"),
        (potential_from_json, NN, {"sites": [0, 1]}, "site 0"),
        # d is not an integer >= 1
        (potential_from_json, NN, {"d": 1.5}, "'d'"),
        (potential_from_json, NN, {"d": 0}, "'d'"),
        (potential_from_json, NN, {"d": True}, "'d'"),
        (potential_from_json, NN, {"d": "1"}, "'d'"),
        # include_diagonal is not a bool
        (potential_from_json, MF, {"include_diagonal": "no"}, "'include_diagonal'"),
        (potential_from_json, MF, {"include_diagonal": 0}, "'include_diagonal'"),
        (family_from_json, {"family": "mean_field", "G": LORENTZIAN},
         {"include_diagonal": "yes"}, "'include_diagonal'"),
        # an amplitude or width is not a number
        (scalar_from_json, {"name": "lorentzian"}, {"amplitude": True}, "'amplitude'"),
        (scalar_from_json, {"name": "lorentzian"}, {"amplitude": "1"}, "'amplitude'"),
        (scalar_from_json, {"name": "cosine"}, {"width": [1.0]}, "'width'"),
        (potential_from_json, MF, {"G": {"name": "lorentzian", "width": False}}, "'width'"),
        (family_from_json, CHAIN, {"F": {"name": "harmonic", "amplitude": "2"}}, "'amplitude'"),
        # the named function does not take the parameter
        (scalar_from_json, {"name": "harmonic"}, {"width": 1.0}, "does not use width"),
        (scalar_from_json, {"name": "zero"}, {"amplitude": 1.0}, "does not use amplitude"),
        (family_from_json, CHAIN, {"G": {"name": "harmonic", "width": 2.0}},
         "does not use width"),
        # the name that picks the kind is not a known string
        (potential_from_json, MF, {"variant": ["mean_field"]}, "unknown potential"),
        (scalar_from_json, {"name": "zero"}, {"name": 3}, "unknown scalar function"),
        # an integer too large for a float
        (potential_from_json, MF, {"G": {"name": "lorentzian", "amplitude": 10**400}},
         "amplitude must be finite"),
    ])
    def test_malformed_description_is_value_error(self, build, base, change, named):
        # a missing key is written as None here; the error names the key
        obj = {k: v for k, v in {**base, **change}.items() if v is not None}
        with pytest.raises(ValueError, match=re.escape(named)):
            build(obj)
