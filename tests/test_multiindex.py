import itertools
import math

import pytest
from hypothesis import given, strategies as st

from weylfk.multiindex import (
    MultiIndex,
    ZERO_INDEX,
    from_text,
    sub_multiindices,
)


def mi(d):
    return MultiIndex.of(d)


def index_factorial(index):
    """The product of the factorials of an index's per-site orders."""
    return math.prod(math.factorial(o) for _, o in index.entries)


multiindices = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
    max_size=4,
).map(MultiIndex.of)


class TestBasics:
    def test_zero_orders_dropped(self):
        assert mi({1: 0, 2: 3}) == mi({2: 3})
        assert mi({}) == ZERO_INDEX

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            mi({1: -1})

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex.of([(1, 2), (1, 1)])

    @pytest.mark.parametrize("site, error", [
        ((0,), TypeError), (True, TypeError), (0.0, TypeError), (-1, ValueError),
    ])
    def test_site_must_be_a_position(self, site, error):
        with pytest.raises(error):
            MultiIndex.of({site: 1})

    def test_order_support_factorial(self):
        a = mi({1: 2, 5: 3})
        assert a.order == 5
        assert a.support == (1, 5)
        assert index_factorial(a) == 2 * 6
        assert a.max_order == 3
        assert index_factorial(ZERO_INDEX) == 1


class TestLeq:
    """The componentwise order, as membership in the sub-index list."""

    def test_zero_is_minimal(self):
        subs = sub_multiindices(mi({1: 2}))
        assert ZERO_INDEX not in subs  # nonzero sub-indices only
        assert mi({1: 1}) in subs

    def test_exceeding_site(self):
        assert mi({1: 1, 2: 1}) not in sub_multiindices(mi({1: 2}))


class TestClassMembership:
    def test_examples(self):
        assert mi({1: 2, 5: 1}).max_order <= 2
        assert not mi({1: 3}).max_order <= 2
        assert mi({}).max_order <= 0

    @given(multiindices)
    def test_matches_max_order(self, a):
        assert a.max_order == max((a.get(site) for site in a.support), default=0)

    @given(multiindices, st.integers(min_value=1, max_value=5))
    def test_factorial_bound(self, a, m):
        # per-site orders <= m give factorial <= (m!)^(number of active sites)
        if a.max_order <= m:
            assert index_factorial(a) <= math.factorial(m) ** len(a.support)

    def test_loose_factorial_bound_only_up_to_order_two(self):
        # the coarser bound factorial <= m^|support| holds for m <= 2 ...
        for m in (1, 2):
            for orders in itertools.product(range(m + 1), repeat=3):
                a = mi({i: o for i, o in enumerate(orders)})
                assert index_factorial(a) <= m ** len(a.support)
        # ... and fails beyond: a single site of order 3 already exceeds it
        assert index_factorial(mi({1: 3})) == 6 > 3 ** 1


def brute_force_subs(a):
    sites = a.support
    ranges = [range(a.get(s) + 1) for s in sites]
    out = set()
    for combo in itertools.product(*ranges):
        if any(combo):
            out.add(MultiIndex.of(dict(zip(sites, combo))))
    return out


class TestSubMultiindices:
    def test_chain(self):
        assert sub_multiindices(mi({1: 2})) == [mi({1: 1}), mi({1: 2})]

    def test_two_sites(self):
        assert sub_multiindices(mi({1: 1, 2: 1})) == [
            mi({1: 1}),
            mi({2: 1}),
            mi({1: 1, 2: 1}),
        ]

    def test_count_3x2(self):
        subs = sub_multiindices(mi({1: 2, 2: 1}))
        assert len(subs) == 5
        assert set(subs) == brute_force_subs(mi({1: 2, 2: 1}))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sub_multiindices(ZERO_INDEX)

    @given(multiindices.filter(lambda a: 1 <= a.order <= 6))
    def test_count_formula_and_set(self, a):
        subs = sub_multiindices(a)
        expected = math.prod(o + 1 for _, o in a.entries) - 1
        assert len(subs) == expected
        assert len(set(subs)) == expected
        assert set(subs) == brute_force_subs(a)


class TestText:
    def test_int_sites(self):
        a = mi({3: 2, 1: 1})
        assert a.to_text() == "1:1,3:2"
        assert from_text("1:1,3:2") == a

    def test_empty(self):
        assert from_text("") == ZERO_INDEX
        assert ZERO_INDEX.to_text() == ""

    def test_malformed(self):
        with pytest.raises(ValueError):
            from_text("1;2")

    @pytest.mark.parametrize("text", ["(0):1", "-1:1"])
    def test_site_not_a_position_malformed(self, text):
        with pytest.raises(ValueError):
            from_text(text)

    @given(multiindices)
    def test_roundtrip(self, a):
        assert from_text(a.to_text()) == a
