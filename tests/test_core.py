from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from productmix import (
    Bid,
    BidList,
    demand_interval,
    demanded_bundle,
    demanded_goods,
    indirect_utility,
    is_demanded,
    valuation,
)
from productmix.core import ScaledBids, as_bundle, rat
from productmix.errors import InfeasibleBundle, MarginalPrice

from helpers import project_bid, surplus_gap


def bid(*vals, w=1):
    return Bid(tuple(Fraction(v) for v in vals), w)


class TestDemandedGoods:
    def test_unique_good(self):
        assert demanded_goods(bid(6, 6), (1, 3)) == {1}

    def test_all_goods_tie(self):
        assert demanded_goods(bid(6, 6), (6, 6)) == {0, 1, 2}

    def test_reject_tie(self):
        assert demanded_goods(bid(0, 4), (2, 4)) == {0, 2}

    def test_nonempty_and_reject_membership(self):
        for price in [(0, 0), (3, 9), (7, 7), (10, 2)]:
            b = bid(3, 5)
            goods = demanded_goods(b, price)
            assert goods
            if all(b.value(i) - Fraction(price[i - 1]) <= 0 for i in (1, 2)):
                assert 0 in goods


class TestMarginal:
    """A bid is marginal when it demands more than one good."""

    def test_non_marginal(self):
        assert len(demanded_goods(bid(6, 6), (6, 2))) == 1

    def test_marginal_with_reject(self):
        assert len(demanded_goods(bid(0, 4), (2, 4))) > 1

    def test_high_price_never_marginal(self):
        assert demanded_goods(bid(6, 6), (8, 8)) == {0}


class TestSurplusGap:
    def test_two_good_tie(self):
        assert surplus_gap(bid(6, 6), (4, 4)) == 2

    def test_all_goods(self):
        assert surplus_gap(bid(4, 4, w=-1), (4, 4)) is None

    def test_runner_up(self):
        assert surplus_gap(bid(5, 3), (4, 4)) == 1


class TestIndirectUtility:
    def test_empty(self):
        empty = BidList("nobody", [], n=2)
        assert indirect_utility(empty, (3, 3)) == 0

    def test_alice(self, alice):
        assert indirect_utility(alice, (1, 3)) == 6

    def test_all_rejected(self, bob):
        assert indirect_utility(bob, (10, 10)) == 0

    def test_concatenation_linear(self, alice, bob):
        both = BidList.aggregate([alice, bob])
        for price in [(0, 0), (3, 1), (5, 5), (Fraction(7, 2), 2)]:
            assert indirect_utility(both, price) == indirect_utility(
                alice, price
            ) + indirect_utility(bob, price)


class TestDemandedBundle:
    def test_alice_low(self, alice):
        assert demanded_bundle(alice, (1, 2)) == (0, 1, 1)

    def test_alice_high_first(self, alice):
        assert demanded_bundle(alice, (6, 2)) == (0, 0, 2)

    def test_all_rejected(self, bob):
        assert demanded_bundle(bob, (8, 8)) == (bob.total_weight(), 0, 0)

    def test_marginal_price_raises(self, alice):
        with pytest.raises(MarginalPrice):
            demanded_bundle(alice, (4, 4))

    def test_weights_conserved(self, alice, bob):
        both = BidList.aggregate([alice, bob])
        bundle = demanded_bundle(both, (3, 2))
        assert sum(bundle) == both.total_weight()


class TestValuation:
    def test_bob_examples(self, bob):
        assert valuation(bob, (1, 1)) == 10
        assert valuation(bob, (0, 2)) == 8
        assert valuation(bob, (2, 0)) == 8

    def test_zero_bundle(self, alice, bob):
        assert valuation(alice, (0, 0)) == 0
        assert valuation(bob, (0, 0)) == 0

    def test_negative_bundle_rejected(self, alice):
        with pytest.raises(InfeasibleBundle):
            valuation(alice, (-1, 0))


class TestIsDemanded:
    def test_bob_at_centre(self, bob):
        assert is_demanded(bob, (1, 1), (4, 4))
        assert not is_demanded(bob, (0, 2), (4, 4))

    def test_alice_at_centre(self, alice):
        assert is_demanded(alice, (0, 2), (4, 4))

    def test_figure_demand_sets(self, alice, bob):
        box = [(x1, x2) for x1 in range(4) for x2 in range(4)]
        alice_set = {x for x in box if is_demanded(alice, x, (4, 4))}
        bob_set = {x for x in box if is_demanded(bob, x, (4, 4))}
        assert alice_set == {(1, 0), (0, 1), (1, 1), (0, 2), (0, 0)} - {(0, 0)}
        assert bob_set == {(1, 0), (0, 1), (1, 1)}


class TestProjection:
    def test_all_goods_unchanged(self):
        b = bid(4, 4, w=-1)
        assert project_bid(b, (4, 4)) == b

    def test_push_up(self):
        assert project_bid(bid(5, 3), (4, 4)).values == (6, 3)

    def test_push_down(self):
        assert project_bid(bid(0, 4), (4, 4)).values == (-1, 4)

    def test_gap_grows_by_one(self):
        for vals, price in [((5, 3), (4, 4)), ((0, 4), (4, 4)), ((6, 6), (1, 3))]:
            b = bid(*vals)
            before = surplus_gap(b, price)
            after = surplus_gap(project_bid(b, price), price)
            assert after == before + 1

    @given(
        vals=st.tuples(st.integers(0, 8), st.integers(0, 8)),
        price=st.tuples(st.integers(0, 9), st.integers(0, 9)),
        nudge=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    @settings(max_examples=120, deadline=None)
    def test_projected_demand_shrinks_nearby(self, vals, price, nudge):
        b = bid(*vals)
        q = tuple(Fraction(p) + Fraction(d, 10) for p, d in zip(price, nudge))
        projected = project_bid(b, price)
        assert demanded_goods(projected, q) <= demanded_goods(b, price)


class TestBidList:
    def test_weight_expansion(self):
        lst = BidList.from_rows("w", [(3, 1, 2), (5, 5, -3)])
        assert len(lst) == 5
        assert sorted(b.weight for b in lst) == [-1, -1, -1, 1, 1]

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            BidList.from_rows("w", [(3, 1, 0)])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            BidList.from_rows("w", [(3.5, 1, 1)])
        with pytest.raises(TypeError):
            BidList.from_rows("w", [(3, 1, 1.5)])

    def test_non_integral_weights_rejected(self):
        for weight in (Fraction(3, 2), "1.5"):
            with pytest.raises(ValueError):
                BidList.from_rows("w", [(3, 1, weight)])

    def test_integral_weights_in_any_exact_form(self):
        for weight in (2, Fraction(4, 2), "2"):
            assert len(BidList.from_rows("w", [(3, 1, weight)])) == 2

    def test_booleans_rejected(self):
        # bool is a subclass of int; True must not pass for the number 1
        for row in [(True, 2, 1), (3, False, 1), (3, 2, True)]:
            with pytest.raises(TypeError):
                BidList.from_rows("w", [row])
        with pytest.raises(TypeError):
            rat(True)
        with pytest.raises(TypeError):
            as_bundle((True, 0))

    def test_table_and_lazy_bids_agree(self):
        lst = BidList.from_rows("t", [("1/2", 3, 2), (1, "0.25", -1)])
        assert lst.table.scale == 4
        assert lst.table.vals == ((2, 12), (2, 12), (4, 1))
        assert lst.table.weights == (1, 1, -1)
        assert [(b.values, b.weight) for b in lst.bids] == [
            ((Fraction(1, 2), 3), 1),
            ((Fraction(1, 2), 3), 1),
            ((1, Fraction(1, 4)), -1),
        ]
        again = BidList("t", lst.bids)
        assert again.table.vals == lst.table.vals and again.table.scale == 4

    def test_aggregate_concatenates_tables(self, alice):
        tenths = BidList.from_rows("x", [("0.5", 1, 1)])
        both = BidList.aggregate([alice, tenths])
        assert both.table.scale == 2
        assert both.table.vals == ((12, 12), (0, 8), (1, 2))
        assert both.bids == alice.bids + tenths.bids
        with pytest.raises(ValueError):
            BidList.aggregate([alice, BidList("three", [], n=3)])


class TestScaledBids:
    def test_values_scale_exactly(self):
        arr = ScaledBids.build([("1/2", 3, -1), (Fraction(7, 4), 0, 1)])
        assert arr.scale == 4
        assert arr.vals == ((2, 12), (7, 0))
        assert arr.weights == (-1, 1)
        assert arr.rescale(8).vals == ((4, 24), (14, 0))

    def test_values_off_the_grid_rejected(self):
        # truncating 1/2 to 0 on the unit grid would change every answer
        with pytest.raises(ValueError):
            ScaledBids.build([("1/2", 1)]).rescale(1)
        with pytest.raises(ValueError):
            ScaledBids.build([(1, "1/3", 1)]).rescale(10)


class TestDemandInterval:
    def test_alice_bob_bounds(self, alice, bob):
        both = BidList.aggregate([alice, bob])
        lower, upper = demand_interval(both, (4, 4))
        assert upper[1] == 2 and lower[1] == 0

    def test_non_marginal_tight(self, alice):
        lower, upper = demand_interval(alice, (1, 2))
        assert lower == upper == (0, 1, 1)
