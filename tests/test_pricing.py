from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from helpers import is_subsequence
from productmix import BidList, GenConfig, generate_instance
from productmix.errors import StepUnbounded
from productmix.pricing import (
    PriceProblem,
    demand_bounds,
    long_step_min_up,
    lyapunov,
    min_up,
    slope,
    steepest_direction,
    step_length_binary,
    step_length_demand_change,
)


@pytest.fixture
def worked(alice, bob) -> PriceProblem:
    return PriceProblem([alice, bob], (1, 1))


class TestLyapunov:
    def test_worked_values(self, worked):
        assert lyapunov(worked, (4, 4)) == 12
        assert lyapunov(worked, (0, 0)) == 20

    def test_empty_zero_target(self):
        pp = PriceProblem([BidList("none", [], n=2)], (0, 0))
        for price in [(0, 0), (3, 7), (Fraction(1, 2), 1)]:
            assert lyapunov(pp, price) == 0

    def test_fractional_price_matches_definition(self, worked):
        # g(p) = sum of w * max(0, max_i(v_i - p_i)) + t.p, in Fractions
        for price in [(Fraction(7, 2), 4), (Fraction(1, 3), Fraction(5, 2)), ("0.5", 9)]:
            p = [Fraction(x) for x in price]
            f = sum(
                b.weight * max([Fraction(0)] + [v - x for v, x in zip(b.values, p)])
                for b in worked.bids
            )
            t = sum(ti * x for ti, x in zip(worked.target, p))
            assert lyapunov(worked, price) == f + t

    def test_reserve_count(self, worked):
        assert worked.reserve_count == 3


class TestSlope:
    def test_empty_direction(self, worked):
        assert slope(worked, (2, 3), frozenset()) == 0

    def test_descent_exists_at_origin(self, worked):
        assert slope(worked, (0, 0), {1, 2}) < 0

    def test_no_descent_at_minimum(self, worked):
        for r in range(3):
            for s in combinations((1, 2), r):
                assert slope(worked, (4, 4), frozenset(s)) >= 0

    def test_matches_shared_bundle_identity(self, worked):
        # g'(p; S) = (t - x) . e^S whenever x is demanded at p and p + e^S
        assert slope(worked, (0, 0), {1, 2}) == (1 - 2) + (1 - 2)


class TestDemandBounds:
    def test_worked_bounds(self, worked):
        b = demand_bounds(worked, (4, 4))
        assert b.upper[1] == 2 and b.lower[1] == 0

    def test_non_marginal_price_decides_everything(self, worked):
        b = demand_bounds(worked, (3, 2))
        assert b.forced | b.settled == {1, 2}
        assert b.lower == b.upper

    def test_all_rejected(self, worked):
        b = demand_bounds(worked, (9, 9))
        assert b.settled == {1, 2}


class TestSteepestDirection:
    def test_origin(self, worked):
        assert steepest_direction(worked, (0, 0)) == {1, 2}

    def test_minimum(self, worked):
        assert steepest_direction(worked, (4, 4)) == frozenset()

    def test_unique_demand_equal_to_target(self):
        pp = PriceProblem([BidList.from_rows("solo", [(5, 0, 1)])], (1, 0))
        assert steepest_direction(pp, (0, 0)) == frozenset()


class TestMinUp:
    def test_worked_example(self, worked):
        price, trace = min_up(worked)
        assert price == (4, 4)
        assert trace.iterations == 4
        assert all(s.direction == {1, 2} and s.length == 1 for s in trace.steps)

    def test_target_demanded_at_origin(self):
        pp = PriceProblem([BidList.from_rows("solo", [(5, 0, 1)])], (1, 0))
        assert min_up(pp)[0] == (0, 0)

    def test_zero_target(self):
        pp = PriceProblem([BidList("none", [], n=2)], (0, 0))
        price, trace = min_up(pp)
        assert price == (0, 0) and trace.iterations == 0

    def test_zero_target_zero_bids(self):
        lst = BidList.from_rows("zeros", [(0, 0, 1), (0, 0, 1)])
        price, trace = min_up(PriceProblem([lst], (0, 0)))
        assert price == (0, 0) and trace.iterations == 0


class TestStepLengths:
    def test_single_long_step(self, worked):
        assert step_length_binary(worked, (0, 0), {1, 2}) == 4
        assert step_length_demand_change(worked, (0, 0), {1, 2}) == 4

    def test_one_below_slope_change(self, worked):
        assert step_length_binary(worked, (3, 3), {1, 2}) == 1
        assert step_length_demand_change(worked, (3, 3), {1, 2}) == 1

    def test_defining_predicate(self, worked):
        lam = step_length_binary(worked, (0, 0), {1, 2})
        base = slope(worked, (0, 0), {1, 2})
        assert slope(worked, (lam - 1, lam - 1), {1, 2}) == base
        assert slope(worked, (lam, lam), {1, 2}) > base

    def test_paired_departures_keep_slope(self):
        # a +/- pair leaves the direction first with zero net weight, so the
        # sweep needs a second round before the slope moves
        lst = BidList.from_rows("x", [(2, 1, 1), (2, 1, -1), (4, 2, 1)])
        pp = PriceProblem([lst], (0, 0))
        assert step_length_binary(pp, (0, 0), {1}) == 2
        assert step_length_demand_change(pp, (0, 0), {1}) == 2

    def test_no_subset_demand_raises(self):
        # nobody demands good 2 alone, so the slope in that direction never
        # steepens and neither rule can return a finite length
        lst = BidList.from_rows("x", [(5, 0, 1)])
        pp = PriceProblem([lst], (0, 0))
        with pytest.raises(StepUnbounded):
            step_length_demand_change(pp, (0, 0), {2})
        with pytest.raises(StepUnbounded):
            step_length_binary(pp, (0, 0), {2})


class TestLongStep:
    def test_worked_example_single_step(self, worked):
        for method in ("binary", "demand_change"):
            price, trace = long_step_min_up(worked, method)
            assert price == (4, 4)
            assert trace.iterations == 1
            assert trace.steps[0].length == 4

    def test_zero_target(self):
        pp = PriceProblem([BidList("none", [], n=3)], (0, 0, 0))
        price, trace = long_step_min_up(pp)
        assert price == (0, 0, 0) and trace.iterations == 0

    def test_trajectory_equivalence_sampled(self):
        rng = Random(42)
        for _ in range(8):
            n = rng.randint(2, 4)
            cfg = GenConfig(n=n, q=rng.randint(5, 15), M=20)
            lists, target = generate_instance(cfg, rng.randint(1, 3), rng)
            pp = PriceProblem(lists, target)
            unit_price, unit_trace = min_up(pp)
            for method in ("binary", "demand_change"):
                price, trace = long_step_min_up(pp, method)
                assert price == unit_price
                assert is_subsequence(trace.prices(), unit_trace.prices())
            b_trace = long_step_min_up(pp, "binary")[1]
            d_trace = long_step_min_up(pp, "demand_change")[1]
            assert b_trace.steps == d_trace.steps

    def test_trace_prices_increase_on_direction(self, worked):
        _, trace = long_step_min_up(worked)
        prices = trace.prices()
        for step, before, after in zip(trace.steps, prices, prices[1:]):
            for i in step.direction:
                assert after[i - 1] > before[i - 1]


class TestIntegrality:
    def test_integral_bids_required(self):
        lst = BidList.from_rows("dec", [("5.5", 1, 1)])
        with pytest.raises(ValueError):
            PriceProblem([lst], (1, 0))

    def test_fractional_prices_rejected(self, worked):
        # the descent works on integral prices; a fractional one must raise
        # rather than be rounded to a neighbouring integral price
        with pytest.raises(ValueError):
            demand_bounds(worked, (Fraction(7, 2), 4))
        with pytest.raises(ValueError):
            steepest_direction(worked, (Fraction(7, 2), 4))
        for step_length in (step_length_binary, step_length_demand_change):
            with pytest.raises(ValueError):
                step_length(worked, (Fraction(1, 2), Fraction(1, 2)), {1, 2})


class TestCertificates:
    def test_slope_submodular_along_trajectory(self, worked):
        from productmix.sfm import SetFunction, check_submodular

        _, trace = min_up(worked)
        for price in trace.prices():
            hist = worked.arr.histogram(worked._pints(price))
            f = SetFunction(worked.n, lambda s: worked._slope(hist, s))
            assert check_submodular(f)

    def test_minimality_certificate(self, alice, bob):
        from productmix import Bid, BidList, is_demanded

        reserves = [Bid((Fraction(0), Fraction(0)), 1)] * 3
        market = BidList(
            "market", list(alice.bids) + list(bob.bids) + reserves, n=2
        )
        assert is_demanded(market, (1, 1), (4, 4))
        assert not is_demanded(market, (1, 1), (3, 4))
        assert not is_demanded(market, (1, 1), (4, 3))
