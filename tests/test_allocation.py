from fractions import Fraction
from math import comb

import pytest

from productmix import BidList, is_demanded
from productmix.allocation import (
    allocate,
    initial_problem,
    non_marginals,
    shift_project_unshift,
    unambiguous_marginals,
)
from productmix.errors import BadCluster, NotClearing
from productmix.graphs import CycleEdge, build_marginal_graph, find_params


class TestInitialProblem:
    def test_worked_example_residual(self, alice, bob):
        problem = initial_problem([alice, bob], (1, 1), (4, 4))
        assert problem.residual == [2, 1, 1]
        assert all(problem.partial[j] == [0, 0, 0] for j in problem.names)

    def test_zero_target(self, alice, bob):
        problem = initial_problem([alice, bob], (0, 0), (9, 9))
        assert problem.residual == [4, 0, 0]

    def test_not_clearing_price(self, alice):
        with pytest.raises(NotClearing):
            initial_problem([alice], (1, 1), (9, 9))

    def test_non_integral_price(self, alice):
        with pytest.raises(NotClearing):
            initial_problem([alice], (1, 1), (Fraction(7, 2), 4))

    def test_target_exceeding_weight(self, alice):
        with pytest.raises(NotClearing):
            initial_problem([alice], (3, 3), (0, 0))

    def test_vacuous(self):
        solution = allocate([], (0, 0), (0, 0))
        assert solution.bundles == {} and solution.iterations == 0

    def test_membership_check_on_the_tenth_grid(self):
        lst = BidList.from_rows("tenths", [("5.5", "0.3", 1), ("1.2", "3.5", 1)])
        solution = allocate([lst], (1, 1), (5, 3))
        assert solution.real_bundle("tenths") == (1, 1)
        with pytest.raises(NotClearing):
            allocate([lst], (1, 1), (6, 3))

    def test_values_off_the_tenth_grid(self):
        lst = BidList.from_rows("third", [("1/3", 1, 1)])
        with pytest.raises(ValueError):
            initial_problem([lst], (1, 0), (0, 0), verify=False)


class TestNonMarginals:
    def test_fig_style_reduction(self, alice, bob):
        # at (6, 4) only bids with a uniquely best good disappear: alice keeps
        # (0,4) and bob keeps (2,4) and the negative bid, all three marginal
        # between rejecting and good 2
        problem = initial_problem([alice, bob], (0, 2), (6, 4))
        non_marginals(problem)
        lists = problem.bid_lists()
        assert [b.values for b in lists["alice"]] == [(0, 4)]
        assert [(b.values, b.weight) for b in lists["bob"]] == [
            ((2, 4), 1),
            ((4, 4), -1),
        ]
        assert problem.partial["alice"] == [0, 0, 1]
        assert problem.partial["bob"] == [1, 0, 1]
        assert problem.residual == [1, 0, 0]

    def test_negative_bid_bookkeeping(self):
        # all three bids uniquely demand good 2; the negative one moves its
        # weight with the opposite sign
        lst = BidList.from_rows("neg", [(4, 4, -1), (6, 6, 1), (6, 6, 1)])
        problem = initial_problem([lst], (0, 1), (6, 3), verify=False)
        assert problem.residual == [0, 0, 1]
        non_marginals(problem)
        assert problem.partial["neg"] == [0, 0, 1]  # +1 +1 -1
        assert problem.residual == [0, 0, 0]
        assert problem.weights["neg"] == []

    def test_graph_unchanged(self, alice, bob):
        problem = initial_problem([alice, bob], (1, 1), (4, 4))
        before = build_marginal_graph(problem).edges
        non_marginals(problem)
        assert build_marginal_graph(problem).edges == before

    def test_all_non_marginal_clears_everything(self):
        solo = BidList.from_rows("solo", [(5, 0, 1)])
        solution = allocate([solo], (1, 0), (0, 0))
        assert solution.real_bundle("solo") == (1, 0)
        assert solution.iterations == 0


def two_leaf_problem(target):
    """j marginal on {1,2} twice, k marginal on {0,1}; price (2,2)."""
    j = BidList.from_rows("j", [(3, 3, 1), (3, 3, 1)])
    k = BidList.from_rows("k", [(2, 1, 1)])
    problem = initial_problem([j, k], target, (2, 2))
    return non_marginals(problem)


class TestUnambiguousMarginals:
    def test_isolated_cluster_absorbs_residual(self):
        x = BidList.from_rows("x", [(3, 3, 1)])
        problem = non_marginals(initial_problem([x], (1, 0), (2, 2)))
        unambiguous_marginals(problem, (frozenset({1, 2}), "x"), None)
        assert problem.partial["x"] == [0, 1, 0]
        assert problem.residual == [0, 0, 0]
        assert problem.weights["x"] == []

    def test_link_good_balance(self):
        problem = two_leaf_problem((2, 1))
        unambiguous_marginals(problem, (frozenset({1, 2}), "j"), 1)
        assert problem.partial["j"] == [0, 1, 1]
        assert problem.residual == [0, 1, 0]

    def test_zero_balance_on_link(self):
        problem = two_leaf_problem((1, 2))
        unambiguous_marginals(problem, (frozenset({1, 2}), "j"), 1)
        assert problem.partial["j"] == [0, 0, 2]
        assert problem.residual == [0, 1, 0]

    def test_requires_marginal_bids_only(self, alice, bob):
        problem = initial_problem([alice, bob], (1, 1), (6, 4), verify=False)
        with pytest.raises(BadCluster):
            unambiguous_marginals(problem, (frozenset({0, 2}), "alice"), None)

    def test_link_outside_cluster(self):
        problem = two_leaf_problem((2, 1))
        with pytest.raises(BadCluster):
            unambiguous_marginals(problem, (frozenset({1, 2}), "j"), 0)


class TestShiftProjectUnshift:
    def smallest_cycle(self):
        a = BidList.from_rows("a", [(3, 3, 1)])
        b = BidList.from_rows("b", [(3, 3, 1)])
        return non_marginals(initial_problem([a, b], (1, 1), (2, 2)))

    def test_breaks_the_tie(self):
        problem = self.smallest_cycle()
        params = find_params(problem)
        assert isinstance(params, CycleEdge)
        before = build_marginal_graph(problem).edge_count
        shift_project_unshift(problem, params.good, params.bidder)
        after = build_marginal_graph(problem)
        assert after.edge_count < before
        # at least one bid became non-marginal at the original price
        masks = [m for j in problem.names for m in problem.masks(j)]
        assert any(not m & (m - 1) for m in masks)

    def test_values_return_to_integer_grid(self):
        problem = self.smallest_cycle()
        params = find_params(problem)
        shift_project_unshift(problem, params.good, params.bidder)
        for j in problem.names:
            for bid in problem.bid_lists()[j]:
                assert all(v.denominator == 1 for v in bid.values)

    def test_price_restored(self):
        problem = self.smallest_cycle()
        price_before = problem.price
        params = find_params(problem)
        shift_project_unshift(problem, params.good, params.bidder)
        assert problem.price == price_before

    def test_local_validity_preserved(self):
        problem = self.smallest_cycle()
        params = find_params(problem)
        shift_project_unshift(problem, params.good, params.bidder)
        assert problem.check_local_validity()

    def test_demand_sets_never_grow(self):
        # the projection widens each bid's surplus gap at the perturbed price
        # (a unit per projection, see test_core), so back at the original
        # price no bid can have picked up new demanded goods
        problem = self.smallest_cycle()
        before = {j: problem.masks(j) for j in problem.names}
        params = find_params(problem)
        shift_project_unshift(problem, params.good, params.bidder)
        for j in problem.names:
            for old, new in zip(before[j], problem.masks(j)):
                assert new & ~old == 0


class TestAllocate:
    def test_worked_example_split(self, alice, bob):
        solution = allocate([alice, bob], (1, 1), (4, 4), checks=True)
        a = solution.real_bundle("alice")
        b = solution.real_bundle("bob")
        assert a in {(1, 0), (0, 1)}
        assert tuple(x + y for x, y in zip(a, b)) == (1, 1)
        assert is_demanded(alice, a, (4, 4))
        assert is_demanded(bob, b, (4, 4))

    def test_single_bidder_gets_target(self, bob):
        solution = allocate([bob], (1, 1), (4, 4))
        assert solution.real_bundle("bob") == (1, 1)

    def test_iteration_bound(self, alice, bob):
        solution = allocate([alice, bob], (1, 1), (4, 4))
        assert solution.iterations <= 2 * comb(3, 2)

    def test_priority_determinism(self, alice, bob):
        priority = [(g, o) for g in range(3) for o in ("alice", "bob")]
        first = allocate([alice, bob], (1, 1), (4, 4), priority=priority)
        second = allocate([alice, bob], (1, 1), (4, 4), priority=priority)
        assert first.bundles == second.bundles

    def test_priority_favours_bidder(self, alice, bob):
        names = ("alice", "bob")

        def full(base):
            seen = set(base)
            rest = [(g, o) for g in range(3) for o in names if (g, o) not in seen]
            return base + rest

        favouring_bob = allocate(
            [alice, bob], (1, 1), (4, 4), priority=full([(1, "bob"), (2, "bob")])
        )
        favouring_alice = allocate(
            [alice, bob], (1, 1), (4, 4), priority=full([(1, "alice"), (2, "alice")])
        )
        assert favouring_bob.real_bundle("bob") == (1, 0)
        assert favouring_alice.real_bundle("alice") == (1, 0)

    def test_works_at_non_minimal_clearing_price(self, alice, bob):
        # (5, 5) also clears (1, 1); the allocator must not care
        solution = allocate([alice, bob], (1, 1), (5, 5), checks=True)
        total = [
            x + y
            for x, y in zip(solution.real_bundle("alice"), solution.real_bundle("bob"))
        ]
        assert tuple(total) == (1, 1)
        for lst in (alice, bob):
            assert is_demanded(lst, solution.real_bundle(lst.owner), (5, 5))

    @pytest.mark.parametrize("checks", [False, True])
    @pytest.mark.parametrize(
        "target, price",
        [
            ((1, 1), (9, 9)),
            ((1, 1), (0, 0)),
            ((1, 1), (5, 3)),
            ((1, 1), (2, 2)),
            ((0, 0), (0, 4)),
        ],
    )
    def test_unchecked_non_clearing_price(self, alice, bob, target, price, checks):
        # none of these prices clears its target; without the membership
        # check the residual is left over or goes negative, or a bidder ends
        # with a negative bundle
        with pytest.raises(NotClearing):
            allocate([alice, bob], target, price, verify=False, checks=checks)

    def test_conservation_checks_enabled(self):
        j = BidList.from_rows("j", [(3, 3, 1), (3, 3, 1)])
        k = BidList.from_rows("k", [(2, 1, 1)])
        solution = allocate([j, k], (2, 1), (2, 2), checks=True)
        assert solution.real_bundle("j") in {(1, 1), (2, 0)}

    def test_cluster_containing_reject_good(self):
        # the bid is marginal between rejecting and good 1; its cluster
        # includes good 0 and the residual reject item flows through it
        lst = BidList.from_rows("r", [(2, 0, 1)])
        solution = allocate([lst], (0, 0), (2, 5), checks=True)
        assert solution.bundles["r"] == (1, 0, 0)

    def test_cycle_through_reject_good(self):
        # both bidders tie between rejecting and good 1: the only cycle in
        # the marginal graph runs through good 0, and priorities may name it
        a = BidList.from_rows("a", [(2, 9, 1)])
        b = BidList.from_rows("b", [(2, 9, 1)])
        priority = [(0, "a"), (0, "b"), (1, "a"), (1, "b"), (2, "a"), (2, "b")]
        solution = allocate([a, b], (1, 1), (2, 9), priority=priority, checks=True)
        assert solution.cycle_calls >= 1
        total = [
            x + y for x, y in zip(solution.real_bundle("a"), solution.real_bundle("b"))
        ]
        assert tuple(total) == (1, 1)
        for lst in (a, b):
            assert is_demanded(lst, solution.real_bundle(lst.owner), (2, 9))
