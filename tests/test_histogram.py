"""The demand-mask histogram answers every one-unit oracle as the scans did."""

import copy
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from helpers import reference_shift_project_unshift, scan_step
from productmix import BidList, pricing, sfm
from productmix.allocation import (
    allocate,
    initial_problem,
    non_marginals,
    shift_project_unshift,
    unambiguous_marginals,
)
from productmix.core import goods_mask
from productmix.graphs import CycleEdge, LeafCluster, find_params, priority_params
from productmix.testgen import GenConfig, generate_instance


def subsets(n):
    for r in range(n + 1):
        yield from combinations(range(1, n + 1), r)


def random_priced_table(rng: Random, scale: int):
    """A random list on the 1/scale grid and a price with ties.

    Some bids are tied on purpose: on several goods at a positive surplus,
    or on some goods and the reject good (surplus zero).
    """
    n = rng.randint(1, 4)
    denom = rng.choice((1, 3))
    price = [Fraction(rng.randint(0, 12 * denom), denom) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(3)
        if kind == 0:
            values = [Fraction(rng.randint(0, 15 * scale), scale) for _ in range(n)]
        else:
            c = 0 if kind == 1 else Fraction(rng.randint(1, 3 * scale), scale)
            values = [
                p + c if rng.random() < 0.6 else max(Fraction(0), p + c - 1)
                for p in price
            ]
        rows.append((*values, rng.choice((1, -1))))
    blist = BidList.from_rows("t", rows, n=n)
    return blist.table.priced(price)


class TestIdentities:
    @pytest.mark.parametrize("scale", [1, 10])
    def test_up_and_down_match_utility_scans(self, scale):
        rng = Random(f"histogram-identities:{scale}")
        seen = dict.fromkeys(("own grid", "finer grid", "reject tie", "goods tie", "negative"), 0)
        for _ in range(300):
            table, pints = random_priced_table(rng, scale)
            n = len(pints)
            hist = table.histogram(pints)
            zero = (0,) * n
            t = [rng.randint(0, 5) for _ in range(n)]
            for goods in subsets(n):
                smask = goods_mask(goods)
                assert hist.up(smask) == scan_step(table, pints, goods, +1, zero)
                assert hist.down(smask) == scan_step(table, pints, goods, -1, zero)
                for sign in (1, -1):
                    assert hist.step(sign, goods, t) == scan_step(table, pints, goods, sign, t)
            masks = table.masks(pints)
            seen["own grid"] += table.scale == scale
            seen["finer grid"] += table.scale > scale
            seen["reject tie"] += any(m & 1 and m != 1 for m in masks)
            seen["goods tie"] += any(m & (m - 1) and not m & 1 for m in masks)
            seen["negative"] += -1 in table.weights
        assert min(seen.values()) > 20, seen

    def test_pricing_slope_matches_scans(self):
        rng = Random("histogram-slope")
        for _ in range(20):
            n = rng.randint(1, 4)
            lists, target = generate_instance(GenConfig(n=n, q=3, M=20), 2, rng)
            pp = pricing.PriceProblem(lists, target)
            for _ in range(5):
                pints = [rng.randint(0, 20) for _ in range(n)]
                hist = pp.arr.histogram(pints)
                for goods in subsets(n):
                    expected = scan_step(pp.arr, pints, goods, +1, pp.target)
                    assert pp._slope(hist, goods) == expected

    def test_bounds_match_demand_interval_definition(self):
        rng = Random("histogram-bounds")
        for _ in range(100):
            table, pints = random_priced_table(rng, 1)
            lower, upper = table.histogram(pints).bounds()
            n = len(pints)
            for g in range(n + 1):
                demanding = [
                    (m, w) for m, w in zip(table.masks(pints), table.weights) if m >> g & 1
                ]
                assert upper[g] == sum(w for _, w in demanding)
                assert lower[g] == sum(w for m, w in demanding if m == 1 << g)


class TestShiftProjectUnshiftReference:
    def test_rows_and_price_match_scan_reference(self):
        # every cycle step of generated allocations, with the graph walk and
        # with random priority lists (which can name the reject good)
        rng = Random("spu-reference")
        steps = through_reject = 0
        for trial in range(30):
            n = rng.randint(2, 4)
            cfg = GenConfig(n=n, q=rng.randint(3, 6), M=20)
            lists, target = generate_instance(cfg, rng.randint(2, 4), rng)
            reserve = BidList.from_rows("auctioneer", [(0,) * n + (1,)] * (sum(target) + 1))
            bidders = lists + [reserve]
            priority = None
            if trial % 2:
                priority = [(g, lst.owner) for g in range(n + 1) for lst in bidders]
                rng.shuffle(priority)
            problem = non_marginals(initial_problem(bidders, target, [10] * n))
            while problem.live_bidders():
                if priority is None:
                    params = find_params(problem)
                else:
                    params = priority_params(problem, priority)
                if isinstance(params, CycleEdge):
                    reference = copy.deepcopy(problem)
                    reference_shift_project_unshift(reference, params.good, params.bidder)
                    shift_project_unshift(problem, params.good, params.bidder)
                    assert problem.rows == reference.rows
                    assert problem.weights == reference.weights
                    assert problem.price10 == reference.price10
                    steps += 1
                    through_reject += params.good == 0
                else:
                    link = params.link if isinstance(params, LeafCluster) else None
                    unambiguous_marginals(problem, (params.goods, params.bidder), link)
                non_marginals(problem)
            assert not any(problem.residual)
        assert steps > 50 and through_reject > 5, (steps, through_reject)


class TestOracleEvaluations:
    # Evaluation counts, prices and bundles recorded with the scan-based
    # oracles; the histogram changes what an evaluation costs, not how many
    # the minimisers ask for.
    CASES = [
        (
            (4, 3, 5, "b"),
            31,
            480,
            (10, 10, 10, 10),
            {
                "bidder1": (3, 1, 2, 0, 2),
                "bidder2": (2, 3, 1, 0, 0),
                "bidder3": (2, 0, 2, 3, 1),
                "auctioneer": (16, 0, 0, 0, 0),
            },
        ),
        (
            (18, 2, 2, "c"),
            88,
            14876,
            (10,) * 18,
            {
                "bidder1": (1, 1) + (0,) * 15 + (2, 0),
                "bidder2": (1,) + (0,) * 6 + (2,) + (0,) * 6 + (1, 0, 0, 0, 0),
                "auctioneer": (7,) + (0,) * 18,
            },
        ),
    ]

    @pytest.mark.parametrize("shape, functions, evaluations, price, bundles", CASES)
    def test_counts_unchanged(self, monkeypatch, shape, functions, evaluations, price, bundles):
        count = {"functions": 0, "evaluations": 0}
        base = sfm.SetFunction

        class Counting(base):
            def __init__(self, n, fn):
                count["functions"] += 1

                def counted(s):
                    count["evaluations"] += 1
                    return fn(s)

                super().__init__(n, counted)

        monkeypatch.setattr(sfm, "SetFunction", Counting)
        n, m, q, seed = shape
        rng = Random(f"oracle-count:{seed}")
        lists, target = generate_instance(GenConfig(n=n, q=q, M=20), m, rng)
        found, _ = pricing.long_step_min_up(pricing.PriceProblem(lists, target))
        reserve = BidList.from_rows("auctioneer", [(0,) * n + (1,)] * (sum(target) + 1))
        solution = allocate(lists + [reserve], target, found)
        assert found == price
        assert solution.bundles == bundles
        assert count == {"functions": functions, "evaluations": evaluations}
