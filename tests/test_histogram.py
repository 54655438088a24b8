"""The demand-mask histogram answers every one-unit oracle as the scans did."""

import copy
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from helpers import (
    enumerate_minimum,
    intersection_of_minimisers,
    reference_shift_project_unshift,
    scan_step,
)
from productmix import BidList, pricing, sfm
from productmix.allocation import (
    allocate,
    initial_problem,
    non_marginals,
    shift_project_unshift,
    unambiguous_marginals,
)
from productmix.core import DemandHistogram, goods_mask
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
    # Prices, bundles and function counts recorded with the scan-based
    # oracles; the histogram changes what an evaluation costs, not how many
    # minimisations run.  On 4 goods the evaluation count is enumeration's.
    # On 18 goods every one of the 88 oracles is minimised by its
    # union-closure search, with no Wolfe run.
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
            593,
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
            def __init__(self, n, fn, closure=None):
                count["functions"] += 1

                def counted(s):
                    count["evaluations"] += 1
                    return fn(s)

                super().__init__(n, counted, closure)

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


def random_oracle_case(rng: Random):
    """A histogram, a sign, costs and a (free, forced) remap of its goods.

    Half the histograms come from random_priced_table (grid scale 1 or 10,
    tied bids), half from random masks on up to 8 goods, with and without
    the reject bit and with weights of both signs.  Costs are >= 0.
    """
    if rng.random() < 0.5:
        table, pints = random_priced_table(rng, rng.choice((1, 10)))
        n, hist = len(pints), table.histogram(pints)
    else:
        n = rng.randint(1, 8)
        pairs = []
        for _ in range(rng.randint(1, 9)):
            mask = rng.randrange(2, 1 << (n + 1)) | rng.choice((0, 1))
            pairs.append((mask, rng.choice((-2, -1, 1, 2, 3))))
        hist = DemandHistogram(n, pairs)
    goods = list(range(1, n + 1))
    rng.shuffle(goods)
    forced = frozenset(g for g in goods if rng.random() < 0.2)
    settled = {g for g in goods if g not in forced and rng.random() < 0.2}
    free = [g for g in goods if g not in forced and g not in settled]
    if not free or rng.random() < 0.3:
        free, forced = None, frozenset()
    t = [rng.randint(0, 4) for _ in range(n)]
    return hist, rng.choice((1, -1)), t, free, forced


class TestUnionClosure:
    def test_oracle_is_the_remapped_step(self):
        rng = Random("oracle-step")
        for _ in range(300):
            hist, sign, t, free, forced = random_oracle_case(rng)
            f = hist.oracle(sign, t, free, forced)
            goods = range(1, hist.n + 1) if free is None else free
            assert f.n == len(goods) and f.closure is None
            for s in subsets(f.n):
                direction = forced | {goods[k - 1] for k in s}
                assert f.fn(frozenset(s)) == hist.step(sign, direction, t)

    def test_search_matches_enumeration(self):
        rng = Random("closure-search")
        seen = dict.fromkeys(
            ("plus", "minus", "remap", "reject bit", "negative", "submodular", "not"), 0
        )
        for _ in range(600):
            hist, sign, t, free, forced = random_oracle_case(rng)
            f = hist.oracle(sign, t, free, forced)
            goods = range(1, hist.n + 1) if free is None else free
            g = sfm.SetFunction(f.n, f.fn, hist._union_closure(sign, goods, forced))
            best, minimisers = enumerate_minimum(f)
            s, value = sfm.minimise(g)
            assert value == best and s in minimisers
            submodular = sfm.check_submodular(f)
            if submodular:
                assert sfm.minimal_minimiser(g) == intersection_of_minimisers(f)
                if sign > 0:
                    assert s == intersection_of_minimisers(f)
                else:
                    assert s == frozenset().union(*minimisers)
            seen["plus" if sign > 0 else "minus"] += 1
            seen["remap"] += free is not None
            seen["reject bit"] += any(d & 1 and d != 1 for d in hist.weight)
            seen["negative"] += any(w < 0 for w in hist.weight.values())
            seen["submodular" if submodular else "not"] += 1
        assert min(seen.values()) > 20, seen

    def test_wide_oracle_matches_wolfe(self):
        rng = Random("closure-wide")
        for _ in range(6):
            n = rng.randint(17, 20)
            # sparse masks (two draws and-ed), so the closure stays small
            top = 1 << (n + 1)
            masks = [rng.randrange(2, top) & rng.randrange(2, top) for _ in range(8)]
            hist = DemandHistogram(n, [(mask, rng.randint(1, 3)) for mask in masks])
            t = [rng.randint(0, 4) for _ in range(n)]
            for sign in (1, -1):
                f = hist.oracle(sign, t)
                assert f.closure is not None and f.closure.complement == (sign < 0)
                s, value = sfm.minimise(f)
                _, wolfe = sfm.minimise(f, method="wolfe")
                assert value == wolfe == f.fn(s)

    def test_closure_masks_on_the_ground_bits(self):
        # goods: 1 forced, 2 settled, 3..19 free as elements 1..17
        pairs = [
            (0b1001, 2),  # {0, 3}: reject bit
            (0b10010, 1),  # {1, 4}: a forced good
            (0b100100, 1),  # {2, 5}: a settled good
            (1 << 6, -1),  # {6}: negative weight
            (0b10, 3),  # {1}: forced only
            (0b100, 1),  # {2}: settled only
            (0b110000000, 1),  # {7, 8}
            (0b110000001, 1),  # {0, 7, 8}
            (1 << 9 | 1, 1),  # {0, 9}: cancels {9} once the reject bit goes
            (1 << 9, -1),  # {9}
        ]
        hist = DemandHistogram(19, pairs)
        free, forced, t = list(range(3, 20)), frozenset({1}), [0] * 19
        plus = hist.oracle(+1, t, free, forced).closure
        minus = hist.oracle(-1, t, free, forced).closure
        assert not plus.complement and minus.complement
        assert sorted(plus.masks) == [1 << 2, 1 << 5 | 1 << 6]
        assert sorted(minus.masks) == [1 << 1, 1 << 3, 1 << 5 | 1 << 6]

    def test_negative_cost_attaches_no_closure(self):
        hist = DemandHistogram(18, [(0b110, 2), (1 << 17 | 1, 1), (1 << 5, -1)])
        t = [1] * 18
        assert hist.oracle(+1, t).closure is not None
        assert hist.oracle(-1, t).closure is not None
        t[4] = -1
        for sign in (1, -1):
            assert hist.oracle(sign, t).closure is None
            # the cost of good 5 counts only when good 5 is on the ground
            free = [g for g in range(1, 19) if g != 5]
            assert hist.oracle(sign, t, free, frozenset({5})).closure is not None

    def test_search_past_the_cap_falls_back(self):
        # 20 positive singletons: the closure is all 2**20 subsets
        hist = DemandHistogram(20, [(1 << g, 2) for g in range(1, 21)])
        t = [g % 4 for g in range(1, 21)]
        for sign in (1, -1):
            f = hist.oracle(sign, t)
            memo = sfm._Memo(f.fn)
            assert sfm._closure_search(memo, range(1, 21), f.closure) is None
            gains = [sign * (2 - c) for c in t]  # F(S) = -sign * sum of gains
            s, value = sfm.minimise(f)
            expected = -sum(gain for gain in gains if gain > 0)
            assert value == expected == f.fn(s)
            assert sfm.minimise(f, method="wolfe")[1] == expected
            bottom = frozenset(g for g, gain in enumerate(gains, 1) if gain > 0)
            assert sfm.minimal_minimiser(f) == bottom

    def test_too_many_masks_skip_the_search(self):
        # all 190 pairs of 20 goods: the minus oracle -t(S) + #(pairs meeting S)
        # is a coverage function, and 190 masks alone pass the cap
        pairs = [(1 << i | 1 << j, 1) for i in range(1, 21) for j in range(1, i)]
        hist = DemandHistogram(20, pairs)
        t = [(7 * g) % 11 for g in range(1, 21)]
        f = hist.oracle(-1, t)
        assert len(f.closure.masks) == 190
        assert sfm._closure_search(sfm._Memo(f.fn), range(1, 21), f.closure) is None
        top = sorted(t, reverse=True)
        expected = min(190 - sum(top[:k]) - (20 - k) * (19 - k) // 2 for k in range(21))
        s, value = sfm.minimise(f)
        assert value == expected == f.fn(s)
