"""Independent cross-checks for two-good auctions.

The demand correspondence at a marginal price is, by definition, the set of
integer points in the convex hull of the bundles demanded at non-marginal
prices arbitrarily close by.  For two goods that definition is computable
directly: perturb the price into each of the adjacent unique-demand regions
(eight sign/order patterns around the price), collect the unique bundles,
and take the exact integer hull.  None of that shares code with the
membership test, the price search or the allocator, so agreement here
validates all three against the definition itself.

For more goods, the local-optimality membership test is checked against the
rule it replaced: a second price search through ``valuation``.
"""

from fractions import Fraction
from random import Random

from helpers import demanded_by_valuation
from productmix import (
    Bid,
    BidList,
    GenConfig,
    PriceProblem,
    allocate,
    demand_interval,
    demanded_bundle,
    generate_instance,
    generate_list,
    indirect_utility,
    is_demanded,
    long_step_min_up,
    valuation,
)

EPS = Fraction(1, 8)
# all strict orderings of (d1, d2, 0) with |d1| != |d2|
PERTURBATIONS = [
    (s1 * a * EPS, s2 * b * EPS)
    for s1 in (1, -1)
    for s2 in (1, -1)
    for a, b in ((1, 2), (2, 1))
]


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_2d(points):
    """Monotone-chain convex hull over exact integer points."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def in_hull_2d(points, q):
    hull = hull_2d(points)
    if len(hull) == 1:
        return q == hull[0]
    if len(hull) == 2:
        a, b = hull
        if cross(a, b, q) != 0:
            return False
        lo = (min(a[0], b[0]), min(a[1], b[1]))
        hi = (max(a[0], b[0]), max(a[1], b[1]))
        return lo[0] <= q[0] <= hi[0] and lo[1] <= q[1] <= hi[1]
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if cross(a, b, q) < 0:
            return False
    return True


def demand_set_by_definition(blist, price, box):
    """Integer points of the hull of bundles demanded at nearby UDR prices."""
    corners = set()
    for d1, d2 in PERTURBATIONS:
        bundle = demanded_bundle(blist, (price[0] + d1, price[1] + d2))
        corners.add(bundle[1:])
    return {q for q in box if in_hull_2d(list(corners), q)}


def bundle_box(blist):
    top = max(2, sum(1 for b in blist if b.weight > 0))
    return [(x1, x2) for x1 in range(top + 1) for x2 in range(top + 1)]


def valid_two_good_lists():
    alice = BidList.from_rows("alice", [(6, 6, 1), (0, 4, 1)])
    bob = BidList.from_rows("bob", [(2, 4, 1), (4, 2, 1), (4, 4, -1), (6, 6, 1)])
    lists = [alice, bob, BidList.aggregate([alice, bob])]
    rng = Random("oracle-lists")
    for k in range(6):
        lst, _ = generate_list(GenConfig(n=2, q=rng.randint(1, 4), M=8), rng)
        lists.append(BidList(f"gen{k}", lst.bids, n=2))
    return lists


def halved(lst):
    """The same valid list with every bid value halved."""
    bids = [Bid(tuple(v / 2 for v in b.values), b.weight) for b in lst.bids]
    return BidList(f"{lst.owner}/2", bids, n=lst.n)


class TestMembershipAgainstDefinition:
    def test_is_demanded_matches_hull_definition(self):
        rng = Random("membership")
        halves = Random("membership-halves")
        lists = valid_two_good_lists()
        for lst in lists + [halved(lst) for lst in lists]:
            box = bundle_box(lst)
            top = int(lst.max_entry()) + 1
            prices = {(rng.randint(0, top), rng.randint(0, top)) for _ in range(6)}
            prices |= {(0, 0), (top, top)}
            prices |= {
                (Fraction(halves.randint(0, 2 * top), 2), Fraction(halves.randint(0, 2 * top), 2))
                for _ in range(4)
            }
            for price in prices:
                expected = demand_set_by_definition(lst, price, box)
                got = {q for q in box if is_demanded(lst, q, price)}
                assert got == expected, (lst.owner, price)

    def test_valuation_matches_definition_on_demanded_bundles(self):
        rng = Random("valuation")
        for lst in valid_two_good_lists():
            box = bundle_box(lst)
            top = int(lst.max_entry()) + 1
            for _ in range(4):
                price = (rng.randint(0, top), rng.randint(0, top))
                f = indirect_utility(lst, price)
                for q in demand_set_by_definition(lst, price, box):
                    # a demanded bundle's value solves the utility identity
                    assert valuation(lst, q) == f + price[0] * q[0] + price[1] * q[1]


def bundles_near(lst, price, rng, draws):
    """Bundles demanded at the price and their neighbours.

    The demanded ones are the unique bundles at nearby prices: offsets of
    distinct sizes below 1/2 leave every integer bid non-marginal.
    """
    n = lst.n
    demanded = set()
    for _ in range(draws):
        sizes = rng.sample(range(1, n + 1), n)
        offsets = [Fraction(rng.choice((1, -1)) * k, 2 * n + 2) for k in sizes]
        demanded.add(demanded_bundle(lst, [p + d for p, d in zip(price, offsets)])[1:])
    # neighbours move goods whose demand is ambiguous at the price, where
    # the interval prune cannot decide
    lower, upper = demand_interval(lst, price)
    loose = [g for g in range(n) if lower[g + 1] < upper[g + 1]] or list(range(n))
    out = set(demanded)
    for x in demanded:
        goods = rng.sample(loose, min(len(loose), 3))
        for g in goods:
            for d in (1, -1):
                out.add(tuple(v + d * (k == g) for k, v in enumerate(x)))
        for g, h in zip(goods, goods[1:]):
            # one item moved between two goods: the reject count stays put
            out.add(tuple(v + (k == g) - (k == h) for k, v in enumerate(x)))
    return out


class TestMembershipAgainstValuation:
    def check(self, n, q, M, bidders, seeds, draws):
        """Compare on each list, the reserve and their aggregate; tally answers.

        Prices are the centre (where the generated bundles are demanded) and
        its integral neighbours.  Returns how often each answer came up, and
        how many negative answers passed the demand-interval prune, so that
        the submodular minimisations decided them.
        """
        answers = {True: 0, False: 0, "past prune": 0}
        for seed in seeds:
            rng = Random(f"membership-valuation:{n}:{seed}")
            lists, target = generate_instance(GenConfig(n=n, q=q, M=M), bidders, rng)
            # the auctioneer's zero bids, which absorb unsold items
            lists.append(BidList.from_rows("reserve", [(0,) * n + (1,)] * (sum(target) + 1)))
            lists.append(BidList.aggregate(lists))
            centre = (M // 2,) * n
            goods = rng.sample(range(n), min(n, 2))
            prices = [centre] + [
                tuple(p + d * (k == g) for k, p in enumerate(centre))
                for g in goods
                for d in (1, -1)
            ]
            for lst in lists:
                for price in prices:
                    lower, upper = demand_interval(lst, price)
                    for x in sorted(bundles_near(lst, price, rng, draws)):
                        expected = demanded_by_valuation(lst, x, price)
                        assert is_demanded(lst, x, price) == expected, (lst, x, price)
                        answers[expected] += 1
                        ext = (lst.total_weight() - sum(x),) + x
                        inside = all(lo <= v <= hi for lo, v, hi in zip(lower, ext, upper))
                        answers["past prune"] += inside and not expected
        return answers

    def test_three_goods(self):
        answers = self.check(n=3, q=6, M=20, bidders=3, seeds=range(4), draws=4)
        assert answers[True] and answers[False] and answers["past prune"]

    def test_twenty_goods_runs_wolfe(self):
        # ground sets of 20 goods exceed the enumeration limit of 16
        answers = self.check(n=20, q=4, M=100, bidders=2, seeds=range(1), draws=1)
        assert answers[True] and answers[False] and answers["past prune"]


class TestPricingAgainstDefinition:
    def clearing_prices(self, pp, box_top):
        """All integral prices at which the target is demanded, by definition."""
        market = BidList("market", pp.bids, n=2)
        box = bundle_box(market)
        out = []
        for p1 in range(box_top + 1):
            for p2 in range(box_top + 1):
                if pp.target in demand_set_by_definition(market, (p1, p2), box):
                    out.append((p1, p2))
        return out

    def test_min_up_finds_the_lattice_bottom(self):
        rng = Random("pricing")
        cases = []
        for _ in range(5):
            lst, bundle = generate_list(GenConfig(n=2, q=rng.randint(1, 3), M=8), rng)
            cases.append(([lst], bundle))
        alice = BidList.from_rows("alice", [(6, 6, 1), (0, 4, 1)])
        bob = BidList.from_rows("bob", [(2, 4, 1), (4, 2, 1), (4, 4, -1), (6, 6, 1)])
        cases.append(([alice, bob], (1, 1)))
        for lists, target in cases:
            pp = PriceProblem(lists, target)
            price, _ = long_step_min_up(pp)
            clearing = self.clearing_prices(pp, pp.price_cap + 1)
            assert price in clearing
            bottom = (
                min(p[0] for p in clearing),
                min(p[1] for p in clearing),
            )
            # clearing prices form a lattice, so the componentwise minimum is
            # itself clearing and must be what the descent returned
            assert bottom in clearing
            assert price == bottom


class TestAllocationAgainstDefinition:
    def test_bundles_lie_in_per_bidder_demand_sets(self):
        rng = Random("allocation")
        for _ in range(4):
            cfg = GenConfig(n=2, q=rng.randint(2, 5), M=8)
            lists = []
            target = (0, 0)
            for k in range(rng.randint(2, 3)):
                lst, bundle = generate_list(cfg, rng, owner=f"b{k}")
                lists.append(lst)
                target = (target[0] + bundle[0], target[1] + bundle[1])
            centre = (cfg.M // 2, cfg.M // 2)
            solution = allocate(lists, target, centre, checks=True)
            for lst in lists:
                got = solution.real_bundle(lst.owner)
                box = bundle_box(lst)
                assert got in demand_set_by_definition(lst, centre, box)
