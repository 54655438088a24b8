"""Shared oracles and generators for the test suite."""

from fractions import Fraction
from itertools import combinations
from random import Random

from productmix import Bid, BidList, demand_interval, indirect_utility, valuation
from productmix.sfm import SetFunction
from productmix.validity import DEFAULT_BUDGET, RegionQuery, ValidityReport, md, mdF


def random_submodular(rng: Random, n: int) -> SetFunction:
    """Sum of weighted coverage functions plus a modular term; integer-valued."""
    universe = rng.randint(4, 9)
    cover_count = rng.randint(1, 3)
    covers = []
    for _ in range(cover_count):
        sets = [
            frozenset(rng.sample(range(universe), rng.randint(1, universe)))
            for _ in range(n)
        ]
        weights = [rng.randint(0, 4) for _ in range(universe)]
        covers.append((sets, weights))
    modular = [rng.randint(-7, 7) for _ in range(n)]

    def evaluate(s):
        total = sum(modular[i - 1] for i in s)
        for sets, weights in covers:
            covered = set()
            for i in s:
                covered |= sets[i - 1]
            total += sum(weights[e] for e in covered)
        return total

    return SetFunction(n, evaluate)


def enumerate_minimum(f: SetFunction):
    """Exhaustive minimum value and the list of all minimisers."""
    ground = list(range(1, f.n + 1))
    best = None
    minimisers = []
    for r in range(f.n + 1):
        for combo in combinations(ground, r):
            s = frozenset(combo)
            v = f.fn(s)
            if best is None or v < best:
                best = v
                minimisers = [s]
            elif v == best:
                minimisers.append(s)
    return best, minimisers


def intersection_of_minimisers(f: SetFunction) -> frozenset:
    _, minimisers = enumerate_minimum(f)
    out = minimisers[0]
    for s in minimisers[1:]:
        out &= s
    return out


def random_small_list(rng: Random, max_negatives: int = 3) -> BidList:
    """Arbitrary (not necessarily valid) small list for oracle agreement."""
    n = rng.randint(1, 3)
    rows = []
    negatives = rng.randint(1, max_negatives)
    for _ in range(negatives):
        rows.append(tuple(rng.randint(0, 10) for _ in range(n)) + (-1,))
    for _ in range(rng.randint(1, 6)):
        rows.append(tuple(rng.randint(0, 10) for _ in range(n)) + (1,))
    rng.shuffle(rows)
    return BidList.from_rows("anon", rows, n=n)


def demanded_by_valuation(blist: BidList, bundle, price) -> bool:
    """Membership by a second price search: the reference for is_demanded.

    Behind the demand-interval prune, a bundle x is demanded at p exactly when
    its value minus its cost equals the indirect utility:
    valuation(x) - p.x == f(p).  Needs a valid list with integer bids.
    """
    x = tuple(bundle)
    if any(v < 0 for v in x):
        return False
    lower, upper = demand_interval(blist, price)
    ext = (blist.total_weight() - sum(x),) + x
    if any(not lo <= v <= hi for lo, v, hi in zip(lower, ext, upper)):
        return False
    cost = sum(Fraction(p) * v for p, v in zip(price, x))
    return valuation(blist, x) - cost == indirect_utility(blist, price)


def contains(query: RegionQuery, bid) -> bool:
    """Exact membership of the bid's (non-negative) valuation vector in the region."""
    x = bid.values if isinstance(bid, Bid) else tuple(Fraction(v) for v in bid)
    y = query.anchor
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    i = query.i - 1
    if query.kind == "H":
        return x[i] == y[i] and all(xv <= yv for xv, yv in zip(x, y))
    j = query.j - 1
    beta = x[i] - y[i]
    if beta != x[j] - y[j] or beta < 0:
        return False
    return all(xv - beta <= yv for xv, yv in zip(x, y))


def _region_is_negative(query: RegionQuery, bids) -> bool:
    balance = 0
    for b in bids:
        if contains(query, b):
            balance += 1 if b.weight > 0 else -1
    return balance < 0


def reference_validity(blist: BidList, budget: int = DEFAULT_BUDGET) -> ValidityReport:
    """Region-counting validity in Fractions: the reference for check_validity.

    The same subset enumeration and region checks, with every membership
    tested on Fraction values and no region's balance remembered, so its
    regions_counted is the number of region checks made.
    """
    n = blist.n
    negatives = [b for b in blist.bids if b.weight < 0]
    if not negatives:
        return ValidityReport("valid")
    unique_negs = sorted({b.values for b in negatives})
    checked = regions = 0
    for size in range(1, min(n + 1, len(unique_negs)) + 1):
        for combo in combinations(unique_negs, size):
            checked += 1
            if checked > budget:
                return ValidityReport("undecided", None, checked - 1, regions)
            for i in range(1, n + 1):
                ref = combo[0][i - 1]
                if all(v[i - 1] == ref for v in combo):
                    query = RegionQuery("H", md(combo), i)
                    regions += 1
                    if _region_is_negative(query, blist.bids):
                        return ValidityReport("invalid", query, checked, regions)
            for i, j in combinations(range(1, n + 1), 2):
                ref = combo[0][i - 1] - combo[0][j - 1]
                if all(v[i - 1] - v[j - 1] == ref for v in combo):
                    query = RegionQuery("F", mdF(i, combo), i, j)
                    regions += 1
                    if _region_is_negative(query, blist.bids):
                        return ValidityReport("invalid", query, checked, regions)
    return ValidityReport("valid", None, checked, regions)


def is_subsequence(short, long):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)
