"""Shared oracles and generators for the test suite."""

from fractions import Fraction
from itertools import combinations, product
from random import Random

from productmix import (
    Bid,
    BidList,
    demand_interval,
    demanded_goods,
    indirect_utility,
    valuation,
)
from productmix.allocation import _project_rows
from productmix.kernels import pure
from productmix.sfm import SetFunction, minimise
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


def scan_step(table, pints, goods, sign, t) -> int:
    """scale * (g(p + sign * e^S) - g(p)) by two indirect-utility scans.

    g(q) = f(q) + t.q on the table's grid, e^S one grid unit on each good
    of S: the reference for the histogram's one-unit oracles
    (``DemandHistogram.up``/``down`` plus the linear term).
    """
    q = list(pints)
    for i in goods:
        q[i - 1] += sign
    return table.utility(q) - table.utility(pints) + sign * sum(t[i - 1] for i in goods)


def reference_shift_project_unshift(problem, good: int, bidder: str) -> None:
    """shift_project_unshift with its oracles answered by utility scans.

    The reference for the histogram form: each SFM query evaluates g at the
    perturbed price by a full scan of the aggregate rows, and the sign is
    chosen by evaluating g at both candidate prices.
    """

    def apply_shift(sign: int) -> None:
        for row in problem.rows[bidder]:
            if good == 0:
                for g in range(problem.n):
                    row[g] -= sign
            else:
                row[good - 1] += sign

    apply_shift(+1)
    agg_rows = [row for j in problem.names for row in problem.rows[j]]
    agg_weights = [w for j in problem.names for w in problem.weights[j]]
    resid = problem.residual

    def g_scaled(p10):
        util = pure.indirect_utility(agg_rows, agg_weights, p10)
        return util + sum(resid[g] * p10[g - 1] for g in range(1, problem.n + 1))

    base10 = list(problem.price10)
    base_val = g_scaled(base10)

    def perturbed(direction, sign):
        q = list(base10)
        for i in direction:
            q[i - 1] += sign
        return q

    def h(sign):
        return lambda s: g_scaled(perturbed(s, sign)) - base_val

    s_plus, _ = minimise(SetFunction(problem.n, h(+1)))
    s_minus, _ = minimise(SetFunction(problem.n, h(-1)))
    up = perturbed(s_plus, +1)
    down = perturbed(s_minus, -1)
    _project_rows(problem, up if g_scaled(up) <= g_scaled(down) else down)
    apply_shift(-1)


def surplus_gap(bid: Bid, price):
    """Best surplus minus best surplus over the goods the bid does not demand.

    None when every good (reject included) is demanded, since no runner-up
    exists; otherwise the gap, which is strictly positive.
    """
    surpluses = [Fraction(0)] + [v - Fraction(p) for v, p in zip(bid.values, price)]
    best = max(surpluses)
    rest = [s for s in surpluses if s != best]
    return best - max(rest) if rest else None


def project_bid(bid: Bid, price) -> Bid:
    """Move a bid one unit so its surplus gap at this price grows by one.

    The Fraction reference for allocation._project_rows.  With demanded goods
    I: subtract the indicator of the non-demanded goods when the reject good
    is demanded, otherwise add the indicator of I.  A bid demanding every
    good is returned unchanged; values may go negative.
    """
    goods = demanded_goods(bid, price)
    if 0 in goods:
        step = [0 if g in goods else -1 for g in range(1, bid.n + 1)]
    else:
        step = [1 if g in goods else 0 for g in range(1, bid.n + 1)]
    return Bid(tuple(v + d for v, d in zip(bid.values, step)), bid.weight)


def check_local_validity(problem, radius_tenths: int = 2) -> bool:
    """Per-bidder pairwise marginal-weight check on the 1/10 lattice.

    Scans every lattice price within the given L-infinity radius (in
    tenths) of an allocation problem's price; bids on the 1/10 grid can only
    become marginal at these points, so a clean scan certifies validity on
    the surrounding open ball.
    """
    offsets = range(-radius_tenths, radius_tenths + 1)
    for j in problem.names:
        if not problem.weights[j]:
            continue
        for delta in product(offsets, repeat=problem.n):
            q = [p + d for p, d in zip(problem.price10, delta)]
            sums: dict[tuple[int, int], int] = {}
            for mask, w in zip(problem.masks(j, q), problem.weights[j]):
                goods = [g for g in range(problem.n + 1) if mask >> g & 1]
                for pair in combinations(goods, 2):
                    sums[pair] = sums.get(pair, 0) + w
            if any(v < 0 for v in sums.values()):
                return False
    return True


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
