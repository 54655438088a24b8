from fractions import Fraction
from random import Random

import pytest

from productmix.core import Bid, demanded_goods
from productmix.kernels import pure


def random_case(rng: Random, big=False):
    n = rng.randint(1, 6)
    k = rng.randint(0, 25)
    hi = 10**12 if big else 500
    vals = [[rng.randint(-hi, hi) for _ in range(n)] for _ in range(k)]
    weights = [rng.choice([-1, 1]) for _ in range(k)]
    price = [rng.randint(-hi, hi) for _ in range(n)]
    return n, vals, weights, price


def tie_price(rng: Random, row, big=False):
    """A price at which the bid with these values ties on a random set of goods."""
    hi = 10**12 if big else 500
    c = rng.choice([0, rng.randint(1, hi)])
    return [v - c + (0 if rng.random() < 0.5 else rng.randint(1, hi)) for v in row]


def goods_mask(goods) -> int:
    mask = 0
    for g in goods:
        mask |= 1 << g
    return mask


def surpluses(row, price) -> list[Fraction]:
    """Surplus on every good, the reject good 0 first."""
    return [Fraction(0)] + [Fraction(v) - p for v, p in zip(row, price)]


def oracle_min_step(vals, price, smask):
    inside = {g for g in range(1, len(price) + 1) if (smask >> g) & 1}
    gaps = []
    for row in vals:
        demanded = demanded_goods(Bid(tuple(row), 1), price)
        if 0 in demanded or not demanded <= inside:
            continue
        s = surpluses(row, price)
        gaps.append(max(s) - max(s[g] for g in range(len(s)) if g not in inside))
    return min(gaps) if gaps else -1


def oracle_gap_table(vals, weights, price, smask):
    inside = {g for g in range(1, len(price) + 1) if (smask >> g) & 1}
    table = {}
    for row, w in zip(vals, weights):
        demanded = demanded_goods(Bid(tuple(row), 1), price)
        if 0 in demanded or not demanded <= inside:
            continue
        s = surpluses(row, price)
        gap = max(s) - max(s[g] for g in range(len(s)) if g not in inside)
        table[gap] = table.get(gap, 0) + w
    return table


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_kernels_match_fraction_definitions(seed, big):
    rng = Random(seed)
    for _ in range(40):
        n, vals, weights, price = random_case(rng, big)
        if vals and rng.random() < 0.5:
            price = tie_price(rng, rng.choice(vals), big)
        demanded = [demanded_goods(Bid(tuple(row), w), price) for row, w in zip(vals, weights)]

        assert pure.demand_masks(vals, price) == [goods_mask(d) for d in demanded]

        utility = sum(w * max(surpluses(row, price)) for row, w in zip(vals, weights))
        assert pure.indirect_utility(vals, weights, price) == utility

        if any(len(d) > 1 for d in demanded):
            expected = None
        else:
            expected = [0] * (n + 1)
            for d, w in zip(demanded, weights):
                expected[min(d)] += w
        assert pure.unique_bundle(vals, weights, price) == expected

        weights2 = [w * rng.choice([1, 2]) for w in weights]
        for smask in range(2, 1 << (n + 1), 2):
            assert pure.min_step(vals, price, smask) == oracle_min_step(vals, price, smask)
            table = pure.gap_table(vals, weights2, price, smask)
            assert table == oracle_gap_table(vals, weights2, price, smask)
            assert all(type(gap) is int and gap > 0 for gap in table)


def test_min_step_semantics():
    #two bids demand good 1 strictly; one can also reject
    vals = [[5, 2], [3, 0], [0, 0]]
    price = [0, 0]
    assert pure.min_step(vals, price, 0b010) == 3  # min(5-2, 3-0)
    assert pure.min_step(vals, price, 0b100) == -1  # nobody demands only good 2


def test_gap_table_semantics():
    vals = [[5, 2], [3, 0], [0, 0], [4, 1], [1, 4]]
    weights = [1, 1, 1, -1, 1]
    # on {1}: gaps 5-2, 3-0 and 4-1 (the third bid rejects, the fifth prefers 2)
    assert pure.gap_table(vals, weights, [0, 0], 0b010) == {3: 1}
    # on {1, 2} every gap is to the reject good; the two gaps of 4 cancel
    assert pure.gap_table(vals, weights, [0, 0], 0b110) == {5: 1, 3: 1, 4: 0}
    assert pure.gap_table(vals, weights, [0, 0], 0) == {}


def test_pure_handles_big_ints():
    vals = [[10**30, 0]]
    assert pure.indirect_utility(vals, [1], [0, 0]) == 10**30
