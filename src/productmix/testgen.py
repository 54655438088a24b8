"""Random valid-instance generation and the scaling benchmark harness.

Instances are generated around the centre price (M/2, ..., M/2): each round
adds either one positive bid marginal on a random set of goods, or a negative
bid marginal on such a set together with three positive bids that cover it
(two one-good discounts and one uniform raise), keeping the list valid by
construction.  The demanded bundle is accumulated alongside: positive rounds
pick any marginal good, negative rounds resolve the four fresh bids at a
permutation-perturbed price where demand is unique.  A finished list is
accepted only when the centre price is exactly the component-wise minimal
market-clearing price of the accumulated bundle, and rejected lists are
regenerated from scratch.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

from . import allocation, pricing
from .core import Bid, BidList, demanded_bundle
from .errors import RetryLimit


@dataclass
class GenConfig:
    """Generator knobs: goods, marginal-bid rounds, price scale, seed."""

    n: int
    q: int
    M: int = 100
    seed: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one good")
        if self.q < 1:
            raise ValueError("q must be at least 1")
        if self.M < 4 or self.M % 2:
            raise ValueError("M must be an even number >= 4")


def _random_subset(rng: Random, n: int) -> frozenset[int]:
    """Uniform subset of {0..n} with at least two elements."""
    if n <= 10:
        while True:
            mask = rng.randrange(1 << (n + 1))
            if bin(mask).count("1") >= 2:
                return frozenset(g for g in range(n + 1) if (mask >> g) & 1)
    size = rng.randint(2, n + 1)
    return frozenset(rng.sample(range(n + 1), size))


def _marginal_bid(rng: Random, n: int, M: int, subset, c: int, weight: int) -> Bid:
    """A bid marginal exactly on ``subset`` at the centre price.

    Goods in the subset get value M/2 + c (c = 0 when the reject good is in
    the subset, so their surplus ties with rejecting); goods outside get a
    strictly smaller surplus.
    """
    half = M // 2
    values = []
    for g in range(1, n + 1):
        if g in subset:
            values.append(half + c)
        else:
            values.append(rng.randint(0, half + c - 1))
    return Bid(tuple(Fraction(v) for v in values), weight)


def _perturbed_centre(rng: Random, n: int, M: int) -> tuple[Fraction, ...]:
    """Centre price with distinct sub-0.1 offsets so demand is unique."""
    eps = Fraction(1, 20)
    perm = rng.sample(range(1, n + 1), n)
    price = [Fraction(M, 2)] * n
    for k, good in enumerate(perm, start=1):
        price[good - 1] += eps / (2 * k)
    return tuple(price)


def generate_list(
    cfg: GenConfig, rng: Random, max_attempts: int = 200, owner: str = "bidder"
) -> tuple[BidList, tuple[int, ...]]:
    """One valid bid list plus a bundle whose minimal clearing price is M/2.

    Raises RetryLimit when no attempt within the budget passes the
    minimal-price acceptance test.  Acceptance is rejection-sampled, and very
    small q combined with many goods makes it rare (a single round pins the
    centre price only in special configurations); raise max_attempts there.
    """
    n, M, half = cfg.n, cfg.M, cfg.M // 2
    centre = tuple(half for _ in range(n))
    for _ in range(max_attempts):
        bids: list[Bid] = []
        bundle = [0] * n
        failed = False
        for _ in range(cfg.q):
            subset = _random_subset(rng, n)
            if rng.random() < 0.5:
                c = 0 if 0 in subset else rng.randint(1, half)
                bid = _marginal_bid(rng, n, M, subset, c, +1)
                bids.append(bid)
                pick = rng.choice(sorted(subset))
                if pick != 0:
                    bundle[pick - 1] += 1
            else:
                group = _negative_group(rng, n, M, subset)
                if group is None:
                    failed = True
                    break
                bids.extend(group)
                demanded = demanded_bundle(
                    BidList("group", group, n=n), _perturbed_centre(rng, n, M)
                )
                if any(v < 0 for v in demanded[1:]):
                    raise AssertionError("group bundle went negative")
                for g in range(n):
                    bundle[g] += demanded[g + 1]
        if failed:
            continue
        blist = BidList(owner, bids, n=n)
        problem = pricing.PriceProblem([blist], bundle)
        price, _ = pricing.long_step_min_up(problem)
        if price == centre:
            return blist, tuple(bundle)
    raise RetryLimit(f"no acceptable instance in {max_attempts} attempts")


def _negative_group(rng: Random, n: int, M: int, subset) -> Optional[list[Bid]]:
    """A negative marginal bid plus the three positive bids covering it."""
    half = M // 2
    for _ in range(20):
        c = 0 if 0 in subset else rng.randint(1, half - 1)
        neg = _marginal_bid(rng, n, M, subset, c, -1)
        rich = [g for g in range(1, n + 1) if neg.value(g) >= 2]
        if len(rich) < 2:
            continue
        i, j = rng.sample(rich, 2)
        li = rng.randint(1, int(neg.value(i)) - 1)
        lj = rng.randint(1, int(neg.value(j)) - 1)
        top = M - int(max(neg.values))
        if top < 1:
            continue
        lift = rng.randint(1, top)
        down_i = Bid(
            tuple(v - li if g == i else v for g, v in enumerate(neg.values, start=1)),
            +1,
        )
        down_j = Bid(
            tuple(v - lj if g == j else v for g, v in enumerate(neg.values, start=1)),
            +1,
        )
        up = Bid(tuple(v + lift for v in neg.values), +1)
        return [neg, down_i, down_j, up]
    return None


def generate_instance(
    cfg: GenConfig, bidders: int, rng: Random, max_attempts: int = 200
) -> tuple[list[BidList], tuple[int, ...]]:
    """Independent lists for several bidders plus the aggregate target.

    The centre price clears the summed target (it may or may not be minimal
    for the aggregate; the allocator accepts any integral clearing price).
    """
    lists = []
    target = [0] * cfg.n
    for b in range(bidders):
        blist, bundle = generate_list(
            cfg, rng, max_attempts=max_attempts, owner=f"bidder{b + 1}"
        )
        lists.append(blist)
        for g in range(cfg.n):
            target[g] += bundle[g]
    return lists, tuple(target)


@dataclass(frozen=True)
class BenchRow:
    axis: str
    value: int
    mean_seconds: float
    stddev_seconds: float
    samples: int


def bench_suite(
    axis: str,
    grid: Sequence[int],
    repetitions: int,
    *,
    n: int = 2,
    m: int = 5,
    q: int = 50,
    M: int = 100,
    seed: int = 0,
) -> list[BenchRow]:
    """Mean allocate() wall time per grid point over fresh instances.

    ``axis`` chooses which parameter the grid varies: the per-bidder round
    count (bids), the number of goods, or the number of bidders; the other
    two stay at their keyword values.
    """
    if axis not in ("bids", "goods", "bidders"):
        raise ValueError(f"unknown benchmark axis {axis!r}")
    rows = []
    for value in grid:
        cur_n, cur_m, cur_q = n, m, q
        if axis == "bids":
            cur_q = value
        elif axis == "goods":
            cur_n = value
        else:
            cur_m = value
        times = []
        for rep in range(repetitions):
            rng = Random(f"{seed}:{axis}:{value}:{rep}")
            cfg = GenConfig(n=cur_n, q=cur_q, M=M)
            lists, target = generate_instance(cfg, cur_m, rng)
            centre = [M // 2] * cur_n
            start = time.perf_counter()
            allocation.allocate(lists, target, centre, verify=False)
            times.append(time.perf_counter() - start)
        mean = statistics.fmean(times)
        stddev = statistics.stdev(times) if len(times) > 1 else 0.0
        rows.append(BenchRow(axis, value, mean, stddev, len(times)))
    return rows
