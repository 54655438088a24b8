"""Component-wise minimal market-clearing prices by steepest descent.

The search minimises the Lyapunov function g(p) = f(p) + t.p over integral
prices, where f is the aggregate indirect utility including the auctioneer's
reserve bids (one more zero-vector bid than there are items in the target, so
the target is always demanded somewhere and unsold items resolve to rejects).
Starting from the origin, each iteration finds the inclusion-wise minimal set
S minimising the slope g(p + e^S) - g(p) via submodular minimisation and
steps in that direction; it stops when no slope is negative, which is exactly
the component-wise minimal clearing price.

Two long-step rules accelerate the plain unit-step loop without changing the
visited trajectory: a binary search on the step predicate, and a demand-change
sweep that advances to the next price at which some bid's demanded set stops
being a subset of the step direction.  Before any submodular call the
dimension is cut down by coordinate bounds on demanded bundles (goods every
demanded bundle over-supplies must join the direction, goods none over-supply
never do).  These bounds shrink the ground set of the submodular
minimisation; they skip it only when every good is forced or settled, which
is rare on generated auctions.

Every slope is read from a core.DemandHistogram: one demand-mask scan at a
price gives the bounds and g(p + e^S) - g(p) for every S, so a direction
search costs one scan and each probe of a step rule one more.  The problem
keeps its latest histogram, so a step rule's base slope, and a direction
search at a price a probe just visited, cost no scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import sfm
from .core import Bid, BidList, DemandHistogram, ScaledBids, as_bundle, as_price, goods_mask
from .errors import InfeasibleTarget, StepUnbounded


@dataclass(frozen=True)
class DescentStep:
    """One move of the descent: the price it left, the direction, the length."""

    price: tuple[int, ...]
    direction: frozenset[int]
    length: int


@dataclass
class DescentTrace:
    steps: list[DescentStep]
    final: tuple[int, ...]

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def prices(self) -> list[tuple[int, ...]]:
        return [s.price for s in self.steps] + [self.final]


@dataclass(frozen=True)
class DemandBounds:
    """Coordinate bounds over demanded bundles and the forced/forbidden sets."""

    lower: tuple[int, ...]  # length n+1, reject count first
    upper: tuple[int, ...]
    forced: frozenset[int]  # goods every demanded bundle over-supplies
    settled: frozenset[int]  # goods no demanded bundle over-supplies


class PriceProblem:
    """Aggregate bid list plus target bundle, with reserve bids appended."""

    def __init__(self, bid_lists: Sequence[BidList] | BidList, target: Sequence[int]):
        if isinstance(bid_lists, BidList):
            bid_lists = [bid_lists]
        self.target = as_bundle(target)
        if any(t < 0 for t in self.target):
            raise ValueError("target bundles must be non-negative")
        self.n = len(self.target)
        for lst in bid_lists:
            if lst.n != self.n:
                raise ValueError("bid list and target dimensions disagree")
        self.reserve_count = sum(self.target) + 1
        reserve = ScaledBids(
            ((0,) * self.n,) * self.reserve_count, (1,) * self.reserve_count, 1
        )
        self.arr = ScaledBids.concat([*(lst.table for lst in bid_lists), reserve])
        if self.arr.scale != 1:
            # Integrality of the minimal clearing price (and the step rules)
            # rests on integer bid values; fractional lists are rejected.
            raise ValueError("price finding requires integer bid values")
        self.price_cap = max((v for row in self.arr.vals for v in row), default=0)
        self._last: tuple[tuple[int, ...], DemandHistogram] | None = None

    @property
    def bids(self) -> tuple[Bid, ...]:
        """The aggregate unit bids, reserve bids last, as Fraction Bids."""
        return self.arr.to_bids()

    # -- exact evaluation helpers (scaled integers) -------------------------

    def _pints(self, price) -> list[int]:
        return self.arr.price_ints(price)

    def _histogram(self, pints) -> DemandHistogram:
        """The histogram at these price ints, rescanned only for a new price.

        The latest one is kept: a step rule's base slope reads the
        histogram the direction search just made, and the next direction
        search may read the step rule's last probe.
        """
        key = tuple(pints)
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        hist = self.arr.histogram(pints)
        self._last = (key, hist)
        return hist

    def _slope(self, hist: DemandHistogram, direction) -> int:
        """g(p + e^S) - g(p) at the integral price hist was taken at.

        The table's grid is the integers (see __init__), so e^S is one grid
        unit and the histogram's one-unit identity gives the slope exactly.
        """
        return hist.step(+1, direction, self.target)


def lyapunov(pp: PriceProblem, price) -> Fraction:
    """g(p) = aggregate indirect utility at p plus the cost of the target."""
    p = as_price(price, pp.n)
    arr, pints = pp.arr.priced(p)
    utility = Fraction(arr.utility(pints), arr.scale)
    return utility + sum(t * x for t, x in zip(pp.target, p))


def slope(pp: PriceProblem, price, direction) -> Fraction:
    """g'(p; S) = g(p + e^S) - g(p); submodular in S for integral p."""
    direction = frozenset(direction)
    if not direction <= set(range(1, pp.n + 1)):
        raise ValueError("direction must be a set of real goods")
    p = as_price(price, pp.n)
    shifted = tuple(x + 1 if (j + 1) in direction else x for j, x in enumerate(p))
    return lyapunov(pp, shifted) - lyapunov(pp, p)


def demand_bounds(pp: PriceProblem, price) -> DemandBounds:
    """Exact coordinate bounds over the demanded bundles at an integral price.

    The lower bound for a good sums the weights of non-marginal bids that
    demand it; the upper bound sums the weights of all bids demanding it.
    ``forced`` collects goods whose lower bound exceeds the target, and
    ``settled`` those whose upper bound does not.
    """
    return _bounds(pp, pp._histogram(pp._pints(price)))


def _bounds(pp: PriceProblem, hist: DemandHistogram) -> DemandBounds:
    lower, upper = hist.bounds()
    n = pp.n
    forced = frozenset(i for i in range(1, n + 1) if lower[i] > pp.target[i - 1])
    settled = frozenset(i for i in range(1, n + 1) if upper[i] <= pp.target[i - 1])
    return DemandBounds(lower, upper, forced, settled)


def steepest_direction(pp: PriceProblem, price) -> frozenset[int]:
    """Minimal set with the most negative slope, or the empty set at optimum.

    One demand-mask scan at the price answers the bounds and every slope.
    """
    hist = pp._histogram(pp._pints(price))
    bounds = _bounds(pp, hist)
    forced, settled = bounds.forced, bounds.settled
    free = [i for i in range(1, pp.n + 1) if i not in forced and i not in settled]
    if not free:
        candidate = forced
    else:
        bottom = sfm.minimal_minimiser(hist.oracle(+1, pp.target, free, forced))
        candidate = forced | {free[k - 1] for k in bottom}
    if not candidate or pp._slope(hist, candidate) >= 0:
        return frozenset()
    return frozenset(candidate)


def _descend(pp: PriceProblem, step_length) -> tuple[tuple[int, ...], DescentTrace]:
    """Steepest descent from the origin, moving step_length(pp, p, S) along S."""
    price = [0] * pp.n
    steps: list[DescentStep] = []
    while True:
        direction = steepest_direction(pp, price)
        if not direction:
            break
        lam = step_length(pp, price, direction)
        steps.append(DescentStep(tuple(price), direction, lam))
        for i in direction:
            price[i - 1] += lam
        if max(price) > pp.price_cap:
            raise InfeasibleTarget("price search left the feasibility box")
    final = tuple(price)
    return final, DescentTrace(steps, final)


def _unit_step(pp: PriceProblem, price, direction) -> int:
    return 1


def min_up(pp: PriceProblem) -> tuple[tuple[int, ...], DescentTrace]:
    """Unit-step steepest descent from the origin to the minimal clearing price."""
    return _descend(pp, _unit_step)


def step_length_binary(pp: PriceProblem, price, direction) -> int:
    """Largest step keeping the slope constant, found by binary search.

    Monotonicity of the slope along the direction makes the predicate
    "slope unchanged after lam-1 further unit steps" a prefix property.
    """
    direction = frozenset(direction)
    if not direction:
        raise ValueError("empty direction")
    pints = pp._pints(price)
    base = pp._slope(pp._histogram(pints), direction)

    def pred(lam: int) -> bool:
        probe = list(pints)
        for i in direction:
            probe[i - 1] += (lam - 1) * pp.arr.scale
        return pp._slope(pp._histogram(probe), direction) == base

    hi_cap = pp.price_cap + 1 - min(price[i - 1] for i in direction)
    if hi_cap < 1:
        hi_cap = 1
    if pred(hi_cap):
        raise StepUnbounded("slope never changes inside the price box")
    lo, hi = 1, hi_cap  # pred(lo) holds by definition, pred(hi) fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def step_length_demand_change(pp: PriceProblem, price, direction) -> int:
    """Step length via successive demand changes (integral bids only).

    Repeatedly advances to the nearest price at which some bid demanding a
    subset of the direction becomes marginal with an outside good, until the
    slope actually changes.  Agrees exactly with step_length_binary.
    """
    direction = frozenset(direction)
    if not direction:
        raise ValueError("empty direction")
    pints = pp._pints(price)
    base = pp._slope(pp._histogram(pints), direction)
    smask = goods_mask(direction)
    lam = 0
    cap = pp.price_cap + 2
    probe = list(pints)
    while True:
        mu = pp.arr.min_step(probe, smask)
        if mu < 0:
            raise StepUnbounded("no bid demands a subset of the direction")
        lam += mu
        if lam > cap:
            raise StepUnbounded("slope never changes inside the price box")
        probe = list(pints)
        for i in direction:
            probe[i - 1] += lam
        if pp._slope(pp._histogram(probe), direction) != base:
            return lam


def long_step_min_up(pp: PriceProblem, method: str = "binary") -> tuple[tuple[int, ...], DescentTrace]:
    """Steepest descent with aggregated steps; same trajectory as min_up.

    ``method`` selects the step rule: "binary" or "demand_change".
    """
    # looked up at call time, so that wrapping a rule reaches every call
    if method == "binary":
        step_length = step_length_binary
    elif method == "demand_change":
        step_length = step_length_demand_change
    else:
        raise ValueError(f"unknown step length method {method!r}")
    return _descend(pp, step_length)
