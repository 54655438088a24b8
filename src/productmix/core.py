"""Bids, bundles, prices and the demand primitives built on them.

Everything here is exact: values are `fractions.Fraction` and no solver path
ever touches floating point.  Goods are numbered 1..n with an implicit
"reject" good 0 whose bid value and price are always zero; a bid accepted on
the reject good is simply not filled.  Bids carry unit weights +1 or -1
(weighted input bids are expanded at construction), and a bid list is an
ordered multiset of unit bids owned by one bidder.

Hot loops delegate to productmix.kernels.pure after rescaling values and
prices to a common integer grid, so the scans run on ints rather than
Fractions and stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from . import sfm
from .errors import InfeasibleBundle, MarginalPrice
from .kernels import pure

Rational = Union[int, str, Fraction]


class AllGoods:
    """Marker returned by surplus_gap when a bid demands every good."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ALL_GOODS"


ALL_GOODS = AllGoods()


def rat(x: Rational) -> Fraction:
    """Coerce ints, decimal strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass ints, strings or Fractions")
    return Fraction(x)


def as_price(price: Sequence[Rational], n: int | None = None) -> tuple[Fraction, ...]:
    """Normalise a price vector over the real goods (coordinate 0 implicit)."""
    p = tuple(rat(x) for x in price)
    if n is not None and len(p) != n:
        raise ValueError(f"expected a price vector of length {n}, got {len(p)}")
    return p


def _integer(v, what: str) -> int:
    """An exact integer from an int, a decimal string or a Fraction."""
    if isinstance(v, int):
        return v
    q = rat(v)
    if q.denominator != 1:
        raise ValueError(f"{what} must be integers, got {v!r}")
    return q.numerator


def as_bundle(bundle: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    x = tuple(_integer(v, "bundle entries") for v in bundle)
    if n is not None and len(x) != n:
        raise ValueError(f"expected a bundle of length {n}, got {len(x)}")
    return x


@dataclass(frozen=True)
class Bid:
    """A unit bid: one value per real good plus a weight of +1 or -1."""

    values: tuple[Fraction, ...]
    weight: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(rat(v) for v in self.values))
        if self.weight not in (-1, 1):
            raise ValueError("unit bids must have weight +1 or -1")

    @property
    def n(self) -> int:
        return len(self.values)

    def value(self, good: int) -> Fraction:
        """Bid value for a good, with the reject good pinned to 0."""
        return Fraction(0) if good == 0 else self.values[good - 1]

    def __repr__(self):
        vals = ",".join(str(v) for v in self.values)
        sign = "+1" if self.weight > 0 else "-1"
        return f"Bid({vals};{sign})"


class BidList:
    """An ordered multiset of unit bids belonging to one bidder."""

    __slots__ = ("owner", "bids", "n")

    def __init__(self, owner: str, bids: Iterable[Bid], n: int | None = None):
        self.owner = owner
        self.bids = tuple(bids)
        if self.bids:
            sizes = {b.n for b in self.bids}
            if len(sizes) > 1:
                raise ValueError("all bids in a list must cover the same goods")
            self.n = sizes.pop()
            if n is not None and n != self.n:
                raise ValueError("bid length disagrees with the declared good count")
        else:
            if n is None:
                raise ValueError("an empty bid list needs an explicit good count")
            self.n = n

    @classmethod
    def from_rows(cls, owner: str, rows: Iterable[Sequence], n: int | None = None) -> "BidList":
        """Build a list from (v_1, ..., v_n, weight) rows, expanding weights.

        A row with integer weight w becomes |w| unit bids of sign(w); zero
        weights are rejected, and so are weights that are not exact integers
        (floats raise TypeError, other non-integers ValueError).
        """
        bids = []
        for row in rows:
            *values, weight = row
            if len(values) == 1 and isinstance(values[0], (list, tuple)):
                values = list(values[0])
            weight = _integer(weight, "bid weights")
            if weight == 0:
                raise ValueError("bids must have non-zero weight")
            unit = 1 if weight > 0 else -1
            vals = tuple(rat(v) for v in values)
            bids.extend(Bid(vals, unit) for _ in range(abs(weight)))
        return cls(owner, bids, n=n)

    @classmethod
    def aggregate(cls, lists: Iterable["BidList"], owner: str = "aggregate") -> "BidList":
        lists = list(lists)
        if not lists:
            raise ValueError("cannot aggregate zero bid lists")
        n = lists[0].n
        bids = [b for lst in lists for b in lst.bids]
        return cls(owner, bids, n=n)

    def total_weight(self) -> int:
        return sum(b.weight for b in self.bids)

    def max_entry(self) -> Fraction:
        """Largest bid value; the price box for this list is [0, max_entry]^n."""
        return max((v for b in self.bids for v in b.values), default=Fraction(0))

    def __len__(self):
        return len(self.bids)

    def __iter__(self):
        return iter(self.bids)

    def __repr__(self):
        return f"BidList({self.owner!r}, {len(self.bids)} bids, n={self.n})"


def _bids_of(bids) -> tuple[tuple[Bid, ...], int | None]:
    """Normalise a BidList or iterable of bids to (bids, n); n may be None."""
    if isinstance(bids, BidList):
        return bids.bids, bids.n
    seq = tuple(bids)
    return seq, (seq[0].n if seq else None)


def _on_grid(v: Fraction, scale: int) -> int:
    """v * scale for a value v on the 1/scale grid."""
    if scale % v.denominator:
        raise ValueError(f"bid value {v} does not live on the 1/{scale} grid")
    return v.numerator * (scale // v.denominator)


class ScaledBids:
    """Bids and prices rescaled to a common integer grid for the kernels.

    This is the one table through which ``core``, ``pricing`` and
    ``allocation`` turn ``Fraction`` bids and prices into integers and count
    demand bounds.  The constructor and ``price_ints`` raise ValueError for
    a bid value or price off the table's grid; neither ever rounds.
    """

    __slots__ = ("scale", "vals", "weights")

    def __init__(self, bids: Sequence[Bid], scale: int):
        self.scale = scale
        self.vals = [[_on_grid(v, scale) for v in b.values] for b in bids]
        self.weights = [b.weight for b in bids]

    @classmethod
    def build(cls, bids: Sequence[Bid], extra_denominators: Iterable[int] = ()) -> "ScaledBids":
        scale = 1
        for b in bids:
            for v in b.values:
                scale = math.lcm(scale, v.denominator)
        for d in extra_denominators:
            scale = math.lcm(scale, d)
        return cls(bids, scale)

    def price_ints(self, price: Sequence[Rational]) -> list[int]:
        s = self.scale
        out = []
        for x in price:
            if isinstance(x, int):
                out.append(x * s)
                continue
            q = rat(x) * s
            if q.denominator != 1:
                raise ValueError(f"price entry {x} does not live on the 1/{s} grid")
            out.append(q.numerator)
        return out

    def utility(self, pints: list[int]) -> int:
        """Scaled indirect utility (divide by .scale for the true value)."""
        return pure.indirect_utility(self.vals, self.weights, pints)

    def masks(self, pints: list[int]) -> list[int]:
        return pure.demand_masks(self.vals, pints)

    def bundle(self, pints: list[int]):
        return pure.unique_bundle(self.vals, self.weights, pints)

    def min_step(self, pints: list[int], smask: int) -> int:
        return pure.min_step(self.vals, pints, smask)

    def bounds(self, pints: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Coordinate-wise (min, max) over the demanded bundles, reject first.

        The minimum for a good sums the weights of non-marginal bids
        demanding it; the maximum sums the weights of all bids demanding it.
        """
        lower = [0] * (len(pints) + 1)
        upper = [0] * (len(pints) + 1)
        for mask, w in zip(self.masks(pints), self.weights):
            single = (mask & (mask - 1)) == 0
            g = 0
            while mask:
                if mask & 1:
                    upper[g] += w
                    if single:
                        lower[g] += w
                mask >>= 1
                g += 1
        return tuple(lower), tuple(upper)


# ---------------------------------------------------------------------------
# Demand primitives
# ---------------------------------------------------------------------------

def demanded_goods(bid: Bid, price: Sequence[Rational]) -> frozenset[int]:
    """Goods (including reject good 0) maximising the bid's surplus."""
    p = as_price(price, bid.n)
    best = Fraction(0)
    for j in range(bid.n):
        s = bid.values[j] - p[j]
        if s > best:
            best = s
    goods = {0} if best == 0 else set()
    for j in range(bid.n):
        if bid.values[j] - p[j] == best:
            goods.add(j + 1)
    return frozenset(goods)


def is_marginal(bid: Bid, price: Sequence[Rational]) -> bool:
    """True when the bid demands more than one good at this price."""
    return len(demanded_goods(bid, price)) > 1


def surplus_gap(bid: Bid, price: Sequence[Rational]):
    """Best surplus minus best surplus over non-demanded goods.

    Returns ALL_GOODS when every good (including reject) is demanded, since
    no runner-up exists; otherwise the gap, which is strictly positive.
    """
    p = as_price(price, bid.n)
    surpluses = [Fraction(0)] + [bid.values[j] - p[j] for j in range(bid.n)]
    best = max(surpluses)
    rest = [s for s in surpluses if s != best]
    if not rest:
        return ALL_GOODS
    return best - max(rest)


def _table(bids, price: Sequence[Rational]) -> tuple[ScaledBids, list[int]]:
    """The bids' integer table on a grid that also holds the price."""
    seq, n = _bids_of(bids)
    p = as_price(price, n)
    arr = ScaledBids.build(seq, (x.denominator for x in p))
    return arr, arr.price_ints(p)


def indirect_utility(bids, price: Sequence[Rational]) -> Fraction:
    """Sum over bids of weight * best surplus (zero for rejected bids)."""
    arr, pints = _table(bids, price)
    return Fraction(arr.utility(pints), arr.scale)


def demanded_bundle(bids, price: Sequence[Rational]) -> tuple[int, ...]:
    """The unique demanded bundle at a non-marginal price.

    Returns an (n+1)-vector whose 0th coordinate counts rejected weight.
    Raises MarginalPrice when some bid is marginal, in which case no single
    bundle is canonical and callers must perturb the price instead.
    """
    arr, pints = _table(bids, price)
    bundle = arr.bundle(pints)
    if bundle is None:
        p = tuple(str(Fraction(x, arr.scale)) for x in pints)
        raise MarginalPrice(f"some bid is marginal at {p}")
    return tuple(bundle)


def demand_interval(bids, price: Sequence[Rational]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coordinate-wise min and max over all demanded bundles at this price.

    Both vectors have length n+1 with the reject count in coordinate 0.
    The minimum for a good counts only non-marginal bids demanding it; the
    maximum counts every bid that demands it.
    """
    arr, pints = _table(bids, price)
    return arr.bounds(pints)


def project_bid(bid: Bid, price: Sequence[Rational]) -> Bid:
    """Move a bid one unit so its surplus gap at this price grows by one.

    With demanded goods I: subtract the indicator of the non-demanded goods
    when the reject good is demanded, otherwise add the indicator of I.  A
    bid demanding all goods is returned unchanged.  Projected values may go
    negative; the weight never changes.
    """
    goods = demanded_goods(bid, price)
    if 0 in goods:
        new_vals = tuple(
            v - (0 if (j + 1) in goods else 1) for j, v in enumerate(bid.values)
        )
    else:
        new_vals = tuple(
            v + (1 if (j + 1) in goods else 0) for j, v in enumerate(bid.values)
        )
    return Bid(new_vals, bid.weight)


def shift_bids(blist: BidList, good: int, delta: Rational) -> BidList:
    """Add delta to every bid's value for one good (|delta| < 1/4)."""
    d = rat(delta)
    if not abs(d) < Fraction(1, 4):
        raise ValueError("shift magnitude must stay below 1/4")
    if not 1 <= good <= blist.n:
        raise ValueError(f"good {good} out of range")
    bids = [
        Bid(
            tuple(v + d if j + 1 == good else v for j, v in enumerate(b.values)),
            b.weight,
        )
        for b in blist.bids
    ]
    return BidList(blist.owner, bids, n=blist.n)


# ---------------------------------------------------------------------------
# Valuation (via price finding) and demand membership (via local optimality)
# ---------------------------------------------------------------------------

def valuation(blist: BidList, bundle: Sequence[int]) -> Fraction:
    """Value a globally valid list assigns to a bundle.

    Finds a price at which the bundle is demanded (reserve bids are added
    internally, so undersupply resolves to rejects) and solves the indirect
    utility relation for the bundle's value.
    """
    from . import pricing
    from .errors import InfeasibleTarget

    x = as_bundle(bundle, blist.n)
    if any(v < 0 for v in x):
        raise InfeasibleBundle("bundles must be non-negative")
    pp = pricing.PriceProblem([blist], x)
    try:
        price, _ = pricing.long_step_min_up(pp)
    except InfeasibleTarget as exc:
        raise InfeasibleBundle(str(exc)) from exc
    f = indirect_utility(blist, price)
    return f + sum(Fraction(price[j]) * x[j] for j in range(blist.n))


def is_demanded(blist: BidList, bundle: Sequence[int], price: Sequence[Rational]) -> bool:
    """Exact membership test: is the bundle demanded at this price?

    A bundle x is demanded at p exactly when p minimises g_x(q) = f(q) + x.q,
    f being the list's indirect utility.  On the grid that holds the bids and
    the price, g_x of a valid list is L-natural convex, so p minimises it
    exactly when no step q = p +- e^S lowers it (Murota, Discrete Convex
    Analysis, 2003, section 7).  Both step families are checked by one exact
    submodular minimisation each, after a demand-interval prune that rules out
    bundles outside the coordinate bounds of the demanded bundles (including
    more than the list can supply at zero-priced coordinates).

    The list is assumed valid, as ``valuation`` assumes; for an invalid list
    the answer carries no meaning.
    """
    x = as_bundle(bundle, blist.n)
    arr, pints = _table(blist, price)
    if any(v < 0 for v in x):
        return False
    rejects = blist.total_weight() - sum(x)
    ext = (rejects,) + x
    mins, maxs = arr.bounds(pints)
    if any(not (mins[g] <= ext[g] <= maxs[g]) for g in range(blist.n + 1)):
        return False
    base = arr.utility(pints)
    for sign in (1, -1):

        def step(s, sign=sign):
            """scale * (g_x(p + sign * e^S) - g_x(p)), steps of one grid unit."""
            if not s:
                return 0
            q = list(pints)
            for i in s:
                q[i - 1] += sign
            return arr.utility(q) - base + sign * sum(x[i - 1] for i in s)

        _, low = sfm.minimise(sfm.SetFunction(blist.n, step))
        if low < 0:
            return False
    return True


def total_weight(bids) -> int:
    seq, _ = _bids_of(bids)
    return sum(b.weight for b in seq)
