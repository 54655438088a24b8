"""Bids, bundles, prices and the demand primitives built on them.

Everything here is exact and no solver path ever touches floating point.
Goods are numbered 1..n with an implicit "reject" good 0 whose bid value and
price are always zero; a bid accepted on the reject good is simply not
filled.  Bids carry unit weights +1 or -1 (weighted input rows are expanded
at construction), and a bid list is an ordered multiset of unit bids owned
by one bidder.

A BidList holds its bids as one ScaledBids table: integer values on the
coarsest grid 1/scale that holds them all.  Every layer (price finding,
allocation, validity and the demand primitives below) reads that table; a
primitive rescales it only when the price needs a finer grid, and the hot
scans in productmix.kernels.pure run on its ints.  The Fraction view
(BidList.bids, one Bid per unit bid) is built on first use and kept for the
API and for the tests' Fraction references.
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


def rat(x: Rational) -> Fraction:
    """Coerce ints, decimal strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here; pass ints, strings or Fractions")
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


def _exact(v) -> Union[int, Fraction]:
    """An exact number as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    q = rat(v)
    return q.numerator if q.denominator == 1 else q


def _integer(v, what: str) -> int:
    """An exact integer from an int, a decimal string or a Fraction."""
    q = _exact(v)
    if type(q) is not int:
        raise ValueError(f"{what} must be integers, got {v!r}")
    return q


def _on_grid(v: Union[int, Fraction], scale: int) -> int:
    """v * scale for a value v whose denominator divides scale."""
    if type(v) is int:
        return v * scale
    return v.numerator * (scale // v.denominator)


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
    """An ordered multiset of unit bids belonging to one bidder.

    ``table`` is the list's ScaledBids table, made once at construction;
    ``bids`` is the same list as Fraction Bids, built on first use.
    """

    __slots__ = ("owner", "n", "table", "_bids")

    def __init__(self, owner: str, bids: Iterable[Bid], n: int | None = None):
        bids = tuple(bids)
        self._set(owner, ScaledBids.build((b.values, b.weight) for b in bids), n)
        self._bids = bids

    def _set(self, owner: str, table: ScaledBids, n: int | None) -> None:
        if table.vals:
            width = len(table.vals[0])
            if n is not None and n != width:
                raise ValueError("bid length disagrees with the declared good count")
            n = width
        elif n is None:
            raise ValueError("an empty bid list needs an explicit good count")
        self.owner = owner
        self.n = n
        self.table = table
        self._bids = None

    @classmethod
    def _of(cls, owner: str, table: ScaledBids, n: int | None) -> "BidList":
        out = cls.__new__(cls)
        out._set(owner, table, n)
        return out

    @classmethod
    def from_rows(cls, owner: str, rows: Iterable[Sequence], n: int | None = None) -> "BidList":
        """Build a list from (v_1, ..., v_n, weight) rows, expanding weights.

        The rows go straight into the table (see ``ScaledBids.build`` for
        what is accepted); no Bid is made until ``bids`` is read.
        """
        return cls._of(owner, ScaledBids.build(rows), n)

    @classmethod
    def aggregate(cls, lists: Iterable["BidList"], owner: str = "aggregate") -> "BidList":
        lists = list(lists)
        if not lists:
            raise ValueError("cannot aggregate zero bid lists")
        n = lists[0].n
        if any(lst.n != n for lst in lists):
            raise ValueError("bid length disagrees with the declared good count")
        return cls._of(owner, ScaledBids.concat(lst.table for lst in lists), n)

    @property
    def bids(self) -> tuple[Bid, ...]:
        """The unit bids as exact Fraction Bids (built on first use)."""
        if self._bids is None:
            self._bids = self.table.to_bids()
        return self._bids

    def total_weight(self) -> int:
        return sum(self.table.weights)

    def max_entry(self) -> Fraction:
        """Largest bid value; the price box for this list is [0, max_entry]^n."""
        top = max((v for row in self.table.vals for v in row), default=0)
        return Fraction(top, self.table.scale)

    def __len__(self):
        return len(self.table.weights)

    def __iter__(self):
        return iter(self.bids)

    def __repr__(self):
        return f"BidList({self.owner!r}, {len(self)} bids, n={self.n})"


class ScaledBids:
    """Unit bids as integers on a common grid: the one bid table.

    ``vals`` holds one tuple of scaled values per unit bid and ``weights``
    its +1 or -1; value v of a bid is ``Fraction(row[g], scale)``.  A table
    made by ``build`` (and so every BidList's table) sits on the coarsest
    grid holding its values, and tables are never altered: ``rescale`` and
    ``concat`` return new ones.  ``rescale`` and ``price_ints`` raise
    ValueError for a value or price off the requested grid; neither ever
    rounds.
    """

    __slots__ = ("scale", "vals", "weights")

    def __init__(self, vals: Sequence[tuple[int, ...]], weights: Sequence[int], scale: int):
        self.scale = scale
        self.vals = vals
        self.weights = weights

    @classmethod
    def build(cls, rows: Iterable[Sequence]) -> "ScaledBids":
        """The table of (v_1, ..., v_n, weight) rows, expanding weights.

        A row with integer weight w becomes |w| unit bids of sign(w); zero
        weights are rejected, and so are weights that are not exact integers
        (floats and booleans raise TypeError, other non-integers ValueError).
        Values are ints, decimal strings or Fractions; rows must all have the
        same length.  A row may also be given as ((v_1, ..., v_n), weight).
        """
        vals_out: list[tuple] = []
        weights_out: list[int] = []
        scale = 1
        width = None
        for row in rows:
            *values, weight = row
            if len(values) == 1 and isinstance(values[0], (list, tuple)):
                values = values[0]
            if type(weight) is not int:
                weight = _integer(weight, "bid weights")
            if weight == 0:
                raise ValueError("bids must have non-zero weight")
            vals = tuple(values)
            if len(vals) != width:
                if width is not None:
                    raise ValueError("all bids in a list must cover the same goods")
                width = len(vals)
            if set(map(type, vals)) - {int}:
                vals = tuple(map(_exact, vals))
                for v in vals:
                    if type(v) is not int:
                        scale = math.lcm(scale, v.denominator)
            if weight == 1:
                vals_out.append(vals)
                weights_out.append(1)
            else:
                vals_out.extend([vals] * abs(weight))
                weights_out.extend([1 if weight > 0 else -1] * abs(weight))
        if scale != 1:
            vals_out = [tuple(_on_grid(v, scale) for v in row) for row in vals_out]
        return cls(tuple(vals_out), tuple(weights_out), scale)

    @classmethod
    def concat(cls, tables: Iterable["ScaledBids"]) -> "ScaledBids":
        """The tables' rows in order, on the coarsest grid holding them all."""
        tables = list(tables)
        scale = math.lcm(*(t.scale for t in tables))
        vals: tuple = ()
        weights: tuple = ()
        for t in tables:
            t = t.rescale(scale)
            vals += t.vals
            weights += t.weights
        return cls(vals, weights, scale)

    def rescale(self, scale: int) -> "ScaledBids":
        """This table on the 1/scale grid.

        Raises ValueError unless the grid holds every value, that is unless
        ``scale`` is a multiple of this table's (coarsest) scale.
        """
        if scale == self.scale:
            return self
        if scale % self.scale:
            raise ValueError(f"bid values do not lie on the 1/{scale} grid")
        k = scale // self.scale
        vals = tuple(tuple(v * k for v in row) for row in self.vals)
        return ScaledBids(vals, self.weights, scale)

    def priced(self, price: Sequence[Fraction]) -> tuple["ScaledBids", list[int]]:
        """This table on the coarsest grid that also holds the price, and
        the price on that grid."""
        table = self.rescale(math.lcm(self.scale, *(x.denominator for x in price)))
        return table, table.price_ints(price)

    def to_bids(self) -> tuple[Bid, ...]:
        """The unit bids with exact Fraction values."""
        s = self.scale
        return tuple(
            Bid(tuple(Fraction(v, s) for v in row), w)
            for row, w in zip(self.vals, self.weights)
        )

    def price_ints(self, price: Sequence[Rational]) -> list[int]:
        s = self.scale
        out = []
        for x in price:
            if type(x) is int:
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


def _table(blist: BidList, price: Sequence[Rational]) -> tuple[ScaledBids, list[int]]:
    """The list's table on a grid that also holds the price, and the price."""
    return blist.table.priced(as_price(price, blist.n))


def indirect_utility(blist: BidList, price: Sequence[Rational]) -> Fraction:
    """Sum over bids of weight * best surplus (zero for rejected bids)."""
    arr, pints = _table(blist, price)
    return Fraction(arr.utility(pints), arr.scale)


def demanded_bundle(blist: BidList, price: Sequence[Rational]) -> tuple[int, ...]:
    """The unique demanded bundle at a non-marginal price.

    Returns an (n+1)-vector whose 0th coordinate counts rejected weight.
    Raises MarginalPrice when some bid is marginal, in which case no single
    bundle is canonical and callers must perturb the price instead.
    """
    arr, pints = _table(blist, price)
    bundle = arr.bundle(pints)
    if bundle is None:
        p = tuple(str(Fraction(x, arr.scale)) for x in pints)
        raise MarginalPrice(f"some bid is marginal at {p}")
    return tuple(bundle)


def demand_interval(
    blist: BidList, price: Sequence[Rational]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coordinate-wise min and max over all demanded bundles at this price.

    Both vectors have length n+1 with the reject count in coordinate 0.
    The minimum for a good counts only non-marginal bids demanding it; the
    maximum counts every bid that demands it.
    """
    arr, pints = _table(blist, price)
    return arr.bounds(pints)


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

