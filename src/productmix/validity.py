"""Bid-list validity: does a list of signed bids encode a real demand?

A list is valid when no price vector and pair of goods (reject included)
exists at which the weights of the bids marginal on both goods sum to a
negative number.  Deciding this in general is hard, but it reduces to
finitely many region checks anchored at small subsets of the negative bids:
for every subset agreeing on a coordinate, the axis region anchored at the
component-wise maximum must hold at least as many positive as negative bids,
and likewise for the diagonal regions anchored at the shifted maximum.  The
enumeration is exponential only in min(number of goods, number of negative
bids); past a configurable budget the checker reports "undecided" rather
than guessing.

Bid values must be non-negative (check_validity raises ValueError
otherwise): the region reduction assumes valuations in the non-negative
orthant.  The check runs on integers.  One core.ScaledBids table puts every
value on a common grid and never rounds.  Subsets are enumerated in the
sorted order of their integer rows, which is the Fraction order because the
scale is positive, and a subset's agreements are read from a table of
pairwise agreements between its members.  A region's balance is the sum of
the weights of the rows inside it; different subsets often share an anchor,
so each region's balance is counted once per call.  Only a witness's anchor
is turned back into Fractions.

brute_force_valid is an independent desk-scale oracle used by the tests: it
sweeps, per pair of goods, the exact breakpoint grid of prices at which the
set of bids marginal on that pair can change, so a clean sweep is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import le
from typing import Iterable, Optional

from .core import Bid, BidList, ScaledBids, rat
from .errors import EmptySet, ScaleExceeded

DEFAULT_BUDGET = 200_000


@dataclass(frozen=True)
class RegionQuery:
    """An axis region H(i) or diagonal region F(i, j) anchored at a point.

    H(i) holds the valuation vectors x with x <= anchor and x_i = anchor_i;
    F(i, j) holds those reachable from such an x (with both x_i = anchor_i
    and x_j = anchor_j) by adding a non-negative multiple of the all-ones
    vector.
    """

    kind: str  # "H" or "F"
    anchor: tuple[Fraction, ...]
    i: int
    j: Optional[int] = None

    def __str__(self):
        point = "(" + ",".join(str(a) for a in self.anchor) + ")"
        if self.kind == "H":
            return f"H_{self.i}^{point}"
        return f"F_{self.i}{self.j}^{point}"


def _values(bid) -> tuple[Fraction, ...]:
    if isinstance(bid, Bid):
        return bid.values
    return tuple(rat(v) for v in bid)


def _md(vectors) -> tuple:
    return tuple(max(col) for col in zip(*vectors))


def _mdF(i: int, vectors) -> tuple:
    base = min(v[i - 1] for v in vectors)
    return tuple(base + t for t in _md([tuple(x - v[i - 1] for x in v) for v in vectors]))


def md(bids: Iterable) -> tuple[Fraction, ...]:
    """Component-wise maximum of the valuation vectors (minimal dominator)."""
    vectors = [_values(b) for b in bids]
    if not vectors:
        raise EmptySet("md of an empty set")
    return _md(vectors)


def mdF(i: int, bids: Iterable) -> tuple[Fraction, ...]:
    """Diagonal-shifted maximum: anchor of the smallest F region covering U."""
    vectors = [_values(b) for b in bids]
    if not vectors:
        raise EmptySet("mdF of an empty set")
    return _mdF(i, vectors)


@dataclass(frozen=True)
class ValidityReport:
    """The verdict, its witness region and the subsets enumerated for it.

    regions_counted is the number of distinct region balances summed (a
    region shared by several subsets counts once); it records work, not the
    verdict, so report equality ignores it.
    """

    status: str  # "valid" | "invalid" | "undecided"
    witness: Optional[RegionQuery] = None
    subsets_checked: int = 0
    regions_counted: int = field(default=0, compare=False)

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"


def _balance(rows, anchor: tuple[int, ...], i: int, j: Optional[int]) -> int:
    """Sum of the weights of the rows inside H(i) (j None) or F(i, j).

    Rows are (values, weight) pairs on the anchor's integer grid.
    """
    yi = anchor[i - 1]
    if j is None:
        return sum(w for x, w in rows if x[i - 1] == yi and all(map(le, x, anchor)))
    yj = anchor[j - 1]
    total = 0
    for x, w in rows:
        beta = x[i - 1] - yi
        if beta < 0 or x[j - 1] - yj != beta:
            continue
        if all(xv - beta <= yv for xv, yv in zip(x, anchor)):
            total += w
    return total


def _agreements(negs, tests) -> list[list[int]]:
    """agree[a][b] has bit t set when rows a and b agree on tests[t].

    Test ("H", i, None) compares coordinate i, test ("F", i, j) the
    difference of coordinates i and j.  Agreement is an equivalence, so a
    subset agrees on a test exactly when each member agrees with the first.
    """
    keys = [[v[i - 1] if j is None else v[i - 1] - v[j - 1] for _, i, j in tests] for v in negs]
    return [
        [sum(1 << t for t, (x, y) in enumerate(zip(ka, kb)) if x == y) for kb in keys]
        for ka in keys
    ]


def check_validity(blist: BidList, budget: int = DEFAULT_BUDGET) -> ValidityReport:
    """Region-counting validity check.

    Valid lists pass every anchored region check; an invalid list yields a
    witness region holding more negative than positive bids.  Lists with no
    negative bids are valid outright.  When the subset enumeration exceeds
    the budget the verdict is "undecided" (never a wrong answer).  Raises
    ValueError for a negative budget or a negative bid value.
    """
    if budget < 0:
        raise ValueError(f"the subset budget must be non-negative, got {budget}")
    table = ScaledBids.build(blist.bids)
    rows = [(tuple(x), w) for x, w in zip(table.vals, table.weights)]
    if any(v < 0 for x, _ in rows for v in x):
        raise ValueError("bid values must be non-negative")
    unique_negs = sorted({x for x, w in rows if w < 0})
    if not unique_negs:
        return ValidityReport("valid")
    n = blist.n
    # H(i) for each good, then F(i, j) for each pair: the order in which a
    # subset's regions are checked.
    tests = [("H", i, None) for i in range(1, n + 1)]
    tests += [("F", i, j) for i, j in combinations(range(1, n + 1), 2)]
    agree = _agreements(unique_negs, tests)
    counted = set()
    checked = 0
    for size in range(1, min(n + 1, len(unique_negs)) + 1):
        for combo in combinations(range(len(unique_negs)), size):
            checked += 1
            if checked > budget:
                return ValidityReport("undecided", None, checked - 1, len(counted))
            first = agree[combo[0]]
            mask = first[combo[0]]
            for k in combo[1:]:
                mask &= first[k]
            if not mask:
                continue
            members = [unique_negs[k] for k in combo]
            for t, (kind, i, j) in enumerate(tests):
                if not mask >> t & 1:
                    continue
                anchor = _md(members) if j is None else _mdF(i, members)
                if (kind, anchor, i, j) in counted:
                    continue
                counted.add((kind, anchor, i, j))
                if _balance(rows, anchor, i, j) < 0:
                    point = tuple(Fraction(a, table.scale) for a in anchor)
                    witness = RegionQuery(kind, point, i, j)
                    return ValidityReport("invalid", witness, checked, len(counted))
    return ValidityReport("valid", None, checked, len(counted))


# ---------------------------------------------------------------------------
# Desk-scale exhaustive oracle
# ---------------------------------------------------------------------------

def _sweep_points(values):
    """Sorted candidate values plus midpoints and outside sentinels."""
    vals = sorted(set(values))
    if not vals:
        return [Fraction(0)]
    points = [vals[0] - 1]
    for a, b in zip(vals, vals[1:]):
        points.append(a)
        points.append((a + b) / 2)
    points.append(vals[-1])
    points.append(vals[-1] + 1)
    return points


def brute_force_valid(blist: BidList) -> bool:
    """Ground-truth validity on small instances by exhaustive breakpoint sweep.

    For every pair of goods, the bids that can be marginal on the pair are
    pinned by exact linear conditions in the price; sweeping each remaining
    price degree of freedom over its breakpoints and their midpoints visits
    every realisable marginal set, so any negative weight sum is found.
    Restricted to n <= 3 with coordinates at most 20.
    """
    n = blist.n
    if n > 3:
        raise ScaleExceeded("brute-force oracle supports at most 3 goods")
    coords = [v for b in blist.bids for v in b.values]
    if any(abs(v) > 20 for v in coords):
        raise ScaleExceeded("brute-force oracle supports coordinates up to 20")
    bids = blist.bids
    if not any(b.weight < 0 for b in bids):
        return True
    goods = range(1, n + 1)

    # Pair (0, i): marginal bids have value exactly p_i on good i and
    # non-positive surplus everywhere else.
    for i in goods:
        others = [l for l in goods if l != i]
        for pi in sorted({b.values[i - 1] for b in bids}):
            cands = [b for b in bids if b.values[i - 1] == pi]
            if not any(b.weight < 0 for b in cands):
                continue
            grids = [_sweep_points([b.values[l - 1] for b in cands]) for l in others]
            for point in _product(grids):
                total = 0
                for b in cands:
                    if all(b.values[l - 1] <= pl for l, pl in zip(others, point)):
                        total += b.weight
                if total < 0:
                    return False

    # Pair (i, j), both real: marginal bids share the surplus difference
    # d = b_i - b_j with the price; the remaining freedom is p_i and, for a
    # third good l, the offset u_l = p_l - p_i.
    for i, j in combinations(goods, 2):
        others = [l for l in goods if l not in (i, j)]
        for d in sorted({b.values[i - 1] - b.values[j - 1] for b in bids}):
            cands = [b for b in bids if b.values[i - 1] - b.values[j - 1] == d]
            if not any(b.weight < 0 for b in cands):
                continue
            pi_grid = _sweep_points([b.values[i - 1] for b in cands])
            offset_grids = [
                _sweep_points([b.values[l - 1] - b.values[i - 1] for b in cands])
                for l in others
            ]
            for pi in pi_grid:
                for offsets in _product(offset_grids):
                    total = 0
                    for b in cands:
                        s = b.values[i - 1] - pi
                        if s < 0:
                            continue
                        if all(
                            s >= b.values[l - 1] - (pi + u)
                            for l, u in zip(others, offsets)
                        ):
                            total += b.weight
                    if total < 0:
                        return False
    return True


def _product(grids):
    if not grids:
        yield ()
        return
    head, *rest = grids
    for v in head:
        for tail in _product(rest):
            yield (v, *tail)
