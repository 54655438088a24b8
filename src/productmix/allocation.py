"""Partition the target bundle among bidders at a market-clearing price.

State lives in an AllocationProblem: the price, per-bidder working bid lists,
per-bidder partial allocations m^j and the residual supply r (both with the
reject count in coordinate 0).  Three reductions shrink the problem while
preserving its solutions:

* non_marginals moves every uniquely-demanding bid's weight from r to its
  owner's m and deletes the bid;
* unambiguous_marginals settles a demand cluster with at most one link good,
  transferring the residual items its bids must absorb;
* shift_project_unshift breaks a multi-bidder tie cycle without allocating
  anything: it nudges one bidder's bids by 1/10 toward a cycle-link good,
  re-clears the residual at a +-1/10 perturbed price found by two submodular
  minimisations (both answered from one demand-mask histogram of all bids
  at the price), projects every bid at that price (widening surplus gaps by
  one), and undoes the nudge.  Any minimiser of the winning sign will do:
  on more than 16 goods the plus sign gives the minimal one and the minus
  sign the maximal one (the union-closure search of sfm, which reads the
  minus oracle at the complement), and Wolfe, when the search gives up,
  promises neither.

allocate drives these until the bid lists are empty; the number of edges of
the marginal bids graph strictly decreases with every cluster or cycle step,
which bounds the loop.  Internally all values are held as integers scaled by
ten, so the 1/10 perturbations stay exact and every hot scan runs on ints
rather than Fractions: each bidder's rows are a mutable copy of its BidList's
table rescaled to 10, and input bids off the 1/10 grid are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from . import sfm
from .core import Bid, BidList, DemandHistogram, as_bundle, is_demanded, rat
from .errors import BadCluster, NotClearing
from .graphs import (
    CycleEdge,
    IsolatedCluster,
    LeafCluster,
    build_marginal_graph,
    find_params,
    priority_params,
)
from .kernels import pure

_SCALE = 10  # all working values are tenths


def _mask_goods(mask: int) -> frozenset[int]:
    out = set()
    g = 0
    while mask:
        if mask & 1:
            out.add(g)
        mask >>= 1
        g += 1
    return frozenset(out)


class AllocationProblem:
    """Mutable working state of the allocation loop.

    Bid values and the price are stored as integers scaled by ten; partial
    allocations and the residual are plain integer vectors of length n+1
    with the reject coordinate first.
    """

    def __init__(self, names, rows, weights, target_ext, price10, checks=False):
        self.names = tuple(names)
        self.rows = rows
        self.weights = weights
        self.n = len(price10)
        self.price10 = list(price10)
        self.target_ext = tuple(target_ext)
        self.residual = list(target_ext)
        self.partial = {j: [0] * (self.n + 1) for j in self.names}
        self.checks = checks

    def masks(self, bidder: str, price10=None) -> list[int]:
        p = self.price10 if price10 is None else price10
        return pure.demand_masks(self.rows[bidder], p)

    def marginal_sets(self) -> dict[str, list[frozenset[int]]]:
        out = {}
        for j in self.names:
            sets = [
                _mask_goods(m)
                for m in self.masks(j)
                if m & (m - 1)  # more than one bit: marginal
            ]
            out[j] = sets
        return out

    @property
    def price(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, _SCALE) for p in self.price10)

    def bid_lists(self) -> dict[str, BidList]:
        """Current working lists as exact BidLists (reconstructed view)."""
        out = {}
        for j in self.names:
            bids = [
                Bid(tuple(Fraction(v, _SCALE) for v in row), w)
                for row, w in zip(self.rows[j], self.weights[j])
            ]
            out[j] = BidList(j, bids, n=self.n)
        return out

    def live_bidders(self):
        return [j for j in self.names if self.weights[j]]

    # -- invariants ----------------------------------------------------------

    def assert_conserved(self):
        for g in range(self.n + 1):
            total = self.residual[g] + sum(self.partial[j][g] for j in self.names)
            if total != self.target_ext[g]:
                raise AssertionError(f"conservation broken at good {g}")
        if any(r < 0 for r in self.residual):
            raise NotClearing("residual went negative; the price does not clear the target")

    def _after(self):
        if self.checks:
            self.assert_conserved()


@dataclass
class Solution:
    """Per-bidder bundles (reject coordinate first) plus run statistics."""

    bundles: dict[str, tuple[int, ...]]
    price: tuple[Fraction, ...]
    iterations: int
    cluster_calls: int
    cycle_calls: int

    def real_bundle(self, bidder: str) -> tuple[int, ...]:
        return self.bundles[bidder][1:]


def initial_problem(
    bidders: Sequence[BidList],
    target: Sequence[int],
    price: Sequence,
    *,
    checks: bool = False,
    verify: bool = True,
) -> AllocationProblem:
    """Set up the allocation state for an integral market-clearing price.

    The reject count of the extended target is the total bid weight minus the
    number of items in the target.  With ``verify`` the aggregate membership
    oracle confirms the target is demanded at the price; a failing check (or
    a non-integral price) raises NotClearing.
    """
    target = as_bundle(target)
    n = len(target)
    names = []
    for lst in bidders:
        if lst.n != n:
            raise ValueError("bid list and target dimensions disagree")
        if lst.owner in names:
            raise ValueError(f"duplicate bidder name {lst.owner!r}")
        names.append(lst.owner)
    p = [rat(x) for x in price]
    if len(p) != n:
        raise ValueError("price and target dimensions disagree")
    if any(x.denominator != 1 for x in p):
        raise NotClearing("allocation requires an integral market-clearing price")
    if any(t < 0 for t in target):
        raise ValueError("target bundles must be non-negative")

    rows = {}
    weights = {}
    for lst in bidders:
        table = lst.table.rescale(_SCALE)
        rows[lst.owner] = [list(row) for row in table.vals]
        weights[lst.owner] = list(table.weights)

    total_weight = sum(sum(w) for w in weights.values())
    rejects = total_weight - sum(target)
    if rejects < 0:
        raise NotClearing("target exceeds the total bid weight")
    if verify and names:
        if not is_demanded(BidList.aggregate(bidders), target, p):
            raise NotClearing("target is not demanded at the given price")
    if verify and not names and any(target):
        raise NotClearing("no bidders but a non-empty target")

    price10 = [x.numerator * _SCALE for x in p]
    return AllocationProblem(names, rows, weights, (rejects, *target), price10, checks)


def non_marginals(problem: AllocationProblem) -> AllocationProblem:
    """Accept every non-marginal bid on its unique good and delete it."""
    for j in problem.names:
        if not problem.weights[j]:
            continue
        masks = problem.masks(j)
        keep_rows, keep_weights = [], []
        for row, w, mask in zip(problem.rows[j], problem.weights[j], masks):
            if mask & (mask - 1):
                keep_rows.append(row)
                keep_weights.append(w)
            else:
                g = mask.bit_length() - 1
                problem.partial[j][g] += w
                problem.residual[g] -= w
        problem.rows[j] = keep_rows
        problem.weights[j] = keep_weights
    problem._after()
    return problem


def unambiguous_marginals(
    problem: AllocationProblem,
    cluster: tuple[frozenset[int], str],
    link: Optional[int] = None,
) -> AllocationProblem:
    """Settle a demand cluster with no link good (link=None) or exactly one.

    Without a link good every residual item of the cluster's goods goes to
    its bidder.  With one, the bids marginal on the cluster absorb their
    total weight in items, so the bidder receives all residual items of the
    non-link goods plus the balancing number of link-good items.
    """
    goods, bidder = frozenset(cluster[0]), cluster[1]
    if bidder not in problem.rows:
        raise BadCluster(f"unknown bidder {bidder!r}")
    if link is not None and link not in goods:
        raise BadCluster("link good must belong to the cluster")
    imask = 0
    for g in goods:
        imask |= 1 << g
    masks = problem.masks(bidder)
    selected = []
    cluster_weight = 0
    for idx, (mask, w) in enumerate(zip(masks, problem.weights[bidder])):
        if not mask & (mask - 1):
            raise BadCluster("unambiguous_marginals requires no non-marginal bids")
        if mask & imask:
            if mask & ~imask:
                raise BadCluster("a bid straddles the cluster boundary")
            selected.append(idx)
            cluster_weight += w

    if link is None:
        for g in goods:
            problem.partial[bidder][g] += problem.residual[g]
            problem.residual[g] = 0
    else:
        other = cluster_weight - sum(problem.residual[g] for g in goods if g != link)
        problem.partial[bidder][link] += other
        problem.residual[link] -= other
        for g in goods:
            if g == link:
                continue
            problem.partial[bidder][g] += problem.residual[g]
            problem.residual[g] = 0

    chosen = set(selected)
    problem.rows[bidder] = [
        r for i, r in enumerate(problem.rows[bidder]) if i not in chosen
    ]
    problem.weights[bidder] = [
        w for i, w in enumerate(problem.weights[bidder]) if i not in chosen
    ]
    problem._after()
    return problem


def _project_rows(problem: AllocationProblem, price10: list[int]) -> None:
    """Project every bid of every bidder one unit with respect to price10."""
    for j in problem.names:
        if not problem.weights[j]:
            continue
        masks = problem.masks(j, price10)
        for row, mask in zip(problem.rows[j], masks):
            if mask & 1:  # reject demanded: push non-demanded goods down
                for g in range(1, problem.n + 1):
                    if not (mask >> g) & 1:
                        row[g - 1] -= _SCALE
            else:  # push demanded goods up
                for g in range(1, problem.n + 1):
                    if (mask >> g) & 1:
                        row[g - 1] += _SCALE


def shift_project_unshift(
    problem: AllocationProblem, good: int, bidder: str
) -> AllocationProblem:
    """Break a multi-bidder tie cycle through (good, bidder) without allocating.

    Shifts the bidder's bids by 1/10 toward the good, re-clears the residual
    supply at a price perturbed by +-1/10 on some set of goods (two
    submodular minimisations, one per sign; any minimiser suffices),
    projects every bid at the perturbed price, then removes the shift and
    returns to the original price.  Both minimisations read one
    DemandHistogram of the shifted bids at the price, and the sign whose
    minimum is lower (+ on ties) wins.

    The cycle-link good may be the reject good 0, whose bid coordinate is
    pinned to zero; raising it by 1/10 is applied as the demand-equivalent
    shift of -1/10 on every real coordinate.
    """
    if not 0 <= good <= problem.n:
        raise BadCluster(f"good {good} out of range")
    if bidder not in problem.rows:
        raise BadCluster(f"unknown bidder {bidder!r}")
    if any(p % _SCALE for p in problem.price10):
        raise NotClearing("shift_project_unshift requires an integral price")

    def apply_shift(sign: int) -> None:
        for row in problem.rows[bidder]:
            if good == 0:
                for g in range(problem.n):
                    row[g] -= sign  # -sign/10 everywhere = +sign/10 on reject
            else:
                row[good - 1] += sign  # +sign/10 scaled

    apply_shift(+1)

    # One scan of every bid at the price answers both one-unit oracles of
    # g(q) = f(q) + r.q, r the residual of the real goods (all in tenths).
    hist = DemandHistogram(
        problem.n,
        (
            pair
            for j in problem.live_bidders()
            for pair in zip(problem.masks(j), problem.weights[j])
        ),
    )
    resid = problem.residual[1:]
    s_plus, low_plus = sfm.minimise(hist.oracle(+1, resid))
    s_minus, low_minus = sfm.minimise(hist.oracle(-1, resid))
    sign, direction = (+1, s_plus) if low_plus <= low_minus else (-1, s_minus)
    eps_price = list(problem.price10)
    for i in direction:
        eps_price[i - 1] += sign

    _project_rows(problem, eps_price)

    apply_shift(-1)

    problem._after()
    return problem


def allocate(
    bidders: Sequence[BidList],
    target: Sequence[int],
    price: Sequence,
    priority: Optional[Sequence[tuple[int, str]]] = None,
    *,
    checks: bool = False,
    verify: bool = True,
) -> Solution:
    """Partition the target so every bidder receives a bundle they demand.

    Works at any integral market-clearing price.  With a priority list the
    parameter search is priority_params and the outcome is a deterministic
    function of the inputs; otherwise the deterministic graph walk of
    find_params is used.  The marginal-graph edge count strictly decreases
    across iterations (asserted), bounding the loop by |J| * C(n+1, 2).
    A price that does not clear the target raises NotClearing, also with
    ``verify=False``, once the residual or some bundle cannot balance.
    """
    problem = initial_problem(bidders, target, price, checks=checks, verify=verify)
    non_marginals(problem)
    cap = max(1, len(problem.names) * comb(problem.n + 1, 2))
    iterations = 0
    cluster_calls = 0
    cycle_calls = 0
    prev_edges = None
    while problem.live_bidders():
        graph = build_marginal_graph(problem)
        if prev_edges is not None and graph.edge_count >= prev_edges:
            raise AssertionError("marginal-graph edge count failed to decrease")
        prev_edges = graph.edge_count
        iterations += 1
        if iterations > cap:
            raise AssertionError("allocation loop exceeded its iteration bound")
        if priority is None:
            params = find_params(problem, graph)
        else:
            params = priority_params(problem, priority, graph)
        if isinstance(params, CycleEdge):
            shift_project_unshift(problem, params.good, params.bidder)
            cycle_calls += 1
        elif isinstance(params, (IsolatedCluster, LeafCluster)):
            link = params.link if isinstance(params, LeafCluster) else None
            unambiguous_marginals(problem, (params.goods, params.bidder), link)
            cluster_calls += 1
        else:  # pragma: no cover - closed union
            raise AssertionError(f"unexpected params {params!r}")
        non_marginals(problem)

    if any(problem.residual):
        raise NotClearing("bid lists are empty but residual supply remains")
    bundles = {}
    for j in problem.names:
        bundle = tuple(problem.partial[j])
        if any(v < 0 for v in bundle):
            raise NotClearing(f"negative final allocation for {j!r}")
        bundles[j] = bundle
    return Solution(bundles, problem.price, iterations, cluster_calls, cycle_calls)
