"""Seeded inputs, the two user operations, and their correctness checks.

Inputs are generated as plain integer rows, so that building the solver's
objects from them (``build``) is the set-up a user pays and can be timed on
its own.  Generation itself uses ``productmix.testgen`` and is excluded from
set-up.

Operations:

* ``clear`` mirrors ``productmix allocate``: minimal clearing price by the
  long-step descent (binary step rule), reserve bidder appended, then
  ``allocation.allocate`` with its default ``verify=True``.
* ``validate`` is ``validity.check_validity`` on one submitted list at the
  default budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from productmix import allocation, cli, core, pricing, testgen, validity
from productmix.core import BidList


@dataclass(frozen=True)
class Spec:
    """One workload: which operation, and the shape of its generated inputs."""

    op: str  # "clear" or "validate"
    n: int  # goods
    rounds: int  # testgen rounds per bid list
    price_scale: int  # testgen M
    pool: int  # distinct inputs; the closed loop cycles through them
    bidders: int = 0  # lists per auction (clear)
    list_pool: int = 0  # generated lists the auctions draw their bidders from
    list_bids: int = 0  # keep only generated lists with this many bids (0: any)
    prioritised: bool = False  # pass the canonical full priority list (clear)
    corrupt_share: float = 0.0  # exact share of lists with one bid flipped (validate)
    negatives: int = 0  # distinct negative bids per generated list (validate)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "dense-bids": Spec(
        op="clear", n=3, rounds=10, price_scale=100, pool=240, bidders=5, list_pool=240
    ),
    "wide-goods": Spec(
        op="clear",
        n=20,
        rounds=4,
        price_scale=100,
        pool=48,
        bidders=2,
        list_pool=16,
        list_bids=10,
        prioritised=True,
    ),
    # Coordinates stay <= 20 so brute_force_valid can judge corrupted lists.
    # A valid list's cost grows with its distinct negative bids k (the checker
    # enumerates their subsets up to size n+1), so k is held fixed.
    "submissions": Spec(
        op="validate",
        n=3,
        rounds=20,
        price_scale=20,
        pool=256,
        corrupt_share=0.25,
        negatives=10,
    ),
}


# ---------------------------------------------------------------------------
# Generation (seeded, rows only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuctionRows:
    n: int
    bidders: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]
    target: tuple[int, ...]
    prioritised: bool


@dataclass(frozen=True)
class SubmissionRows:
    n: int
    rows: tuple[tuple[int, ...], ...]
    corrupted: bool


def _rows(blist: BidList) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in b.values) + (b.weight,) for b in blist.bids)


def generate(name: str, seed: int) -> list:
    """The workload's input pool; the same seed always gives the same pool."""
    spec = WORKLOADS[name]
    rng = Random(f"perfbench:{name}:{seed}")
    cfg = testgen.GenConfig(n=spec.n, q=spec.rounds, M=spec.price_scale)
    if spec.op == "clear":
        return _auctions(spec, cfg, rng)
    return _submissions(spec, cfg, rng)


def _auctions(spec: Spec, cfg, rng: Random) -> list[AuctionRows]:
    # Auctions draw their bidders from a shared pool of generated lists: every
    # list's bundle is demanded at the centre price, so any combination of
    # lists with the summed bundle as target is a clearing instance, and many
    # distinct auctions cost only a few accepted lists.
    lists = []
    while len(lists) < spec.list_pool:
        blist, bundle = testgen.generate_list(cfg, rng, owner=f"bidder{len(lists) + 1}")
        if spec.list_bids and len(blist.bids) != spec.list_bids:
            continue
        lists.append((blist.owner, _rows(blist), bundle))
    seen = set()
    auctions = []
    while len(auctions) < spec.pool:
        picks = tuple(sorted(rng.sample(range(spec.list_pool), spec.bidders)))
        if picks in seen:
            continue
        seen.add(picks)
        chosen = [lists[k] for k in picks]
        target = tuple(sum(b[2][g] for b in chosen) for g in range(spec.n))
        auctions.append(
            AuctionRows(
                spec.n,
                tuple((owner, rows) for owner, rows, _ in chosen),
                target,
                spec.prioritised,
            )
        )
    return auctions


def _submissions(spec: Spec, cfg, rng: Random) -> list[SubmissionRows]:
    # The corrupted count is fixed, not drawn per list: corrupted lists are
    # about three times faster, so a count left to chance moves the median.
    corrupt = set(rng.sample(range(spec.pool), round(spec.pool * spec.corrupt_share)))
    out = []
    while len(out) < spec.pool:
        blist, _ = testgen.generate_list(cfg, rng)
        if len({b.values for b in blist.bids if b.weight < 0}) != spec.negatives:
            continue
        rows = list(_rows(blist))
        corrupted = len(out) in corrupt
        if corrupted:
            positives = [i for i, row in enumerate(rows) if row[-1] > 0]
            i = rng.choice(positives)
            rows[i] = rows[i][:-1] + (-1,)
        out.append(SubmissionRows(spec.n, tuple(rows), corrupted))
    return out


# ---------------------------------------------------------------------------
# Set-up: solver objects from rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Auction:
    lists: tuple[BidList, ...]
    target: tuple[int, ...]
    prioritised: bool


def build(inputs: list) -> list:
    """BidList objects for every input, as a user building requests would."""
    out = []
    for item in inputs:
        if isinstance(item, AuctionRows):
            lists = tuple(
                BidList.from_rows(owner, rows, n=item.n) for owner, rows in item.bidders
            )
            out.append(Auction(lists, item.target, item.prioritised))
        else:
            out.append(BidList.from_rows("submission", item.rows, n=item.n))
    return out


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cleared:
    price: tuple[int, ...]
    bundles: tuple[tuple[int, ...], ...]  # real goods, one per submitted list
    unsold: tuple[int, ...]


def _reserve(target: tuple[int, ...]) -> BidList:
    """The auctioneer's zero bids that absorb unsold items."""
    n = len(target)
    return BidList.from_rows(cli.RESERVE_BIDDER, [(0,) * n + (1,)] * (sum(target) + 1), n=n)


def clear(auction: Auction) -> Cleared:
    """Price the auction and allocate the target, as ``productmix allocate``."""
    n = len(auction.target)
    problem = pricing.PriceProblem(auction.lists, auction.target)
    price, _ = pricing.long_step_min_up(problem)
    bidders = list(auction.lists) + [_reserve(auction.target)]
    priority = None
    if auction.prioritised:
        names = [lst.owner for lst in bidders]
        priority = [(good, owner) for good in range(n + 1) for owner in names]
    solution = allocation.allocate(bidders, auction.target, price, priority=priority)
    return Cleared(
        tuple(int(p) for p in solution.price),
        tuple(solution.real_bundle(lst.owner) for lst in auction.lists),
        solution.real_bundle(cli.RESERVE_BIDDER),
    )


def validate(blist: BidList) -> str:
    return validity.check_validity(blist).status


OPERATIONS = {"clear": clear, "validate": validate}


# ---------------------------------------------------------------------------
# Correctness, checked outside the timed region
# ---------------------------------------------------------------------------

class Checker:
    """Judges outputs; each input is fully checked once per distinct output."""

    def __init__(self, inputs: list, prepared: list):
        self._inputs = inputs
        self._prepared = prepared
        self._passed: dict[int, set] = {}
        self._truth: dict[int, object] = {}

    def ok(self, index: int, output) -> bool:
        passed = self._passed.setdefault(index, set())
        if output in passed:
            return True
        if isinstance(self._inputs[index], AuctionRows):
            good = self._clear_ok(index, output)
        else:
            good = self._validate_ok(index, output)
        if good:
            passed.add(output)
        return good

    def _clear_ok(self, index: int, out: Cleared) -> bool:
        auction = self._prepared[index]
        totals = [
            sum(b[g] for b in out.bundles) + out.unsold[g] for g in range(len(auction.target))
        ]
        if tuple(totals) != auction.target:
            return False
        if any(v < 0 for b in out.bundles for v in b) or any(v < 0 for v in out.unsold):
            return False
        if index not in self._truth:
            problem = pricing.PriceProblem(auction.lists, auction.target)
            self._truth[index] = pricing.long_step_min_up(problem, method="demand_change")[0]
        if out.price != self._truth[index]:
            return False
        lists = auction.lists + (_reserve(auction.target),)
        return all(
            core.is_demanded(lst, bundle, out.price)
            for lst, bundle in zip(lists, out.bundles + (out.unsold,))
        )

    def _validate_ok(self, index: int, status: str) -> bool:
        if index not in self._truth:
            item = self._inputs[index]
            valid = not item.corrupted or validity.brute_force_valid(self._prepared[index])
            self._truth[index] = "valid" if valid else "invalid"
        return status == self._truth[index]
