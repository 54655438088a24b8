"""Command-line interface.

Subcommands: validate | price | allocate | generate | bench | regions.

Auction files are JSON:

    {
      "goods": 2,
      "M": 100,                       // optional price scale
      "bidders": [
        {"name": "alice", "bids": [[6, 6, 1], ["5.5", 4, -1]]}
      ],
      "target": [1, 1],
      "priority": [[1, "alice"], ...]  // optional (good, bidder) order
    }

Each bid row lists the n good values followed by a non-zero integer weight;
values are non-negative integers or decimal strings with at most one
fractional digit (the 1/10 grid).  Weighted rows expand into unit bids.
Exit codes: 0 success, 1 domain failure (invalid lists, infeasible targets),
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import allocation, pricing, testgen, validity
from .core import BidList, _integer, as_bundle, demanded_bundle, rat
from .errors import DimensionError, MarginalPrice, ParseError, ProductMixError

RESERVE_BIDDER = "auctioneer"


@dataclass
class Auction:
    n: int
    M: Optional[int]
    bidders: list[BidList]
    target: tuple[int, ...]
    priority: Optional[list[tuple[int, str]]]

    def max_entry(self) -> Fraction:
        return max((lst.max_entry() for lst in self.bidders), default=Fraction(0))

    def integral(self) -> bool:
        return all(lst.table.scale == 1 for lst in self.bidders)


def _parse_value(raw, where: str) -> Fraction:
    if isinstance(raw, bool) or isinstance(raw, float):
        raise ParseError(f"{where}: values must be ints or decimal strings", field=where)
    try:
        value = rat(raw)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: {exc}", field=where) from exc
    if value < 0:
        raise ParseError(f"{where}: bid values must be non-negative", field=where)
    if 10 % value.denominator:
        raise ParseError(
            f"{where}: values must have at most one fractional digit", field=where
        )
    return value


def parse_auction(path: str) -> Auction:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    try:
        n = _integer(data["goods"], "goods")
    except (KeyError, TypeError, ValueError):
        raise ParseError("missing or malformed 'goods'", field="goods")
    if n < 1:
        raise ParseError("'goods' must be positive", field="goods")
    M = data.get("M")
    if M is not None:
        if not isinstance(M, int) or M <= 0:
            raise ParseError("'M' must be a positive integer", field="M")

    bidders = []
    names = set()
    for k, entry in enumerate(data.get("bidders", [])):
        where = f"bidders[{k}]"
        if not isinstance(entry, dict) or "name" not in entry or "bids" not in entry:
            raise ParseError(f"{where}: expected {{name, bids}}", field=where)
        name = str(entry["name"])
        if name in names or name == RESERVE_BIDDER:
            raise ParseError(f"{where}: duplicate or reserved name {name!r}", field=where)
        names.add(name)
        rows = []
        for r, row in enumerate(entry["bids"]):
            spot = f"{where}.bids[{r}]"
            if not isinstance(row, list) or len(row) != n + 1:
                raise ParseError(f"{spot}: expected {n} values plus a weight", field=spot)
            values = [_parse_value(v, spot) for v in row[:-1]]
            weight = row[-1]
            if not isinstance(weight, int) or isinstance(weight, bool) or weight == 0:
                raise ParseError(f"{spot}: weight must be a non-zero integer", field=spot)
            rows.append((*values, weight))
        bidders.append(BidList.from_rows(name, rows, n=n))

    try:
        target = as_bundle(data["target"], n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed 'target': {exc}", field="target")
    if any(t < 0 for t in target):
        raise ParseError("'target' must be non-negative", field="target")

    priority = None
    if "priority" in data and data["priority"] is not None:
        priority = _parse_priority(data["priority"], n)
    return Auction(n, M, bidders, target, priority)


def _parse_priority(raw, n: int) -> list[tuple[int, str]]:
    """[good, bidder] pairs; a good is a JSON integer in 0..n."""
    if not isinstance(raw, list):
        raise ParseError("priority must be a list of [good, bidder] pairs", field="priority")
    priority = []
    for k, pair in enumerate(raw):
        where = f"priority[{k}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{where}: expected [good, bidder]", field=where)
        good, owner = pair
        if type(good) is not int or not 0 <= good <= n:
            raise ParseError(f"{where}: good out of range", field=where)
        priority.append((good, str(owner)))
    return priority


def _require_integral(auction: Auction) -> None:
    if not auction.integral():
        raise ProductMixError(
            "price finding and allocation require integer bid values "
            "(fractional bids are accepted by 'validate' only)"
        )


_METHODS = {"unit", "long-binary", "long-demand"}


def _find_price(auction: Auction, method: str):
    problem = pricing.PriceProblem(auction.bidders, auction.target)
    if method == "unit":
        return pricing.min_up(problem)
    rule = "binary" if method == "long-binary" else "demand_change"
    return pricing.long_step_min_up(problem, method=rule)


def _decimal(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    scaled = value * 10
    if scaled.denominator == 1:
        sign = "-" if scaled < 0 else ""
        digits = abs(scaled.numerator)
        return f"{sign}{digits // 10}.{digits % 10}"
    return str(value)


# -- subcommands -------------------------------------------------------------

def cmd_validate(args) -> int:
    if args.budget < 0:
        raise ParseError(f"--budget must be non-negative, got {args.budget}", field="budget")
    auction = parse_auction(args.file)
    all_valid = True
    for lst in auction.bidders:
        report = validity.check_validity(lst, budget=args.budget)
        if report.status == "valid":
            print(f"{lst.owner}: VALID")
        elif report.status == "invalid":
            all_valid = False
            print(f"{lst.owner}: INVALID witness {report.witness}")
        else:
            all_valid = False
            print(f"{lst.owner}: UNDECIDED (budget of {args.budget} subsets exhausted)")
    return 0 if all_valid else 1


def cmd_price(args) -> int:
    auction = parse_auction(args.file)
    _require_integral(auction)
    price, trace = _find_price(auction, args.method)
    if args.trace:
        for step in trace.steps:
            print(
                json.dumps(
                    {
                        "price": list(step.price),
                        "direction": sorted(step.direction),
                        "length": step.length,
                    }
                )
            )
    print(
        json.dumps(
            {
                "price": list(price),
                "method": args.method,
                "iterations": trace.iterations,
            },
            sort_keys=True,
        )
    )
    return 0


def _full_priority(auction: Auction, base: Sequence[tuple[int, str]]):
    """Extend a partial priority list to a permutation of goods x bidders."""
    names = [lst.owner for lst in auction.bidders] + [RESERVE_BIDDER]
    seen = set()
    out = []
    for good, owner in base:
        if (good, owner) not in seen:
            seen.add((good, owner))
            out.append((good, owner))
    for good in range(auction.n + 1):
        for owner in names:
            if (good, owner) not in seen:
                out.append((good, owner))
    return out


def cmd_allocate(args) -> int:
    auction = parse_auction(args.file)
    _require_integral(auction)
    price, trace = _find_price(auction, args.method)

    priority = None
    if args.priority_file and args.seedless_deterministic:
        raise ParseError("--priority-file and --seedless-deterministic conflict")
    if args.priority_file:
        try:
            with open(args.priority_file) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ParseError(f"bad priority file: {exc}") from exc
        priority = _full_priority(auction, _parse_priority(raw, auction.n))
    elif auction.priority is not None:
        priority = _full_priority(auction, auction.priority)
    elif args.seedless_deterministic:
        priority = _full_priority(auction, [])

    reserve = BidList.from_rows(
        RESERVE_BIDDER,
        [tuple([0] * auction.n + [1])] * (sum(auction.target) + 1),
        n=auction.n,
    )
    bidders = list(auction.bidders) + [reserve]
    solution = allocation.allocate(bidders, auction.target, price, priority=priority)

    result = {
        "price": [int(p) for p in solution.price],
        "allocation": {
            lst.owner: list(solution.real_bundle(lst.owner)) for lst in auction.bidders
        },
        "rejects": {
            lst.owner: solution.bundles[lst.owner][0] for lst in auction.bidders
        },
        "unsold": list(solution.real_bundle(RESERVE_BIDDER)),
        "stats": {
            "method": args.method,
            "price_iterations": trace.iterations,
            "iterations": solution.iterations,
            "cluster_calls": solution.cluster_calls,
            "cycle_calls": solution.cycle_calls,
        },
    }
    totals = [sum(v) for v in zip(*result["allocation"].values(), result["unsold"])]
    if tuple(totals) != auction.target:
        raise AssertionError("allocation does not sum to the target")
    print(json.dumps(result, sort_keys=True))
    return 0


def _gen_config(**settings) -> testgen.GenConfig:
    try:
        return testgen.GenConfig(**settings)
    except ValueError as exc:
        raise ParseError(f"bad generator settings: {exc}") from exc


def cmd_generate(args) -> int:
    M = args.M
    if M is None:
        raw = os.environ.get("PRODUCTMIX_M", "100")
        try:
            M = int(raw)
        except ValueError as exc:
            raise ParseError(f"$PRODUCTMIX_M must be an integer, got {raw!r}") from exc
    cfg = _gen_config(n=args.goods, q=args.rounds, M=M, seed=args.seed)
    from random import Random

    rng = Random(f"generate:{args.seed}")
    lists, target = testgen.generate_instance(cfg, args.bidders, rng)
    data = {
        "goods": args.goods,
        "M": M,
        "bidders": [
            {
                "name": lst.owner,
                "bids": [[int(v) for v in b.values] + [b.weight] for b in lst.bids],
            }
            for lst in lists
        ],
        "target": list(target),
    }
    print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    return 0


def cmd_bench(args) -> int:
    grid = _parse_grid(args.grid)
    if args.repetitions < 1:
        raise ParseError(f"--repetitions must be at least 1, got {args.repetitions}")
    for value in grid:
        _gen_config(
            n=value if args.axis == "goods" else args.goods,
            q=value if args.axis == "bids" else args.rounds,
            M=args.M,
        )
    rows = testgen.bench_suite(
        args.axis,
        grid,
        args.repetitions,
        n=args.goods,
        m=args.bidders,
        q=args.rounds,
        M=args.M,
        seed=args.seed,
    )
    lines = ["axis,value,mean_seconds,stddev_seconds,samples"]
    lines += [
        f"{r.axis},{r.value},{r.mean_seconds:.6f},{r.stddev_seconds:.6f},{r.samples}"
        for r in rows
    ]
    csv = "\n".join(lines) + "\n"
    manifest = {
        "axis": args.axis,
        "grid": list(grid),
        "repetitions": args.repetitions,
        "n": args.goods,
        "m": args.bidders,
        "q": args.rounds,
        "M": args.M,
        "seed": args.seed,
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        sys.stdout.write(csv)
        print(json.dumps({"manifest": manifest}, sort_keys=True), file=sys.stderr)
    return 0


def cmd_regions(args) -> int:
    auction = parse_auction(args.file)
    if auction.n != 2:
        raise DimensionError("regions output requires exactly 2 goods")
    try:
        step = rat(args.grid_step)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad --grid-step {args.grid_step!r}: {exc}") from exc
    if step <= 0:
        raise ParseError("--grid-step must be positive")
    top = auction.M if auction.M is not None else int(auction.max_entry()) + 1
    if auction.bidders:
        market = BidList.aggregate(auction.bidders, "market")
    else:
        market = BidList("market", (), n=2)
    print("p1,p2,x1,x2,marginal")
    p1 = Fraction(0)
    while p1 <= top:
        p2 = Fraction(0)
        while p2 <= top:
            try:
                bundle = demanded_bundle(market, (p1, p2))
                print(f"{_decimal(p1)},{_decimal(p2)},{bundle[1]},{bundle[2]},0")
            except MarginalPrice:
                print(f"{_decimal(p1)},{_decimal(p2)},,,1")
            p2 += step
        p1 += step
    return 0


def _parse_grid(spec: str) -> list[int]:
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ParseError(f"bad grid {spec!r}; use start:stop[:step] or a,b,c")
        try:
            start, stop = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError as exc:
            raise ParseError(f"bad grid {spec!r}: {exc}") from exc
        if step <= 0 or stop < start:
            raise ParseError(f"bad grid {spec!r}")
        return list(range(start, stop + 1, step))
    try:
        return [int(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise ParseError(f"bad grid {spec!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="productmix",
        description="Strong-substitutes product-mix auction solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check each bidder's list for validity")
    p.add_argument("file")
    p.add_argument(
        "--budget",
        type=int,
        default=validity.DEFAULT_BUDGET,
        help="max negative-bid subsets to enumerate before reporting UNDECIDED",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("price", help="compute the minimal market-clearing price")
    p.add_argument("file")
    p.add_argument("--method", choices=sorted(_METHODS), default="long-binary")
    p.add_argument("--trace", action="store_true", help="emit one JSON line per step")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("allocate", help="price the auction and partition the supply")
    p.add_argument("file")
    p.add_argument("--method", choices=sorted(_METHODS), default="long-binary")
    p.add_argument("--priority-file", help="JSON list of [good, bidder] pairs")
    p.add_argument(
        "--seedless-deterministic",
        action="store_true",
        help="use the canonical lexicographic priority order",
    )
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("generate", help="emit a random valid auction file")
    p.add_argument("-n", "--goods", type=int, required=True)
    p.add_argument("-m", "--bidders", type=int, required=True)
    p.add_argument("-q", "--rounds", type=int, required=True)
    p.add_argument("-M", type=int, default=None, help="price scale (default $PRODUCTMIX_M or 100)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="scaling benchmark over generated instances")
    p.add_argument("--axis", choices=("bids", "goods", "bidders"), required=True)
    p.add_argument("--grid", required=True, help="start:stop[:step] or comma list")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--goods", type=int, default=2)
    p.add_argument("--bidders", type=int, default=5)
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("-M", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (manifest written alongside)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("regions", help="sample the demand regions of a 2-good auction")
    p.add_argument("file")
    p.add_argument("--grid-step", default="1")
    p.set_defaults(func=cmd_regions)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProductMixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
