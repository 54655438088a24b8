"""Pure-Python demand kernels.

These are the hot inner loops of the solver: every price query reduces to a
scan over all bids computing surpluses against the implicit reject good.  All
inputs are integers under a caller-chosen common scale, so arithmetic is exact
at any magnitude (Python ints do not overflow).

Conventions:

* ``vals`` is a sequence of ``k`` rows, each a sequence of ``n`` ints (the
  scaled bid values for real goods ``1..n``); the reject good 0 has value 0
  and is never stored.
* ``price`` is a sequence of ``n`` ints under the same scale; the reject
  price is 0.
* Demand sets are encoded as bitmasks with bit 0 for the reject good and
  bit ``i`` for good ``i``.
"""

from itertools import repeat


def indirect_utility(vals, weights, price):
    """Sum of weight * max(0, max_i(v_i - p_i)) over all bids."""
    total = 0
    n = len(price)
    for row, w in zip(vals, weights):
        best = 0
        for j in range(n):
            s = row[j] - price[j]
            if s > best:
                best = s
        total += w * best
    return total


def demand_masks(vals, price):
    """Bitmask of argmax surplus goods (incl. reject) for each bid.

    One pass per row: the mask restarts whenever a strictly better surplus
    appears, starting from the reject good's surplus of 0.
    """
    n = len(price)
    out = []
    for row in vals:
        best = 0
        mask = 1
        for j in range(n):
            s = row[j] - price[j]
            if s > best:
                best = s
                mask = 2 << j
            elif s == best:
                mask |= 2 << j
        out.append(mask)
    return out


def unique_bundle(vals, weights, price):
    """Demanded bundle when no bid is marginal, else None.

    Returns a list of length n+1 whose 0th entry counts rejected weight.
    """
    n = len(price)
    bundle = [0] * (n + 1)
    for row, w in zip(vals, weights):
        best = 0
        good = 0
        ties = 1
        for j in range(n):
            s = row[j] - price[j]
            if s > best:
                best = s
                good = j + 1
                ties = 1
            elif s == best:
                ties += 1
        if ties > 1:
            return None
        bundle[good] += w
    return bundle


def gap_table(vals, weights, price, smask):
    """{gap: summed weight} over the bids demanding a subset of S.

    A bid's gap is its best surplus on S minus its best surplus outside S,
    the reject good's 0 included; it demands a subset of S exactly when the
    gap is positive.  ``smask`` must not contain bit 0.  One pass per row.
    A gap whose weights cancel keeps its key with weight 0.
    """
    n = len(price)
    inside = [j for j in range(n) if (smask >> (j + 1)) & 1]
    outside = [j for j in range(n) if not (smask >> (j + 1)) & 1]
    gaps = {}
    if not inside:
        return gaps
    first, rest = inside[0], inside[1:]
    for row, w in zip(vals, weights):
        best = row[first] - price[first]
        for j in rest:
            s = row[j] - price[j]
            if s > best:
                best = s
        if best <= 0:
            continue  # the reject good is at least as good
        runner = 0
        for j in outside:
            s = row[j] - price[j]
            if s > runner:
                runner = s
                if runner >= best:
                    break
        if runner < best:
            mu = best - runner
            gaps[mu] = gaps.get(mu, 0) + w
    return gaps


def min_step(vals, price, smask):
    """Smallest gap of gap_table, or -1 when no bid demands a subset of S."""
    return min(gap_table(vals, repeat(1), price, smask), default=-1)
