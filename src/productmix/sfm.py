"""Submodular set-function minimisation.

Three routes sit behind one interface, chosen per call:

* a union-closure search, for functions that carry a ``UnionClosure``:
  F(S) = t(S) - (sum of w_D over D within S) + const with t >= 0 (or that
  form read at the complement), so shrinking any S to the union of the
  positive-weight sets D inside it never raises F, and the minimum, and the
  minimal minimiser, lie among the unions of those sets.  The search lists
  the unions and evaluates each one exactly; past ``CLOSURE_WORK_CAP``
  unions it gives up and the next route runs;
* exhaustive enumeration for ground sets of at most ``BRUTE_FORCE_LIMIT``
  elements;
* the Fujishige-Wolfe minimum-norm-point algorithm (Wolfe 1976; Fujishige,
  Hayashi and Isotani 2006) beyond that, with enumeration up to
  ``WOLFE_FALLBACK_LIMIT`` elements when it fails to certify.

Wolfe's method runs in floating point but never decides anything on its
own: every candidate it suggests is re-evaluated in exact arithmetic, and
optimality is certified through an exact lower bound from the base-polytope
dual.  When every value the run has seen is an integer, a certified gap
below one pins the exact minimum; for Fraction values the lower bound must
reach the best value found, or the run raises ConvergenceFailure.

Ground sets are {1, ..., n} and evaluation callbacks receive frozensets.
Queries are memoised per call, so repeated evaluation of the same set costs
one callback invocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple, Optional

from .errors import ConvergenceFailure

BRUTE_FORCE_LIMIT = 16
CLOSURE_WORK_CAP = 5000  # mask unions before a closure search gives up
WOLFE_FALLBACK_LIMIT = 24
_WOLFE_MAJOR_CAP = 3000
_Z1 = 1e-12
_Z2 = 1e-10


class UnionClosure(NamedTuple):
    """The sets whose unions hold a set function's minimisers.

    ``masks`` are bitmasks over the ground (bit k for element k).  Without
    ``complement`` the function is F(S) = t(S) - (sum of w_D over the masks
    D within S) + const, where t >= 0 and every listed mask has w_D > 0
    (masks of weight <= 0 may be left out).  With ``complement`` that form
    holds in T = {1..n} - S instead.  Nothing checks this; a wrong closure
    gives a wrong minimum.
    """

    masks: tuple[int, ...]
    complement: bool = False


@dataclass
class SetFunction:
    """A set function on ground set {1..n} assumed (not checked) submodular.

    ``closure``, when given, lets ``minimise`` and ``minimal_minimiser``
    search the unions it describes before any other route.
    """

    n: int
    fn: Callable[[frozenset], "int | Fraction"]
    closure: Optional[UnionClosure] = None


class _Memo:
    """Memoised evaluator shared across one minimise/minimal_minimiser call."""

    def __init__(self, fn):
        self._fn = fn
        self.table = {}

    def __call__(self, s):
        s = frozenset(s)
        if s in self.table:
            return self.table[s]
        v = self._fn(s)
        self.table[s] = v
        return v


class _RunBest:
    """Best set seen by one solver run (cross-run bests would leak sets that
    lie outside the current, possibly restricted, ground set)."""

    def __init__(self, memo):
        self._memo = memo
        self.best_set = None
        self.best_val = None
        self.integral = True  # every value seen so far is an integer

    def certifies(self, lb) -> bool:
        """Whether the exact lower bound lb pins best_val as the minimum.

        Integer values below best_val sit at least one below it, so a gap
        under one suffices; other values need lb to reach best_val.
        """
        gap = Fraction(self.best_val) - lb
        return gap < 1 if self.integral else gap <= 0

    def __call__(self, s):
        s = frozenset(s)
        v = self._memo(s)
        if self.integral and type(v) is not int:
            self.integral = Fraction(v).denominator == 1
        if self.best_val is None or v < self.best_val:
            self.best_val = v
            self.best_set = s
        return v


def _brute_force(memo, ground):
    ground = tuple(ground)
    best_set = frozenset()
    best_val = memo(best_set)
    for mask in range(1, 1 << len(ground)):
        s = frozenset(ground[i] for i in range(len(ground)) if (mask >> i) & 1)
        v = memo(s)
        if v < best_val:
            best_val = v
            best_set = s
    return best_set, best_val


def _greedy_vertex(memo, ground, weights):
    """Exact base-polytope vertex minimising <x, weights> (Edmonds' greedy)."""
    order = sorted(range(len(ground)), key=lambda i: (weights[i], i))
    vertex = [Fraction(0)] * len(ground)
    prefix = set()
    prev = memo(frozenset())
    for i in order:
        prefix.add(ground[i])
        cur = memo(frozenset(prefix))
        vertex[i] = Fraction(cur - prev)
        prev = cur
    return vertex


def _exact_gap_check(memo, corral_exact, lams):
    """Exact lower bound on the minimum from a convex combination of exact
    base-polytope vertices, or None when the coefficients degenerate."""
    total = Fraction(0)
    weights = []
    for lam in lams:
        w = Fraction(max(float(lam), 0.0))
        weights.append(w)
        total += w
    if total == 0:
        return None
    m = len(corral_exact[0])
    y = [Fraction(0)] * m
    for w, vertex in zip(weights, corral_exact):
        if w == 0:
            continue
        for j in range(m):
            y[j] += w * vertex[j]
    f0 = memo(frozenset())
    lb = Fraction(f0)
    for j in range(m):
        yj = y[j] / total
        if yj < 0:
            lb += yj
    return lb


def _affine_minimiser(S):
    """Coefficients of the affine-hull point of minimum norm (Wolfe's step)."""
    import numpy as np

    m = S.shape[0]
    M = np.empty((m + 1, m + 1))
    M[0, 0] = 0.0
    M[0, 1:] = 1.0
    M[1:, 0] = 1.0
    M[1:, 1:] = S @ S.T
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    w = sol[1:]
    return w, S.T @ w


def _wolfe(outer_memo, ground, *, major_cap=_WOLFE_MAJOR_CAP):
    """Fujishige-Wolfe over the given ground elements with exact rounding."""
    import numpy as np  # loaded here: only ground sets beyond enumeration need it

    ground = tuple(ground)
    m = len(ground)
    memo = _RunBest(outer_memo)
    memo(frozenset())

    exact0 = _greedy_vertex(memo, ground, [0.0] * m)
    corral = np.array([[float(v) for v in exact0]])
    corral_exact = [exact0]
    lams = np.array([1.0])
    x = corral[0].copy()

    def exact_candidates():
        # threshold cuts of the current iterate, negatives first
        order = sorted(range(m), key=lambda i: (x[i], i))
        prefix = set()
        for i in order:
            if x[i] >= 0.5:
                break
            prefix.add(ground[i])
            memo(frozenset(prefix))
        memo(frozenset(g for i, g in enumerate(ground) if x[i] < -_Z2))

    for _ in range(major_cap):
        exact_candidates()
        lb = _exact_gap_check(memo, corral_exact, lams)
        if lb is not None and memo.certifies(lb):
            return memo.best_set, memo.best_val

        w = [float(v) for v in x]
        q_exact = _greedy_vertex(memo, ground, w)
        q = np.array([float(v) for v in q_exact])
        scale = max(1.0, float(np.max(np.abs(corral))), float(np.dot(q, q)))
        if np.dot(x, q) >= np.dot(x, x) - _Z1 * scale:
            # float convergence; force one final exact verdict
            exact_candidates()
            lb = _exact_gap_check(memo, corral_exact, lams)
            if lb is not None and memo.certifies(lb):
                return memo.best_set, memo.best_val
            raise ConvergenceFailure("min-norm point converged without certificate")
        corral = np.vstack([corral, q])
        corral_exact.append(q_exact)
        lams = np.append(lams, 0.0)

        while True:
            b, y = _affine_minimiser(corral)
            if np.all(b > -_Z2):
                lams, x = np.maximum(b, 0.0), y
                break
            mask = lams - b > _Z2
            theta = np.min(lams[mask] / (lams - b)[mask])
            lams = theta * b + (1 - theta) * lams
            x = corral.T @ lams
            keep = lams > _Z2
            if keep.all():
                lams[np.argmin(lams)] = 0.0
                keep = lams > _Z2
            corral = corral[keep]
            corral_exact = [v for k, v in zip(keep, corral_exact) if k]
            lams = lams[keep]
            lams = lams / lams.sum()
            x = corral.T @ lams
    raise ConvergenceFailure(f"no certificate after {major_cap} major cycles")


def _bits(mask: int) -> frozenset:
    """The elements of a bitmask (bit k for element k)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _closure_search(memo, ground, closure):
    """Exact (minimiser, minimum) over the union closure, or None past the cap.

    Searches the sets S within ``ground``.  Without ``complement`` the
    members are unions of the masks that fit in the ground, and the member
    of least value, then fewest elements, is returned: under submodularity
    that is the minimal minimiser.  With ``complement`` the members are the
    sets T = ground - S, unions of the masks cut to the ground (elements
    off the ground are never in S, so they lie in every T), and the
    returned S is the complement of the least T: a minimiser, the maximal
    one under submodularity.
    """
    gmask = 0
    for g in ground:
        gmask |= 1 << g
    if closure.complement:
        gens = {d & gmask for d in closure.masks} - {0}

        def read(m):
            return _bits(gmask & ~m)

    else:
        gens = {d for d in closure.masks if not d & ~gmask}
        read = _bits
    if len(gens) * (len(gens) + 1) > CLOSURE_WORK_CAP:
        return None  # every mask is a member, so the search would pass the cap
    members = {0}
    frontier = [0]
    work = 0
    while frontier:
        grown = []
        for u in frontier:
            for d in gens:
                v = u | d
                if v not in members:
                    members.add(v)
                    grown.append(v)
            work += len(gens)
            if work > CLOSURE_WORK_CAP:
                return None
        frontier = grown
    best = read(min(members, key=lambda m: (memo(read(m)), m.bit_count(), m)))
    return best, memo(best)


def _minimise_ground(memo, ground, method, closure=None):
    ground = tuple(sorted(ground))
    if not ground:
        return frozenset(), memo(frozenset())
    if closure is not None:
        found = _closure_search(memo, ground, closure)
        if found is not None:
            return found
    if method == "brute" or (method == "auto" and len(ground) <= BRUTE_FORCE_LIMIT):
        return _brute_force(memo, ground)
    try:
        return _wolfe(memo, ground)
    except ConvergenceFailure:
        if len(ground) <= WOLFE_FALLBACK_LIMIT:
            return _brute_force(memo, ground)
        raise


def minimise(f: SetFunction, method: str = "auto"):
    """Return (minimiser, exact minimum value).

    ``method`` is ``auto``, ``brute`` or ``wolfe``.  ``auto`` searches
    ``f.closure`` when there is one (under submodularity it then returns
    the minimal minimiser, or for a complement closure the maximal one);
    otherwise, or when the search gives up, it enumerates up to 16
    elements and runs Wolfe beyond, with an enumeration fallback up to 24
    on convergence failure.
    """
    if method not in ("auto", "brute", "wolfe"):
        raise ValueError(f"unknown method {method!r}")
    memo = _Memo(f.fn)
    ground = range(1, f.n + 1)
    if method == "wolfe":
        return _wolfe(memo, tuple(ground))
    closure = f.closure if method == "auto" else None
    return _minimise_ground(memo, ground, method, closure)


def minimal_minimiser(f: SetFunction, method: str = "auto") -> frozenset:
    """The inclusion-wise minimal minimiser.

    Minimisers of a submodular function form a lattice, so the minimal one is
    obtained from any minimiser S by re-minimising with each element v of S
    excluded: v belongs to the bottom exactly when exclusion hurts.  A
    closure search on ``f.closure`` (method ``auto``) gives the bottom
    directly, except for a complement closure, whose re-runs search the
    closure again; when the first search gives up, the re-runs do not
    search.
    """
    if method not in ("auto", "brute", "wolfe"):
        raise ValueError(f"unknown method {method!r}")
    memo = _Memo(f.fn)
    ground = tuple(range(1, f.n + 1))
    closure = f.closure if method == "auto" else None
    found = _closure_search(memo, ground, closure) if closure else None
    if found is None:
        closure = None  # the re-runs do not search again
        found = _minimise_ground(memo, ground, method)
    elif not closure.complement:
        return found[0]
    s, val = found
    bottom = set()
    for v in sorted(s):
        sub = tuple(g for g in ground if g != v)
        _, val_v = _minimise_ground(memo, sub, method, closure)
        if val_v > val:
            bottom.add(v)
    return frozenset(bottom)


def check_submodular(f: SetFunction) -> bool:
    """Exhaustive pairwise submodularity check (debug helper, n <= 12)."""
    if f.n > 12:
        raise ValueError("submodularity check is limited to n <= 12")
    memo = _Memo(f.fn)
    ground = tuple(range(1, f.n + 1))
    for mask in range(1 << f.n):
        s = frozenset(ground[i] for i in range(f.n) if (mask >> i) & 1)
        rest = [g for g in ground if g not in s]
        for i, j in combinations(rest, 2):
            lhs = memo(s | {i}) + memo(s | {j})
            rhs = memo(s | {i, j}) + memo(s)
            if lhs < rhs:
                return False
    return True
