import os
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

from helpers import enumerate_minimum, intersection_of_minimisers, random_submodular
import productmix
from productmix import PriceProblem
from productmix.sfm import (
    SetFunction,
    check_submodular,
    minimal_minimiser,
    minimise,
)


def modular(weights):
    n = len(weights)
    return SetFunction(n, lambda s: sum(weights[i - 1] for i in s))


class TestMinimise:
    def test_cardinality(self):
        f = SetFunction(4, lambda s: len(s))
        assert minimise(f) == (frozenset(), 0)

    def test_modular(self):
        s, v = minimise(modular([-2, 3, -1]))
        assert (s, v) == (frozenset({1, 3}), -3)

    def test_slope_function_of_worked_example(self, alice, bob):
        pp = PriceProblem([alice, bob], (1, 1))
        hist = pp.arr.histogram(pp._pints([0, 0]))
        f = SetFunction(2, lambda s: pp._slope(hist, s))
        s, v = minimise(f)
        assert s == frozenset({1, 2}) and v == -2
        assert minimal_minimiser(f) == frozenset({1, 2})

    def test_wolfe_matches_brute(self):
        rng = Random(7)
        for _ in range(25):
            f = random_submodular(rng, rng.randint(4, 10))
            sb, vb = minimise(f, method="brute")
            sw, vw = minimise(f, method="wolfe")
            assert vw == vb
            assert f.fn(sw) == vb

    def test_wolfe_medium_ground_set(self):
        rng = Random(11)
        f = random_submodular(rng, 17)
        s_auto, v_auto = minimise(f)  # auto routes to Wolfe above 16
        best, _ = enumerate_minimum(f)
        assert v_auto == best and f.fn(s_auto) == best

    def test_wolfe_exact_on_fraction_values(self):
        # A certified gap below one pins the minimum of integer values only;
        # with values in thousandths Wolfe used to stop one gap too early.
        rng = Random(1)
        for _ in range(6):
            f = random_submodular(rng, 17)
            g = SetFunction(17, lambda s, f=f: Fraction(f.fn(s), 1000))
            s, v = minimise(g)
            best, _ = enumerate_minimum(g)
            assert v == best and g.fn(s) == best


class TestMinimalMinimiser:
    def test_zero_function(self):
        assert minimal_minimiser(SetFunction(3, lambda s: 0)) == frozenset()

    def test_modular(self):
        assert minimal_minimiser(modular([-2, 3, -1])) == frozenset({1, 3})

    def test_all_ties(self):
        assert minimal_minimiser(SetFunction(2, lambda s: 0)) == frozenset()

    def test_matches_lattice_intersection(self):
        rng = Random(3)
        for _ in range(30):
            f = random_submodular(rng, rng.randint(3, 9))
            assert minimal_minimiser(f) == intersection_of_minimisers(f)

    def test_restricted_runs_do_not_leak(self):
        # Regression: a run over a restricted ground set must not reuse the
        # best set found over the full ground set.
        rng = Random(5)
        for _ in range(3):
            f = random_submodular(rng, 17)
            bottom = minimal_minimiser(f)  # Wolfe path for n > 16
            best, _ = enumerate_minimum(f)
            assert f.fn(bottom) == best
            assert bottom == intersection_of_minimisers(f)


class TestMemoisation:
    def test_each_set_evaluated_once(self):
        calls = {}

        def fn(s):
            calls[s] = calls.get(s, 0) + 1
            return -len(s) * (4 - len(s))

        minimise(SetFunction(6, fn))
        assert calls and all(c == 1 for c in calls.values())


class TestConcurrency:
    def test_parallel_minimise_of_distinct_functions(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = Random(21)
        functions = [random_submodular(rng, 7) for _ in range(8)]
        expected = [minimise(f) for f in functions]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(minimise, functions))
        assert results == expected


class TestSubmodularityChecker:
    def test_accepts_coverage(self):
        f = random_submodular(Random(0), 5)
        assert check_submodular(f)

    def test_rejects_supermodular(self):
        f = SetFunction(4, lambda s: len(s) ** 2)
        assert not check_submodular(f)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            check_submodular(SetFunction(13, lambda s: 0))


NUMPY_PROBE = """
import sys
from random import Random
from productmix import (
    BidList, PriceProblem, SetFunction, allocate, check_validity, is_demanded,
    long_step_min_up, minimise
)
from productmix.testgen import GenConfig, generate_instance
lst = BidList.from_rows("b", [(2, 4, 0, 1), (4, 2, 0, 1), (4, 4, 0, -1), (6, 6, 0, 1)])
assert check_validity(lst).is_valid
price, _ = long_step_min_up(PriceProblem([lst], (1, 1, 0)))
assert is_demanded(lst, (1, 1, 0), price)
print("numpy" in sys.modules)
lists, target = generate_instance(GenConfig(n=20, q=4, M=20), 2, Random("numpy-probe"))
price, _ = long_step_min_up(PriceProblem(lists, target))
reserve = BidList.from_rows("auctioneer", [(0,) * 20 + (1,)] * (sum(target) + 1))
solution = allocate(lists + [reserve], target, price)
assert solution.cycle_calls > 0
print("numpy" in sys.modules)
minimise(SetFunction(20, lambda s: len(s) - 2 * len(s & {3, 7})))
print("numpy" in sys.modules)
"""


class TestImport:
    def test_numpy_loaded_only_by_wolfe(self):
        src = os.path.dirname(os.path.dirname(productmix.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        # validity, and pricing and membership on 3 goods, stay below the
        # enumeration limit; on 20 goods, pricing, membership and tie
        # cycles search the histogram's union closure instead of running
        # Wolfe
        assert out.stdout.split() == ["False", "False", "True"]
