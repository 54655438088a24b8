from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from helpers import contains, random_small_list, reference_validity
from productmix import BidList
from productmix.errors import EmptySet, ScaleExceeded
from productmix.testgen import GenConfig, generate_list
from productmix.validity import (
    DEFAULT_BUDGET,
    RegionQuery,
    brute_force_valid,
    check_validity,
    md,
    mdF,
)


def q(kind, anchor, i, j=None):
    return RegionQuery(kind, tuple(Fraction(a) for a in anchor), i, j)


class TestContains:
    def test_axis_region(self):
        assert contains(q("H", (4, 4), 1), (4, 2))
        assert not contains(q("H", (4, 4), 1), (3, 2))

    def test_diagonal_region(self):
        assert contains(q("F", (4, 4), 1, 2), (6, 6))
        assert not contains(q("F", (4, 4), 1, 2), (2, 4))
        # below the anchor on the diagonal means a negative ray multiple
        assert not contains(q("F", (4, 4), 1, 2), (3, 3))


class TestAnchors:
    def test_md(self):
        assert md([(2, 5), (4, 1)]) == (4, 5)

    def test_md_singleton(self):
        assert md([(3, 7)]) == (3, 7)

    def test_md_empty(self):
        with pytest.raises(EmptySet):
            md([])

    def test_mdF(self):
        # both vectors share the difference b2 - b1 = 2
        assert mdF(1, [(2, 4), (3, 5)]) == (2, 4)
        assert mdF(2, [(2, 4), (3, 5)]) == (2, 4)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            md([(0.1, 2)])
        with pytest.raises(TypeError):
            mdF(1, [(2, 4), (3.0, 5)])


class TestCheckValidity:
    def test_bob_valid(self, bob):
        assert check_validity(bob).status == "valid"

    def test_lone_negative_invalid(self):
        lst = BidList.from_rows("evil", [(4, 4, -1)])
        report = check_validity(lst)
        assert report.status == "invalid"
        assert report.witness is not None

    def test_all_positive_shortcut(self, alice):
        report = check_validity(alice)
        assert report.status == "valid"
        assert report.subsets_checked == 0

    def test_witness_is_sound(self):
        lst = BidList.from_rows("evil", [(4, 4, -1), (9, 9, 1)])
        report = check_validity(lst)
        assert report.status == "invalid"
        balance = 0
        for bid in lst.bids:
            if contains(report.witness, bid):
                balance += bid.weight
        assert balance < 0

    def test_budget_gives_undecided(self):
        # negatives each cancelled by a twin positive: valid, but the subset
        # enumeration is larger than the budget allows
        rows = []
        for i in range(8):
            rows.append((i, 10 - i, 3, -1))
            rows.append((i, 10 - i, 3, 1))
        lst = BidList.from_rows("big", rows, n=3)
        assert check_validity(lst).status == "valid"
        report = check_validity(lst, budget=3)
        assert report.status == "undecided"

    def test_negative_budget_rejected(self, bob):
        with pytest.raises(ValueError):
            check_validity(bob, budget=-5)

    def test_negative_values_rejected(self):
        # at p = (10, 2) only the -1 bid is marginal on {0, 2}, so the list
        # is invalid; the region reduction assumes non-negative values
        lst = BidList.from_rows("z", [(-1, 2, -1), (9, 9, 1)])
        assert not brute_force_valid(lst)
        with pytest.raises(ValueError):
            check_validity(lst)

    def test_regions_counted(self, alice):
        assert check_validity(alice).regions_counted == 0
        # twin-cancelled negatives that all bid 3 on good 3: every subset
        # agrees there, subsets with the same component-wise maximum share
        # an H_3 anchor, and each shared region is counted once (40 of 55)
        rows = []
        for i in range(5):
            rows.append((i, 10 - i, 3, -1))
            rows.append((i, 10 - i, 3, 1))
        lst = BidList.from_rows("shared", rows, n=3)
        got = check_validity(lst)
        ref = reference_validity(lst)
        assert got == ref and got.status == "valid"
        assert 0 < got.regions_counted < ref.regions_counted


class TestBruteForce:
    def test_bob(self, bob):
        assert brute_force_valid(bob)

    def test_lone_negative(self):
        assert not brute_force_valid(BidList.from_rows("evil", [(4, 4, -1)]))

    def test_scale_guard(self):
        lst = BidList.from_rows("big", [(25, 0, 1)])
        with pytest.raises(ScaleExceeded):
            brute_force_valid(lst)
        wide = BidList.from_rows("wide", [(1, 1, 1, 1, 1)])
        with pytest.raises(ScaleExceeded):
            brute_force_valid(wide)

    def test_generated_group_valid(self):
        # negative bid covered by two axis discounts and a diagonal raise
        lst = BidList.from_rows(
            "grp", [(6, 5, -1), (4, 5, 1), (6, 2, 1), (8, 7, 1)]
        )
        assert brute_force_valid(lst)
        assert check_validity(lst).status == "valid"

    def test_uncovered_negative_detected(self):
        lst = BidList.from_rows("bad", [(6, 5, -1), (4, 5, 1), (8, 7, 1)])
        assert not brute_force_valid(lst)
        assert check_validity(lst).status == "invalid"


class TestOracleAgreement:
    def test_random_lists(self):
        rng = Random(2024)
        disagreements = []
        for k in range(60):
            lst = random_small_list(rng)
            expected = brute_force_valid(lst)
            got = check_validity(lst)
            assert got.status in ("valid", "invalid")
            if (got.status == "valid") != expected:
                disagreements.append((k, lst))
        assert not disagreements

    def test_generated_lists_all_valid(self):
        # the generator only emits valid lists; both checkers must concur on
        # a 200-sample batch at oracle-compatible scale
        from productmix.testgen import GenConfig, generate_list

        rng = Random("generated-batch")
        for _ in range(200):
            cfg = GenConfig(n=rng.randint(2, 3), q=rng.randint(2, 5), M=20)
            lst, _ = generate_list(cfg, rng, max_attempts=500)
            assert check_validity(lst).status == "valid"
            assert brute_force_valid(lst)


class TestReferenceAgreement:
    """The integer check gives the Fraction reference's exact report."""

    BUDGETS = (0, 1, 3, 10, DEFAULT_BUDGET)

    def _agree(self, lst, statuses):
        for budget in self.BUDGETS:
            got = check_validity(lst, budget)
            assert got == reference_validity(lst, budget), (lst.bids, budget)
            statuses[got.status] += 1

    def test_random_lists(self):
        rng = Random("integer-validity")
        statuses = Counter()
        for _ in range(500):
            n = rng.randint(1, 4)
            den = rng.choice((1, 10, 3))
            rows = [
                tuple(Fraction(rng.randint(0, 6), den) for _ in range(n))
                + (rng.choice((-2, -1, 1, 1, 2)),)
                for _ in range(rng.randint(1, 7))
            ]
            self._agree(BidList.from_rows("r", rows, n=n), statuses)
        assert set(statuses) == {"valid", "invalid", "undecided"}

    def test_generated_lists(self):
        # every other list has one positive bid flipped negative, so
        # witnesses and budget cut-offs fall deep in the enumeration
        rng = Random("integer-validity-generated")
        statuses = Counter()
        for k in range(60):
            cfg = GenConfig(n=rng.randint(2, 5), q=rng.randint(3, 12), M=20)
            lst, _ = generate_list(cfg, rng, max_attempts=2000)
            den = rng.choice((1, 10, 3))
            rows = [tuple(v / den for v in b.values) + (b.weight,) for b in lst.bids]
            if k % 2:
                i = rng.choice([i for i, row in enumerate(rows) if row[-1] > 0])
                rows[i] = rows[i][:-1] + (-1,)
            self._agree(BidList.from_rows("g", rows, n=lst.n), statuses)
        assert set(statuses) == {"valid", "invalid", "undecided"}
