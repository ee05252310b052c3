"""Selection rules against count-based enumeration oracles.

The step-up oracles use the classic counting characterization: the selected
set is {i: value_i passes the rank-k* threshold} where k* is the largest k
such that at least k values pass the rank-k threshold.  That avoids any
sorting logic shared with the implementation.
"""

from __future__ import annotations

import random

import pytest

from ecalib.selection import bh, bonferroni, by, ebh, fixed_sequence
from ecalib.errors import InvalidOrder, OutOfRange


def oracle_bonferroni(p, delta):
    n = len(p)
    return frozenset(i for i in range(n) if p[i] <= delta / n)


def oracle_fixed_sequence(p, order, delta):
    out = set()
    for i in order:
        if p[i] <= delta:
            out.add(i)
        else:
            break
    return frozenset(out)


def oracle_bh(p, delta):
    n = len(p)
    k_star = 0
    for k in range(1, n + 1):
        if sum(1 for v in p if v <= k * delta / n) >= k:
            k_star = k
    if k_star == 0:
        return frozenset()
    return frozenset(i for i in range(n) if p[i] <= k_star * delta / n)


def oracle_by(p, delta):
    n = len(p)
    h_n = sum(1.0 / j for j in range(1, n + 1))
    return oracle_bh(p, delta / h_n)


def oracle_ebh(e, delta):
    n = len(e)
    k_star = 0
    for k in range(1, n + 1):
        if sum(1 for v in e if v >= n / (k * delta)) >= k:
            k_star = k
    if k_star == 0:
        return frozenset()
    return frozenset(i for i in range(n) if e[i] >= n / (k_star * delta))


def random_p(rng, n):
    style = rng.randrange(4)
    if style == 0:
        return [rng.random() for _ in range(n)]
    if style == 1:  # heavy at the small end
        return [rng.random() ** 4 for _ in range(n)]
    if style == 2:  # ties likely
        return [rng.choice([0.0, 0.01, 0.05, 0.1, 0.5, 1.0]) for _ in range(n)]
    return [min(1.0, rng.random() * 0.06) for _ in range(n)]


def random_e(rng, n):
    style = rng.randrange(3)
    if style == 0:
        return [rng.expovariate(1.0) for _ in range(n)]
    if style == 1:  # occasional huge evidence
        return [rng.expovariate(1.0) * (1000.0 if rng.random() < 0.3 else 1.0) for _ in range(n)]
    return [rng.choice([0.0, 1.0, 10.0, 100.0, 1000.0]) for _ in range(n)]


class TestAgainstOracles:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bonferroni(self, n):
        rng = random.Random(100 + n)
        for _ in range(200):
            p = random_p(rng, n)
            delta = rng.choice([0.01, 0.05, 0.1, 0.3])
            assert bonferroni(p, delta).selected == oracle_bonferroni(p, delta)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fixed_sequence(self, n):
        rng = random.Random(200 + n)
        for _ in range(200):
            p = random_p(rng, n)
            order = list(range(n))
            rng.shuffle(order)
            delta = rng.choice([0.01, 0.05, 0.1, 0.3])
            got = fixed_sequence(p, order, delta).selected
            assert got == oracle_fixed_sequence(p, order, delta)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bh(self, n):
        rng = random.Random(300 + n)
        for _ in range(200):
            p = random_p(rng, n)
            delta = rng.choice([0.01, 0.05, 0.1, 0.3])
            assert bh(p, delta).selected == oracle_bh(p, delta)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_by(self, n):
        rng = random.Random(400 + n)
        for _ in range(200):
            p = random_p(rng, n)
            delta = rng.choice([0.01, 0.05, 0.1, 0.3])
            assert by(p, delta).selected == oracle_by(p, delta)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ebh(self, n):
        rng = random.Random(500 + n)
        for _ in range(200):
            e = random_e(rng, n)
            delta = rng.choice([0.01, 0.05, 0.1, 0.3])
            assert ebh(e, delta).selected == oracle_ebh(e, delta)


class TestStructure:
    def test_bh_dominates_by(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randrange(1, 9)
            p = random_p(rng, n)
            assert by(p, 0.1).selected <= bh(p, 0.1).selected

    def test_bonferroni_within_bh(self):
        rng = random.Random(43)
        for _ in range(300):
            n = rng.randrange(1, 9)
            p = random_p(rng, n)
            assert bonferroni(p, 0.1).selected <= bh(p, 0.1).selected

    def test_monotone_in_delta(self):
        rng = random.Random(44)
        for _ in range(200):
            n = rng.randrange(1, 9)
            p = random_p(rng, n)
            assert bh(p, 0.05).selected <= bh(p, 0.2).selected
            assert bonferroni(p, 0.05).selected <= bonferroni(p, 0.2).selected

    def test_literal_step_up_can_skip_ranks(self):
        # delta=0.3, n=3: rank thresholds (0.1, 0.2, 0.3).  Sorted p:
        # 0.05 passes rank 1, 0.25 fails rank 2, 0.29 passes rank 3, so the
        # closure selects everything while the literal variant skips rank 2.
        p = [0.05, 0.25, 0.29]
        closure = bh(p, 0.3).selected
        literal = bh(p, 0.3, literal=True).selected
        assert closure == frozenset({0, 1, 2})
        assert literal == frozenset({0, 2})

    def test_empty_and_full(self):
        assert bh([1.0, 1.0], 0.1).selected == frozenset()
        assert bh([0.0, 0.0], 0.1).selected == frozenset({0, 1})
        assert ebh([0.0, 0.0], 0.1).selected == frozenset()


class TestDomains:
    def test_p_values_validated(self):
        with pytest.raises(OutOfRange):
            bonferroni([0.5, 1.2], 0.1)
        with pytest.raises(OutOfRange):
            bh([-0.1], 0.1)

    def test_e_values_validated(self):
        with pytest.raises(OutOfRange):
            ebh([1.0, -2.0], 0.1)

    def test_zero_p_tolerated(self):
        assert bonferroni([0.0], 0.1).selected == frozenset({0})

    @pytest.mark.parametrize("rule", [bonferroni, bh, by, lambda p, d: fixed_sequence(p, [1, 0, 2], d)])
    @pytest.mark.parametrize(
        "values, bad",
        [([0.5, 1.5, -1.0], "1.5"), ([0.2, float("nan"), 0.5], "nan"), ([0.1, 2, 0.5], "2"),
         ([-0.0, -1e-300, 0.5], "-1e-300")],
        ids=["first_bad", "nan", "int", "tiny_negative"],
    )
    def test_p_error_names_the_first_bad_value_as_given(self, rule, values, bad):
        with pytest.raises(OutOfRange, match=rf"^p-value {bad} out of \[0,1\]$"):
            rule(values, 0.1)

    @pytest.mark.parametrize(
        "values, bad",
        [([3.0, -2.0, -1.0], "-2.0"), ([float("nan"), 1.0], "nan"), ([1.0, -3], "-3"), ([float("-inf")], "-inf")],
        ids=["first_bad", "nan", "int", "minus_inf"],
    )
    def test_e_error_names_the_first_bad_value_as_given(self, values, bad):
        with pytest.raises(OutOfRange, match=rf"^e-value {bad} not a nonnegative real$"):
            ebh(values, 0.1)

    def test_p_and_e_domains_differ(self):
        # An e-value above 1 is evidence; a p-value above 1 is not a p-value.
        assert ebh([25.0, 1.0], 0.1).selected == frozenset({0})
        with pytest.raises(OutOfRange, match="p-value 25.0"):
            bh([25.0, 1.0], 0.1)
        # A p-value of 0 is extreme evidence, an e-value of 0 is none.
        assert bh([0.0, 1.0], 0.1).selected == frozenset({0})
        assert ebh([0.0, 1.0], 0.1).selected == frozenset()

    def test_fixed_sequence_order_checked_after_the_values(self):
        with pytest.raises(InvalidOrder):
            fixed_sequence([0.1, 0.2], [0, 0], 0.1)
        with pytest.raises(OutOfRange):
            fixed_sequence([0.1, 1.2], [0, 0], 0.1)
