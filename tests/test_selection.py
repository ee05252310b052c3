"""Selection rules against count-based enumeration oracles.

The step-up oracles use the classic counting characterization: the selected
set is {i: value_i passes the rank-k* threshold} where k* is the largest k
such that at least k values pass the rank-k threshold.  That avoids any
sorting logic shared with the implementation.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecalib.core import SelectionRuleName
from ecalib.selection import _by_thresholds, _ebh_thresholds, bh, bonferroni, by, ebh, fixed_sequence, select_rows
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

    def test_empty_and_full(self):
        assert bh([1.0, 1.0], 0.1).selected == frozenset()
        assert bh([0.0, 0.0], 0.1).selected == frozenset({0, 1})
        assert ebh([0.0, 0.0], 0.1).selected == frozenset()


def own_rank_set(values, thresholds, ascending):
    """The ids whose value passes the threshold of its own rank, ties ranked
    by id: the literal step-up set, which need not be self-consistent."""
    ranked = sorted(range(len(values)), key=lambda i: (values[i] if ascending else -values[i], i))
    passes = (lambda v, t: v <= t) if ascending else (lambda v, t: v >= t)
    return frozenset(i for k, i in enumerate(ranked) if passes(values[i], thresholds[k]))


class TestClosureFdr:
    """Why the step-up rules select their closure.  The FDR guarantees of BY
    and e-BH hold under any dependence for a self-consistent set: every
    selected id passes the threshold of the set's own size.  In these
    worked examples (N = 20, delta = 0.1) the nulls are ids 0-9.  Null j has
    its own event A_j, and the events are disjoint.  On A_j the ten non-nulls
    fail ranks 1-10, null j ranks 11th and passes rank 11's threshold, and
    every other null sits at its worst value.  The closure takes all 11 ids
    there; the own-rank set is {j} alone.  The FDRs are exact sums over the
    events, not Monte Carlo."""

    N, DELTA, NULLS = 20, 0.1, 10

    def fdrs(self, rule, rows, probs, thresholds, ascending):
        """The exact FDR of the closure, selected by select_rows, and of the
        own-rank set over the events' rows, each row holding with its
        probability; the last row is the rest of the space."""
        closure = [frozenset(np.flatnonzero(row).tolist()) for row in select_rows(rule, rows, self.DELTA)]
        own_rank = [own_rank_set(row.tolist(), thresholds, ascending) for row in rows]
        for j in range(self.NULLS):
            assert closure[j] == {j, *range(self.NULLS, self.N)} and own_rank[j] == {j}
        assert closure[-1] == own_rank[-1] == frozenset()
        return [float(np.dot(probs, [sum(i < self.NULLS for i in s) / max(len(s), 1) for s in sets]))
                for sets in (closure, own_rank)]

    def events(self, null_at_a, worst, non_null):
        """One row per event A_j, then the rest of the space's row."""
        rows = np.full((self.NULLS + 1, self.N), worst)
        rows[:, self.NULLS:] = non_null
        rows[np.arange(self.NULLS), np.arange(self.NULLS)] = null_at_a
        return rows

    def test_ebh(self):
        # e_j = N / (delta * 11) on A_j and 0 elsewhere, so E[e_j] = 1; the
        # non-nulls hold e = 19, below rank 10's threshold of 20.
        thresholds = _ebh_thresholds(self.N, self.DELTA)
        e_j = thresholds[10]
        rows = self.events(e_j, 0.0, 19.0)
        probs = np.array([1.0 / e_j] * self.NULLS + [1.0 - self.NULLS / e_j])
        assert all(math.isclose(np.dot(probs, rows[:, j]), 1.0) for j in range(self.NULLS))
        closure, own_rank = self.fdrs(SelectionRuleName.EBH, rows, probs, thresholds, False)
        assert closure == pytest.approx(0.05) and closure <= self.DELTA
        assert own_rank == pytest.approx(0.55)

    def test_by(self):
        # p_j = rank 11's threshold on A_j, which has that probability, and 1
        # elsewhere: P(p_j <= x) <= x.  The non-nulls sit halfway between
        # the rank-10 and rank-11 thresholds.
        thresholds = _by_thresholds(self.N, self.DELTA)
        p_j = thresholds[10]
        rows = self.events(p_j, 1.0, (thresholds[9] + thresholds[10]) / 2)
        probs = np.array([p_j] * self.NULLS + [1.0 - self.NULLS * p_j])
        closure, own_rank = self.fdrs(SelectionRuleName.BY, rows, probs, thresholds, True)
        assert closure == pytest.approx(0.0139, abs=1e-4) and closure <= self.DELTA
        assert own_rank == pytest.approx(0.153, abs=1e-3)


p_atoms = st.sampled_from([0.0, 1e-3, 5e-3, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0]) | st.floats(0.0, 1.0)
e_atoms = st.sampled_from([0.0, 1.0, 10.0, 20.0, 50.0, 200.0, float("inf")]) | st.floats(0.0, 1e4)


class TestMonotoneInEvidence:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30), delta=st.sampled_from([0.05, 0.1, 0.3]))
    def test_more_evidence_keeps_every_selected_id(self, data, n, delta):
        # Every p-value falls or stays, and every e-value rises or stays.
        p, q = (data.draw(st.lists(p_atoms, min_size=n, max_size=n)) for _ in range(2))
        e, f = (data.draw(st.lists(e_atoms, min_size=n, max_size=n)) for _ in range(2))
        lower, higher = list(map(min, p, q)), list(map(max, e, f))
        order = data.draw(st.permutations(range(n)))
        for rule in (bonferroni, bh, by, lambda v, d: fixed_sequence(v, order, d)):
            assert rule(p, delta).selected <= rule(lower, delta).selected
        assert ebh(e, delta).selected <= ebh(higher, delta).selected


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
