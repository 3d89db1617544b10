"""Cyclic subsets: separation, well-spread predicates, reduction."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from wellspread import (
    CyclicSubset,
    InvalidParams,
    NotCoprime,
    NotWellSpread,
    canonical_well_spread,
    critical_params,
    euclid_reduce,
    is_r_separated,
    is_well_spread,
    is_well_spread_dual,
)
from wellspread.cyclic import CanonicalRotations, rotated_residues, rotations


def test_subset_normalizes_and_bounds():
    s = CyclicSubset(7, [3, 0, 3])
    assert s.elements == (0, 3)
    assert 3 in s and 1 not in s
    assert len(s) == 2
    with pytest.raises(InvalidParams):
        CyclicSubset(7, [7])
    with pytest.raises(InvalidParams):
        CyclicSubset(7, [-1])
    with pytest.raises(InvalidParams):
        CyclicSubset(0, [])


def test_rotate_and_complement():
    s = CyclicSubset(7, [0, 3])
    assert s.rotate(2).elements == (2, 5)
    assert s.rotate(7).elements == s.elements
    assert s.rotate(-1).elements == (2, 6)


def test_separation_small_cases():
    assert is_r_separated(CyclicSubset(7, [0, 3]), 2)
    assert not is_r_separated(CyclicSubset(7, [0, 1]), 2)
    # wrap-around gap counts: {0, 6} in Z_7 has gap 1 going 6 -> 0
    assert not is_r_separated(CyclicSubset(7, [0, 6]), 2)
    assert is_r_separated(CyclicSubset(7, [0]), 2)
    assert is_r_separated(CyclicSubset(7, []), 3)


def _window_counts_balanced(n: int, mask: int) -> bool:
    """The definition, arc by arc: counts of equal-length arcs differ by <= 1."""
    for length in range(1, n):
        counts = [sum(mask >> ((s + d) % n) & 1 for d in range(length)) for s in range(n)]
        if max(counts) - min(counts) > 1:
            return False
    return True


def test_well_spread_agrees_with_dual_exhaustively():
    for n in range(1, 13):
        for mask in range(1 << n):
            s = CyclicSubset(n, (i for i in range(n) if mask >> i & 1))
            assert is_well_spread(s) == is_well_spread_dual(s), s
            assert is_well_spread(s) == _window_counts_balanced(n, mask), s


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_well_spread_agrees_with_the_definition_on_larger_sets(data):
    # a rotated canonical set, that set with one member moved (the hard
    # negatives: every gap but two stays q or q + 1), or a random set
    n = data.draw(st.integers(13, 64))
    k = data.draw(st.integers(1, n - 1))
    es = set(canonical_well_spread(n, k).rotate(data.draw(st.integers(0, n - 1))).elements)
    how = data.draw(st.sampled_from(["canonical", "moved", "random"]))
    if how == "moved":
        free = sorted(set(range(n)) - es)
        es.remove(data.draw(st.sampled_from(sorted(es))))
        es.add(data.draw(st.sampled_from(free)))
    elif how == "random":
        es = data.draw(st.sets(st.integers(0, n - 1)))
    s = CyclicSubset(n, es)
    mask = sum(1 << x for x in es)
    assert is_well_spread(s) == _window_counts_balanced(n, mask), s
    assert is_well_spread(s) == is_well_spread_dual(s), s


def test_well_spread_examples():
    assert is_well_spread(CyclicSubset(13, [0, 2, 5, 7, 10]))
    assert not is_well_spread(CyclicSubset(13, [0, 1, 2, 3, 4]))
    # every singleton and the full set are trivially balanced
    assert is_well_spread(CyclicSubset(9, [4]))
    assert is_well_spread(CyclicSubset(5, range(5)))


def test_canonical_is_well_spread_and_unique_up_to_rotation():
    for n in range(2, 15):
        for k in range(1, n + 1):
            c = canonical_well_spread(n, k)
            assert len(c) == k
            assert is_well_spread(c)
    # all well-spread k-sets are rotations of the canonical one
    n, k = 13, 5
    c = canonical_well_spread(n, k)
    rotations = {c.rotate(t).elements for t in range(n)}
    found = set()
    for mask in range(1 << n):
        if bin(mask).count("1") != k:
            continue
        s = CyclicSubset(n, (i for i in range(n) if mask >> i & 1))
        if is_well_spread(s):
            found.add(s.elements)
    assert found == rotations
    assert len(found) == n // gcd(n, k)


def test_critical_params_worked_values():
    assert (critical_params(7, 2).a, critical_params(7, 2).b) == (3, 1)
    assert (critical_params(11, 3).a, critical_params(11, 3).b) == (7, 2)
    assert (critical_params(13, 5).a, critical_params(13, 5).b) == (5, 2)
    for n in range(2, 10):
        cp = critical_params(n, 1)
        assert (cp.a, cp.b) == (n - 1, 1)
    assert critical_params(13, 5).as_fraction() == Fraction(5, 2)


def test_critical_params_minimality_and_errors():
    for n in range(2, 20):
        for k in range(1, n):
            if gcd(n, k) != 1:
                with pytest.raises(NotCoprime):
                    critical_params(n, k)
                continue
            cp = critical_params(n, k)
            assert cp.a * k == cp.b * n - 1
            assert all((b * n - 1) % k for b in range(1, cp.b))
    with pytest.raises(InvalidParams):
        critical_params(5, 0)
    with pytest.raises(InvalidParams):
        critical_params(5, 5)


def test_reduce_reaches_gcd_sized_terminal():
    for n in range(2, 17):
        for k in range(1, n // 2 + 1):
            trace = euclid_reduce(canonical_well_spread(n, k).rotate(3))
            assert len(trace.terminal) == gcd(n, k)
            assert is_well_spread(trace.terminal)
            for step in trace.steps:
                assert step.cycle_length == step.set_size * step.quotient + step.remainder


def test_reduce_rejects_bad_inputs():
    with pytest.raises(NotWellSpread):
        euclid_reduce(CyclicSubset(10, [0, 1, 5, 6]))
    with pytest.raises(InvalidParams):
        euclid_reduce(CyclicSubset(5, [0, 1, 2]))  # |s| > n/2
    with pytest.raises(InvalidParams):
        euclid_reduce(CyclicSubset(5, []))


@st.composite
def _shift_runs(draw):
    """(es, n, shifts): a sorted residue tuple and shifts made of runs that
    go up or down by a repeated step, single shifts at irregular gaps, and
    shifts that are negative or at least n."""
    n = draw(st.integers(1, 60))
    es = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
    shifts = []
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(-3 * n, 3 * n))
        step = draw(st.sampled_from([1, -1, 0, draw(st.integers(-2 * n, 2 * n))]))
        shifts += [start + i * step for i in range(draw(st.integers(1, 8)))]
    return es, n, shifts


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_shift_runs())
def test_rotations_equal_rotated_residues_shift_by_shift(case):
    es, n, shifts = case
    assert list(rotations(es, n, shifts)) == [rotated_residues(es, n, t) for t in shifts]


def test_rotations_on_canonical_sets_and_one_residue():
    # every (n, k) up to 24, gcd(n, k) > 1 included, over the descending
    # shifts of the certificates and the ascending ids of the labels
    for n in range(1, 25):
        for k in range(1, n + 1):
            es = canonical_well_spread(n, k).elements
            for shifts in (range(n), range(n + 3, -n - 3, -1), [5, 5, 1, n, 2 * n + 1, -7]):
                assert list(rotations(es, n, shifts)) == [rotated_residues(es, n, t)
                                                          for t in shifts], (n, k)
    assert list(rotations((4,), 7, [0, 3, 3, -5, 10])) == [(4,), (0,), (0,), (6,), (0,)]


def test_canonical_rotations_filled_on_sparse_slices_equal_single_reads():
    # _filled makes the missing ids of a slice by one rotations pass; with
    # some ids read before, the missing ones come at irregular gaps
    for n, k in [(13, 5), (12, 4), (29, 9), (30, 12), (101, 50), (7, 1)]:
        one_by_one = CanonicalRotations(n, k)
        count = len(one_by_one)
        want = [one_by_one[u] for u in range(count)]
        assert want == [one_by_one.canon.rotate(u) for u in range(count)]
        for before, sl in [((), slice(None, None, 3)), ((1, 2, 7), slice(None, None, 2)),
                           ((0, 5), slice(None, None, -1)), ((3,), slice(1, None, 4))]:
            labels = CanonicalRotations(n, k)
            for u in before:
                labels[u % count]
            assert labels[sl] == tuple(want[sl]), (n, k, sl)
            assert list(labels) == want, (n, k)
