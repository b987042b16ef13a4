"""Differential tests: the bitmask excess, gap predicates and pcc profiles
against the frozenset versions in gaps_reference, requiring exact
equality."""

import itertools
import random

import pytest

from gapforge import (
    GapFragment,
    IndexMismatch,
    Ordinal,
    almost_subset,
    excess,
    fin,
    find_compatible_pair,
    full_inclusion_union,
    generate_pcc_instance,
    members,
    pcc_ab_profiles,
    special_gap_check,
    uniform_interpolation,
)
from gaps_reference import (
    as_sets,
    ref_almost_subset,
    ref_excess,
    ref_first_witness,
    ref_full_inclusion_union,
    ref_pcc_ab_profiles,
    ref_special_gap_check,
    ref_uniform_interpolation,
)
from helpers import mask, random_fragment


def _optional_mask(x):
    return None if x is None else mask(x)


def _check_predicates(g: GapFragment, n0s) -> set[tuple]:
    """Every mask predicate equals its reference on g at each threshold;
    returns the verdicts seen (special, interpolates, union interpolates)."""
    union = full_inclusion_union(g)
    assert union == _optional_mask(ref_full_inclusion_union(g))
    verdicts = set()
    for n0 in n0s:
        x = uniform_interpolation(g, n0)
        assert x == _optional_mask(ref_uniform_interpolation(g, n0))
        try:
            expected = ref_special_gap_check(g, n0)
        except IndexMismatch:
            with pytest.raises(IndexMismatch):
                special_gap_check(g, n0)
            continue
        assert special_gap_check(g, n0) is expected
        verdicts.add((expected, x is not None, union is not None))
    return verdicts


def test_members_and_mask_are_inverse():
    rng = random.Random(71)
    for _ in range(500):
        universe = rng.randint(0, 200)
        s = sorted(v for v in range(universe) if rng.random() < rng.random())
        assert members(mask(s)) == s
        assert as_sets({fin(0): mask(s)}, universe) == {fin(0): frozenset(s)}
    assert members(0) == []


def test_excess_and_almost_subset_match_reference_on_every_small_pair():
    universe = 5
    sets = [frozenset(c) for n in range(universe + 1) for c in itertools.combinations(range(universe), n)]
    for a, b in itertools.product(sets, repeat=2):
        assert excess(mask(a), mask(b)) == ref_excess(a, b)
        for n in range(universe + 2):
            assert almost_subset(mask(a), mask(b), n) is ref_almost_subset(a, b, n)


def test_excess_and_almost_subset_match_reference_on_random_pairs():
    rng = random.Random(72)
    for _ in range(3000):
        universe = rng.randint(1, 300)
        a = frozenset(v for v in range(universe) if rng.random() < 0.4)
        b = frozenset(v for v in range(universe) if rng.random() < rng.choice((0.4, 0.9)))
        assert excess(mask(a), mask(b)) == ref_excess(a, b)
        n = rng.randint(0, universe + 1)
        assert almost_subset(mask(a), mask(b), n) is ref_almost_subset(a, b, n)


@pytest.mark.parametrize("universe", [0, 1, 2, 3, 4])
def test_predicates_match_reference_on_every_two_index_fragment(universe):
    """Every assignment of subsets of [0, universe) to a_0, a_1, b_0, b_1.
    Up to universe 3 each is checked at every threshold up to universe + 1;
    at universe 4 (65,536 fragments) each at one seeded threshold."""
    rng = random.Random(74)
    i, j = fin(0), fin(1)
    thresholds = range(universe + 2)
    verdicts = set()
    for a0, a1, b0, b1 in itertools.product(range(1 << universe), repeat=4):
        g = GapFragment(universe, {i: a0, j: a1}, {i: b0, j: b1})
        verdicts |= _check_predicates(g, thresholds if universe < 4 else [rng.choice(thresholds)])
    if universe:
        for k in range(3):
            assert {v[k] for v in verdicts} == {True, False}


def test_predicates_match_reference_on_random_fragments():
    rng = random.Random(73)
    pool = [fin(k) for k in range(6)] + [Ordinal(1, 0), Ordinal(1, 4), Ordinal(2, 2)]
    for _ in range(1500):
        universe = rng.randint(0, 90)
        g = random_fragment(rng, universe, pool, rng.randint(0, 5))
        if rng.random() < 0.2:  # a different J: the special predicate refuses it
            g = GapFragment(universe, g.a, random_fragment(rng, universe, pool, rng.randint(0, 5)).b)
        elif rng.random() < 0.5:  # b-sets holding most of the a-sets: predicates hold more often
            g = GapFragment(universe, g.a, {o: g.b[o] | g.a[o] >> rng.randint(0, 3) for o in g.b})
        _check_predicates(g, {0, rng.randint(0, universe + 1), universe})


@pytest.mark.parametrize("t", [8, 30, 60])
def test_pcc_profiles_and_witness_match_reference(t):
    for seed in range(4):
        inst = generate_pcc_instance(seed, t, t)
        meets, joins = pcc_ab_profiles(inst)
        ref_meets, ref_joins = ref_pcc_ab_profiles(inst)
        assert meets == {d: mask(s) for d, s in ref_meets.items()}
        assert joins == {d: mask(s) for d, s in ref_joins.items()}
        assert find_compatible_pair(inst) == ref_first_witness(inst)
