import itertools
import random

import pytest

from gapforge import (
    GapFragment,
    IndexMismatch,
    Ladder,
    Ordinal,
    SPartition,
    almost_subset,
    bits,
    c_hausdorff_check,
    excess,
    excess_matrix_csv,
    members,
    special_gap_check,
    uniform_interpolation,
)
from gapforge.gaps import MAX_UNIVERSE, table_csv, word
from helpers import fin, mask, random_fragment


def _ref_word(m: int, n: int) -> str:
    """Character k is bit k, one bit test each."""
    return "".join("1" if m >> k & 1 else "0" for k in range(n))


def test_bits_and_word_invert_each_other_on_every_short_word():
    for n in range(11):
        for m in range(1 << n):
            w = word(m, n)
            assert w == _ref_word(m, n) and bits(w) == m
        for chars in itertools.product("01", repeat=n):
            w = "".join(chars)
            assert word(bits(w), n) == w
    assert bits("") == 0 and word(0, 0) == ""


def test_bits_and_word_invert_each_other_on_random_long_masks():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 4096)
        m = rng.getrandbits(n)
        w = word(m, n)
        assert w == _ref_word(m, n) and bits(w) == m
        # a word may be longer than its set: the tail is zeros
        assert word(m, n + 3) == w + "000" and bits(w + "000") == m


def test_members_lists_the_set_bits_ascending():
    rng = random.Random(23)
    for m in [*range(1 << 10), *(rng.getrandbits(rng.randint(1, 4096)) for _ in range(100))]:
        assert members(m) == [k for k in range(m.bit_length()) if m >> k & 1]


def test_table_csv_layout():
    rows, cols = [fin(0), fin(2)], [fin(1)]
    assert table_csv(rows, cols, [["3"], ["4"]]) == ",0.1\n0.0,3\n0.2,4\n"
    assert table_csv(rows, cols, ["1", "0"]) == ",0.1\n0.0,1\n0.2,0\n"  # a word's characters are cells
    assert table_csv(rows, [], [[], []]) == "\n0.0\n0.2\n"
    assert table_csv([], cols, []) == ",0.1\n"
    assert table_csv([], [], []) == "\n"


def test_excess_examples():
    assert excess(mask({1, 3}), mask({0, 1, 2, 3})) == 0
    assert excess(mask({0, 2, 5}), mask({2, 5, 7})) == 1
    assert excess(mask({3, 4}), mask({4})) == 4
    assert excess(0, 0) == 0


def test_excess_laws_random():
    rng = random.Random(11)
    for _ in range(3000):
        m = rng.randint(1, 64)
        a = {v for v in range(m) if rng.random() < 0.4}
        b = {v for v in range(m) if rng.random() < 0.4}
        x = excess(mask(a), mask(b))
        assert {v for v in a if v >= x} <= b
        if x > 0:
            assert x - 1 in a and x - 1 not in b


def test_excess_monotone_antitone():
    rng = random.Random(12)
    for _ in range(1000):
        m = rng.randint(1, 32)
        a = {v for v in range(m) if rng.random() < 0.4}
        b = {v for v in range(m) if rng.random() < 0.4}
        bigger_b = b | {v for v in range(m) if rng.random() < 0.3}
        bigger_a = a | {v for v in range(m) if rng.random() < 0.3}
        assert excess(mask(a), mask(bigger_b)) <= excess(mask(a), mask(b))
        assert excess(mask(a), mask(b)) <= excess(mask(bigger_a), mask(b))


def test_almost_subset_examples():
    assert almost_subset(mask({3, 4}), mask({4}), 4) is True
    assert almost_subset(mask({3, 4}), mask({4}), 3) is False
    assert almost_subset(0, 0, 0) is True
    rng = random.Random(13)
    for _ in range(500):
        a = {v for v in range(20) if rng.random() < 0.4}
        b = {v for v in range(20) if rng.random() < 0.4}
        n = rng.randint(0, 20)
        assert almost_subset(mask(a), mask(b), n) == (excess(mask(a), mask(b)) <= n)


def _pair_fragment(a0, b0, a1, b1, universe=4):
    return GapFragment(
        universe,
        {fin(0): mask(a0), fin(1): mask(a1)},
        {fin(0): mask(b0), fin(1): mask(b1)},
    )


def test_special_gap_examples():
    true_g = _pair_fragment({0}, {0}, {1}, {1})
    assert special_gap_check(true_g, 0) is True
    false_g = _pair_fragment({0}, {0, 1}, {1}, {0, 1})
    assert special_gap_check(false_g, 0) is False
    empty = GapFragment(4, {}, {})
    assert special_gap_check(empty, 0) is True
    with pytest.raises(IndexMismatch):
        special_gap_check(GapFragment(4, {fin(0): 0}, {fin(1): 0}), 0)


def test_uniform_interpolation_examples():
    nested = _pair_fragment({0}, {0, 1, 2}, {1}, {0, 1, 2})
    assert uniform_interpolation(nested, 0) == mask({0, 1})
    true_g = _pair_fragment({0}, {0}, {1}, {1})
    assert uniform_interpolation(true_g, 0) is None  # excess(a_0, b_1) = 1
    empty_i = GapFragment(4, {}, {fin(0): mask({1})})
    assert uniform_interpolation(empty_i, 0) == 0


def test_uniform_interpolation_below_zero():
    # every excess exceeds a negative threshold; with no pair to compare,
    # truncating the witness at it is a negative shift
    assert uniform_interpolation(_pair_fragment({0}, {0, 1}, {1}, {0, 1}), -1) is None
    for empty_side in (GapFragment(4, {}, {fin(0): 1}), GapFragment(4, {fin(0): 1}, {})):
        with pytest.raises(ValueError):
            uniform_interpolation(empty_side, -1)


def _brute_uniform(g, n0):
    space = range(g.universe)
    for size in range(g.universe + 1):
        for xs in itertools.combinations(space, size):
            x = set(xs)
            if all(v in x for i in g.a for v in members(g.a[i]) if v >= n0) and all(
                {v for v in x if v >= n0} <= set(members(g.b[j])) for j in g.b
            ):
                return True
    return False


def test_uniform_interpolation_matches_brute_force():
    rng = random.Random(14)
    pool = [fin(k) for k in range(5)]
    for _ in range(300):
        m = rng.randint(1, 6)
        g = random_fragment(rng, m, pool, rng.randint(1, 3))
        n0 = rng.randint(0, m)
        mine = uniform_interpolation(g, n0)
        assert (mine is not None) == _brute_uniform(g, n0)
        top = max((excess(g.a[i], g.b[j]) for i in g.a for j in g.b), default=0)
        assert (mine is not None) == (top <= n0)


def _chc_fragment(universe, a_by_i, b_by_j):
    return GapFragment(universe, a_by_i, b_by_j)


def test_c_hausdorff_witness_example():
    # indices 1..4 below w, a_i = {0..i}, b_j empty: excess i+1 beats every n
    delta = Ordinal(1, 0)
    j = Ordinal(1, 1)
    a = {fin(i): mask(range(i + 1)) for i in range(1, 5)}
    a[j] = 0
    b = {o: 0 for o in a}
    g = _chc_fragment(8, a, b)
    part = SPartition(S=frozenset({delta}), T=frozenset(), D=frozenset({delta}))
    assert c_hausdorff_check(g, Ladder.canonical(), part) == ([(delta, j, 0, 5)], [])


def test_c_hausdorff_vacuous_example():
    delta = Ordinal(1, 0)
    j = Ordinal(1, 1)
    g = _chc_fragment(4, {j: mask({1})}, {j: 0})
    part = SPartition(S=frozenset({delta}), T=frozenset(), D=frozenset({delta}))
    assert c_hausdorff_check(g, Ladder.canonical(), part) == ([(delta, j, 0, 0)], [])


def test_c_hausdorff_failure_example():
    delta = Ordinal(1, 0)
    j = Ordinal(1, 1)
    a = {fin(i): mask(range(i + 1)) for i in range(1, 5)}
    a[j] = 0
    b = {o: mask(range(8)) for o in a}  # full: every excess is 0
    g = _chc_fragment(8, a, b)
    part = SPartition(S=frozenset({delta}), T=frozenset(), D=frozenset({delta}))
    assert c_hausdorff_check(g, Ladder.canonical(), part) == ([], [(delta, j)])


def test_c_hausdorff_monotone_under_shrinking_b():
    rng = random.Random(15)
    delta = Ordinal(1, 0)
    part = SPartition(S=frozenset({delta}), T=frozenset(), D=frozenset({delta}))
    for _ in range(200):
        m = rng.randint(2, 10)
        idx = [fin(i) for i in range(1, rng.randint(2, 6))] + [Ordinal(1, 1)]
        a = {o: mask(v for v in range(m) if rng.random() < 0.5) for o in idx}
        b = {o: mask(v for v in range(m) if rng.random() < 0.5) for o in idx}
        g = GapFragment(m, a, b)
        before, _ = c_hausdorff_check(g, Ladder.canonical(), part)
        j = Ordinal(1, 1)
        shrunk = dict(b)
        shrunk[j] = mask(v for v in members(b[j]) if rng.random() < 0.5)
        after, _ = c_hausdorff_check(GapFragment(m, a, shrunk), Ladder.canonical(), part)
        # (delta, j) is the one queried pair: a row before keeps a row after
        if before:
            assert [row[:2] for row in before] == [row[:2] for row in after] == [(delta, j)]
            assert after[0][2] <= before[0][2]


def test_uniform_interpolation_at_zero_is_the_full_inclusion_union():
    """At n0 = 0 the witness is the union of the a-sets, returned exactly
    when it lies inside every b-set."""
    allempty = GapFragment(4, {fin(0): 0, fin(1): 0}, {fin(0): 0, fin(1): 0})
    assert uniform_interpolation(allempty, 0) == 0
    g = _pair_fragment({1}, {1, 2, 3}, {1, 2}, {1, 2, 3})
    assert uniform_interpolation(g, 0) == mask({1, 2})
    bad = GapFragment(6, {fin(0): mask({5})}, {fin(1): mask({1})})
    assert uniform_interpolation(bad, 0) is None


def test_fragment_json_roundtrip_and_validation():
    rng = random.Random(16)
    g = random_fragment(rng, 6, [fin(k) for k in range(4)] + [Ordinal(1, 0)], 3)
    assert GapFragment.from_json(g.to_json()) == g
    with pytest.raises(ValueError):
        GapFragment(2, {fin(0): mask({5})}, {})
    with pytest.raises(ValueError):
        GapFragment.from_json({"universe": 2, "I": [[0, 0]], "J": [], "a": {}, "b": {}})


def test_fragment_from_json_checks_members():
    def load(members_a, universe=4):
        key = "0.0"
        return GapFragment.from_json(
            {"universe": universe, "I": [[0, 0]], "J": [[0, 0]], "a": {key: members_a}, "b": {key: [1, 3]}}
        )

    g = load([3, 1, 1, 3])  # duplicates count once
    assert g.a[fin(0)] == mask({1, 3}) == g.b[fin(0)]
    assert g.to_json()["a"] == {"0.0": [1, 3]}
    for bad in ([-1], [4], [10**9], [1.0], ["1"], [True], [None], [[1]]):
        with pytest.raises(ValueError):
            load(bad)
    with pytest.raises(ValueError):
        load([10**9], universe=-1)
    assert load([3], universe=MAX_UNIVERSE).universe == MAX_UNIVERSE == 1 << 16
    empty = {"I": [], "J": [], "a": {}, "b": {}}
    for universe in (MAX_UNIVERSE + 1, 10**9, True, False, 4.0, "4", None, [4]):
        with pytest.raises(ValueError):
            GapFragment.from_json({"universe": universe, **empty})


def test_fragment_restrict():
    g = _pair_fragment({0}, {0}, {1}, {1})
    sub = g.restrict([fin(0)])
    assert sub.I == (fin(0),) and sub.J == (fin(0),)
    both = g.restrict([fin(0)], [fin(1)])
    assert both.I == (fin(0),) and both.J == (fin(1),)


def test_excess_matrix_csv():
    g = _pair_fragment({0}, {0}, {1}, {1})
    text = excess_matrix_csv(g)
    assert text == ",0.0,0.1\n0.0,0,1\n0.1,2,0\n"
