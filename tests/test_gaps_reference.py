"""Differential tests: the bitmask excess, gap predicates, ladder-threshold
check and pcc profiles against the frozenset versions in gaps_reference,
requiring exact equality (or the same exception type), and the diagram
loader against the one it replaced (equal fragments or the same message)."""

import itertools
import random

import pytest

from gapforge import (
    GapFragment,
    IndexMismatch,
    Ladder,
    Ordinal,
    SPartition,
    TableTooShort,
    UnknownDelta,
    almost_subset,
    c_hausdorff_check,
    excess,
    excess_matrix_csv,
    find_compatible_pair,
    forge,
    default_index_blocks,
    generate_pcc_instance,
    members,
    pcc_ab_profiles,
    special_gap_check,
    uniform_interpolation,
)
from gapforge import gaps
from gapforge.gaps import MAX_INDICES, MAX_UNIVERSE, SPARSE, MemberTable, member_text
from gaps_reference import (
    as_sets,
    compress_members,
    ref_fragment_from_json,
    ref_almost_subset,
    ref_c_hausdorff_check,
    ref_excess,
    ref_excess_matrix_csv,
    ref_first_witness,
    ref_full_inclusion_union,
    ref_members,
    ref_pcc_ab_profiles,
    ref_special_gap_check,
    ref_uniform_interpolation,
)
from helpers import fin, mask, random_fragment


def _optional_mask(x):
    return None if x is None else mask(x)


def _check_predicates(g: GapFragment, n0s) -> set[tuple]:
    """Every mask predicate equals its reference on g at each threshold;
    returns the verdicts seen (special, interpolates, union interpolates)."""
    union = uniform_interpolation(g, 0)
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


def test_members_matches_its_reference_on_every_small_mask_and_on_tall_ones():
    for m in range(1 << 10):
        assert members(m) == ref_members(m)
    rng = random.Random(72)
    tall = [1 << (MAX_UNIVERSE - 1), (1 << MAX_UNIVERSE) - 1]
    for _ in range(40):
        n = rng.randint(0, MAX_UNIVERSE)
        # dense, then sparse: about 1/2 and 1/16 of the bits set
        tall += [rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)]
    for m in tall:
        assert members(m) == ref_members(m)


def test_members_matches_the_compress_listing_on_sparse_wide_masks():
    """0-8 members over 300-65,536 bits, a single top bit, and masks just
    either side of the density switch, where the listing changes path."""
    rng = random.Random(73)
    masks = [0, 1, 1 << 299, 1 << (MAX_UNIVERSE - 1), (1 << MAX_UNIVERSE) - 1]
    for width in (300, 349, 1000, 6133, 2**14, MAX_UNIVERSE):
        for n in range(9):
            masks.append(sum(1 << k for k in rng.sample(range(width - 1), n)) | 1 << (width - 1))
        # the density switch: one member in SPARSE bits of the width
        for n in (width // SPARSE - 1, width // SPARSE, width // SPARSE + 1):
            masks.append(sum(1 << k for k in rng.sample(range(width - 1), n - 1)) | 1 << (width - 1))
    for m in masks:
        assert members(m) == compress_members(m) == ref_members(m)


def test_member_text_joins_the_texts_of_the_reference_members():
    texts = [f"<{k}>" for k in range(MAX_UNIVERSE)]
    rng = random.Random(74)
    masks = list(range(1 << 8)) + [1 << (MAX_UNIVERSE - 1), (1 << MAX_UNIVERSE) - 1]
    masks += [rng.getrandbits(rng.randint(0, MAX_UNIVERSE)) for _ in range(20)]
    for m in masks:
        assert member_text(m, MemberTable(texts, ", ")) == ", ".join(texts[k] for k in ref_members(m))


def _runs_mask(rng: random.Random, width: int, lengths) -> int:
    """A set of runs of the given lengths, in order, each after a gap of 1-5
    non-members, within [0, width)."""
    m, at = 0, 0
    for n in lengths:
        at += rng.randint(1, 5)
        m |= (1 << n) - 1 << at
        at += n
    return m & (1 << width) - 1


def _member_text_masks(rng: random.Random) -> list[int]:
    """0, a single top bit, the full mask, alternating bits, random sets at
    densities 0.01-0.99, runs of each length from 1 to the universe, and sets
    with RUNS members per run boundary, one fewer and one more."""
    width, full = MAX_UNIVERSE, (1 << MAX_UNIVERSE) - 1
    masks = [0, 1, 1 << (width - 1), full, full // 3, full // 3 << 1, full // 3 << 2 & full, full - 1, full >> 1]
    for density in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
        for w in (1, 7, 300, 4096):
            masks.append(sum(1 << k for k in range(w) if rng.random() < density))
    for n in (1, 2, 3, 7, 8, 9, 10, 64, 1000, 4095, 4096):
        masks.append(_runs_mask(rng, 4096, [n] * (4096 // n + 1)))
        masks.append((1 << n) - 1 << rng.randint(0, 4096 - n))
    for runs in (1, 2, 3, 17, 500):
        for extra in (-1, 0, 1):
            # boundaries are 2 per run, so RUNS * 2 * runs members sit on the switch
            count = gaps.RUNS * 2 * runs + extra
            lengths = [1] * runs
            for _ in range(count - runs):
                lengths[rng.randrange(runs)] += 1
            masks.append(_runs_mask(rng, MAX_UNIVERSE, lengths))
    return masks


@pytest.mark.parametrize("runs", [0, None, MAX_UNIVERSE], ids=["every-set-by-runs", "switch", "every-set-by-members"])
def test_member_text_takes_either_path_with_the_text_of_the_reference_members(runs, monkeypatch):
    """Both paths, and the switch between them, on the masks of
    `_member_text_masks`, with separators of several lengths: RUNS at 0
    writes every set run by run, and at MAX_UNIVERSE every set member by
    member, which never builds the joined texts."""
    masks = _member_text_masks(random.Random(76))  # on the switch at the package's RUNS
    if runs is not None:
        monkeypatch.setattr(gaps, "RUNS", runs)
    texts = [f"<{k}>" for k in range(MAX_UNIVERSE)]
    for sep in ("", ",", ", ", ",\n        "):
        table = MemberTable(texts, sep)
        for m in masks:
            assert member_text(m, table) == sep.join(texts[k] for k in ref_members(m))
        assert (table.joined is None) is (runs == MAX_UNIVERSE)


def test_member_text_builds_the_joined_texts_at_the_first_set_written_by_runs():
    """Sets of RUNS members per run boundary or fewer leave the table as it
    was; the first set with more builds the joined texts and their offsets,
    once: one run of 2 RUNS members is written member by member, and one of
    2 RUNS + 1 run by run."""
    table = MemberTable([str(k) for k in range(64)], ", ")
    assert member_text(0, table) == "" and member_text(0b10101, table) == "0, 2, 4"
    assert member_text((1 << 64) // 3, table) == ", ".join(map(str, range(0, 64, 2)))
    assert member_text((1 << 2 * gaps.RUNS) - 1 << 3, table) == ", ".join(map(str, range(3, 3 + 2 * gaps.RUNS)))
    assert table.joined is None and table.starts is None
    assert member_text((1 << 2 * gaps.RUNS + 1) - 1 << 3, table) == ", ".join(map(str, range(3, 4 + 2 * gaps.RUNS)))
    joined, starts = table.joined, table.starts
    assert joined == ", ".join(map(str, range(64))) and starts.typecode == "q"
    assert list(starts) == [len(joined) - len(", ".join(map(str, range(k, 64)))) for k in range(64)] + [len(joined) + 2]
    assert member_text((1 << 64) - 1, table) == joined and table.joined is joined


def test_excess_matrix_csv_matches_the_cell_by_cell_reference():
    """On random fragments with I and J apart, either side empty, universe
    0, and on forged diagrams, whose excesses are mostly 0."""
    rng = random.Random(75)
    pool = [Ordinal(q, r) for q in range(3) for r in range(5)]
    cases = [GapFragment(0, {}, {}), GapFragment(5, {fin(0): 3}, {}), GapFragment(5, {}, {fin(0): 3})]
    cases += [forge(default_index_blocks(n), 40, seed) for n, seed in ((0, 0), (1, 1), (24, 2), (40, 3))]
    for _ in range(300):
        universe = rng.randint(0, 70)

        def side():
            return {o: rng.getrandbits(universe) & rng.getrandbits(universe) for o in rng.sample(pool, rng.randint(0, 15))}

        cases.append(GapFragment(universe, side(), side()))
    for g in cases:
        assert excess_matrix_csv(g) == ref_excess_matrix_csv(g)


@pytest.mark.parametrize("universe", [1, 2, 10, 64, MAX_UNIVERSE])
def test_excess_matrix_csv_writes_an_excess_equal_to_the_universe(universe):
    """An a-set holding the top member of the universe, which a b-set lacks,
    has the universe as its excess: the last text of the CSV's table."""
    top = 1 << (universe - 1)
    g = GapFragment(universe, {fin(0): top, fin(1): 0}, {fin(0): 0, fin(2): top, fin(3): top >> 1})
    text = excess_matrix_csv(g)
    assert text == ref_excess_matrix_csv(g)
    assert text.splitlines()[1] == f"0.0,{universe},0,{universe}"


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


def test_predicates_match_reference_with_an_empty_side():
    """Empty I, empty J, or both: nothing to compare, at every threshold."""
    rng = random.Random(75)
    pool = [fin(k) for k in range(6)] + [Ordinal(1, 0), Ordinal(1, 4)]
    for _ in range(200):
        universe = rng.randint(0, 20)
        g = random_fragment(rng, universe, pool, rng.randint(1, 4))
        for a, b in (({}, g.b), (g.a, {}), ({}, {})):
            _check_predicates(GapFragment(universe, a, b), range(universe + 2))


def _check_c_hausdorff(g: GapFragment, ladder: Ladder, part: SPartition):
    """c_hausdorff_check equals its reference on g, or raises an exception
    of the very same type; returns the reference result or that type.  Every
    row has 0 <= k <= n_star, and both lists strictly increase in (delta, j)."""
    try:
        expected = ref_c_hausdorff_check(g, ladder, part)
    except Exception as e:  # any type: the kernel must raise the very same one
        with pytest.raises(Exception) as info:
            c_hausdorff_check(g, ladder, part)
        assert type(info.value) is type(e)
        return type(e)
    rows, failures = c_hausdorff_check(g, ladder, part)
    assert (rows, failures) == expected
    assert all(0 <= k <= n_star for _, _, k, n_star in rows)
    for pairs in ([row[:2] for row in rows], failures):
        assert all(x < y for x, y in zip(pairs, pairs[1:]))
    return expected


def _verdicts(result) -> set:
    """None for a failing pair, else (k > 0, k == n_star) of its row."""
    rows, failures = result
    return {(k > 0, k == n_star) for _, _, k, n_star in rows} | ({None} if failures else set())


LIMITS = [Ordinal(1, 0), Ordinal(2, 0), Ordinal(3, 0)]
RUNG_POOL = [fin(k) for k in range(9)] + [Ordinal(1, r) for r in range(7)] + [Ordinal(2, r) for r in range(5)]
INDEX_POOL = [fin(k) for k in range(7)] + [Ordinal(1, r) for r in range(6)] + [Ordinal(2, r) for r in (0, 1, 3)]


def _random_ladder(rng: random.Random) -> Ladder:
    """Canonical, or an explicit table per limit: some limits left out, some
    tables too short for the indices below their limit."""
    if rng.random() < 0.4:
        return Ladder.canonical()
    entries = {}
    for d in LIMITS:
        if rng.random() < 0.2:
            continue
        below = [o for o in RUNG_POOL if o < d]
        entries[d] = sorted(rng.sample(below, rng.randint(0, len(below))))
    return Ladder.explicit(entries)


def test_c_hausdorff_matches_reference_on_random_fragments():
    rng = random.Random(76)
    seen = set()
    for _ in range(3000):
        universe = rng.randint(0, 12)
        iset = rng.sample(INDEX_POOL, rng.randint(0, 6))
        jset = iset if rng.random() < 0.3 else rng.sample(INDEX_POOL, rng.randint(0, 6))
        dense = rng.choice((0.5, 0.8, 0.95))
        a = {o: mask(v for v in range(universe) if rng.random() < 0.4) for o in iset}
        b = {o: mask(v for v in range(universe) if rng.random() < dense) for o in jset}
        s = frozenset(d for d in LIMITS if rng.random() < 0.6)
        d = frozenset(o for o in LIMITS + INDEX_POOL if rng.random() < 0.3) | s
        result = _check_c_hausdorff(GapFragment(universe, a, b), _random_ladder(rng), SPartition(S=s, D=d))
        seen |= {result} if isinstance(result, type) else _verdicts(result)
    # every outcome turns up: both errors, failing pairs and each kind of witness
    assert {TableTooShort, UnknownDelta, None} <= seen
    assert {(False, True), (False, False), (True, False)} <= seen


def test_c_hausdorff_matches_reference_on_every_small_diagram():
    """Every choice of subsets of [0, 3) for a_0, a_1, a_2 below w and for
    b_j at j = w+1, under the canonical ladder at w."""
    delta, j = Ordinal(1, 0), Ordinal(1, 1)
    below = [fin(0), fin(1), fin(2)]
    part = SPartition(S=frozenset({delta}), D=frozenset({delta}))
    seen = set()
    for masks in itertools.product(range(8), repeat=4):
        a = dict(zip(below, masks)) | {j: 0}
        b = {i: 0 for i in below} | {j: masks[3]}
        rows, failures = _check_c_hausdorff(GapFragment(3, a, b), Ladder.canonical(), part)
        assert [row[:2] for row in rows] + failures == [(delta, j)]
        seen.add(rows[0][2] if rows else None)
    assert seen == {None, 0, 1, 2}


@pytest.mark.parametrize("t", [8, 30, 60])
def test_pcc_profiles_and_witness_match_reference(t):
    for seed in range(4):
        inst = generate_pcc_instance(seed, t, t)
        meets, joins = pcc_ab_profiles(inst)
        ref_meets, ref_joins = ref_pcc_ab_profiles(inst)
        assert meets == {d: mask(s) for d, s in ref_meets.items()}
        assert joins == {d: mask(s) for d, s in ref_joins.items()}
        assert find_compatible_pair(inst) == ref_first_witness(inst)


def _load_matches_reference(data) -> GapFragment | None:
    """The loaded fragment, equal to the reference's and keyed by `Ordinal`s,
    or None when both loaders raise ValueError with one message."""
    try:
        expected = ref_fragment_from_json(data)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            GapFragment.from_json(data)
        assert str(got.value) == str(e)
        return None
    g = GapFragment.from_json(data)
    assert g == expected
    assert all(type(o) is Ordinal for o in [*g.a, *g.b])
    return g


def _random_diagram_json(rng: random.Random, universe: int) -> dict:
    """A valid diagram file: indices and keys in random order, and member
    lists unsorted with repeats."""
    iset, jset = (rng.sample(INDEX_POOL, rng.randint(0, len(INDEX_POOL))) for _ in "IJ")

    def side(idx):
        keys = [o.key() for o in idx]
        rng.shuffle(keys)
        return {k: rng.choices(range(universe), k=rng.randint(0, 2 * universe)) if universe else [] for k in keys}

    return {"universe": universe, "I": [o.to_json() for o in iset], "J": [o.to_json() for o in jset],
            "a": side(iset), "b": side(jset)}


def test_fragment_loader_matches_reference_on_random_diagrams():
    rng = random.Random(31)
    for _ in range(300):
        assert _load_matches_reference(_random_diagram_json(rng, rng.randint(0, 300))) is not None


@pytest.mark.parametrize("indices, height", [(0, 5), (1, 1), (8, 64), (40, 64), (64, 1024), (64, 16384)])
def test_fragment_loader_matches_reference_on_forged_diagrams(indices, height):
    data = forge(default_index_blocks(indices), height, indices + height).to_json()
    assert _load_matches_reference(data) is not None


def _pair_diagram(universe, a0, a1, b0, b1) -> dict:
    return {"universe": universe, "I": [[0, 0], [0, 1]], "J": [[0, 0], [1, 0]],
            "a": {"0.0": a0, "0.1": a1}, "b": {"0.0": b0, "1.0": b1}}


@pytest.mark.parametrize("universe", [-1, 0, 1, 4, MAX_UNIVERSE])
def test_fragment_loader_matches_reference_on_every_bad_member(universe):
    """Each value alone, after a good member, and before a second bad one,
    on either side: the first bad member in file order is named."""
    good = [universe - 1] if universe > 0 else []
    loaded = 0
    for x in [-1, universe, 10**9, -(10**9), 1.0, "1", True, False, None, [1]]:
        for listed in ([x], [*good, x], [x, -2]):
            for pos in range(4):
                lists = [good, [], [*good, *good], good]
                lists[pos] = listed
                loaded += _load_matches_reference(_pair_diagram(universe, *lists)) is not None
    assert loaded == 0


@pytest.mark.parametrize("universe", [-1, 0, 1, MAX_UNIVERSE])
def test_fragment_loader_matches_reference_at_the_edge_universes(universe):
    top = [universe - 1] if universe > 0 else []
    for lists in ([[], [], [], []], [top, [], top, top], [[0], [], [], []], [top * 3, top, [], [*top, *top]]):
        loaded = _load_matches_reference(_pair_diagram(universe, *lists)) is not None
        # a negative universe loads nothing, and an empty one no member
        assert loaded == (universe > 0 or universe == 0 and not any(lists))


@pytest.mark.parametrize(
    "data",
    [
        None, [], {"universe": 4},
        _pair_diagram(True, [], [], [], []),
        _pair_diagram(4.0, [], [], [], []),
        _pair_diagram(MAX_UNIVERSE + 1, [], [], [], []),
        {**_pair_diagram(4, [], [], [], []), "a": []},
        {**_pair_diagram(4, [], [], [], []), "I": [[0, 0], [0, 1], [0, 0]]},
        {**_pair_diagram(4, [], [], [], []), "I": [[0, 0], [0, -1]]},
        {**_pair_diagram(4, [], [], [], []), "J": [[0, 0], [1, 0], [2, 0]]},
        {**_pair_diagram(4, [], [], [], []), "a": {"0.0": [1], "00.1": [2]}},
        {**_pair_diagram(4, [], [], [], []), "a": {"0.0": [1], "0.1": [2], "0.2": [3]}},
        {**_pair_diagram(4, [], [], [], []), "a": {"0.0": [1], "x": [9]}},
        {**_pair_diagram(4, [], [], [], []), "a": {"0.1": [1], "0.0": [0, 3]}},
        {**_pair_diagram(4, [], [], [], []), "b": {"1.0": [1], "0.0": [4]}},
    ],
    ids=[
        "null", "list", "missing-keys", "bool-universe", "float-universe", "big-universe", "a-list",
        "repeated-index", "bad-index", "unmapped-index", "aliased-key", "unlisted-key", "bad-key-before-bad-member",
        "keys-out-of-order", "bad-member-in-b",
    ],
)
def test_fragment_loader_matches_reference_on_malformed_diagrams(data):
    _load_matches_reference(data)


def test_fragment_loader_refuses_a_side_over_the_cap_before_reading_a_member():
    """Sets times universe above MAX_INDICES^2 on one side: refused, where
    the reference would name the first bad member, and the cap is exact."""
    universe = MAX_UNIVERSE
    at_cap = MAX_INDICES**2 // universe
    keys = [f"0.{r}" for r in range(at_cap + 1)]
    idx = [[0, r] for r in range(at_cap + 1)]
    for side, other in ("ab", "ba"):
        data = {"universe": universe, "I": idx, "J": idx}
        data |= {side: {k: ["x"] for k in keys}, other: {k: [] for k in keys[:at_cap]}}
        with pytest.raises(ValueError, match="member 'x' at 0.0"):
            ref_fragment_from_json(data)
        with pytest.raises(ValueError) as refused:
            GapFragment.from_json(data)
        assert str(refused.value) == f"{at_cap + 1} {side}-sets by universe {universe} exceed the load limit 2048^2"
    data = {"universe": universe, "I": idx[:at_cap], "J": idx[:at_cap],
            "a": {k: [universe - 1] for k in keys[:at_cap]}, "b": {k: [0] for k in keys[:at_cap]}}
    assert _load_matches_reference(data) is not None
