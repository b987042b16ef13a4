"""Differential tests: the prefix-union sweeps of poset_p against the
pairwise, set-based references in p_reference, requiring exact equality."""

import itertools
import random

import pytest

from gapforge import (
    HypothesisFailure,
    InvalidBit,
    Ordinal,
    PCondition,
    SearchTooLarge,
    p_compatible_oracle,
    p_extend,
    p_join,
    p_join_from_core,
    p_leq,
    p_restrict,
)
from helpers import (
    enumerate_conditions,
    fin,
    grants_from_bits,
    random_extension,
    random_mask_pair,
    random_pcondition,
)
from p_reference import (
    ref_oracle_free_bits,
    ref_p_compatible_oracle,
    ref_p_extend,
    ref_p_join,
    ref_p_join_from_core,
    ref_p_leq,
)

# two w-blocks, so side-1 sweeps cross a limit as well as finite steps
POOL = [fin(0), fin(1), fin(2), fin(5), Ordinal(1, 0), Ordinal(1, 3), Ordinal(2, 1)]


def _words_agree(p: PCondition, q: PCondition) -> bool:
    """The part of p_leq before the growth clause: heights, domains, prefixes."""
    return p.height <= q.height and all(
        o in q.entries and q.entries[o][0].startswith(w0) and q.entries[o][1].startswith(w1)
        for o, (w0, w1) in p.entries.items()
    )


def _flip_one_bit(rng: random.Random, q: PCondition, low: int) -> PCondition | None:
    """q with one character at or above `low` flipped, or None when the flip
    breaks the pairing containment or there is no such character."""
    if not q.entries or low >= q.height:
        return None
    o = rng.choice(sorted(q.entries))
    side = rng.randint(0, 1)
    k = rng.randrange(low, q.height)
    words = list(q.entries[o])
    word = words[side]
    words[side] = word[:k] + ("0" if word[k] == "1" else "1") + word[k + 1:]
    try:
        return PCondition(q.height, {**q.entries, o: tuple(words)})
    except ValueError:
        return None


def test_p_leq_matches_reference_on_random_pairs():
    rng = random.Random(31)
    counts = {"true": 0, "growth_false": 0, "words_false": 0}
    pairs = 0
    while pairs < 20_000:
        p = random_pcondition(rng, POOL, rng.randint(0, 4), max_dom=5)
        kind = pairs % 3
        if kind == 0:
            q = random_extension(rng, p, POOL, extra_height=4)
        elif kind == 1:
            q = _flip_one_bit(rng, random_extension(rng, p, POOL, extra_height=4), p.height)
            if q is None:
                continue
        else:
            q = random_pcondition(rng, POOL, rng.randint(0, 6), max_dom=5)
        expected = ref_p_leq(p, q)
        assert p_leq(p, q) is expected, (p, q)
        if expected:
            counts["true"] += 1
        elif _words_agree(p, q):
            counts["growth_false"] += 1
        else:
            counts["words_false"] += 1
        pairs += 1
    # every branch of the order is exercised in bulk, the growth clause too
    assert min(counts.values()) >= 2_000, counts


def test_p_leq_matches_reference_on_grid():
    grid = enumerate_conditions([fin(0), fin(1), Ordinal(1, 0)], [0, 1])
    related = 0
    for p, q in itertools.product(grid, repeat=2):
        expected = ref_p_leq(p, q)
        assert p_leq(p, q) is expected, (p, q)
        related += expected
    assert 0 < related < len(grid) ** 2


def test_p_leq_at_equal_heights_matches_reference_on_near_misses():
    """At equal heights the order is a subset test of the entries: q equal
    to p, q with one bit flipped, q with keys p lacks, and q missing one of
    p's keys, each read both ways."""
    rng = random.Random(34)
    verdicts = {"same": set(), "flipped": set(), "extra keys": set(), "missing key": set()}
    for _ in range(2_000):
        p = random_pcondition(rng, POOL, rng.randint(1, 4), max_dom=5)
        outside = [o for o in POOL if o not in p.masks]
        near = {"same": PCondition.from_masks(p.height, dict(p.masks)), "flipped": _flip_one_bit(rng, p, 0)}
        if outside:
            extra = rng.sample(outside, rng.randint(1, min(2, len(outside))))
            near["extra keys"] = PCondition.from_masks(
                p.height, {**p.masks, **{o: random_mask_pair(rng, p.height) for o in extra}})
        if p.masks:
            near["missing key"] = p_restrict(p, sorted(p.masks)[:-1] if rng.random() < 0.5 else sorted(p.masks)[1:])
        for kind, q in near.items():
            if q is None:
                continue
            assert q.height == p.height
            assert p_leq(p, q) is ref_p_leq(p, q), (kind, p, q)
            assert p_leq(q, p) is ref_p_leq(q, p), (kind, q, p)
            verdicts[kind].add((p_leq(p, q), p_leq(q, p)))
    # a flip or a dropped key breaks the order one way; an added key keeps it one way
    assert verdicts == {"same": {(True, True)}, "flipped": {(False, False)},
                        "extra keys": {(True, False)}, "missing key": {(False, True)}}


def _check_oracle(p: PCondition, q: PCondition, cap: int) -> str:
    """Compare the oracle with the reference at the free-bit cap `cap`, and
    name the outcome both gave."""
    try:
        expected = ref_p_compatible_oracle(p, q, max_free_bits=cap)
    except SearchTooLarge:
        with pytest.raises(SearchTooLarge):
            p_compatible_oracle(p, q, max_free_bits=cap)
        return "too large"
    assert p_compatible_oracle(p, q, max_free_bits=cap) == expected, (p, q)
    return "compatible" if expected is not None else "incompatible"


def test_oracle_matches_reference_on_grid():
    grid = enumerate_conditions([fin(0), fin(1)], [0, 1, 2])
    outcomes = {"compatible": 0, "incompatible": 0}
    for p, q in itertools.product(grid, repeat=2):
        outcomes[_check_oracle(p, q, 24)] += 1
    assert min(outcomes.values()) > len(grid), outcomes


def test_oracle_matches_reference_on_random_pairs():
    """Pairs extending one common condition, some of them with one bit
    flipped above it, at a cap small enough to be hit."""
    rng = random.Random(35)
    outcomes = {"compatible": 0, "incompatible": 0, "too large": 0}
    for _ in range(600):
        r = random_pcondition(rng, POOL, rng.randint(0, 3), max_dom=4)
        p, q = random_extension(rng, r, POOL, extra_height=2), random_extension(rng, r, POOL, extra_height=4)
        if rng.random() < 0.5:
            q = _flip_one_bit(rng, q, r.height) or q
        outcomes[_check_oracle(p, q, 6)] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_oracle_search_too_large_boundary_matches_reference():
    """At a cap of exactly the free bits both search; one below, both raise."""
    rng = random.Random(36)
    searched = 0
    while searched < 200:
        r = random_pcondition(rng, POOL, rng.randint(0, 3), max_dom=4)
        p, q = random_extension(rng, r, POOL, extra_height=2), random_pcondition(rng, POOL, r.height + 2, max_dom=3)
        n_free = ref_oracle_free_bits(p, q)
        if not n_free or n_free > 10:
            continue
        assert _check_oracle(p, q, n_free) != "too large"
        assert _check_oracle(p, q, n_free - 1) == "too large"
        searched += 1


def _as_bits(grants) -> tuple[list, list]:
    """The new ordinals and forced bits ((o, side), k) that `ref_p_extend`
    takes for a grants map: every key, and every bit of every mask in it."""
    forced = [((o, side), k) for o, pair in grants.items() for side, m in enumerate(pair)
              for k in range(m.bit_length()) if m >> k & 1]
    return list(grants), forced


def test_p_extend_matches_reference():
    rng = random.Random(32)
    sides = set()
    for _ in range(3_000):
        p = random_pcondition(rng, POOL, rng.randint(0, 4), max_dom=5)
        target = p.height + rng.randint(0, 4)
        fresh = [o for o in POOL if o not in p.entries]
        new = rng.sample(fresh, rng.randint(0, min(3, len(fresh))))
        dom = sorted(set(p.entries) | set(new))
        forced = []
        if dom and target > p.height:
            for _ in range(rng.randint(0, 6)):
                side = rng.randint(0, 1)
                sides.add(side)
                forced.append(((rng.choice(dom), side), rng.randrange(p.height, target)))
        assert p_extend(p, target, grants_from_bits(new, forced)) == ref_p_extend(p, target, new, forced)
    assert sides == {0, 1}


def test_p_extend_matches_reference_on_every_small_grant():
    """Every condition over two indices up to height 1, extended by one
    level with every grants map over those indices and one new one.  Each
    mask is empty, the new level, or the other of levels 0 and 1, which
    lies outside the extension: grants that must raise are covered too."""
    keys = [fin(0), fin(1), fin(2)]
    outcomes = {"extended": 0, "InvalidBit": 0}
    for p in enumerate_conditions(keys[:2], [0, 1]):
        level, outside = 1 << p.height, 1 << (1 - p.height)
        options = [None] + list(itertools.product((0, level, outside), repeat=2))  # None: no key
        for choice in itertools.product(options, repeat=len(keys)):
            grants = {o: pair for o, pair in zip(keys, choice) if pair is not None}
            try:
                expected = ref_p_extend(p, p.height + 1, *_as_bits(grants))
            except InvalidBit:
                with pytest.raises(InvalidBit):
                    p_extend(p, p.height + 1, grants)
                outcomes["InvalidBit"] += 1
            else:
                assert p_extend(p, p.height + 1, grants) == expected, (p, grants)
                outcomes["extended"] += 1
    # 20 conditions, each with 5 choices per key inside the level
    assert outcomes == {"extended": 20 * 5**3, "InvalidBit": 20 * (10**3 - 5**3)}


@pytest.mark.parametrize(
    "forced, error",
    [
        ({fin(0): (0, 1 << 0)}, InvalidBit),
        ({fin(0): (1 << 3, 0)}, InvalidBit),
        ({fin(1): (1 << 0, 0)}, InvalidBit),  # a new key's bits are checked too
        ({fin(0): (0, 0, 1 << 2)}, ValueError),
    ],
)
def test_p_extend_rejects_like_reference(forced, error):
    """`forced` is a grants map; the reference reads its third mask as a
    forced bit on a side that does not exist."""
    p = PCondition(1, {fin(0): ("0", "1")})
    with pytest.raises(error):
        ref_p_extend(p, 3, *_as_bits(forced))
    with pytest.raises(error):
        p_extend(p, 3, forced)


def test_p_extend_grant_at_a_new_key_adds_that_index_like_reference():
    p = PCondition(1, {fin(0): ("0", "1")})
    grants = {fin(1): (0, 1 << 2)}
    extended = p_extend(p, 3, grants)
    assert extended == ref_p_extend(p, 3, *_as_bits(grants))
    assert extended.masks == {fin(0): (0, 0b101), fin(1): (0, 0b100)}  # fin(1)'s high side lies below fin(0)'s


def _check_joins(p: PCondition, q: PCondition) -> tuple[int, int]:
    """Compare both joins of (p, q) with the references; count valid inputs."""
    valid = []
    for fast, ref, args in ((p_join, ref_p_join, (p, q)), (p_join_from_core, ref_p_join_from_core, (q, p))):
        expected = ref(*args)
        if expected is None:
            with pytest.raises(HypothesisFailure):
                fast(*args)
        else:
            assert fast(*args) == expected, args
        valid.append(expected is not None)
    return valid[0], valid[1]


def test_joins_match_reference_on_generated_inputs():
    rng = random.Random(33)
    joined = from_core = 0
    for _ in range(2_000):
        p = random_pcondition(rng, POOL, rng.randint(0, 4), max_dom=5)
        keep = rng.sample(sorted(p.entries), rng.randint(0, len(p.entries)))
        outside = [o for o in POOL if o not in p.entries]
        q = random_extension(rng, p_restrict(p, keep), keep + outside, extra_height=4)
        a, b = _check_joins(p, q)
        joined += a
        from_core += b
    assert joined == 2_000 and from_core > 0


@pytest.mark.parametrize(
    "ordinals, heights",
    [([fin(0), fin(1), Ordinal(1, 0)], [0, 1]), ([fin(0), fin(1)], [0, 1, 2])],
)
def test_joins_match_reference_on_grid(ordinals, heights):
    grid = enumerate_conditions(ordinals, heights)
    joined = from_core = 0
    for p, q in itertools.product(grid, repeat=2):
        a, b = _check_joins(p, q)
        joined += a
        from_core += b
    assert 0 < joined < len(grid) ** 2 and 0 < from_core < len(grid) ** 2
