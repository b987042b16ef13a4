import copy
import itertools
import pickle
import random
from bisect import bisect_left

import pytest

from gapforge import (
    Ladder,
    Ordinal,
    SPartition,
    TableTooShort,
    UnknownDelta,
)
from helpers import fin
from ordinals_reference import ref_count_below, ref_first_index_above, ref_ordinal_from_json, ref_value, two_sided
from p_reference import _ilt


def test_ordinal_predicates_and_validation():
    assert not Ordinal(0, 0).is_limit
    assert Ordinal(3, 0).is_limit and not Ordinal(3, 1).is_limit
    for bad in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            Ordinal(*bad)
    assert Ordinal(1, 2).succ() == Ordinal(1, 3)


def test_ordinal_json_and_key_roundtrip():
    o = Ordinal(4, 17)
    assert Ordinal.from_json(o.to_json()) == o
    assert Ordinal.from_key(o.key()) == o
    for data in ([1], [1, True], [1, 2, 3], (1, -2), [1.0, 2], "1.2", None):
        with pytest.raises(ValueError):
            Ordinal.from_json(data)
    # only the canonical key: ASCII digits without leading zeros, so that
    # "00.1" or "0.01" cannot alias the key "0.1" of one map
    assert Ordinal.from_key("10.0") == Ordinal(10, 0) and Ordinal.from_key("0.10") == fin(10)
    for key in ("1.2.3", "1", "-1.2", "a.b", "1.", "", "00.1", "0.01", "01.0", "+1.2", " 1.2", "1.2\n",
                "\u0663.\u0664", "\u00b2.1", "1_0.1"):
        with pytest.raises(ValueError):
            Ordinal.from_key(key)


def _from_json_matches_reference(data) -> bool:
    """Whether the encoding loads: to an `Ordinal` equal to the reference's,
    or else with the reference's ValueError message."""
    try:
        expected = ref_ordinal_from_json(data)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            Ordinal.from_json(data)
        assert str(got.value) == str(e)
        return False
    o = Ordinal.from_json(data)
    assert o == expected and type(o) is Ordinal
    return True


def test_ordinal_from_json_matches_reference_on_every_short_encoding():
    """Every list and tuple of length 0-3 over the diagram loader's pool of
    bad members and three naturals, and a few values that are no sequence."""
    pool = [0, 4, 10**20, -1, 10**9, -(10**9), 1.0, "1", True, False, None, [1]]
    loaded = 0
    for n in range(4):
        for parts in itertools.product(pool, repeat=n):
            loaded += _from_json_matches_reference(list(parts)) + _from_json_matches_reference(parts)
    assert loaded == 2 * 4 * 4  # each pair of naturals 0, 4, 10**20 and 10**9, as list and tuple
    for data in (None, "12", b"\x01\x02", {0: 1, 1: 2}, range(2), Ordinal(3, 4)):
        _from_json_matches_reference(data)


GRID = [(q, r) for q in (0, 1, 2, 7, 12) for r in (0, 1, 3, 10, 255)]


def test_ordinal_text_and_json_forms_on_a_grid():
    for q, r in GRID:
        o = Ordinal(q, r)
        assert (o.q, o.r) == (q, r)
        assert repr(o) == f"Ordinal(q={q}, r={r})"
        assert o.key() == f"{q}.{r}"
        assert o.to_json() == [q, r] and type(o.to_json()) is list
        assert Ordinal.from_json([q, r]) == o == Ordinal.from_key(f"{q}.{r}")
    texts = {(0, 0): "0", (0, 5): "5", (1, 0): "w", (1, 2): "w+2", (3, 0): "w*3", (12, 255): "w*12+255"}
    assert {qr: str(Ordinal(*qr)) for qr in texts} == texts
    assert f"{Ordinal(2, 1)}" == "w*2+1"


def test_ordinal_is_its_pair():
    for q, r in GRID:
        o = Ordinal(q, r)
        assert o == (q, r) and (q, r) == o
        assert hash(o) == hash((q, r))
        assert {o: 1}[(q, r)] == 1
    assert sorted(Ordinal(q, r) for q, r in reversed(GRID)) == sorted(GRID)


def test_ordinal_copies_and_pickles():
    for q, r in GRID:
        o = Ordinal(q, r)
        clones = [copy.copy(o), copy.deepcopy(o)]
        clones += [pickle.loads(pickle.dumps(o, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in clones:
            assert type(c) is Ordinal and c == o and (c.q, c.r) == (q, r)


def test_ordinal_order_and_hash_are_the_tuple_slots():
    assert Ordinal.__dict__["__lt__"] is tuple.__lt__
    assert Ordinal.__dict__["__hash__"] is tuple.__hash__
    assert Ordinal(1, 0) < Ordinal(1, 1) < Ordinal(2, 0)
    assert not hasattr(Ordinal(0, 0), "__dict__")


def test_two_sided_examples():
    a, b, c, z = Ordinal(2, 0), Ordinal(5, 1), Ordinal(9, 9), Ordinal(0, 0)
    pos = {pt: k for k, pt in enumerate(two_sided([b, c, a, z]))}
    assert pos[a, 0] < pos[b, 0]
    assert pos[b, 1] < pos[a, 1]
    assert pos[c, 0] < pos[z, 1]
    assert list(two_sided([])) == []
    assert list(two_sided({Ordinal(1, 1)})) == [(Ordinal(1, 1), 0), (Ordinal(1, 1), 1)]


def test_two_sided_agrees_with_the_pairwise_order():
    rng = random.Random(8)
    grid = [Ordinal(q, r) for q in range(4) for r in range(4)]
    for _ in range(500):
        ords = rng.sample(grid, rng.randint(0, 8))
        points = list(two_sided(ords))
        assert sorted(points) == sorted((o, s) for o in ords for s in (0, 1))
        for k, x in enumerate(points):
            for y in points[k + 1:]:
                assert _ilt(x, y) and not _ilt(y, x)
        ups = [o for o, s in points if s == 0]
        downs = [o for o, s in points if s == 1]
        assert all(x < y for x, y in zip(ups, ups[1:]))
        assert all(y < x for x, y in zip(downs, downs[1:]))


def test_four_point_chain():
    rng = random.Random(7)
    for _ in range(300):
        a = Ordinal(rng.randint(0, 5), rng.randint(0, 5))
        b = Ordinal(rng.randint(0, 5), rng.randint(0, 5))
        if not a < b:
            continue
        chain = [(a, 0), (b, 0), (b, 1), (a, 1)]
        for x, y in zip(chain, chain[1:]):
            assert _ilt(x, y)
        assert list(two_sided([b, a])) == chain


def test_canonical_ladder_examples():
    ladder = Ladder.canonical()
    assert ladder.count_below(Ordinal(1, 0), Ordinal(0, 5)) == 5
    assert ladder.count_below(Ordinal(1, 0), Ordinal(0, 0)) == 0
    assert ladder.count_below(Ordinal(3, 0), Ordinal(2, 4)) == 4


def test_canonical_ladder_values_increase_below_delta():
    ladder = Ladder.canonical()
    for q in (1, 2, 5):
        delta = Ordinal(q, 0)
        values = [ref_value(ladder, delta, n) for n in range(20)]
        assert all(v < delta for v in values)
        assert all(x < y for x, y in zip(values, values[1:]))


def test_count_below_monotone_in_j():
    ladder = Ladder.canonical()
    explicit = Ladder.explicit({Ordinal(2, 0): [fin(1), fin(4), Ordinal(1, 2), Ordinal(1, 9)]})
    for lad, delta in ((ladder, Ordinal(2, 0)), (explicit, Ordinal(2, 0))):
        probes = [fin(0), fin(2), fin(7), Ordinal(1, 0), Ordinal(1, 5), Ordinal(1, 10)]
        counts = []
        for j in probes:
            try:
                counts.append(lad.count_below(delta, j))
            except TableTooShort:
                counts.append(None)
        known = [c for c in counts if c is not None]
        assert known == sorted(known)


def test_explicit_ladder_errors():
    ladder = Ladder.explicit({Ordinal(1, 0): [fin(0), fin(3)]})
    with pytest.raises(UnknownDelta):
        ladder.count_below(Ordinal(2, 0), fin(1))
    with pytest.raises(TableTooShort):
        ladder.count_below(Ordinal(1, 0), fin(9))  # table never reaches 9
    with pytest.raises(TableTooShort):
        ref_value(ladder, Ordinal(1, 0), 5)
    assert ladder.count_below(Ordinal(1, 0), fin(3)) == 1
    assert ladder.count_below(Ordinal(1, 0), fin(2)) == 1
    with pytest.raises(ValueError):
        ladder.count_below(Ordinal(1, 0), Ordinal(1, 1))  # j must sit below delta


ERRORS = (UnknownDelta, TableTooShort, ValueError)


def _outcome(call):
    """What a rung count returns, or the type of what it raises."""
    try:
        return call()
    except ERRORS as e:
        return type(e)


def _random_ladder(rng):
    """A canonical ladder, or an explicit one over limits w*1..w*4 whose
    tables (some empty) hold increasing values below their limit."""
    if rng.random() < 0.25:
        return Ladder.canonical()
    entries = {}
    for q in rng.sample(range(1, 5), rng.randint(1, 4)):
        below = [Ordinal(rng.randint(0, q - 1), rng.randint(0, 12)) for _ in range(rng.randint(0, 8))]
        entries[Ordinal(q, 0)] = sorted(set(below))
    return Ladder.explicit(entries)


def _random_js(rng, ladder, delta):
    """Unsorted probes: mostly below delta, some equal to a rung, now and
    then one at or past delta."""
    rungs = list(ladder.entries.get(delta, ()))
    js = []
    for _ in range(rng.randint(0, 7)):
        roll = rng.random()
        if roll < 0.2 and rungs:
            js.append(rng.choice(rungs))
        elif roll < 0.25:
            js.append(Ordinal(delta.q, rng.randint(0, 2)))
        else:
            js.append(Ordinal(rng.randint(0, max(delta.q - 1, 0)), rng.randint(0, 14)))
    return js


def test_count_below_agrees_with_the_linear_scan_reference():
    """Each one-j count returns the reference's count, or raises the
    reference's own type."""
    rng = random.Random(2026)
    seen = {"count": 0, UnknownDelta: 0, TableTooShort: 0, ValueError: 0}
    for _ in range(600):
        ladder = _random_ladder(rng)
        delta = Ordinal(rng.randint(1, 5), 0 if rng.random() < 0.9 else 1)
        for j in _random_js(rng, ladder, delta):
            want = _outcome(lambda: ref_count_below(ladder, delta, j))
            assert _outcome(lambda: ladder.count_below(delta, j)) == want, (ladder, delta, j)
            seen["count" if isinstance(want, int) else want] += 1
    assert min(seen.values()) > 20, seen


def test_count_below_edge_cases():
    delta = Ordinal(1, 0)
    ladder = Ladder.explicit({delta: [fin(0), fin(3), fin(7)]})
    # a j equal to a rung counts only the rungs strictly below it
    assert [ladder.count_below(delta, j) for j in (fin(3), fin(0), fin(7), fin(5))] == [1, 0, 2, 2]
    cases = [
        (ladder, delta, fin(8), TableTooShort),  # past the table
        (ladder, Ordinal(2, 0), fin(1), UnknownDelta),
        (ladder, delta, Ordinal(1, 0), ValueError),  # j >= delta
        (Ladder.canonical(), Ordinal(2, 1), fin(1), UnknownDelta),  # not a limit
        (Ladder.canonical(), delta, Ordinal(1, 2), ValueError),
        (Ladder.explicit({delta: []}), delta, fin(0), TableTooShort),
    ]
    for lad, d, j, error in cases:
        assert _outcome(lambda: ref_count_below(lad, d, j)) is error
        assert _outcome(lambda: lad.count_below(d, j)) is error
    canonical = Ladder.canonical()
    assert [canonical.count_below(Ordinal(3, 0), j) for j in (Ordinal(2, 4), fin(9), Ordinal(2, 0))] == [4, 0, 0]


def _check_runs(ladder, delta, cand):
    """count_runs over the part of cand (ascending) below delta agrees with
    the one-j reference: ascending maximal runs covering cand[:end], and
    cand[end] the first candidate past the table.  Returns end."""
    n = bisect_left(cand, delta)
    runs, end = ladder.count_runs(delta, cand, n)
    bounds = [0] + [hi for _, hi, _ in runs]
    assert [lo for lo, _, _ in runs] == bounds[:-1] and bounds[-1] == end  # contiguous from 0
    assert all(lo < hi for lo, hi, _ in runs)
    assert all(x[2] < y[2] for x, y in zip(runs, runs[1:]))  # equal counts share one run
    assert [c for lo, hi, c in runs for _ in range(lo, hi)] == [ref_count_below(ladder, delta, j) for j in cand[:end]]
    if end < n:
        with pytest.raises(TableTooShort):
            ref_count_below(ladder, delta, cand[end])
    return end


def test_count_runs_agrees_with_the_linear_scan_reference():
    rng = random.Random(2027)
    seen = {"whole": 0, "cut": 0, UnknownDelta: 0}
    for _ in range(600):
        ladder = _random_ladder(rng)
        delta = Ordinal(rng.randint(1, 5), 0 if rng.random() < 0.9 else 1)
        cand = sorted(set(_random_js(rng, ladder, delta)))
        if not ladder.has(delta):
            with pytest.raises(UnknownDelta):
                ladder.count_runs(delta, cand, bisect_left(cand, delta))
            seen[UnknownDelta] += 1
            continue
        end = _check_runs(ladder, delta, cand)
        seen["whole" if end == bisect_left(cand, delta) else "cut"] += 1
    assert min(seen.values()) > 20, seen


def test_count_runs_edge_cases():
    delta = Ordinal(2, 0)
    canonical = Ladder.canonical()
    # the count-0 run reaches up to (1, 0); each later candidate is its own run
    cand = [fin(3), fin(9), Ordinal(1, 0), Ordinal(1, 2), Ordinal(1, 7), Ordinal(2, 0), Ordinal(2, 4)]
    assert canonical.count_runs(delta, cand, 5) == ([(0, 3, 0), (3, 4, 2), (4, 5, 7)], 5)
    assert canonical.count_runs(delta, [], 0) == ([], 0)
    assert canonical.count_runs(delta, cand, 0) == ([], 0)
    # a table longer than the prefix stops once the prefix is used up
    table = [fin(r) for r in range(0, 2000, 2)]
    explicit = Ladder.explicit({delta: table})
    assert explicit.count_runs(delta, [fin(5), fin(6), fin(7), fin(30)], 4) == (
        [(0, 2, 3), (2, 3, 4), (3, 4, 15)],
        4,
    )
    for lad in (canonical, explicit, Ladder.explicit({delta: [fin(4), Ordinal(1, 3)]})):
        for cand in ([fin(5), fin(6), fin(7), fin(30)], [fin(0), fin(4), fin(5), Ordinal(1, 3), Ordinal(1, 4)]):
            _check_runs(lad, delta, cand)
    short = Ladder.explicit({delta: [fin(4), Ordinal(1, 3)]})
    assert short.count_runs(delta, [fin(0), fin(4), fin(5), Ordinal(1, 3), Ordinal(1, 4)], 5) == (
        [(0, 2, 0), (2, 4, 1)],
        4,
    )
    assert Ladder.explicit({delta: []}).count_runs(delta, [fin(1)], 1) == ([], 0)
    with pytest.raises(UnknownDelta):
        explicit.count_runs(Ordinal(1, 0), [fin(1)], 1)
    with pytest.raises(ValueError):
        canonical.count_runs(delta, [fin(3), Ordinal(1, 2), delta], 3)  # delta is not below delta


def test_the_canonical_count_refuses_as_has_and_the_order_refuse():
    """The canonical path reads delta's parts and builds no ordinal, yet
    refuses as before: UnknownDelta at a delta that is no limit, ahead of
    any check of the candidates, and ValueError for a candidate at or above
    delta.  An explicit table refuses a delta it lacks the same way."""
    canonical = Ladder.canonical()
    explicit = Ladder.explicit({Ordinal(1, 0): [fin(2)]})
    for ladder, delta in [(canonical, d) for d in (Ordinal(0, 0), Ordinal(2, 3), fin(5))] + [(explicit, Ordinal(2, 0))]:
        assert not ladder.has(delta)
        for cand in ([], [fin(0)], [Ordinal(3, 0)]):  # the last lies above delta
            with pytest.raises(UnknownDelta):
                ladder.count_runs(delta, cand, len(cand))
        with pytest.raises(UnknownDelta):
            ladder.count_below(delta, fin(0))
    for ladder, delta in ((canonical, Ordinal(2, 0)), (explicit, Ordinal(1, 0))):
        for j in (delta, delta.succ(), Ordinal(5, 0)):
            with pytest.raises(ValueError):
                ladder.count_runs(delta, [fin(1), j], 2)
            with pytest.raises(ValueError):
                ladder.count_below(delta, j)
    # only the prefix cand[:n] is read
    cand = [fin(1), Ordinal(1, 4), Ordinal(2, 0)]
    assert canonical.count_runs(Ordinal(2, 0), cand, 2) == ([(0, 1, 0), (1, 2, 4)], 2)


class _Counted(list):
    """A list that counts the items read from it, bisection included."""

    reads = 0

    def __getitem__(self, k):
        _Counted.reads += 1
        return list.__getitem__(self, k)


def test_count_runs_work_is_bounded_by_the_candidates():
    """A canonical rung count of 10**9 is read off the candidate, not
    counted up to, and a long explicit table is bisected, not walked."""
    delta = Ordinal(3, 0)
    cand = _Counted([fin(1), Ordinal(1, 4), Ordinal(2, 0), Ordinal(2, 5), Ordinal(2, 10**9)])
    _Counted.reads = 0
    runs, end = Ladder.canonical().count_runs(delta, cand, len(cand))
    assert runs == [(0, 3, 0), (3, 4, 5), (4, 5, 10**9)] and end == 5
    assert _Counted.reads <= 2 * len(cand)
    long_table = Ladder.explicit({delta: [Ordinal(2, r) for r in range(10**5)]})
    cand = _Counted([fin(1), Ordinal(2, 0), Ordinal(2, 1), Ordinal(2, 99_000), Ordinal(2, 10**5)])
    _Counted.reads = 0
    runs = long_table.count_runs(delta, cand, len(cand))
    assert runs == ([(0, 2, 0), (2, 3, 1), (3, 4, 99_000)], 4)  # (2, 10**5) lies past the table
    assert _Counted.reads <= 4 * len(cand)


def test_explicit_ladder_validation():
    with pytest.raises(ValueError):
        Ladder.explicit({Ordinal(1, 1): [fin(0)]})  # not a limit
    with pytest.raises(ValueError):
        Ladder.explicit({Ordinal(1, 0): [fin(3), fin(1)]})  # not increasing
    with pytest.raises(ValueError):
        Ladder.explicit({Ordinal(1, 0): [Ordinal(1, 0)]})  # not below delta


def test_first_index_above():
    ladder = Ladder.canonical()
    assert ladder.first_index_above(Ordinal(1, 0), fin(4)) == 5
    assert ladder.first_index_above(Ordinal(2, 0), fin(9)) == 0
    explicit = Ladder.explicit({Ordinal(1, 0): [fin(0), fin(2)]})
    assert explicit.first_index_above(Ordinal(1, 0), fin(1)) == 1
    with pytest.raises(TableTooShort):
        explicit.first_index_above(Ordinal(1, 0), fin(5))


def _ladder_of_kind(rng, kind, delta):
    """A ladder at delta whose table is canonical, full (rungs up to the
    top block below delta), short (rungs below that block only) or empty."""
    if kind == "canonical":
        return Ladder.canonical()
    if kind == "empty":
        return Ladder.explicit({delta: []})
    top = delta.q - 1 if kind == "full" else rng.randint(0, delta.q - 1)
    rungs = {Ordinal(rng.randint(0, top), rng.randint(0, 12)) for _ in range(rng.randint(1, 8))}
    if kind == "full":
        rungs.add(Ordinal(delta.q - 1, 15))  # above every probe of that block
    return Ladder.explicit({delta: sorted(rungs)})


@pytest.mark.parametrize("kind", ["canonical", "full", "short", "empty"])
def test_first_index_above_agrees_with_the_linear_scan_reference(kind):
    """Every value and every UnknownDelta, TableTooShort or ValueError
    outcome of first_index_above is the linear scan's."""
    rng = random.Random(f"first-index-above-{kind}")
    seen = {}
    for _ in range(400):
        delta = Ordinal(rng.randint(1, 4), 0)
        ladder = _ladder_of_kind(rng, kind, delta)
        probe = delta if rng.random() < 0.9 else Ordinal(delta.q + rng.randint(0, 1), rng.randint(0, 1))
        for bound in _random_js(rng, ladder, delta):
            want = _outcome(lambda: ref_first_index_above(ladder, probe, bound))
            assert _outcome(lambda: ladder.first_index_above(probe, bound)) == want, (ladder, probe, bound)
            key = "value" if isinstance(want, int) else want
            seen[key] = seen.get(key, 0) + 1
    assert seen.get(ValueError, 0) > 5 and seen.get(UnknownDelta, 0) > 5, seen
    if kind != "empty":
        assert seen.get("value", 0) > 50, seen  # an empty table holds no rung above anything
    if kind in ("short", "empty"):
        assert seen.get(TableTooShort, 0) > 20, seen


def test_ladder_json_roundtrip():
    assert Ladder.from_json({"mode": "canonical"}) == Ladder.canonical()
    lad = Ladder.explicit({Ordinal(2, 0): [fin(1), Ordinal(1, 3)]})
    assert Ladder.from_json(lad.to_json()) == lad
    with pytest.raises(ValueError):
        Ladder.from_json({"mode": "guess"})


def test_partition_validation_and_json():
    part = SPartition(
        S=frozenset({Ordinal(1, 0)}),
        T=frozenset({Ordinal(2, 0)}),
        D=frozenset({Ordinal(1, 0), fin(3)}),
    )
    assert SPartition.from_json(part.to_json()) == part
    with pytest.raises(ValueError):
        SPartition(S=frozenset({fin(1)}), T=frozenset(), D=frozenset())
    with pytest.raises(ValueError):
        SPartition(S=frozenset({Ordinal(1, 0)}), T=frozenset({Ordinal(1, 0)}), D=frozenset())

