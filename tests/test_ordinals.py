import copy
import pickle
import random

import pytest

from gapforge import (
    Ladder,
    Ordinal,
    SPartition,
    TableTooShort,
    UnknownDelta,
    fin,
    two_sided,
)
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
    for key in ("1.2.3", "1", "-1.2", "a.b", "1.", ""):
        with pytest.raises(ValueError):
            Ordinal.from_key(key)


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
        values = [ladder.value(delta, n) for n in range(20)]
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
        ladder.value(Ordinal(1, 0), 5)
    assert ladder.count_below(Ordinal(1, 0), fin(3)) == 1
    assert ladder.count_below(Ordinal(1, 0), fin(2)) == 1
    with pytest.raises(ValueError):
        ladder.count_below(Ordinal(1, 0), Ordinal(1, 1))  # j must sit below delta


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

