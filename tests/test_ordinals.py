import random

import pytest

from gapforge import (
    EQ,
    GT,
    LT,
    Ladder,
    Ordinal,
    SPartition,
    TableTooShort,
    UnknownDelta,
    cmp_ordinal,
    fin,
    two_sided,
)
from p_reference import _ilt


def test_cmp_ordinal_examples():
    assert cmp_ordinal(Ordinal(0, 0), Ordinal(0, 0)) == EQ
    assert cmp_ordinal(Ordinal(2, 0), Ordinal(5, 1)) == LT
    assert cmp_ordinal(Ordinal(1, 7), Ordinal(1, 3)) == GT


def test_ordinal_predicates_and_validation():
    assert Ordinal(0, 0).is_zero and not Ordinal(0, 0).is_limit
    assert Ordinal(3, 0).is_limit and not Ordinal(3, 1).is_limit
    with pytest.raises(ValueError):
        Ordinal(-1, 0)
    assert Ordinal(1, 2).succ() == Ordinal(1, 3)


def test_ordinal_json_and_key_roundtrip():
    o = Ordinal(4, 17)
    assert Ordinal.from_json(o.to_json()) == o
    assert Ordinal.from_key(o.key()) == o
    with pytest.raises(ValueError):
        Ordinal.from_json([1])
    with pytest.raises(ValueError):
        Ordinal.from_json([1, True])
    with pytest.raises(ValueError):
        Ordinal.from_key("1.2.3")


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
        assert all(cmp_ordinal(x, y) == LT for x, y in zip(ups, ups[1:]))
        assert all(cmp_ordinal(x, y) == GT for x, y in zip(downs, downs[1:]))


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

