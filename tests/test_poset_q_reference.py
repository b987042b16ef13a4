"""Differential tests: the blocked-set kernel behind q_leq and
build_compat_matrix against the nested-loop clause and the cell-by-cell
matrix in q_reference, requiring exact equality."""

import itertools
import random

import pytest

from gapforge import (
    GapFragment,
    Ladder,
    Ordinal,
    QCondition,
    QContext,
    SPartition,
    TableTooShort,
    build_compat_matrix,
    fin,
    generate_pcc_instance,
    q_leq,
)
from helpers import conditions_in, random_fragment, small_context
from q_reference import ref_build_compat_matrix, ref_q_leq

# finite indices, indices between the limits, and the limits themselves
POOL = [fin(1), fin(3), fin(4), Ordinal(1, 0), Ordinal(1, 2), Ordinal(1, 5), Ordinal(2, 0), Ordinal(2, 1)]
LIMITS = frozenset({Ordinal(1, 0), Ordinal(2, 0), Ordinal(3, 0)})


def _ladder(rng: random.Random, kind: str) -> Ladder:
    """Canonical, or an explicit table per limit: "full" tables reach past
    every index below their limit, "short" ones may stop anywhere."""
    if kind == "canonical":
        return Ladder.canonical()
    entries = {}
    for delta in LIMITS:
        below = [Ordinal(q, r) for q in range(delta.q) for r in range(8)]
        values = set(rng.sample(below, rng.randint(0, 5)))
        if kind == "full":
            values.add(Ordinal(delta.q - 1, 7))  # above every pool index below delta
        entries[delta] = sorted(values)
    return Ladder.explicit(entries)


def _context(rng: random.Random, kind: str) -> QContext:
    frag = random_fragment(rng, rng.randint(4, 8), POOL, rng.randint(3, 6))
    return QContext(frag, _ladder(rng, kind), SPartition(S=LIMITS, T=frozenset(), D=LIMITS))


def _random_condition(rng: random.Random, ctx: QContext) -> QCondition:
    idx = sorted(ctx.g.a)
    w = rng.sample(idx, rng.randint(0, len(idx)))
    s = [d for d in sorted(LIMITS) if rng.random() < 0.5]
    return QCondition(frozenset(w), frozenset(s))


def _grow(rng: random.Random, ctx: QContext, p: QCondition) -> QCondition:
    """p with random extra w and s members: inclusion holds, the clause decides."""
    extra = _random_condition(rng, ctx)
    return QCondition(p.w | extra.w, p.s | extra.s)


def _family(rng: random.Random, ctx: QContext, size: int, base: int):
    return [(Ordinal(base + 2 * x, 1), _random_condition(rng, ctx)) for x in range(size)]


def _check_matrix(ctx: QContext, fam1, fam2) -> int:
    """Both orientations equal the reference; returns the true cells."""
    expected = ref_build_compat_matrix(ctx, fam1, fam2)
    assert build_compat_matrix(ctx, fam1, fam2) == expected
    assert build_compat_matrix(ctx, fam2, fam1) == ref_build_compat_matrix(ctx, fam2, fam1)
    return sum(map(sum, expected.cells))


@pytest.mark.parametrize("kind", ["canonical", "full"])
def test_q_leq_matches_reference_on_random_pairs(kind):
    rng = random.Random(61 if kind == "canonical" else 62)
    counts = {"true": 0, "clause_false": 0, "inclusion_false": 0}
    for _ in range(400):
        ctx = _context(rng, kind)
        for _ in range(30):
            p = _random_condition(rng, ctx)
            q = _grow(rng, ctx, p) if rng.random() < 0.7 else _random_condition(rng, ctx)
            expected = ref_q_leq(ctx, p, q)
            assert q_leq(ctx, p, q) is expected, (ctx, p, q)
            if expected:
                counts["true"] += 1
            elif p.w <= q.w and p.s <= q.s:
                counts["clause_false"] += 1
            else:
                counts["inclusion_false"] += 1
    assert min(counts.values()) >= 500, counts


@pytest.mark.parametrize("kind", ["canonical", "full"])
def test_compat_matrix_matches_reference_on_random_families(kind):
    rng = random.Random(63 if kind == "canonical" else 64)
    cells = true = 0
    for _ in range(60):
        ctx = _context(rng, kind)
        fam1 = _family(rng, ctx, rng.randint(0, 9), 10)
        fam2 = _family(rng, ctx, rng.randint(0, 9), 11)
        true += _check_matrix(ctx, fam1, fam2)
        cells += len(fam1) * len(fam2)
    assert 0 < true < cells


@pytest.mark.parametrize("kind", ["canonical", "full"])
def test_q_leq_and_matrix_match_reference_on_grid(kind):
    rng = random.Random(65 if kind == "canonical" else 66)
    related = pairs = true = 0
    for _ in range(5):
        ctx = small_context(rng)
        if kind == "full":
            ctx = QContext(ctx.g, _ladder(rng, "full"), SPartition(S=LIMITS, T=frozenset(), D=LIMITS))
        grid = conditions_in(ctx)
        for p, q in itertools.product(grid, repeat=2):
            expected = ref_q_leq(ctx, p, q)
            assert q_leq(ctx, p, q) is expected, (ctx, p, q)
            related += expected
            pairs += 1
        fam = [(fin(k), c) for k, c in enumerate(grid)]
        true += _check_matrix(ctx, fam, fam)
    assert 0 < related < pairs and 0 < true < pairs


@pytest.mark.parametrize("t", [8, 30, 60])
def test_compat_matrix_matches_reference_on_pcc_instances(t):
    for seed in range(4):
        inst = generate_pcc_instance(seed, t, t)
        fam1 = [(d, inst.fam1[d]) for d in inst.t1]
        fam2 = [(d, inst.fam2[d]) for d in inst.t2]
        true = _check_matrix(inst.ctx, fam1, fam2)
        assert 0 < true < t * t


def test_short_ladder_raises_wherever_the_reference_raises():
    """The kernel counts every rung the clause needs; the reference stops at
    the first failing anchor, so it sometimes answers False instead."""
    rng = random.Random(67)
    outcomes = {"raise": 0, "true": 0, "false": 0, "raise_where_false": 0}
    for _ in range(400):
        ctx = _context(rng, "short")
        for _ in range(30):
            p = _random_condition(rng, ctx)
            q = _grow(rng, ctx, p)
            try:
                expected = ref_q_leq(ctx, p, q)
            except TableTooShort:
                outcomes["raise"] += 1
                with pytest.raises(TableTooShort):
                    q_leq(ctx, p, q)
                continue
            try:
                got = q_leq(ctx, p, q)
            except TableTooShort:
                assert expected is False, (ctx, p, q)
                outcomes["raise_where_false"] += 1
                continue
            assert got is expected, (ctx, p, q)
            outcomes["true" if expected else "false"] += 1
        fam1, fam2 = _family(rng, ctx, 4, 10), _family(rng, ctx, 4, 11)
        try:
            expected_matrix = ref_build_compat_matrix(ctx, fam1, fam2)
        except TableTooShort:
            with pytest.raises(TableTooShort):
                build_compat_matrix(ctx, fam1, fam2)
            continue
        try:
            assert build_compat_matrix(ctx, fam1, fam2) == expected_matrix
        except TableTooShort:
            pass  # some cell of the reference answered False before the short rung
    assert min(outcomes.values()) > 0, outcomes


def test_short_ladder_pinned_pair():
    """One fresh index needs a rung past the table, the other is blocked
    outright: the reference meets the blocked one first and answers False."""
    delta = Ordinal(1, 0)
    idx = [fin(2), fin(5), Ordinal(1, 1)]
    a = {o: 0 for o in idx}
    b = {o: 0 for o in idx}
    part = SPartition(S=frozenset({delta}), T=frozenset(), D=frozenset({delta}))
    # one rung, fin(3): zero rungs below fin(2), the table ends before fin(5)
    ctx = QContext(GapFragment(4, a, b), Ladder.explicit({delta: [fin(3)]}), part)
    p = QCondition(frozenset({Ordinal(1, 1)}), frozenset({delta}))
    q = QCondition(frozenset(idx), frozenset({delta}))
    assert [j for j in q.w - p.w] == [fin(2), fin(5)]  # the order the reference walks
    assert ref_q_leq(ctx, p, q) is False
    with pytest.raises(TableTooShort):
        q_leq(ctx, p, q)

