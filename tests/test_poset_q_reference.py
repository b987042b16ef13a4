"""Differential tests: the blocked-set kernel behind q_leq and
build_compat_matrix against the per-candidate blocked-set loop, the
nested-loop clause and the cell-by-cell matrix in q_reference, requiring
exact equality."""

import itertools
import random
from collections import Counter

import pytest

from gapforge import (
    GapFragment,
    Ladder,
    Ordinal,
    QCondition,
    QContext,
    SPartition,
    TableTooShort,
    UnknownDelta,
    build_compat_matrix,
    generate_pcc_instance,
    ladder_blocked,
    q_leq,
)
from helpers import conditions_in, fin, random_fragment, small_context
from q_reference import ref_build_compat_matrix, ref_ladder_blocked, ref_q_leq

# finite indices, indices between the limits, and the limits themselves
POOL = [fin(1), fin(3), fin(4), Ordinal(1, 0), Ordinal(1, 2), Ordinal(1, 5), Ordinal(2, 0), Ordinal(2, 1)]
LIMITS = frozenset({Ordinal(1, 0), Ordinal(2, 0), Ordinal(3, 0)})
UNKNOWN = Ordinal(9, 9)  # outside the pool, so no diagram holds it


def _ladder(rng: random.Random, kind: str) -> Ladder:
    """Canonical, or an explicit table per limit: "full" tables reach past
    every index below their limit, "short" ones may stop anywhere, "empty"
    ones hold no rung."""
    if kind == "canonical":
        return Ladder.canonical()
    if kind == "empty":
        return Ladder.explicit({delta: [] for delta in LIMITS})
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
    return sum(r.bit_count() for r in expected.rows)


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
    """Clean families give the reference's matrix.  A family with one fault,
    an unknown index or an s member outside S in one condition, raises what
    `check_condition` raises on that condition, in both orientations, as
    the reference does once the other family has a cell to check."""
    rng = random.Random(63 if kind == "canonical" else 64)
    plant = random.Random(73 if kind == "canonical" else 74)  # apart, so the clean families stay as they were
    cells = true = 0
    faults = Counter()
    for _ in range(60):
        ctx = _context(rng, kind)
        fam1 = _family(rng, ctx, rng.randint(0, 9), 10)
        fam2 = _family(rng, ctx, rng.randint(0, 9), 11)
        true += _check_matrix(ctx, fam1, fam2)
        cells += len(fam1) * len(fam2)
        if not fam1:
            continue
        x = plant.randrange(len(fam1))
        delta, p = fam1[x]
        bad = QCondition(p.w | {UNKNOWN}, p.s) if plant.random() < 0.5 else QCondition(p.w, p.s | {STRAY})
        faulty = fam1[:x] + [(delta, bad)] + fam1[x + 1 :]
        expected = _raised(ctx.check_condition, bad)
        faults[expected[0].__name__] += 1
        for pair in ((faulty, fam2), (fam2, faulty)):
            assert _raised(build_compat_matrix, ctx, *pair) == expected, pair
            if fam2:
                assert _raised(ref_build_compat_matrix, ctx, *pair) == expected, pair
    assert 0 < true < cells
    assert faults["UnknownIndex"] > 5 and faults["ValueError"] > 5, faults


def _raised(fn, *args) -> tuple[type, str]:
    with pytest.raises(Exception) as err:
        fn(*args)
    return err.type, str(err.value)


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
        true = _check_matrix(inst.ctx, inst.fam1, inst.fam2)
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


ABOVE = Ordinal(5, 1)  # above every delta a condition carries
STRAY = Ordinal(4, 0)  # a limit outside S, which no explicit table holds


def _context_above(rng: random.Random, kind: str) -> QContext:
    """A context over some of POOL and ABOVE, so that every delta, STRAY
    too, has an index above it."""
    idx = rng.sample(POOL, rng.randint(3, len(POOL))) + [ABOVE]
    frag = random_fragment(rng, rng.randint(4, 8), idx, len(idx))
    return QContext(frag, _ladder(rng, kind), SPartition(S=LIMITS, T=frozenset(), D=LIMITS))


def _outcome(call):
    """What a blocked-set call returns, or the type of what it raises."""
    try:
        return call()
    except (TableTooShort, UnknownDelta) as e:
        return type(e)


def _blocked(ctx: QContext, conds, cand):
    """The kernel's outcome on the family conds over cand, required equal to
    the per-candidate reference's on each condition in turn: the masks, or
    the type that the first condition to raise raises."""
    got = _outcome(lambda: ladder_blocked(ctx, conds, cand))
    assert got == _outcome(lambda: [ref_ladder_blocked(ctx, p, cand) for p in conds]), (ctx, conds, cand)
    return got


def _tally(seen: Counter, got) -> None:
    if isinstance(got, type):
        seen[got] += 1
    else:
        seen.update("blocked" if m else "none" for m in got)


EXPECTED_OUTCOMES = {
    "canonical": {"blocked", "none"},
    "full": {"blocked", "none", UnknownDelta},
    "short": {"blocked", "none", UnknownDelta, TableTooShort},
    "empty": {"none", UnknownDelta, TableTooShort},
}


@pytest.mark.parametrize("kind", sorted(EXPECTED_OUTCOMES))
def test_ladder_blocked_matches_reference_on_random_contexts(kind):
    """Families of one to three conditions over one candidate list, which
    mixes members of their w, other indices and ABOVE, or is empty; now and
    then an s holds STRAY, which only a canonical ladder has, so a missing
    delta raises as a short table does."""
    rng = random.Random({"canonical": 71, "empty": 72, "full": 73, "short": 74}[kind])
    seen, lists = Counter(), Counter()
    for _ in range(200):
        ctx = _context_above(rng, kind)
        members = sorted(ctx.g.a)
        for _ in range(20):
            conds = [_random_condition(rng, ctx) for _ in range(rng.randint(1, 3))]
            conds = [QCondition(p.w, p.s | {STRAY}) if rng.random() < 0.1 else p for p in conds]
            w = set().union(*(p.w for p in conds))
            cand = []
            if rng.random() < 0.9:
                own = rng.sample(sorted(w), rng.randint(0, len(w)))
                cand = sorted(set(own) | set(rng.sample(members, rng.randint(1, len(members)))))
            lists["empty" if not cand else "meets w" if w & set(cand) else "fresh"] += 1
            lists["above"] += ABOVE in cand
            _tally(seen, _blocked(ctx, conds, cand))
    assert set(seen) == EXPECTED_OUTCOMES[kind], seen
    assert min(seen.values()) >= 20 and min(lists.values()) >= 200, (seen, lists)


@pytest.mark.parametrize("kind", ["canonical", "full", "short"])
def test_ladder_blocked_matches_reference_on_grid(kind):
    """Every bounded condition against every candidate sublist of the index
    set: all of them as one family, and one at a time where the family
    raises."""
    rng = random.Random({"canonical": 75, "full": 76, "short": 77}[kind])
    seen = Counter()
    for _ in range(6):
        ctx = small_context(rng)
        if kind != "canonical":
            ctx = QContext(ctx.g, _ladder(rng, kind), SPartition(S=LIMITS, T=frozenset(), D=LIMITS))
        idx = sorted(ctx.g.a)
        lists = [list(c) for n in range(len(idx) + 1) for c in itertools.combinations(idx, n)]
        conds = conditions_in(ctx)
        for cand in lists:
            got = _blocked(ctx, conds, cand)
            _tally(seen, got)
            if isinstance(got, type):  # the masks of the rest, one condition at a time
                for p in conds:
                    _tally(seen, _blocked(ctx, [p], cand))
    assert {"blocked", "none"} <= set(seen), seen
    assert (TableTooShort in seen) is (kind == "short"), seen


@pytest.mark.parametrize("seed, t", [(0, 120), (1, 120), (2, 120), (3, 120), (0, 480)])
def test_ladder_blocked_matches_reference_on_pcc_instances(seed, t):
    """Rows over the column union and columns over the row union, one
    family each, the two calls build_compat_matrix makes."""
    inst = generate_pcc_instance(seed, t, t)
    fam1 = [p for _, p in inst.fam1]
    fam2 = [q for _, q in inst.fam2]
    for fam, other in ((fam1, fam2), (fam2, fam1)):
        cand = sorted(set().union(*(q.w for q in other)))
        got = ladder_blocked(inst.ctx, fam, cand)
        assert got == [ref_ladder_blocked(inst.ctx, p, cand) for p in fam]
        assert any(got)


@pytest.mark.parametrize("kind", sorted(EXPECTED_OUTCOMES))
def test_a_family_call_equals_its_per_condition_calls(kind):
    """One call on a family gives each condition the mask a call on it
    alone gives; when some condition raises (a short table, or STRAY in s),
    the family raises the type of the first condition that raises."""
    rng = random.Random({"canonical": 78, "empty": 79, "full": 80, "short": 81}[kind])
    seen = Counter()
    for _ in range(100):
        ctx = _context_above(rng, kind)
        members = sorted(ctx.g.a)
        for _ in range(10):
            conds = [_random_condition(rng, ctx) for _ in range(rng.randint(0, 5))]
            conds = [QCondition(p.w, p.s | {STRAY}) if rng.random() < 0.1 else p for p in conds]
            cand = sorted(rng.sample(members, rng.randint(0, len(members))))
            alone = [_outcome(lambda: ladder_blocked(ctx, [p], cand)[0]) for p in conds]
            raised = [x for x in alone if isinstance(x, type)]
            assert _outcome(lambda: ladder_blocked(ctx, conds, cand)) == (raised[0] if raised else alone)
            seen["clean" if not raised else raised[0]] += 1
            seen["raise after a mask"] += bool(raised) and not isinstance(alone[0], type)
            seen["two error types"] += len(set(raised)) > 1
    raising = {o for o in EXPECTED_OUTCOMES[kind] if isinstance(o, type)}
    assert {o for o in seen if isinstance(o, type)} == raising, seen
    assert seen["clean"] >= 100 and (seen["raise after a mask"] >= 20) is bool(raising), seen
    assert (seen["two error types"] > 0) is (len(raising) > 1), seen


def test_ladder_blocked_matches_reference_on_explicit_ladders_with_counted_runs():
    """Explicit tables of 1-6 rungs below w over twelve candidates, so that
    runs of several candidates count r > 0 rungs: the kernel ORs each run's
    slices from bit r up, as the reference shifts each a-set by its count.
    The cut must decide some candidates: blocked at its count r, though its
    a-set meets every anchor's complement, below r."""
    delta = Ordinal(1, 0)
    part = SPartition(S=frozenset({delta}), T=frozenset(), D=frozenset({delta}))
    cand = [fin(k) for k in range(12)]
    anchors = [Ordinal(1, 1 + v) for v in range(4)]
    rng = random.Random(82)
    seen = Counter()
    for _ in range(300):
        universe = rng.randint(1, 10)
        # the last rung, 12, lies above every candidate: no table runs short
        ladder = Ladder.explicit({delta: [fin(x) for x in sorted(rng.sample(range(12), rng.randint(1, 5))) + [12]]})
        a = {o: rng.getrandbits(universe) for o in cand + anchors}
        b = {o: rng.getrandbits(universe) for o in cand + anchors}
        ctx = QContext(GapFragment(universe, a, b), ladder, part)
        conds = [
            QCondition(frozenset(rng.sample(cand, rng.randint(0, 3)) + rng.sample(anchors, rng.randint(1, 4))),
                       frozenset({delta}))
            for _ in range(4)
        ]
        runs, _ = ladder.count_runs(delta, cand, len(cand))
        seen["run of several, r > 0"] += sum(hi - lo > 1 and r > 0 for lo, hi, r in runs)
        for p, got in zip(conds, _blocked(ctx, conds, cand)):
            for lo, hi, r in runs:
                for k in range(lo, hi):
                    meets = [a[cand[k]] & ~b[i] for i in p.w if delta <= i]
                    if got >> k & 1 and r and all(meets):
                        seen["decided by the cut"] += 1
    assert min(seen["run of several, r > 0"], seen["decided by the cut"]) >= 100, seen


def test_ladder_blocked_matches_reference_on_every_small_list():
    """Every list of up to 3 a-sets over a universe of at most 4, below the
    limit w, against one anchor above w per b-set, one condition each, and
    all anchors in one condition: the candidates are fresh below w with an
    anchor, so the slices are cut and read."""
    delta = Ordinal(1, 0)
    part = SPartition(S=frozenset({delta}), T=frozenset(), D=frozenset({delta}))
    seen, calls = Counter(), 0
    for universe in range(5):
        anchors = [Ordinal(1, 1 + v) for v in range(1 << universe)]
        conds = [QCondition(frozenset({i}), frozenset({delta})) for i in anchors]
        conds.append(QCondition(frozenset(anchors), frozenset({delta})))
        for n in range(4):
            cand = [fin(k) for k in range(n)]
            for sets in itertools.product(range(1 << universe), repeat=n):
                a = dict(zip(cand, sets)) | dict.fromkeys(anchors, 0)
                b = dict.fromkeys(cand, 0) | dict(zip(anchors, range(1 << universe)))
                ctx = QContext(GapFragment(universe, a, b), Ladder.canonical(), part)
                got = ladder_blocked(ctx, conds, cand)
                assert got == [ref_ladder_blocked(ctx, p, cand) for p in conds], (universe, sets)
                _tally(seen, got)
                calls += 1
    assert calls == sum((1 << u * n) for u in range(5) for n in range(4))
    assert min(seen["blocked"], seen["none"]) >= 10_000, seen
