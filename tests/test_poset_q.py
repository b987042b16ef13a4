import itertools
import random

import pytest

from gapforge import (
    GapFragment,
    InvariantViolation,
    Ladder,
    Ordinal,
    QCondition,
    QContext,
    SPartition,
    TableTooShort,
    UnknownIndex,
    build_filter,
    default_index_blocks,
    default_partition,
    excess,
    forge,
    q_compatible,
    q_leq,
    q_restrict,
    separated_pair_check,
)
from gapforge import poset_q
from helpers import conditions_in, fin, mask, small_context
from ordinals_reference import ref_value

DELTA = Ordinal(1, 0)
J5 = fin(5)


def _clause_context(b_for_delta):
    a = {J5: mask(range(8)), DELTA: 0}
    b = {J5: 0, DELTA: mask(b_for_delta)}
    part = SPartition(S=frozenset({DELTA}), T=frozenset(), D=frozenset({DELTA}))
    return QContext(GapFragment(8, a, b), Ladder.canonical(), part)


def test_q_leq_examples():
    ctx = _clause_context({6, 7})
    p = QCondition(frozenset({DELTA}), frozenset({DELTA}))
    q = QCondition(frozenset({DELTA, J5}), frozenset({DELTA}))
    assert q_leq(ctx, p, p) is True
    assert q_leq(ctx, p, q) is True  # excess(a_5, b_w) = 6 > |c_w below 5| = 5
    shallow = _clause_context(range(2, 8))
    assert q_leq(shallow, p, q) is False  # excess drops to 2


def test_q_leq_requires_known_indices():
    ctx = _clause_context({6, 7})
    with pytest.raises(UnknownIndex):
        q_leq(ctx, QCondition(frozenset({fin(9)}), frozenset()), QCondition.empty())
    with pytest.raises(ValueError):
        q_leq(ctx, QCondition(frozenset(), frozenset({Ordinal(2, 0)})), QCondition.empty())


def test_q_restrict_examples():
    p = QCondition(frozenset({fin(1), Ordinal(1, 2)}), frozenset({DELTA}))
    assert q_restrict(p, Ordinal(5, 0)) == p
    assert q_restrict(p, fin(0)) == QCondition.empty()
    assert q_restrict(p, Ordinal(1, 1)) == QCondition(frozenset({fin(1)}), frozenset({DELTA}))


def test_q_restrict_below_original_random():
    rng = random.Random(31)
    for _ in range(200):
        ctx = small_context(rng)
        idx = sorted(ctx.g.a)
        w = frozenset(rng.sample(idx, rng.randint(0, min(3, len(idx)))))
        s = frozenset(o for o in ctx.part.S if rng.random() < 0.5)
        p = QCondition(w, s)
        alpha = Ordinal(rng.randint(0, 3), rng.randint(0, 3))
        assert q_leq(ctx, q_restrict(p, alpha), p) is True


def test_q_leq_transitive_random():
    rng = random.Random(32)
    for _ in range(300):
        ctx = small_context(rng)
        conds = conditions_in(ctx)
        p, q, r = rng.choice(conds), rng.choice(conds), rng.choice(conds)
        if q_leq(ctx, p, q) and q_leq(ctx, q, r):
            assert q_leq(ctx, p, r) is True


def test_q_compatible_examples():
    ctx = _clause_context({6, 7})
    p = QCondition(frozenset({DELTA}), frozenset({DELTA}))
    q = QCondition(frozenset({DELTA, J5}), frozenset({DELTA}))
    assert q_compatible(ctx, p, q) == q  # already ordered
    shallow = _clause_context(range(2, 8))
    adder = QCondition(frozenset({J5}), frozenset())
    assert q_compatible(shallow, p, adder) is None
    ok = q_compatible(ctx, p, adder)
    assert ok == QCondition(frozenset({DELTA, J5}), frozenset({DELTA}))


def _independent_leq(ctx, p, q):
    """Literal clause translation, scanning ladder values directly."""
    if not (p.w <= q.w and p.s <= q.s):
        return False
    for delta in p.s:
        for i in p.w:
            if not delta <= i:
                continue
            for j in q.w - p.w:
                if not j < delta:
                    continue
                rungs = 0
                n = 0
                while True:
                    v = ref_value(ctx.ladder, delta, n)
                    if v < j:
                        rungs += 1
                        n += 1
                    else:
                        break
                if not excess(ctx.g.a[j], ctx.g.b[i]) > rungs:
                    return False
    return True


def _brute_common_extension(ctx, p, q):
    idx = sorted(ctx.g.a)
    s_pool = sorted(ctx.part.S)
    base_w, base_s = p.w | q.w, p.s | q.s
    extra_w = [o for o in idx if o not in base_w]
    extra_s = [o for o in s_pool if o not in base_s]
    for wn in range(len(extra_w) + 1):
        for ws in itertools.combinations(extra_w, wn):
            for sn in range(len(extra_s) + 1):
                for ss in itertools.combinations(extra_s, sn):
                    r = QCondition(base_w | set(ws), base_s | set(ss))
                    if _independent_leq(ctx, p, r) and _independent_leq(ctx, q, r):
                        return r
    return None


def test_q_compatible_exactness_small():
    rng = random.Random(33)
    for _ in range(6):
        ctx = small_context(rng)
        conds = conditions_in(ctx)
        for p, q in itertools.product(conds, repeat=2):
            mine = q_compatible(ctx, p, q)
            other = _brute_common_extension(ctx, p, q)
            assert (mine is None) == (other is None)


def _separated_instance(universe=12, witness=9, plant=True):
    gamma, alpha = Ordinal(2, 0), Ordinal(3, 3)
    core_w = frozenset({fin(1)})
    core_s = frozenset({Ordinal(1, 0)})
    w1_extra = frozenset({Ordinal(2, 1)})
    w2_extra = frozenset({Ordinal(3, 4)})
    s2_extra = frozenset({Ordinal(4, 0)})  # rungs below alpha: 3
    idx = sorted(core_w | w1_extra | w2_extra)
    a = {o: mask({witness}) if (plant and o in w1_extra) else mask({0}) for o in idx}
    b = {o: mask({1}) for o in idx}
    limits = core_s | s2_extra
    part = SPartition(S=frozenset(limits), T=frozenset(), D=frozenset(limits))
    ctx = QContext(GapFragment(universe, a, b), Ladder.canonical(), part)
    p1 = QCondition(core_w | w1_extra, core_s)
    p2 = QCondition(core_w | w2_extra, core_s | s2_extra)
    return ctx, p1, p2, gamma, alpha


def test_separated_pair_check_examples():
    # degenerate: both upper parts empty, nonempty universe
    gamma, alpha = Ordinal(2, 0), Ordinal(3, 0)
    core = QCondition(frozenset({fin(0)}), frozenset())
    part = SPartition(S=frozenset({Ordinal(1, 0)}), T=frozenset(), D=frozenset())
    ctx = QContext(GapFragment(4, {fin(0): 0}, {fin(0): 0}), Ladder.canonical(), part)
    assert separated_pair_check(ctx, core, core, gamma, alpha) is True

    ctx, p1, p2, gamma, alpha = _separated_instance()
    # A - B = {9}, rung count of the upper s member below alpha is 3 < 9
    assert separated_pair_check(ctx, p1, p2, gamma, alpha) is True
    assert q_compatible(ctx, p1, p2) is not None

    ctx_bad, p1, p2, gamma, alpha = _separated_instance(plant=False)
    # A - B = empty once the witness is withheld (a = {0}, b covers nothing above)
    assert separated_pair_check(ctx_bad, p1, p2, gamma, alpha) is False


def test_separated_pair_check_witness_floor():
    # witness must clear the rung count |c_delta below alpha| = 3
    ctx, p1, p2, gamma, alpha = _separated_instance(witness=2)
    assert separated_pair_check(ctx, p1, p2, gamma, alpha) is False
    ctx, p1, p2, gamma, alpha = _separated_instance(witness=4)
    assert separated_pair_check(ctx, p1, p2, gamma, alpha) is True


def test_separated_pair_check_shape_clauses():
    ctx, p1, p2, gamma, alpha = _separated_instance()
    with pytest.raises(ValueError):
        separated_pair_check(ctx, p1, p2, alpha, gamma)
    # w1 escaping alpha breaks the shape
    tall = QCondition(p1.w | {Ordinal(3, 4)}, p1.s)
    assert separated_pair_check(ctx, tall, p2, gamma, alpha) is False


def test_separated_pair_check_raises_on_a_split_restriction(monkeypatch):
    ctx, p1, p2, gamma, alpha = _separated_instance()
    real = poset_q.q_restrict
    monkeypatch.setattr(poset_q, "q_restrict", lambda p, at: QCondition.empty() if at == alpha else real(p, at))
    with pytest.raises(InvariantViolation) as err:
        separated_pair_check(ctx, p1, p2, gamma, alpha)
    assert err.value.invariant == "separated-restriction"


def test_qcondition_json_roundtrip():
    p = QCondition(frozenset({fin(1), Ordinal(1, 2)}), frozenset({Ordinal(1, 0)}))
    assert QCondition.from_json(p.to_json()) == p
    with pytest.raises(ValueError):
        QCondition.from_json({"w": []})


def test_qcontext_validation():
    frag = GapFragment(4, {fin(0): 0}, {fin(1): 0})
    with pytest.raises(ValueError):
        QContext(frag, Ladder.canonical(), SPartition(S=frozenset(), T=frozenset(), D=frozenset()))
    good = GapFragment(4, {fin(0): 0}, {fin(0): 0})
    with pytest.raises(ValueError):
        QContext(good, Ladder.explicit({}), SPartition(S=frozenset({Ordinal(1, 0)}), T=frozenset(), D=frozenset()))


def test_the_selection_never_cuts_the_slices_and_a_biting_pair_cuts_them_once(monkeypatch):
    """The kernel cuts its bit slices, one `bits` call per slice, only once
    some delta has anchors and fresh candidates below it.  An ascending
    selection never gets there, each pick lying above every anchor; a
    q_compatible pair whose clause bites cuts them once, in the q_leq of
    the side that holds the anchor."""
    cut = []
    real = poset_q.bits
    monkeypatch.setattr(poset_q, "bits", lambda text: cut.append(text) or real(text))
    ordinals = default_index_blocks(24)
    ctx = QContext(forge(ordinals, 256, 0), Ladder.canonical(), default_partition(ordinals))
    run = build_filter(ctx, 12, 1)
    assert run.result.s == ctx.part.S and len(run.result.w) == 12
    assert cut == []
    anchor, j = Ordinal(1, 2), fin(1)
    g = GapFragment(4, {anchor: 0b1000, j: 0b0110}, {anchor: 0b0111, j: 0})
    part = SPartition(S=frozenset({DELTA}), T=frozenset(), D=frozenset({DELTA}))
    ctx = QContext(g, Ladder.canonical(), part)
    p, q = QCondition(frozenset({anchor}), frozenset({DELTA})), QCondition(frozenset({j}), frozenset())
    assert q_compatible(ctx, p, q) is None  # excess(a_j, b_anchor) is 0, within the 1 rung below j
    assert cut == ["0", "1", "1"]  # one cut: slice u holds bit u of a_j, over the one candidate j
    short = QContext(g, Ladder.explicit({DELTA: []}), part)
    with pytest.raises(TableTooShort):
        q_compatible(short, p, q)
    assert len(cut) == 3  # the short table raises before the slices are cut
