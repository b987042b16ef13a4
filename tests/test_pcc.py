import itertools
import random
import re
import tracemalloc
from functools import reduce
from operator import or_

import pytest

from gapforge import (
    CompatMatrix,
    GapFragment,
    InvariantViolation,
    Ladder,
    Ordinal,
    PccInstance,
    QCondition,
    QContext,
    SPartition,
    UnknownIndex,
    build_compat_matrix,
    find_compatible_pair,
    generate_pcc_instance,
    max_order_rectangle,
    pcc_ab_profiles,
    q_compatible,
    q_leq,
    uniform_interpolation,
    verify_rectangle,
)
from gapforge import pcc, poset_q
from helpers import fin, mask, matrix_from_grid
from pcc_reference import (
    exact_rectangle,
    matching_size,
    ref_koenig_rows,
    ref_matrix_rows,
    ref_validate_instance,
    ref_verify_rectangle,
)
from proof_steps import separated_pair_check
from q_reference import ref_build_compat_matrix


def _flat_instance(universe=8, with_upper=False):
    """All conditions equal to the shared core; profiles fully degenerate."""
    gamma = Ordinal(2, 0)
    core_w = frozenset({fin(1)})
    core_s = frozenset({Ordinal(1, 0)})
    t1 = (Ordinal(3, 1), Ordinal(9, 1))
    t2 = (Ordinal(6, 1), Ordinal(12, 1))
    idx = set(core_w)
    if with_upper:
        idx |= {Ordinal(3, 2), Ordinal(6, 2), Ordinal(9, 2), Ordinal(12, 2)}
    a = {o: mask({universe - 1}) for o in idx}
    b = {o: 0 for o in idx}
    limits = frozenset({Ordinal(1, 0)})
    part = SPartition(S=limits, T=frozenset(), D=limits)
    ctx = QContext(GapFragment(universe, a, b), Ladder.canonical(), part)
    if with_upper:
        fam1 = tuple((d, QCondition(core_w | {Ordinal(d.q, 2)}, core_s)) for d in t1)
        fam2 = tuple((d, QCondition(core_w | {Ordinal(d.q, 2)}, core_s)) for d in t2)
    else:
        fam1 = tuple((d, QCondition(core_w, core_s)) for d in t1)
        fam2 = tuple((d, QCondition(core_w, core_s)) for d in t2)
    return PccInstance(ctx, gamma, fam1, fam2, 0)


def test_profiles_degenerate():
    inst = _flat_instance()
    meets, joins = pcc_ab_profiles(inst)
    assert all(meets[d] == mask(range(8)) for d, _ in inst.fam1)
    assert all(joins[d] == 0 for d, _ in inst.fam2)


def test_profiles_singleton():
    inst = _flat_instance(with_upper=True)
    meets, joins = pcc_ab_profiles(inst)
    for d, _ in inst.fam1:
        assert meets[d] == inst.ctx.g.a[Ordinal(d.q, 2)]
    for d, _ in inst.fam2:
        assert joins[d] == inst.ctx.g.b[Ordinal(d.q, 2)]


def test_find_compatible_pair_trivial_cases():
    inst = _flat_instance()
    d1, d2, n = find_compatible_pair(inst)
    assert (d1, d2, n) == (Ordinal(3, 1), Ordinal(6, 1), 0)  # first pair, least witness

    # join profile covering the universe blocks every witness
    gamma = Ordinal(2, 0)
    core_w = frozenset({fin(1)})
    core_s = frozenset({Ordinal(1, 0)})
    idx = {fin(1), Ordinal(6, 2)}
    a = {o: 0 for o in idx}
    b = {o: mask(range(8)) for o in idx}
    limits = frozenset({Ordinal(1, 0)})
    part = SPartition(S=limits, T=frozenset(), D=limits)
    ctx = QContext(GapFragment(8, a, b), Ladder.canonical(), part)
    fam1 = ((Ordinal(3, 1), QCondition(core_w, core_s)),)
    fam2 = ((Ordinal(6, 1), QCondition(core_w | {Ordinal(6, 2)}, core_s)),)
    inst2 = PccInstance(ctx, gamma, fam1, fam2, 0)
    assert find_compatible_pair(inst2) is None


def test_generate_rejects_empty_families():
    for sizes in ((0, 5), (5, 0), (-3, 5), (5, -1)):
        with pytest.raises(ValueError):
            generate_pcc_instance(0, *sizes)


def test_generate_rejects_families_above_the_limit():
    for sizes in ((pcc.MAX_FAMILY + 1, 1), (1, 10**9)):
        with pytest.raises(ValueError, match=str(pcc.MAX_FAMILY)):
            generate_pcc_instance(0, *sizes)


def test_generated_instance_pair_validates():
    for seed in range(6):
        inst = generate_pcc_instance(seed, 12, 12)
        triple = find_compatible_pair(inst)
        assert triple is not None
        d1, d2, n = triple
        assert d1 < d2 and n >= inst.k
        p1, p2 = dict(inst.fam1)[d1], dict(inst.fam2)[d2]
        u = q_compatible(inst.ctx, p1, p2)
        assert u is not None
        assert q_leq(inst.ctx, p1, u) and q_leq(inst.ctx, p2, u)


def test_every_witnessed_pair_passes_the_separated_pair_criterion():
    """The lab's witness rule is the proof's: every order-respecting pair
    with a witness n >= k under the profiles is a separated pair at alpha =
    delta2, and so is the first pair `find_compatible_pair` reports."""
    witnessed = 0
    for t in (6, 30):
        for seed in range(12):
            inst = generate_pcc_instance(seed, t, t)
            meets, joins = pcc_ab_profiles(inst)
            for d1, p1 in inst.fam1:
                for d2, p2 in inst.fam2:
                    if d1 < d2 and (meets[d1] & ~joins[d2]) >> inst.k:
                        assert separated_pair_check(inst.ctx, p1, p2, inst.gamma, d2), (t, seed, d1, d2)
                        witnessed += 1
    assert witnessed == 4420
    for t in (6, 30, 120):
        for seed in range(40):
            inst = generate_pcc_instance(seed, t, t)
            d1, d2, _ = find_compatible_pair(inst)
            p1, p2 = dict(inst.fam1)[d1], dict(inst.fam2)[d2]
            assert separated_pair_check(inst.ctx, p1, p2, inst.gamma, d2), (t, seed, d1, d2)


def test_find_compatible_pair_raises_on_an_incompatible_witness_pair(monkeypatch):
    monkeypatch.setattr(pcc, "q_compatible", lambda ctx, p, q: None)
    with pytest.raises(InvariantViolation) as err:
        find_compatible_pair(_flat_instance())
    assert err.value.invariant == "compatible-pair"


def test_instance_validation_rejects_bad_shapes():
    gamma = Ordinal(2, 0)
    core = QCondition(frozenset({fin(1)}), frozenset())
    d1, d2 = Ordinal(3, 1), Ordinal(6, 1)
    idx = {fin(1), Ordinal(2, 1), Ordinal(3, 2), Ordinal(6, 2)}
    a = {o: 0 for o in idx}
    b = {o: 0 for o in idx}
    limits = frozenset({Ordinal(1, 0), Ordinal(4, 0)})
    part = SPartition(S=limits, T=frozenset(), D=limits)
    ctx = QContext(GapFragment(8, a, b), Ladder.canonical(), part)
    good1 = ((d1, QCondition(core.w | {Ordinal(3, 2)}, core.s)),)
    good2 = ((d2, QCondition(core.w | {Ordinal(6, 2)}, core.s)),)
    PccInstance(ctx, gamma, good1, good2, 0)  # sanity: this shape is fine

    with pytest.raises(ValueError, match="strictly increase"):
        PccInstance(ctx, gamma, good1 + good1, good2, 0)
    with pytest.raises(ValueError, match="avoid the designated set"):
        PccInstance(ctx, gamma, ((Ordinal(4, 0), core),), good2, 0)
    with pytest.raises(ValueError, match="disjoint"):
        PccInstance(ctx, gamma, good1, good1, 0)
    with pytest.raises(ValueError):
        # w member inside [gamma, delta)
        bad = ((d1, QCondition(core.w | {Ordinal(2, 1)}, core.s)),)
        PccInstance(ctx, gamma, bad, good2, 0)
    with pytest.raises(ValueError):
        # cores below gamma disagree
        bad = ((d2, QCondition(frozenset({Ordinal(6, 2)}), core.s)),)
        PccInstance(ctx, gamma, good1, bad, 0)
    with pytest.raises(ValueError):
        # upper domain of the earlier condition reaches past the next index
        bad = ((d1, QCondition(core.w | {Ordinal(6, 2)}, core.s)),)
        PccInstance(ctx, gamma, bad, good2, 0)
    with pytest.raises(ValueError):
        # k = 0 cannot bound the rung count of the upper s member (4,0) below (3,1)
        bad = ((d1, QCondition(core.w | {Ordinal(3, 2)}, core.s | {Ordinal(4, 0)})),)
        PccInstance(ctx, gamma, bad, good2, 0)


def test_build_compat_matrix_examples():
    inst = _flat_instance()
    empty = build_compat_matrix(inst.ctx, [], [])
    assert empty.rows == ()
    p = QCondition(frozenset({fin(1)}), frozenset({Ordinal(1, 0)}))
    single = build_compat_matrix(inst.ctx, [(Ordinal(3, 1), p)], [(Ordinal(6, 1), p)])
    assert single.rows == (1,)
    no_cols = build_compat_matrix(inst.ctx, [(Ordinal(3, 1), p)], [])
    assert no_cols.rows == (0,)
    with pytest.raises(ValueError):
        build_compat_matrix(inst.ctx, [(Ordinal(3, 1), p), (Ordinal(3, 1), p)], [])


def test_the_matrix_counts_rungs_once_per_delta(monkeypatch):
    """ladder_blocked takes the rungs of each delta as runs of equal count,
    one count_runs call per condition and delta at most, so the matrix
    never counts one candidate at a time through count_below."""
    for seed in (0, 9):
        inst = generate_pcc_instance(seed, 120, 120)
        fam1, fam2 = inst.fam1, inst.fam2
        expected = build_compat_matrix(inst.ctx, fam1, fam2)
        calls = []
        runs = Ladder.count_runs
        with monkeypatch.context() as patched:
            def refuse(self, delta, j):
                raise RuntimeError(f"a per-candidate rung count at {delta} in the matrix build")

            def count_runs(self, delta, cand, n):
                calls.append(delta)
                return runs(self, delta, cand, n)

            patched.setattr(Ladder, "count_below", refuse)
            patched.setattr(Ladder, "count_runs", count_runs)
            assert build_compat_matrix(inst.ctx, fam1, fam2) == expected
        assert 0 < len(calls) <= sum(len(p.s) for _, p in fam1 + fam2)


def test_the_matrix_slices_each_family_once(monkeypatch):
    """One ladder_blocked call per family, each cutting the slices of the
    other family's w-union once: one `bits` call per bit of that union's
    a-sets, each over all of its members."""
    inst = generate_pcc_instance(0, 120, 120)
    expected = build_compat_matrix(inst.ctx, inst.fam1, inst.fam2)
    cut = []
    real = poset_q.bits
    monkeypatch.setattr(poset_q, "bits", lambda text: cut.append(len(text)) or real(text))
    assert build_compat_matrix(inst.ctx, inst.fam1, inst.fam2) == expected
    want = []
    for fam in (inst.fam2, inst.fam1):
        union = set().union(*(p.w for _, p in fam))
        width = reduce(or_, (inst.ctx.g.a[o] for o in union)).bit_length()
        assert width > 0
        want += [len(union)] * width
    assert cut == want


def test_matrix_rows_match_the_per_cell_reference():
    """The rows ORed from the two column tables equal the per-cell rows
    over the same blocked sets at the benchmark size (seeds 0-15), at 480 x
    480 and at 1024 x 1024; and on small generated families, cut to random
    sub-families in both orientations, the cell-by-cell reference matrix."""
    for seed, t in [(s, 120) for s in range(16)] + [(0, 480), (0, 1024)]:
        inst = generate_pcc_instance(seed, t, t)
        rows = build_compat_matrix(inst.ctx, inst.fam1, inst.fam2).rows
        assert rows == ref_matrix_rows(inst.ctx, inst.fam1, inst.fam2), (seed, t)
        assert 0 < sum(r.bit_count() for r in rows) < t * t
    rng = random.Random(71)
    false_cells = 0
    for seed in range(12):
        inst = generate_pcc_instance(seed, rng.randint(1, 8), rng.randint(1, 8))
        for _ in range(4):
            fam1, fam2 = (tuple(f for f in fam if rng.random() < 0.7) for fam in (inst.fam1, inst.fam2))
            for rows_fam, cols_fam in ((fam1, fam2), (fam2, fam1)):
                expected = ref_build_compat_matrix(inst.ctx, rows_fam, cols_fam)
                assert build_compat_matrix(inst.ctx, rows_fam, cols_fam) == expected
                false_cells += len(rows_fam) * len(cols_fam) - sum(r.bit_count() for r in expected.rows)
    assert false_cells > 0


def _raised(make, *args):
    """The type and message of what make(*args) raises, or None."""
    try:
        make(*args)
    except Exception as e:
        return type(e), str(e)
    return None


def _mutations(inst: PccInstance, rng: random.Random):
    """The instance's arguments, then copies broken one way each: a
    condition taking two indices off the diagram, a non-designated s member,
    a lost core w or s member, an upper member of the previous condition in
    merged order (beside its own upper members or in their place), an upper
    s member below its own index, an upper member of the next condition, a
    smaller k; and index lists out of order, meeting S or shared between
    the families."""
    ctx, gamma, fam1, fam2, k = inst.ctx, inst.gamma, inst.fam1, inst.fam2, inst.k
    merged = sorted(fam1 + fam2)
    yield "none", (ctx, gamma, fam1, fam2, k)

    def changed(pos, w=frozenset(), s=frozenset(), drop=frozenset()):
        delta, p = merged[pos]
        cond = QCondition(p.w - drop | w, p.s - drop | s)
        fams = tuple(tuple((d, cond if d == delta else q) for d, q in fam) for fam in (fam1, fam2))
        return (ctx, gamma, *fams, k)

    def upper(pos):
        return rng.choice(sorted(x for x in merged[pos][1].w if not x < gamma))

    pos = rng.randrange(len(merged))
    yield "unknown index", changed(pos, w=frozenset({Ordinal(999, 1), Ordinal(999, 2)}))
    yield "s outside S", changed(pos, s=frozenset({gamma}))
    if len(merged) > 1:
        yield "lost core member", changed(pos, drop=frozenset({min(merged[pos][1].w)}))
        yield "lost core s member", changed(pos, drop=frozenset({min(merged[pos][1].s)}))
        later = rng.randrange(1, len(merged))
        yield "member in [gamma, delta)", changed(later, w=frozenset({upper(later - 1)}))
        _, p = merged[later]
        own = frozenset(x for x in p.w | p.s if not x < gamma)
        yield "only upper member in [gamma, delta)", changed(later, w=frozenset({upper(later - 1)}), drop=own)
        # every designated limit in [gamma, delta) is a domain member there too
        below = sorted(x for x in ctx.part.S if not x < gamma and x < merged[later][0])
        yield "s member below its index", changed(later, s=frozenset({rng.choice(below)}))
        earlier = rng.randrange(len(merged) - 1)
        yield "member past the next index", changed(earlier, w=frozenset({upper(earlier + 1)}))
    if k > 0:
        yield "smaller k", (ctx, gamma, fam1, fam2, rng.randrange(k))
    if len(fam1) > 1:
        yield "index lists out of order", (ctx, gamma, fam1[::-1], fam2, k)
    (d, p), limit = fam1[-1], Ordinal(fam1[-1][0].q + 1, 0)
    assert limit in ctx.part.S
    yield "an index in S", (ctx, gamma, fam1[:-1] + ((limit, p),), fam2, k)
    if fam2[-1][0] > d:
        yield "a shared index", (ctx, gamma, fam1 + fam2[-1:], fam2, k)


_BROKEN = {
    "unknown index": "has no tower set in the diagram",
    "s outside S": "must stay inside the designated set S",
    "lost core member": "must share one core below gamma",
    "lost core s member": "must share one core below gamma",
    "member in [gamma, delta)": r"meets \[gamma, ",
    "only upper member in [gamma, delta)": r"meets \[gamma, ",
    "s member below its index": r"meets \[gamma, ",
    "member past the next index": "must stay below the next index",
    "smaller k": "does not bound the rung count",
    "index lists out of order": "must strictly increase",
    "an index in S": "must avoid the designated set S",
    "a shared index": "must be disjoint",
}


def test_instance_validation_matches_the_per_condition_reference():
    """The sorted pass per condition raises what the per-member checks
    raise, of the same type with the same message, on generated instances
    broken in each way `_mutations` knows; unbroken ones pass both."""
    rng = random.Random(73)
    seen = set()
    for seed in range(40):
        inst = generate_pcc_instance(seed, rng.randint(1, 12), rng.randint(1, 12))
        for kind, args in _mutations(inst, rng):
            want = _raised(ref_validate_instance, *args)
            assert _raised(PccInstance, *args) == want, (seed, kind)
            if kind == "none":
                assert want is None
            else:
                assert want is not None and re.search(_BROKEN[kind], want[1]), (seed, kind, want)
                assert want[0] is (UnknownIndex if kind == "unknown index" else ValueError)
            seen.add(kind)
    assert seen == {"none", *_BROKEN}


def test_a_core_that_moves_an_ordinal_between_w_and_s_is_refused():
    """The limit w below gamma is a diagram index and a member of S, so one
    condition may hold it in w and another in s: their parts below gamma
    have one union, and a check of the union alone would pass them.  The
    package and the reference both refuse the pair, and both take it when
    the two cores agree, with w in w, in s, or in both."""
    gamma, w = Ordinal(2, 0), Ordinal(1, 0)
    d1, d2 = Ordinal(3, 1), Ordinal(6, 1)
    idx = {fin(1), w, Ordinal(3, 2), Ordinal(6, 2)}
    limits = frozenset({w, Ordinal(4, 0)})
    ctx = QContext(GapFragment(8, dict.fromkeys(idx, 0), dict.fromkeys(idx, 0)), Ladder.canonical(),
                   SPartition(S=limits, T=frozenset(), D=limits))
    cores = {"w": (frozenset({fin(1), w}), frozenset()), "s": (frozenset({fin(1)}), frozenset({w})),
             "both": (frozenset({fin(1), w}), frozenset({w}))}

    def fams(core1, core2):
        (w1, s1), (w2, s2) = cores[core1], cores[core2]
        return ((d1, QCondition(w1 | {Ordinal(3, 2)}, s1)),), ((d2, QCondition(w2 | {Ordinal(6, 2)}, s2)),)

    for core1, core2 in itertools.product(cores, repeat=2):
        args = (ctx, gamma, *fams(core1, core2), 0)
        if core1 == core2:
            PccInstance(*args)
            ref_validate_instance(*args)
            continue
        for make in (PccInstance, ref_validate_instance):
            with pytest.raises(ValueError, match="share one core below gamma"):
                make(*args)


def test_an_upper_s_member_below_its_index_meets_the_domain_test_first():
    """A designated limit in [gamma, delta) put into s is a domain member
    there, so the domain test refuses it before any test of where upper s
    members lie: the package, which keeps no such test, and the reference,
    which does, both raise the domain message."""
    inst = generate_pcc_instance(5, 6, 6)
    delta, p = max(inst.fam1 + inst.fam2)
    below = [x for x in inst.ctx.part.S if not x < inst.gamma and x < delta]
    assert below
    cond = QCondition(p.w, p.s | {min(below)})
    fams = [tuple((d, cond if d == delta else q) for d, q in fam) for fam in (inst.fam1, inst.fam2)]
    args = (inst.ctx, inst.gamma, *fams, inst.k)
    for make in (PccInstance, ref_validate_instance):
        with pytest.raises(ValueError, match=rf"^domain of the condition at {re.escape(str(delta))} meets \[gamma, "):
            make(*args)


def _random_matrix(rng, nr, nc, prob):
    rows = tuple(Ordinal(0, 2 * i) for i in range(nr))
    cols = tuple(Ordinal(0, 2 * i + 1) for i in range(nc))
    cells = tuple(tuple(rng.random() < prob for _ in range(nc)) for _ in range(nr))
    return matrix_from_grid(rows, cols, cells)


def test_rectangle_all_true_and_all_false():
    rng = random.Random(51)
    m = _random_matrix(rng, 6, 6, 2.0)
    rows, cols = max_order_rectangle(m)
    assert len(rows) == 6 and len(cols) == 6

    # rows all ordered below cols, every cell false: one side must empty out
    rows_idx = tuple(fin(i) for i in range(5))
    cols_idx = tuple(fin(10 + i) for i in range(7))
    cells = tuple(tuple(False for _ in cols_idx) for _ in rows_idx)
    m2 = matrix_from_grid(rows_idx, cols_idx, cells)
    rows, cols = max_order_rectangle(m2)
    assert verify_rectangle(m2, rows, cols)
    assert len(rows) + len(cols) == 7  # the larger side survives alone
    assert not rows or not cols


def _interleaved_matrix(kinds, cells):
    """Rows at the positions where kinds is 0, columns where it is 1."""
    rows = tuple(Ordinal(0, i) for i, kind in enumerate(kinds) if kind == 0)
    cols = tuple(Ordinal(0, i) for i, kind in enumerate(kinds) if kind == 1)
    return matrix_from_grid(rows, cols, cells)


def _assert_optimal(m):
    rows, cols = max_order_rectangle(m)
    assert verify_rectangle(m, rows, cols)
    er, ec = exact_rectangle(m)
    assert len(rows) + len(cols) == len(er) + len(ec)
    assert max_order_rectangle(m) == (rows, cols)
    return rows, cols


def test_rectangle_matches_the_exhaustive_reference():
    rng = random.Random(52)
    for _ in range(300):
        nr, nc = rng.randint(0, 10), rng.randint(0, 10)
        kinds = [0] * nr + [1] * nc
        rng.shuffle(kinds)
        prob = rng.uniform(0.2, 0.9)
        cells = tuple(tuple(rng.random() < prob for _ in range(nc)) for _ in range(nr))
        _assert_optimal(_interleaved_matrix(kinds, cells))


def test_rectangle_on_every_small_pattern():
    """Every cell pattern and every interleaving up to 3 x 3; the rows found
    lie in every largest rectangle (the fewest-rows tie-break)."""
    for nr, nc in itertools.product(range(4), repeat=2):
        for row_pos in itertools.combinations(range(nr + nc), nr):
            kinds = [0 if i in row_pos else 1 for i in range(nr + nc)]
            for bits in itertools.product((False, True), repeat=nr * nc):
                cells = tuple(tuple(bits[x * nc:(x + 1) * nc]) for x in range(nr))
                m = _interleaved_matrix(kinds, cells)
                rows, cols = _assert_optimal(m)
                for size in range(nr + 1):
                    for other in itertools.combinations(range(nr), size):
                        fits = [y for y in range(nc) if verify_rectangle(m, other, [y])]
                        if size + len(fits) == len(rows) + len(cols):
                            assert set(rows) <= set(other)


def test_rectangle_is_optimal_at_full_size():
    """|V| - nu from a separately found matching certifies the optimum."""
    for seed in range(16):
        inst = generate_pcc_instance(seed, 120, 120)
        m = build_compat_matrix(inst.ctx, inst.fam1, inst.fam2)
        rows, cols = max_order_rectangle(m)
        assert len(rows) + len(cols) == 240 - matching_size(m)


def _rows_below(n, conflicts):
    """n rows, all below n columns; row x conflicts with the columns set in
    conflicts(x)."""
    full = (1 << n) - 1
    rows = tuple(full & ~conflicts(x) for x in range(n))
    return CompatMatrix(tuple(fin(k) for k in range(n)), tuple(Ordinal(1, k) for k in range(n)), rows)


def test_rectangle_matches_the_hopcroft_karp_reference_at_scale():
    """The dense worst cases of a per-row augmenting-path search at 512
    (complete, staircase, both orders of a chain, random at p 0.5 and 0.01)
    and generated matrices at 480 x 480: the same rows as Hopcroft-Karp,
    the union of their conflicts as the covered columns, and |V| - nu."""
    n = 512
    rng = random.Random(58)
    shapes = [
        _rows_below(n, lambda x: -1),
        CompatMatrix(tuple(Ordinal(0, 2 * k) for k in range(n)), tuple(Ordinal(0, 2 * k + 1) for k in range(n)), (0,) * n),
        _rows_below(n, lambda x: 3 << x),
        _rows_below(n, lambda x: 3 << n - 1 - x),
        _rows_below(n, lambda x: mask(y for y in range(n) if rng.random() < 0.5)),
        _rows_below(n, lambda x: mask(y for y in range(n) if rng.random() < 0.01)),
    ]
    for seed in range(2):
        inst = generate_pcc_instance(seed, 480, 480)
        shapes.append(build_compat_matrix(inst.ctx, inst.fam1, inst.fam2))
    for m in shapes:
        nr, nc = len(m.row_index), len(m.col_index)
        conflicts = [pcc._conflicts(m, x) for x in range(nr)]
        rows, covered = pcc._koenig_rows(conflicts, nc)
        assert rows == ref_koenig_rows(conflicts, nc)
        assert covered == reduce(or_, [conflicts[x] for x in rows], 0)
        rect = max_order_rectangle(m)
        assert rect[0] == tuple(rows)
        assert len(rect[0]) + len(rect[1]) == nr + nc - matching_size(m)


def _pick(rng, n):
    """A random subset of range(n), in ascending order."""
    return [i for i in range(n) if rng.random() < 0.5]


def test_verify_rectangle_matches_the_cell_reference_on_random_matrices():
    """Indices drawn from one small pool interleave rows and columns and let
    a row share its index with a column; row and column picks may be empty."""
    rng = random.Random(57)
    outcomes = {True: 0, False: 0}
    for _ in range(1500):
        nr, nc = rng.randint(0, 8), rng.randint(0, 8)
        pool = [Ordinal(0, i) for i in range(10)]
        rows_idx, cols_idx = sorted(rng.sample(pool, nr)), sorted(rng.sample(pool, nc))
        prob = rng.uniform(0.5, 1.0)
        m = matrix_from_grid(rows_idx, cols_idx, [[rng.random() < prob for _ in range(nc)] for _ in range(nr)])
        rows, cols = _pick(rng, nr), _pick(rng, nc)
        expected = ref_verify_rectangle(m, rows, cols)
        assert verify_rectangle(m, rows, cols) is expected, (m, rows, cols)
        outcomes[expected] += 1
    assert min(outcomes.values()) >= 300, outcomes


def test_verify_rectangle_matches_the_cell_reference_on_every_small_matrix():
    """Every index placement over three values (rows and columns interleaved
    or sharing an index), every cell pattern and every row and column pick,
    up to 3 x 3."""
    values = [Ordinal(0, i) for i in range(3)]
    checked = 0
    for nr, nc in itertools.product(range(4), repeat=2):
        for rows_idx in itertools.combinations(values, nr):
            for cols_idx in itertools.combinations(values, nc):
                for bits in itertools.product((False, True), repeat=nr * nc):
                    grid = [bits[x * nc:(x + 1) * nc] for x in range(nr)]
                    m = matrix_from_grid(rows_idx, cols_idx, grid)
                    for rn in range(nr + 1):
                        for rows in itertools.combinations(range(nr), rn):
                            for cn in range(nc + 1):
                                for cols in itertools.combinations(range(nc), cn):
                                    assert verify_rectangle(m, rows, cols) is ref_verify_rectangle(m, rows, cols)
                                    checked += 1
    assert checked > 10_000


def test_rectangle_search_reads_no_cell(monkeypatch):
    """After the build, the rectangle search, its check and the CSV export
    work on the bitmask rows alone; `cells` is a view for outside readers."""
    inst = generate_pcc_instance(4, 30, 30)
    m = build_compat_matrix(inst.ctx, inst.fam1, inst.fam2)
    expected = max_order_rectangle(m), m.to_csv()

    def refuse(self):
        raise RuntimeError("a cell read")

    monkeypatch.setattr(CompatMatrix, "cells", property(refuse))
    assert (max_order_rectangle(m), m.to_csv()) == expected
    assert CompatMatrix.from_csv(expected[1]).rows == m.rows


def test_the_built_matrix_retains_under_a_mebibyte():
    """One int row per condition: at 1024 x 1024 the matrix and its index
    tuples retain under 1 MiB (about 8 MiB as rows of bools)."""
    inst = generate_pcc_instance(0, 1024, 1024)
    tracemalloc.start()
    try:
        m = build_compat_matrix(inst.ctx, inst.fam1, inst.fam2)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(m.rows) == 1024 and max(m.rows).bit_length() <= 1024
    assert retained < 2**20, retained


def test_cells_are_the_bits_of_the_rows():
    """The contract of the `cells` view: cells[x][y] is bit y of rows[x],
    on built matrices and on their CSV reloads."""
    for seed, t1, t2 in ((0, 30, 30), (1, 8, 30), (1, 30, 8), (0, 1, 1)):
        inst = generate_pcc_instance(seed, t1, t2)
        built = build_compat_matrix(inst.ctx, inst.fam1, inst.fam2)
        for m in (built, CompatMatrix.from_csv(built.to_csv())):
            assert m.cells == tuple(tuple(bool(r >> y & 1) for y in range(t2)) for r in m.rows)
            assert all(type(v) is bool for row in m.cells for v in row)
            assert matrix_from_grid(m.row_index, m.col_index, m.cells) == m


def test_rectangle_raises_when_verification_fails(monkeypatch):
    m = _random_matrix(random.Random(56), 3, 3, 0.5)
    monkeypatch.setattr(pcc, "verify_rectangle", lambda m, rows, cols: False)
    with pytest.raises(InvariantViolation) as err:
        max_order_rectangle(m)
    assert err.value.invariant == "rectangle-verification"


def test_matrix_csv_roundtrip():
    rng = random.Random(54)
    # with rows and columns, no rows, no columns or neither, every matrix
    # reads back as itself and writes the same bytes again
    for nr, nc in ((3, 4), (0, 4), (3, 0), (0, 0), (40, 70)):
        for prob in (0.5, 0.0, 1.0):
            m = _random_matrix(rng, nr, nc, prob)
            text = m.to_csv()
            back = CompatMatrix.from_csv(text)
            assert back == m and back.to_csv() == text
    # an all-false row, an all-false last column (the high bits of every
    # row), a header with no rows
    # row and a matrix with rows but no columns (an empty header line) keep
    # their bytes both ways
    cases = (
        (",0.1,0.3,0.5\n0.0,1,1,0\n0.2,0,0,0\n0.4,0,1,0\n", (3, 0, 2)),
        (",0.1,0.3\n", ()),
        ("\n0.1\n0.3\n", (0, 0)),
    )
    for text, rows in cases:
        m = CompatMatrix.from_csv(text)
        assert m.rows == rows and m.to_csv() == text
    with pytest.raises(ValueError):
        CompatMatrix.from_csv("")
    with pytest.raises(ValueError):
        CompatMatrix.from_csv(",0.1\n0.0,2\n")
    # indices strictly increase along both headers, as build_compat_matrix requires
    for text in (",0.5,0.5\n0.1,1,1\n", ",0.6,0.5\n0.1,1,1\n", ",0.5\n0.1,1\n0.1,1\n", ",0.5\n0.2,1\n0.1,1\n"):
        with pytest.raises(ValueError, match="must strictly increase"):
            CompatMatrix.from_csv(text)


@pytest.mark.parametrize(
    "row_index, col_index, rows, message",
    [
        ((Ordinal(0, 2),), (Ordinal(0, 3), Ordinal(0, 1)), (0,), "column indices must strictly increase"),
        ((Ordinal(0, 2), Ordinal(0, 1)), (Ordinal(0, 3),), (1, 1), "row indices must strictly increase"),
        ((Ordinal(0, 1),), (Ordinal(0, 2),), (5,), "past its 1 columns"),
        ((Ordinal(0, 1),), (Ordinal(0, 2),), (-1,), "past its 1 columns"),
        ((Ordinal(0, 1), Ordinal(0, 3)), (Ordinal(0, 2),), (1,), "1 matrix rows for 2 row indices"),
        ((Ordinal(0, 1),), (Ordinal(0, 2),), (1, 0), "2 matrix rows for 1 row indices"),
    ],
    ids=["unordered-columns", "unordered-rows", "row-wider-than-columns", "negative-row", "too-few-rows",
         "too-many-rows"],
)
def test_compat_matrix_refuses_shapes_its_readers_misread(row_index, col_index, rows, message):
    """verify_rectangle and the rectangle search read a cell by the index
    order, to_csv writes a cell per column bit, and zip pairs rows with
    row indices: each of these shapes would be read wrong."""
    with pytest.raises(ValueError, match=message):
        CompatMatrix(row_index, col_index, rows)


def test_profile_interpolation_transfer():
    """An interpolation of the restricted diagram transfers to the derived one:
    the meets only shrink a-sets and the joins only grow b-sets."""
    rng = random.Random(55)
    for seed in range(8):
        inst = generate_pcc_instance(seed, 6, 6, universe=16)
        meets, joins = pcc_ab_profiles(inst)
        upper1 = {i for _, p in inst.fam1 for i in p.w if not i < inst.gamma}
        upper2 = {j for _, q in inst.fam2 for j in q.w if not j < inst.gamma}
        restricted = inst.ctx.g.restrict(upper1, upper2)
        derived = GapFragment(inst.ctx.g.universe, meets, joins)
        for n0 in (0, 2, 5, 9):
            if uniform_interpolation(restricted, n0) is not None:
                assert uniform_interpolation(derived, n0) is not None
