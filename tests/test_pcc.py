import itertools
import random
import tracemalloc

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
    build_compat_matrix,
    fin,
    find_compatible_pair,
    generate_pcc_instance,
    max_order_rectangle,
    pcc_ab_profiles,
    q_compatible,
    q_leq,
    uniform_interpolation,
    verify_rectangle,
)
from gapforge import pcc
from helpers import mask, matrix_from_grid
from pcc_reference import exact_rectangle, matching_size, ref_verify_rectangle


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
    m = _random_matrix(rng, 3, 4, 0.5)
    back = CompatMatrix.from_csv(m.to_csv())
    assert back.row_index == m.row_index
    assert back.col_index == m.col_index
    assert back.rows == m.rows
    # an all-false row, an all-false last column (the high bits of every
    # row) and a header with no rows keep their bytes both ways
    for text, rows in ((",0.1,0.3,0.5\n0.0,1,1,0\n0.2,0,0,0\n0.4,0,1,0\n", (3, 0, 2)), (",0.1,0.3\n", ())):
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
