"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import json
import random
import time

from gapforge import (
    GapFragment,
    Ladder,
    Ordinal,
    PCondition,
    QCondition,
    QContext,
    SPartition,
    build_compat_matrix,
    default_index_blocks,
    default_partition,
    excess,
    find_compatible_pair,
    generate_pcc_instance,
    max_order_rectangle,
    members,
    p_compatible_oracle,
    p_join,
    p_join_from_core,
    p_leq,
    p_restrict,
    pcc_ab_profiles,
    pipeline,
    q_compatible,
    q_leq,
    special_gap_check,
    uniform_interpolation,
    verify_rectangle,
)
from helpers import (
    conditions_in,
    enumerate_conditions,
    fin,
    mask,
    matrix_from_grid,
    random_extension,
    random_fragment,
    random_pcondition,
    small_context,
)
from gaps_reference import report_default
from ordinals_reference import ref_value
from pcc_reference import exact_rectangle
from proof_steps import delta_system_refine, p_union_agreeing, separated_pair_check

POOL = [fin(k) for k in range(8)]


def _report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def test_01_excess_laws():
    t0 = time.perf_counter()
    rng = random.Random(101)
    trials = 100_000
    for _ in range(trials):
        m = rng.randint(1, 64)
        a = {v for v in range(m) if rng.random() < 0.45}
        b = {v for v in range(m) if rng.random() < 0.45}
        x = excess(mask(a), mask(b))
        assert {v for v in a if v >= x} <= b
        if x > 0:
            assert x - 1 in a and x - 1 not in b
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, "excess laws", f"{trials} pairs, {elapsed:.2f}s")


def test_02_order_laws():
    t0 = time.perf_counter()
    rng = random.Random(102)
    triples = 10_000
    for _ in range(triples):
        p = random_pcondition(rng, POOL, rng.randint(0, 3))
        q = random_extension(rng, p, POOL)
        r = random_extension(rng, q, POOL)
        assert p_leq(p, p) and p_leq(q, q) and p_leq(r, r)
        assert p_leq(p, q) and p_leq(q, r)
        assert p_leq(p, r)
        if p_leq(q, p):
            assert p == q
        other = random_pcondition(rng, POOL, rng.randint(0, 3))
        if p_leq(p, other) and p_leq(other, p):
            assert p == other
    grid = enumerate_conditions([fin(0), fin(1)], [0, 1, 2])
    n = len(grid)
    rel = [[p_leq(grid[i], grid[j]) for j in range(n)] for i in range(n)]
    assert all(rel[i][i] for i in range(n))
    succ = [frozenset(j for j in range(n) if rel[i][j]) for i in range(n)]
    for i in range(n):
        for j in succ[i]:
            assert succ[j] <= succ[i]  # transitivity
            if i in succ[j]:
                assert grid[i] == grid[j]  # antisymmetry
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, "order laws", f"{triples} random triples + {n}x{n} grid, {elapsed:.2f}s")


def test_03_join_correctness():
    t0 = time.perf_counter()
    rng = random.Random(103)
    trials = 1000
    for _ in range(trials):
        p = random_pcondition(rng, POOL, rng.randint(1, 3))
        keep = rng.sample(sorted(p.entries), rng.randint(0, len(p.entries)))
        base = p_restrict(p, keep)
        outside = [o for o in POOL if o not in p.entries]
        q = random_extension(rng, base, keep + outside)
        r = p_join(p, q)
        assert p_leq(p, r) and p_leq(q, r)
        assert p_restrict(r, q.entries) == q
    tiny = enumerate_conditions([fin(0), fin(1)], [0, 1])
    joined = confirmed = 0
    for p, q in itertools.product(tiny, repeat=2):
        if q.height >= p.height and p_leq(p_restrict(p, q.entries), q):
            r = p_join(p, q)
            assert p_leq(p, r) and p_leq(q, r)
            assert p_compatible_oracle(p, q) is not None
            joined += 1
        core = p.entries.keys() & q.entries.keys()
        if p.height >= q.height and p_leq(p_restrict(q, core), p_restrict(p, core)):
            r = p_join_from_core(p, q)
            assert p_leq(p, r) and p_leq(q, r)
            assert p_compatible_oracle(p, q) is not None
            confirmed += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, "join correctness", f"{trials} generated + {joined}/{confirmed} exhaustive, {elapsed:.2f}s")


def test_04_same_domain_dichotomy():
    t0 = time.perf_counter()
    grid = enumerate_conditions([fin(0), fin(1)], [0, 1, 2])
    by_domain = {}
    for p in grid:
        by_domain.setdefault(frozenset(p.entries), []).append(p)
    pairs = 0
    for members in by_domain.values():
        for p, q in itertools.product(members, repeat=2):
            compatible = p_compatible_oracle(p, q) is not None
            comparable = p_leq(p, q) or p_leq(q, p)
            assert compatible == comparable
            pairs += 1
    elapsed = time.perf_counter() - t0
    _report(4, "same-domain dichotomy", f"{pairs} exhaustive pairs, {elapsed:.2f}s")


def test_05_sunflower_refinement():
    t0 = time.perf_counter()
    rng = random.Random(105)
    pool = [fin(k) for k in range(30)]
    core_word = ("101", "111")
    family = []
    for k in range(200):
        if k % 2 == 0:
            entries = {fin(0): core_word, pool[5 + k % 25]: ("010", "011")}
        else:
            entries = {}
            for o in rng.sample(pool, rng.randint(1, 4)):
                hi = [v for v in range(3) if rng.random() < 0.5]
                lo = [v for v in hi if rng.random() < 0.5]
                entries[o] = (
                    "".join("1" if v in lo else "0" for v in range(3)),
                    "".join("1" if v in hi else "0" for v in range(3)),
                )
        family.append(PCondition(3, entries))
    subfamily, core = delta_system_refine(family)
    assert len(subfamily) >= 3
    for p, q in itertools.combinations(subfamily, 2):
        u = p_union_agreeing(p, q)
        assert p_leq(p, u) and p_leq(q, u)
    for _ in range(100):
        p, q, r = rng.sample(subfamily, 3)
        u = p_union_agreeing(p_union_agreeing(p, q), r)
        assert p_leq(p, u) and p_leq(q, u) and p_leq(r, u)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, "sunflower refinement", f"family 200 -> {len(subfamily)} petals, core {len(core)}, {elapsed:.2f}s")


def _independent_q_leq(ctx, p, q):
    if not (p.w <= q.w and p.s <= q.s):
        return False
    for delta in p.s:
        for i in p.w:
            if not delta <= i:
                continue
            for j in q.w - p.w:
                if not j < delta:
                    continue
                rungs, n = 0, 0
                while True:
                    v = ref_value(ctx.ladder, delta, n)
                    if v < j:
                        rungs, n = rungs + 1, n + 1
                    else:
                        break
                if not excess(ctx.g.a[j], ctx.g.b[i]) > rungs:
                    return False
    return True


def test_06_exact_compatibility():
    t0 = time.perf_counter()
    rng = random.Random(106)
    contexts = [small_context(rng, universe=rng.randint(3, 6)) for _ in range(12)]
    pairs = 0
    for ctx in contexts:
        conds = conditions_in(ctx)
        idx = sorted(ctx.g.a)
        s_pool = sorted(ctx.part.S)
        for p, q in itertools.product(conds, repeat=2):
            mine = q_compatible(ctx, p, q)
            found = None
            base_w, base_s = p.w | q.w, p.s | q.s
            extra_w = [o for o in idx if o not in base_w]
            extra_s = [o for o in s_pool if o not in base_s]
            for ws in itertools.chain.from_iterable(
                itertools.combinations(extra_w, k) for k in range(len(extra_w) + 1)
            ):
                for ss in itertools.chain.from_iterable(
                    itertools.combinations(extra_s, k) for k in range(len(extra_s) + 1)
                ):
                    r = QCondition(base_w | set(ws), base_s | set(ss))
                    if _independent_q_leq(ctx, p, r) and _independent_q_leq(ctx, q, r):
                        found = r
                        break
                if found:
                    break
            assert (mine is None) == (found is None)
            pairs += 1
    elapsed = time.perf_counter() - t0
    _report(6, "exact compatibility", f"{pairs} pairs across {len(contexts)} contexts, {elapsed:.2f}s")


def _random_separated_instance(rng):
    universe = rng.randint(10, 16)
    gamma = Ordinal(2, 0)
    alpha = Ordinal(3, rng.randint(0, 4))
    core1 = frozenset(fin(r) for r in rng.sample(range(4), rng.randint(0, 2)))
    core2 = frozenset(fin(r) for r in rng.sample(range(4), rng.randint(0, 2)))
    core_s = frozenset({Ordinal(1, 0)}) if rng.random() < 0.5 else frozenset()
    w1x = frozenset(Ordinal(2, 1 + t) for t in range(rng.randint(0, 2)))
    w2x = frozenset(Ordinal(3, alpha.r + 1 + t) for t in range(rng.randint(0, 2)))
    if rng.random() < 0.6:
        w2x |= {Ordinal(4, 1)}  # sits above the first upper limit
    s2x = frozenset(Ordinal(4, 0) for _ in range(1) if rng.random() < 0.7)
    s1x = frozenset({Ordinal(6, 0)}) if rng.random() < 0.3 else frozenset()
    limits = frozenset({Ordinal(1, 0), Ordinal(4, 0), Ordinal(6, 0)})
    idx = sorted(core1 | core2 | w1x | w2x)
    floor = max((alpha.r if d == Ordinal(4, 0) else 0 for d in s2x), default=-1)
    witness = rng.randint(floor + 1, universe - 1) if rng.random() < 0.85 else None
    a, b = {}, {}
    for o in idx:
        a[o] = mask(v for v in range(universe) if rng.random() < 0.4)
        b[o] = mask(v for v in range(universe) if rng.random() < 0.4)
        if witness is not None:
            if o in w1x:
                a[o] |= mask({witness})
            if o in w2x:
                b[o] &= ~mask({witness})
    part = SPartition(S=limits, T=frozenset(), D=limits)
    ctx = QContext(GapFragment(universe, a, b), Ladder.canonical(), part)
    p1 = QCondition(core1 | w1x, core_s | s1x)
    p2 = QCondition(core2 | w2x, core_s | s2x)
    return ctx, p1, p2, gamma, alpha


def test_07_separated_pair_sufficiency():
    t0 = time.perf_counter()
    rng = random.Random(107)
    accepted = attempts = 0
    while accepted < 1000:
        attempts += 1
        assert attempts < 20_000, "generator starved"
        ctx, p1, p2, gamma, alpha = _random_separated_instance(rng)
        if separated_pair_check(ctx, p1, p2, gamma, alpha):
            assert q_compatible(ctx, p1, p2) is not None
            accepted += 1
    elapsed = time.perf_counter() - t0
    _report(7, "separated-pair sufficiency", f"{accepted} true instances of {attempts}, {elapsed:.2f}s")


def _brute_uniform_exists(g, n0):
    space = list(range(g.universe))
    for size in range(g.universe + 1):
        for xs in itertools.combinations(space, size):
            x = set(xs)
            if all(v in x for i in g.a for v in members(g.a[i]) if v >= n0) and all(
                {v for v in x if v >= n0} <= set(members(g.b[j])) for j in g.b
            ):
                return True
    return False


def _duality_case(g, n0):
    mine = uniform_interpolation(g, n0)
    assert (mine is not None) == _brute_uniform_exists(g, n0)
    if len(g.a) >= 2 and special_gap_check(g, n0):
        # the pairwise clause has content only with two or more indices
        assert mine is None


def test_08_duality_and_brute_force():
    t0 = time.perf_counter()
    cases = 0
    # exhaustive family: universe 3, two shared indices
    sets3 = [mask(s) for k in range(4) for s in itertools.combinations(range(3), k)]
    for a0, a1, b0, b1 in itertools.product(sets3, repeat=4):
        g = GapFragment(3, {fin(0): a0, fin(1): a1}, {fin(0): b0, fin(1): b1})
        for n0 in range(4):
            _duality_case(g, n0)
            cases += 1
    # exhaustive family: universe 2, three shared indices
    sets2 = [mask(s) for k in range(3) for s in itertools.combinations(range(2), k)]
    for a0, a1, a2, b0, b1, b2 in itertools.product(sets2, repeat=6):
        g = GapFragment(
            2,
            {fin(0): a0, fin(1): a1, fin(2): a2},
            {fin(0): b0, fin(1): b1, fin(2): b2},
        )
        _duality_case(g, 1)
        cases += 1
    # randomized cover of the full small range
    rng = random.Random(108)
    for _ in range(10_000):
        m = rng.randint(1, 6)
        g = random_fragment(rng, m, [fin(k) for k in range(5)], rng.randint(2, 3))
        _duality_case(g, rng.randint(0, m))
        cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "interpolation duality", f"{cases} fragments checked against brute force, {elapsed:.2f}s")


def test_09_pipeline_end_to_end():
    t0 = time.perf_counter()
    ordinals = default_index_blocks(20)
    args = (ordinals, 64, 10, Ladder.canonical(), default_partition(ordinals), 7)
    report = pipeline(*args)
    again = pipeline(*args)
    one, two = (json.dumps(r, sort_keys=True, default=report_default) for r in (report, again))
    assert one == two  # byte-identical rerun
    report = json.loads(one)  # the report as its text reads, fragment and witnesses in their dict forms
    frag = GapFragment.from_json(report["fragment"])
    assert all(not frag.a[o] & ~frag.b[o] for o in frag.a)
    assert len(report["W"]) >= 10
    selected = [Ordinal.from_json(o) for o in report["W"]]
    limits = sorted(default_partition(ordinals).S)
    expected_pairs = sum(1 for d in limits for j in selected if j >= d)
    assert len(report["witnesses"]) == expected_pairs  # no failures anywhere
    assert any(w["n_star"] > 0 for w in report["witnesses"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(9, "pipeline end-to-end", f"|W|={len(report['W'])}, {len(report['witnesses'])} witnesses, {elapsed:.2f}s")


def test_10_chain_condition_lab():
    t0 = time.perf_counter()
    inst = generate_pcc_instance(2026, 30, 30)
    meets, joins = pcc_ab_profiles(inst)
    assert any(m != mask(range(inst.ctx.g.universe)) for m in meets.values())
    assert any(j for j in joins.values())
    matrix = build_compat_matrix(inst.ctx, inst.fam1, inst.fam2)
    triple = find_compatible_pair(inst, matrix)
    assert triple is not None
    d1, d2, n = triple
    assert d1 < d2 and n >= inst.k
    p1, p2 = dict(inst.fam1)[d1], dict(inst.fam2)[d2]
    u = q_compatible(inst.ctx, p1, p2)
    assert u is not None
    assert q_leq(inst.ctx, p1, u) and q_leq(inst.ctx, p2, u)
    rows, cols = max_order_rectangle(matrix)
    assert verify_rectangle(matrix, rows, cols)
    rng = random.Random(110)
    for _ in range(20):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        cells = tuple(tuple(rng.random() < rng.uniform(0.3, 0.9) for _ in range(nc)) for _ in range(nr))
        m = matrix_from_grid(
            tuple(Ordinal(0, 2 * i) for i in range(nr)),
            tuple(Ordinal(0, 2 * i + 1) for i in range(nc)),
            cells,
        )
        er, ec = exact_rectangle(m)
        mr, mc = max_order_rectangle(m)
        assert verify_rectangle(m, mr, mc)
        assert len(mr) + len(mc) == len(er) + len(ec)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(10, "chain-condition lab", f"pair {n} at ({d1}, {d2}), rectangle {len(rows)}x{len(cols)}, {elapsed:.2f}s")
