import json
import random

import pytest

from gapforge import (
    DenseRequirement,
    GapFragment,
    InvariantViolation,
    Ladder,
    Ordinal,
    PCondition,
    PParams,
    QCondition,
    QParams,
    RequirementFailure,
    QContext,
    build_filter,
    check_tower_coherence,
    convergent_inclusion_scan,
    default_index_blocks,
    default_partition,
    excess,
    extract_gap_fragment,
    fin,
    p_poset,
    p_standard_schedule,
    pipeline,
    q_poset,
    q_standard_schedule,
)
from helpers import mask


def test_build_filter_empty_schedule():
    run = build_filter(p_poset(), PCondition.empty(), [], 0)
    assert run.trace == [PCondition.empty()]
    assert run.result == PCondition.empty()


def test_build_filter_height_requirement():
    reqs = p_standard_schedule([fin(0), fin(1)], 5, seed=3)
    run = build_filter(p_poset(), PCondition.empty(), reqs, 3)
    assert run.result.height >= 5
    assert set(run.result.entries) == {fin(0), fin(1)}
    for a, b in zip(run.trace, run.trace[1:]):
        from gapforge import p_leq

        assert p_leq(a, b)


def test_build_filter_idempotent_requirement_stabilizes():
    req = p_standard_schedule([], 4, seed=0)[0]
    run = build_filter(p_poset(), PCondition.empty(), [req, req, req], 0)
    assert run.trace[1] == run.trace[2] == run.trace[3]


def test_build_filter_rejects_non_extension():
    shrink = DenseRequirement("shrink", lambda p, rng: PCondition.empty())
    start = PCondition(1, {fin(0): ("1", "1")})
    with pytest.raises(RequirementFailure):
        build_filter(p_poset(), start, [shrink], 0)


def test_build_filter_passes_invariant_violations_through():
    def broken(p, rng):
        raise InvariantViolation("extend-order", "planted")

    with pytest.raises(InvariantViolation) as err:
        build_filter(p_poset(), PCondition.empty(), [DenseRequirement("broken", broken)], 0)
    assert (err.value.invariant, err.value.detail) == ("extend-order", "planted")


def test_p_standard_schedule_shapes():
    assert [r.name for r in p_standard_schedule([], 7, seed=0)] == ["height>=7"]
    reqs = p_standard_schedule(default_index_blocks(20), 64, seed=1)
    assert len(reqs) >= 21
    run = build_filter(p_poset(), PCondition.empty(), reqs, 1)
    assert set(run.result.entries) == set(default_index_blocks(20))
    assert run.result.height == 64


def test_p_schedule_seed_variation():
    ordinals = default_index_blocks(8)
    runs = [
        build_filter(p_poset(), PCondition.empty(), p_standard_schedule(ordinals, 24, seed=s), s)
        for s in (5, 6)
    ]
    frags = [extract_gap_fragment(r.result) for r in runs]
    assert frags[0].I == frags[1].I
    assert frags[0].universe == frags[1].universe
    assert frags[0] != frags[1]  # different seeds, different bits


def test_extract_gap_fragment_examples():
    assert extract_gap_fragment(PCondition.empty()) == GapFragment(0, {}, {})
    cond = PCondition(2, {fin(0): ("11", "11"), fin(1): ("01", "11")})
    frag = extract_gap_fragment(cond)
    assert frag.a[fin(1)] == mask({1})
    assert frag.b[fin(1)] == mask({0, 1})
    assert frag.a[fin(0)] == mask({0, 1}) == frag.b[fin(0)]
    rng = random.Random(41)
    for seed in range(5):
        reqs = p_standard_schedule(default_index_blocks(6), 16, seed=seed)
        run = build_filter(p_poset(), PCondition.empty(), reqs, seed)
        out = extract_gap_fragment(run.result)
        assert all(not out.a[o] & ~out.b[o] for o in out.a)


def test_tower_coherence_on_runs():
    for seed in range(4):
        reqs = p_standard_schedule(default_index_blocks(10), 24, seed=seed)
        run = build_filter(p_poset(), PCondition.empty(), reqs, seed)
        check_tower_coherence(run)  # must not raise


def _tiny_ctx():
    ordinals = default_index_blocks(12)
    reqs = p_standard_schedule(ordinals, 24, seed=9)
    run = build_filter(p_poset(), PCondition.empty(), reqs, 9)
    frag = extract_gap_fragment(run.result)
    part = default_partition(ordinals)
    return QContext(frag, Ladder.canonical(), part)


def test_q_standard_schedule():
    ctx = _tiny_ctx()
    assert q_standard_schedule(ctx, 0, sorted(ctx.part.S), seed=0) == []
    reqs = q_standard_schedule(ctx, 6, sorted(ctx.part.S), seed=0)
    run = build_filter(q_poset(ctx), QCondition.empty(), reqs, 0)
    final = run.result
    assert len(final.w) >= 6
    assert final.s == ctx.part.S
    ws = [sorted(c.w) for c in run.trace]
    for earlier, later in zip(ws, ws[1:]):
        added = set(later) - set(earlier)
        assert all(j > max(earlier) for j in added) if earlier else True
    with pytest.raises(ValueError):
        q_standard_schedule(ctx, 2, [Ordinal(9, 0)], seed=0)


def test_q_schedule_runs_out_of_room():
    ctx = _tiny_ctx()
    reqs = q_standard_schedule(ctx, 13, sorted(ctx.part.S), seed=0)  # only 12 indices exist
    with pytest.raises(RequirementFailure):
        build_filter(q_poset(ctx), QCondition.empty(), reqs, 0)


def test_pipeline_trivial():
    report = pipeline(PParams((), 0), Ladder.canonical(), default_partition(()), QParams(0), 0)
    assert report["W"] == []
    assert report["witnesses"] == []
    assert report["fragment"]["universe"] == 0


def test_pipeline_deterministic():
    ordinals = default_index_blocks(12)
    args = (PParams(ordinals, 32), Ladder.canonical(), default_partition(ordinals), QParams(6), 7)
    one = pipeline(*args)
    two = pipeline(*args)
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    other = pipeline(PParams(ordinals, 32), Ladder.canonical(), default_partition(ordinals), QParams(6), 8)
    assert json.dumps(one, sort_keys=True) != json.dumps(other, sort_keys=True)


def test_pipeline_report_shape():
    ordinals = default_index_blocks(12)
    report = pipeline(PParams(ordinals, 32), Ladder.canonical(), default_partition(ordinals), QParams(6), 7)
    assert set(report) == {"seed", "params", "fragment", "W", "witnesses", "excess_csv"}
    assert len(report["W"]) >= 6
    for wit in report["witnesses"]:
        assert set(wit) == {"delta", "j", "k", "n_star"}
        assert 0 <= wit["k"] <= wit["n_star"]
    assert report["excess_csv"].endswith("\n")


def test_convergent_inclusion_scan():
    g = GapFragment(
        4,
        {fin(0): mask({1}), fin(1): mask({1, 2}), Ordinal(1, 1): 0},
        {fin(0): mask({1}), fin(1): mask({1, 2}), Ordinal(1, 1): mask({1, 2, 3})},
    )
    idx = sorted(g.a)
    assert convergent_inclusion_scan(g, idx, [], [Ordinal(1, 0)]) == []
    rows = convergent_inclusion_scan(g, idx, [Ordinal(1, 1)], [Ordinal(1, 0)])
    assert len(rows) == 1
    assert rows[0]["found"] is True
    assert rows[0]["m"] == 0  # every a below the limit is inside b at the probe
    assert rows[0]["length"] == 2
    empty_below = convergent_inclusion_scan(g, [Ordinal(1, 1)], [Ordinal(1, 1)], [Ordinal(1, 0)])
    assert empty_below[0]["found"] is False


def test_default_partition():
    part = default_partition(default_index_blocks(20))
    assert part.S == frozenset({Ordinal(1, 0), Ordinal(2, 0)})
    assert part.D == part.S
    assert default_partition(()).S == frozenset()
