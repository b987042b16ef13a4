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
    QCondition,
    RequirementFailure,
    QContext,
    build_filter,
    check_tower_coherence,
    default_index_blocks,
    default_partition,
    excess,
    extract_gap_fragment,
    fin,
    p_leq,
    p_standard_schedule,
    pipeline,
    poset_p,
    q_leq,
    q_standard_schedule,
    simulate,
)
from helpers import mask


def test_build_filter_empty_schedule():
    run = build_filter(PCondition.empty(), [])
    assert run.trace == [PCondition.empty()]
    assert run.result == PCondition.empty()


def test_build_filter_height_requirement():
    reqs = p_standard_schedule([fin(0), fin(1)], 5, seed=3)
    run = build_filter(PCondition.empty(), reqs)
    assert run.result.height >= 5
    assert set(run.result.entries) == {fin(0), fin(1)}
    for a, b in zip(run.trace, run.trace[1:]):
        assert p_leq(a, b)


def test_build_filter_idempotent_requirement_stabilizes():
    req = p_standard_schedule([], 4, seed=0)[0]
    run = build_filter(PCondition.empty(), [req, req, req])
    assert run.trace[1] is run.trace[2] is run.trace[3]  # a met requirement is a no-op


def test_every_standard_meet_rule_verifies_its_step(monkeypatch):
    p_reqs = p_standard_schedule(default_index_blocks(4), 4, seed=0)
    ctx = _tiny_ctx()
    q_reqs = q_standard_schedule(ctx, 3, seed=0)
    with monkeypatch.context() as m:
        m.setattr(poset_p, "p_leq", lambda p, q: False)
        for req in p_reqs:
            with pytest.raises(InvariantViolation) as err:
                req.meet(PCondition.empty())
            assert err.value.invariant == "extend-order"
        with pytest.raises(InvariantViolation) as err:
            build_filter(PCondition.empty(), p_reqs)
        assert err.value.invariant == "extend-order"
    with monkeypatch.context() as m:
        m.setattr(simulate, "q_leq", lambda ctx, p, q: False)
        for req in q_reqs:
            with pytest.raises(InvariantViolation) as err:
                req.meet(QCondition.empty())
            assert err.value.invariant == "selection-order"
        with pytest.raises(InvariantViolation) as err:
            build_filter(QCondition.empty(), q_reqs)
        assert err.value.invariant == "selection-order"


def test_build_filter_passes_invariant_violations_through():
    def broken(p):
        raise InvariantViolation("extend-order", "planted")

    with pytest.raises(InvariantViolation) as err:
        build_filter(PCondition.empty(), [DenseRequirement("broken", broken)])
    assert (err.value.invariant, err.value.detail) == ("extend-order", "planted")


@pytest.mark.parametrize("exc", [ValueError("planted"), RequirementFailure("planted")])
def test_build_filter_wraps_failed_requirements(exc):
    def failing(p):
        raise exc

    with pytest.raises(RequirementFailure) as err:
        build_filter(PCondition.empty(), [DenseRequirement("failing", failing)])
    assert "'failing' failed: planted" in str(err.value)
    assert err.value.__cause__ is exc


def test_p_standard_schedule_shapes():
    assert [r.name for r in p_standard_schedule([], 7, seed=0)] == ["height>=7"]
    reqs = p_standard_schedule(default_index_blocks(20), 64, seed=1)
    assert len(reqs) >= 21
    run = build_filter(PCondition.empty(), reqs)
    assert set(run.result.entries) == set(default_index_blocks(20))
    assert run.result.height == 64


def test_p_schedule_seed_variation():
    ordinals = default_index_blocks(8)
    runs = [
        build_filter(PCondition.empty(), p_standard_schedule(ordinals, 24, seed=s))
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
        run = build_filter(PCondition.empty(), reqs)
        out = extract_gap_fragment(run.result)
        assert all(not out.a[o] & ~out.b[o] for o in out.a)


def test_tower_coherence_on_runs():
    for seed in range(4):
        reqs = p_standard_schedule(default_index_blocks(10), 24, seed=seed)
        run = build_filter(PCondition.empty(), reqs)
        check_tower_coherence(run)  # must not raise


def _tiny_ctx():
    ordinals = default_index_blocks(12)
    reqs = p_standard_schedule(ordinals, 24, seed=9)
    run = build_filter(PCondition.empty(), reqs)
    frag = extract_gap_fragment(run.result)
    part = default_partition(ordinals)
    return QContext(frag, Ladder.canonical(), part)


def test_q_standard_schedule():
    ctx = _tiny_ctx()
    assert q_standard_schedule(ctx, 0, seed=0) == []
    for size in (6, 12):  # 12 is every tower index
        reqs = q_standard_schedule(ctx, size, seed=0)
        run = build_filter(QCondition.empty(), reqs)
        final = run.result
        assert len(final.w) >= size
        assert final.s == ctx.part.S
        ws = [sorted(c.w) for c in run.trace]
        for earlier, later in zip(ws, ws[1:]):
            added = set(later) - set(earlier)
            assert all(j > max(earlier) for j in added) if earlier else True
        # the trace is a chain, so its last w is the union of all of them
        assert all(q_leq(ctx, a, b) for a, b in zip(run.trace, run.trace[1:]))
        assert final.w == frozenset().union(*(c.w for c in run.trace))
    report = pipeline(ctx.g.I, 24, 6, Ladder.canonical(), ctx.part, 9)
    q_run = build_filter(QCondition.empty(), q_standard_schedule(ctx, 6, seed=10))
    assert report["W"] == [o.to_json() for o in sorted(q_run.result.w)]


def test_q_schedule_runs_out_of_room():
    ctx = _tiny_ctx()
    with pytest.raises(RequirementFailure):  # only 12 indices exist
        build_filter(QCondition.empty(), q_standard_schedule(ctx, 13, seed=0))


def test_pipeline_trivial():
    report = pipeline((), 0, 0, Ladder.canonical(), default_partition(()), 0)
    assert report["W"] == []
    assert report["witnesses"] == []
    assert report["fragment"]["universe"] == 0


def test_pipeline_deterministic():
    ordinals = default_index_blocks(12)
    args = (ordinals, 32, 6, Ladder.canonical(), default_partition(ordinals), 7)
    one = pipeline(*args)
    two = pipeline(*args)
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    other = pipeline(ordinals, 32, 6, Ladder.canonical(), default_partition(ordinals), 8)
    assert json.dumps(one, sort_keys=True) != json.dumps(other, sort_keys=True)


def test_pipeline_report_shape():
    ordinals = default_index_blocks(12)
    report = pipeline(ordinals, 32, 6, Ladder.canonical(), default_partition(ordinals), 7)
    assert set(report) == {"seed", "params", "fragment", "W", "witnesses", "excess_csv"}
    assert len(report["W"]) >= 6
    for wit in report["witnesses"]:
        assert set(wit) == {"delta", "j", "k", "n_star"}
        assert 0 <= wit["k"] <= wit["n_star"]
    assert report["excess_csv"].endswith("\n")


def test_default_partition():
    part = default_partition(default_index_blocks(20))
    assert part.S == frozenset({Ordinal(1, 0), Ordinal(2, 0)})
    assert part.D == part.S
    assert default_partition(()).S == frozenset()
