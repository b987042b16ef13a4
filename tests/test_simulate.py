import builtins
import functools
import itertools
import json
import random
import re

import pytest
import simulate_reference

from gapforge import (
    GapFragment,
    InvariantViolation,
    Ladder,
    Ordinal,
    PCondition,
    QCondition,
    RequirementFailure,
    QContext,
    Selection,
    SPartition,
    build_filter,
    check_tower_coherence,
    default_index_blocks,
    default_partition,
    forge,
    gaps,
    ladder_blocked,
    p_leq,
    pipeline,
    poset_p,
    poset_q,
    q_leq,
    simulate,
)
from gaps_reference import report_default
from helpers import fin, mask, traced_peak
from simulate_reference import (
    DenseRequirement,
    SimRun,
    entry_heights,
    extract_gap_fragment,
    ref_build_filter,
    ref_check_tower_coherence,
    ref_coin_draws,
    ref_p_standard_schedule,
    ref_q_standard_schedule,
    ref_sweep_tower_coherence,
)


def test_build_filter_empty_schedule():
    """A target of 0 takes no step, with or without tower indices."""
    for ctx in (_tiny_ctx(), _forged_ctx(0, 0, 0)):
        run = build_filter(ctx, 0, seed=0)
        assert run == Selection((), (), ()) and run.trace == [QCondition.empty()]
        assert run.result == QCondition.empty()


def test_build_filter_height_requirement():
    """The reference fold, which the forge's sweep replaced, meets the
    height requirement of its P schedule."""
    reqs = ref_p_standard_schedule([fin(0), fin(1)], 5, seed=3)
    run = ref_build_filter(PCondition.empty(), reqs)
    assert run.result.height >= 5
    assert set(run.result.entries) == {fin(0), fin(1)}
    for a, b in zip(run.trace, run.trace[1:]):
        assert p_leq(a, b)


def test_the_forge_schedule_meets_a_start_holding_an_index_off_the_schedule():
    """Each meet rule of the reference fold is total: an index the schedule
    does not list keeps its masks and draws no level of its own, receiving
    only what `p_extend` carries up to it."""
    start = PCondition(3, {fin(7): ("101", "111")})  # taller than the first levels too
    final = ref_build_filter(start, ref_p_standard_schedule([fin(0), fin(1)], 8, seed=3)).result
    assert final.masks.keys() == {fin(0), fin(1), fin(7)} and p_leq(start, final)
    assert final.masks[fin(7)][0] == 0b101 | final.masks[fin(0)][0] | final.masks[fin(1)][0]
    assert final.masks[fin(0)][0] >> 3 and final.height == 8


def test_build_filter_idempotent_requirement_stabilizes():
    """A met requirement of the reference fold is a no-op; `build_filter`
    takes none, every step of its trace grows the condition."""
    req = ref_p_standard_schedule([], 4, seed=0)[0]  # the height requirement alone
    run = ref_build_filter(PCondition.empty(), [req, req, req])
    assert run.trace[1] is run.trace[2] is run.trace[3]
    run = build_filter(_tiny_ctx(), 12, seed=0)
    assert all(a != b for a, b in zip(run.trace, run.trace[1:]))


def _stalling_at(bad: int):
    """A stand-in for the builtin `min` in `simulate`: its keyed calls are
    the picks, and the one of step `bad` >= 1 returns the position before
    its window, so it picks the last pick again."""
    windows = []

    def stalling_min(*args, key=None):
        if key is None:
            return builtins.min(*args)
        windows.append(args[0])
        return args[0].start - 1 if len(windows) == bad + 1 else builtins.min(*args, key=key)

    return stalling_min


def test_every_standard_meet_rule_verifies_its_step(monkeypatch):
    """Every pick of the selection is checked, by one check on the finished
    picks: a pick that repeats the one before it at step k alone does not
    ascend, and selection-order names that pair, the first that does not.
    Each rule of the reference schedule verifies its step through `q_leq`."""
    ctx = _tiny_ctx()
    run = build_filter(ctx, 6, seed=0)
    assert len(run.schedule) == 7 and len(run.picks) == 6  # one designated limit, six picks
    for bad in range(1, 6):
        with monkeypatch.context() as m:
            m.setattr(simulate, "min", _stalling_at(bad), raising=False)
            with pytest.raises(InvariantViolation) as err:
                build_filter(ctx, 6, seed=0)
        x = run.picks[bad - 1]
        assert err.value.invariant == "selection-order"
        assert err.value.detail == f"pick {x} does not lie above the pick {x} before it"
    with monkeypatch.context() as m:
        m.setattr(simulate_reference, "q_leq", lambda ctx, p, q: False)
        for req in ref_q_standard_schedule(ctx, 3, seed=0):
            with pytest.raises(InvariantViolation) as err:
                req.meet(QCondition.empty())
            assert err.value.invariant == "selection-order"


@pytest.mark.parametrize("count, height, seed", [(12, 24, 9), (20, 32, 1), (33, 40, 5)])
def test_build_filter_asks_the_kernel_nothing_and_checks_the_chain_once(count, height, seed, monkeypatch):
    """No `ladder_blocked` call, since a pick above every member of w lies
    below no anchored delta; only the last condition, which holds every
    earlier one, is checked against the context."""
    ctx = _forged_ctx(count, height, seed)
    assert not hasattr(simulate, "ladder_blocked")
    for target in (0, 1, count // 2, count):
        real, calls, checked = build_filter(ctx, target, seed), [], []
        with monkeypatch.context() as m:
            m.setattr(poset_q, "ladder_blocked", lambda ctx, conds, cand: calls.append((conds, cand)) or [0])
            m.setattr(QContext, "check_condition", lambda ctx, p: checked.append(p))
            run = build_filter(ctx, target, seed)
        assert run == real and checked == [run.result] and calls == []
        assert len(run.picks) == target


def test_build_filter_passes_invariant_violations_through(monkeypatch):
    def broken(*args):
        raise InvariantViolation("extend-order", "planted")

    with pytest.raises(InvariantViolation) as err:
        ref_build_filter(PCondition.empty(), [DenseRequirement("broken", broken)])
    assert (err.value.invariant, err.value.detail) == ("extend-order", "planted")
    monkeypatch.setattr(QContext, "check_condition", broken)
    with pytest.raises(InvariantViolation) as err:
        build_filter(_tiny_ctx(), 2, seed=0)
    assert (err.value.invariant, err.value.detail) == ("extend-order", "planted")


@pytest.mark.parametrize("exc", [ValueError("planted"), RequirementFailure("planted")])
def test_build_filter_wraps_failed_requirements(exc, monkeypatch):
    """The reference fold wraps a failed requirement in RequirementFailure,
    naming it.  `build_filter` has no requirements to name and wraps
    nothing: what the context check raises reaches the caller as it is."""

    def failing(*args):
        raise exc

    with pytest.raises(RequirementFailure) as err:
        ref_build_filter(PCondition.empty(), [DenseRequirement("failing", failing)])
    assert "'failing' failed: planted" in str(err.value)
    assert err.value.__cause__ is exc
    monkeypatch.setattr(QContext, "check_condition", failing)
    with pytest.raises(type(exc)) as err:
        build_filter(_tiny_ctx(), 2, seed=0)
    assert err.value is exc


def test_p_standard_schedule_shapes():
    """The forged diagram has the shape the standard P schedule gave: every
    index on both sides and the height as its universe."""
    assert forge([], 7, seed=0) == GapFragment(7, {}, {})
    ordinals = default_index_blocks(20)
    frag = forge(ordinals[::-1] + ordinals[:1], 64, seed=1)  # order and repeats do not matter
    assert frag == forge(ordinals, 64, seed=1)
    assert frag.I == frag.J == ordinals and frag.universe == 64


def test_the_schedule_ends_at_its_last_bit_requirement():
    """The forge ends at the target height, where the reference fold's last
    requirement leaves it, down to no index or no level; index k holds no
    member below k."""
    for count, height in [(0, 5), (3, 5), (5, 5), (0, 0)]:
        ordinals = default_index_blocks(count)
        frag = forge(ordinals, height, seed=count)
        final = ref_build_filter(PCondition.empty(), ref_p_standard_schedule(ordinals, height, seed=count)).result
        assert frag.universe == final.height == height
        assert frag.I == frag.J == ordinals == tuple(sorted(final.masks))
        assert all(frag.b[o] & ((1 << k) - 1) == 0 for k, o in enumerate(ordinals))


def test_p_schedule_seed_variation():
    ordinals = default_index_blocks(8)
    frags = [forge(ordinals, 24, seed=s) for s in (5, 6)]
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
    for seed in range(5):
        reqs = ref_p_standard_schedule(default_index_blocks(6), 16, seed=seed)
        run = ref_build_filter(PCondition.empty(), reqs)
        out = extract_gap_fragment(run.result)
        assert all(not out.a[o] & ~out.b[o] for o in out.a)


def test_tower_coherence_on_runs():
    for seed in range(4):
        reqs = ref_p_standard_schedule(default_index_blocks(10), 24, seed=seed)
        run = ref_build_filter(PCondition.empty(), reqs)
        check_tower_coherence(run.result.masks, entry_heights(run.trace))  # must not raise


@pytest.mark.parametrize(
    "words, detail",
    [
        # bit 0 granted at a_0 but not at a_1 above it
        ({fin(0): ("1", "1"), fin(1): ("0", "0")}, "a-excess at (0, 1)"),
        # bit 0 granted at b_1 but not at b_0, above it on the b side
        ({fin(0): ("0", "0"), fin(1): ("0", "1")}, "b-excess at (1, 0)"),
    ],
    ids=["a-side", "b-side"],
)
def test_tower_coherence_fires_on_a_grant_that_skips_a_later_index(words, detail):
    c0 = PCondition(0, {fin(0): ("", ""), fin(1): ("", "")})
    bad = PCondition(1, words)
    with pytest.raises(InvariantViolation) as err:
        check_tower_coherence(bad.masks, entry_heights([c0, bad]))
    assert err.value.invariant == "tower-coherence"
    assert detail in err.value.detail


def _assert_coherence_agrees_with_the_reference(run: SimRun) -> bool:
    """Both checks pass, or both fail and the pairwise reference, run on the
    named pair alone with the other side made coherent, raises the sweep's
    very detail.  True when the run fails."""
    try:
        check_tower_coherence(run.result.masks, entry_heights(run.trace))
    except InvariantViolation as err:
        assert err.invariant == "tower-coherence"
        detail = err.detail
    else:
        ref_check_tower_coherence(run)
        return False
    with pytest.raises(InvariantViolation):
        ref_check_tower_coherence(run)
    side, x, y = re.fullmatch(r"([ab])-excess at \((.+), (.+)\) exceeds entry height \d+", detail).groups()
    names = {str(o): o for o in run.result.masks}
    pair = {names[x], names[y]}

    def one_side(c: PCondition) -> PCondition:
        full = (1 << c.height) - 1
        return PCondition.from_masks(
            c.height, {o: (lo, full) if side == "a" else (0, hi) for o, (lo, hi) in c.masks.items() if o in pair}
        )

    with pytest.raises(InvariantViolation) as ref_err:
        ref_check_tower_coherence(SimRun(run.schedule, [one_side(c) for c in run.trace]))
    assert ref_err.value.detail == detail
    return True


def _random_coherence_run(rng: random.Random) -> SimRun:
    """Indices enter one condition at a time, in an order shuffled against
    the domain order, at non-decreasing heights.  At each level the indices
    already entered mostly get an up-closed a-bit and a down-closed b-bit,
    as coherence asks, and now and then a random one; later indices get
    random bits, which coherence leaves free."""
    count, height = rng.randint(1, 7), rng.randint(0, 9)
    dom = sorted(rng.sample([Ordinal(q, r) for q in range(3) for r in range(8)], count))
    order = rng.sample(dom, count)
    entry = dict(zip(order, sorted(rng.randint(0, height) for _ in order)))
    lo, hi = dict.fromkeys(dom, 0), dict.fromkeys(dom, 0)
    for k in range(height):
        t, u = rng.randint(0, count), rng.randint(0, count)
        for pos, o in enumerate(dom):
            free = entry[o] > k
            a = rng.random() < 0.3 if free or rng.random() < 0.04 else pos >= t
            b = a or (rng.random() < 0.5 if free or rng.random() < 0.04 else pos < u)
            lo[o] |= a << k
            hi[o] |= b << k
    trace = [PCondition.empty()]
    for i, o in enumerate(order):
        cut = (1 << entry[o]) - 1
        trace.append(PCondition.from_masks(entry[o], {x: (lo[x] & cut, hi[x] & cut) for x in order[: i + 1]}))
    trace.append(PCondition.from_masks(height, {x: (lo[x], hi[x]) for x in dom}))
    return SimRun([], trace)


@pytest.mark.parametrize("seed", range(10))
def test_tower_coherence_matches_the_pairwise_reference_on_random_traces(seed):
    rng = random.Random(seed)
    failed = sum(_assert_coherence_agrees_with_the_reference(_random_coherence_run(rng)) for _ in range(1000))
    assert 200 <= failed <= 800


def _coherence_detail(check, masks, entry) -> str | None:
    try:
        check(masks, entry)
    except InvariantViolation as err:
        assert err.invariant == "tower-coherence"
        return err.detail
    return None


def test_tower_coherence_names_the_pair_and_height_of_the_two_sided_sweep():
    """Forged diagrams with 1-3 bits flipped in random masks above or below
    their entry heights: the two loops raise the detail of the two-sided
    sweep they replaced, naming the same x, y and height, or both pass."""
    rng = random.Random(31)
    seen = {"a": 0, "b": 0, None: 0}
    for _ in range(1500):
        n = rng.randint(1, 12)
        frag = forge(default_index_blocks(n), rng.randint(n, 40), rng.randrange(10**6))
        up = sorted(frag.a)
        masks = {o: [frag.a[o], frag.b[o]] for o in up}
        for _ in range(rng.randint(1, 3)):
            masks[rng.choice(up)][rng.randrange(2)] ^= 1 << rng.randrange(frag.universe)
        masks = {o: tuple(pair) for o, pair in masks.items()}
        entry = {o: k for k, o in enumerate(up)}
        detail = _coherence_detail(check_tower_coherence, masks, entry)
        assert detail == _coherence_detail(ref_sweep_tower_coherence, masks, entry)
        seen[detail and detail[0]] += 1
    assert min(seen.values()) >= 100, seen


# (count, height, entry height of the first index), the last only to keep
# each item short; 3 indices at height 3, 1,259,712 traces, take about a
# minute and are left out
SMALL_TRACES = [(n, h, e) for n in range(4) for h in range(4) if (n, h) != (3, 3) for e in range(h + 1 if n else 1)]


@pytest.mark.parametrize("count, height, first_entry", SMALL_TRACES)
def test_tower_coherence_matches_the_pairwise_reference_on_every_small_trace(count, height, first_entry):
    """Every entry height up to the final height for each index, and every
    pair of masks a within b at each.  Only the domains and heights of the
    earlier conditions enter the checks, so their masks stay 0."""
    dom = [fin(k) for k in range(count)]
    pairs = [(lo, hi) for hi in range(1 << height) for lo in range(1 << height) if not lo & ~hi]
    for entry in itertools.product(range(height + 1), repeat=count):
        if count and entry[0] != first_entry:
            continue
        prefix = [
            PCondition.from_masks(g, {o: (0, 0) for o, h in zip(dom, entry) if h <= g}) for g in sorted(set(entry))
        ]
        for masks in itertools.product(pairs, repeat=count):
            final = PCondition.from_masks(height, dict(zip(dom, masks)))
            _assert_coherence_agrees_with_the_reference(SimRun([], prefix + [final]))


@pytest.mark.parametrize("count, height", [(3, 0), (8, 5), (1, 0), (0, -1)])
def test_more_indices_than_the_height_raise_before_any_draw(count, height, monkeypatch):
    """So does a negative height."""
    ordinals = default_index_blocks(count)

    def no_draws(seed):
        raise AssertionError("a level plan was drawn")

    monkeypatch.setattr(simulate.random, "Random", no_draws)
    message = f"{count} indices exceed the target height {height}" if height >= 0 else "target height must be a natural"
    for call in (
        lambda: forge(ordinals, height, seed=0),
        lambda: pipeline(ordinals, height, 0, Ladder.canonical(), default_partition(ordinals), 0),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize(
    "count, height, seeds",
    [(0, 0, 40), (0, 9, 40), (1, 1, 300), (3, 5, 300), (5, 7, 100), (7, 13, 100), (64, 2048, 3)],
)
def test_the_forge_draws_what_the_per_call_reference_draws(count, height, seeds, monkeypatch):
    """The coins the forge reads off whole generator words, column by column
    into `bits`, are the `rng.random() < 0.5` draws of the reference loop,
    for height * count of 0, 1, odd sizes and 131,072 (one whole block);
    and the generator is left where the reference leaves it."""
    _assert_the_forge_draws_the_reference_coins(count, height, seeds, monkeypatch)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64, 1000])
def test_the_forge_draws_in_blocks_what_the_per_call_reference_draws(block, monkeypatch):
    """Blocks of COIN_BLOCK draws continue one word stream: blocks that end
    mid-level, a last short block and single-draw blocks all give the
    reference coins and leave the generator where the reference does."""
    monkeypatch.setattr(simulate, "COIN_BLOCK", block)
    for count, height in ((1, 1), (3, 5), (5, 7), (7, 13), (13, 77)):
        _assert_the_forge_draws_the_reference_coins(count, height, 20, monkeypatch)


def test_the_forge_at_its_cap_holds_its_coins_a_block_at_a_time():
    """At 2048 indices and height 2048 the 2^22 coins are 4 MiB of bytes;
    one getrandbits call for all of them held a 32 MiB int and its 32 MiB
    of bytes at once, a 66 MiB peak."""
    assert traced_peak(forge, default_index_blocks(2048), 2048, 0)[1] < 16 * 2**20


def _assert_the_forge_draws_the_reference_coins(count, height, seeds, monkeypatch):
    Random, made, columns = random.Random, [], []

    class Recorded(Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    with monkeypatch.context() as patched:
        patched.setattr(simulate.random, "Random", Recorded)
        patched.setattr(simulate, "bits", lambda text: columns.append(text) or gaps.bits(text))
        for seed in range(seeds):
            made.clear()
            columns.clear()
            forge(default_index_blocks(count), height, seed)
            ref = Random(seed)
            # index k reads the coins k, k + count, k + 2 count, ...: level l holds coin l * count + k
            assert bytes(b for level in zip(*columns) for b in level).decode() == ref_coin_draws(ref, count * height)
            assert len(made) == 1 and made[0].random() == ref.random()


def _reference_run(ordinals, height, seed) -> SimRun:
    return ref_build_filter(PCondition.empty(), ref_p_standard_schedule(ordinals, height, seed))


def _assert_matches_the_level_by_level_schedule(count, height, seed):
    """The sweep gives the diagram of the reference fold's final condition,
    in which index k entered at height k."""
    ordinals = default_index_blocks(count)
    ref = _reference_run(ordinals, height, seed)
    frag = forge(ordinals, height, seed)
    assert frag == extract_gap_fragment(ref.result)
    entry = entry_heights(ref.trace)
    assert entry == {o: k for k, o in enumerate(ordinals)}
    check_tower_coherence(ref.result.masks, entry)


def test_the_schedule_matches_the_level_by_level_reference_on_every_small_size():
    for height in range(20):
        for count in range(height + 1):
            for seed in range(3):
                _assert_matches_the_level_by_level_schedule(count, height, seed)


def test_the_schedule_matches_the_level_by_level_reference_on_random_sizes():
    rng = random.Random(61)
    for _ in range(12):
        height = rng.randrange(20, 160)
        _assert_matches_the_level_by_level_schedule(rng.randrange(height + 1), height, rng.randrange(1000))


def _assert_the_forged_condition_tops_the_reference_chain(count, height, seed):
    """Step k of the chain is the forged condition restricted to the first
    k+1 indices and cut to height k+1: the reference fold's condition right
    after it grants level k.  The chain increases in P, and its last step is
    the whole forged condition, so the forged diagram tops a filter in P."""
    ordinals = default_index_blocks(count)
    frag = forge(ordinals, height, seed)
    final = PCondition.from_masks(height, {o: (frag.a[o], frag.b[o]) for o in ordinals})
    ref = _reference_run(ordinals, height, seed)
    after_level = {name: cond for name, cond in zip(ref.schedule, ref.trace[1:])}
    chain = [PCondition.empty()]
    for k in range(height):
        cut = (1 << (k + 1)) - 1
        kept = ordinals[: k + 1]
        step = PCondition.from_masks(k + 1, {o: (final.masks[o][0] & cut, final.masks[o][1] & cut) for o in kept})
        assert step == after_level[f"bits@{k}"]
        chain.append(step)
    assert chain[-1] == final
    assert all(p_leq(p, q) for p, q in zip(chain, chain[1:]))


def test_the_forged_condition_tops_the_reference_chain():
    """On every size up to height 12 and a few random ones; with no index the
    fold has a height requirement alone and no level steps."""
    for height in range(13):
        for count in range(1, height + 1):
            _assert_the_forged_condition_tops_the_reference_chain(count, height, seed=height)
    rng = random.Random(67)
    for _ in range(4):
        height = rng.randrange(13, 60)
        _assert_the_forged_condition_tops_the_reference_chain(rng.randrange(1, height + 1), height, rng.randrange(1000))


def test_forge_memory_grows_with_the_diagram_not_the_chain():
    """At 256 indices and height 256 the diagram holds 8 KiB of masks; the
    fold kept all 513 conditions of its chain, 12.5 MiB at its peak."""
    assert traced_peak(forge, default_index_blocks(256), 256, 0)[1] < 2 * 2**20


def _forged_ctx(count, height, seed):
    ordinals = default_index_blocks(count)
    return QContext(forge(ordinals, height, seed), Ladder.canonical(), default_partition(ordinals))


def _tiny_ctx():
    return _forged_ctx(12, 24, 9)


def _quadratic_picks(ctx, target, seed):
    """The w picks of the selection schedule, by its first formula: each
    step recounts the indices above every candidate."""
    priority = sorted(ctx.g.a)
    random.Random(seed).shuffle(priority)
    w = set()
    for _ in range(target):
        remaining = target - len(w)
        eligible = [j for j in priority if j not in w and (not w or j > max(w))]
        safe = [j for j in eligible if sum(1 for x in priority if x > j) >= remaining - 1]
        w.add(safe[0])
        yield safe[0]


@pytest.mark.parametrize("count, height, seed", [(12, 24, 9), (20, 32, 1), (20, 32, 2), (33, 40, 5)])
def test_w_picks_match_the_quadratic_formula(count, height, seed):
    ctx = _forged_ctx(count, height, seed)
    for target in range(count + 1):  # up to every tower index
        run = build_filter(ctx, target, seed)
        assert list(run.picks) == list(_quadratic_picks(ctx, target, seed))


def test_q_standard_schedule():
    """Each step adds one designated limit or one index above the current
    maximum of w, the trace is a chain in Q, and the run ends with w of the
    target size; `pipeline` selects the w of the run at seed + 1."""
    ctx = _tiny_ctx()
    for size in (6, 12):  # 12 is every tower index
        run = build_filter(ctx, size, seed=0)
        final = run.result
        assert len(final.w) == size and len(run.schedule) == len(run.trace) - 1
        assert final.s == ctx.part.S
        ws = [sorted(c.w) for c in run.trace]
        for earlier, later in zip(ws, ws[1:]):
            added = set(later) - set(earlier)
            assert all(j > max(earlier) for j in added) if earlier else True
        # the trace is a chain, so its last w is the union of all of them
        assert all(q_leq(ctx, a, b) for a, b in zip(run.trace, run.trace[1:]))
        assert final.w == frozenset().union(*(c.w for c in run.trace))
    report = pipeline(ctx.g.I, 24, 6, Ladder.canonical(), ctx.part, 9)
    assert report["W"] == [o.to_json() for o in sorted(build_filter(ctx, 6, seed=10).result.w)]


def test_q_schedule_runs_out_of_room(monkeypatch):
    """A target above the tower indices fails before any step, and a
    negative one is refused: no pick order is drawn."""
    ctx = _tiny_ctx()

    def no_steps(*args):
        raise AssertionError("a pick order was drawn")

    monkeypatch.setattr(simulate.random, "Random", no_steps)
    with pytest.raises(RequirementFailure, match="more than the 12 tower indices"):
        build_filter(ctx, 13, seed=0)
    with pytest.raises(ValueError, match="must be a natural"):
        build_filter(ctx, -1, seed=0)


def _assert_matches_the_reference_fold(ctx, wsize, seed):
    """Same schedule and trace as the requirement fold, or the same refusal
    of a target above the tower indices."""
    try:
        run = build_filter(ctx, wsize, seed)
    except RequirementFailure as err:
        with pytest.raises(RequirementFailure) as ref_err:
            ref_q_standard_schedule(ctx, wsize, seed)
        assert str(ref_err.value) == str(err)
        return
    ref = ref_build_filter(QCondition.empty(), ref_q_standard_schedule(ctx, wsize, seed))
    assert list(run.schedule) == ref.schedule and run.trace == ref.trace
    assert all(a != b for a, b in zip(run.trace, run.trace[1:]))  # the fold's no-op branches never ran


def test_build_filter_matches_the_reference_fold_on_every_small_size():
    for count in range(13):
        for seed in range(3):
            ctx = _forged_ctx(count, max(count, 1) * 2, seed)
            for wsize in range(count + 2):  # count + 1 runs out of room
                _assert_matches_the_reference_fold(ctx, wsize, seed)


def test_build_filter_matches_the_reference_fold_on_random_sizes():
    rng = random.Random(71)
    for _ in range(8):
        count = rng.randrange(13, 258)
        ctx = _forged_ctx(count, count + rng.randrange(8), rng.randrange(1000))
        for wsize in (rng.randrange(count + 1), count - rng.randrange(3), count):
            _assert_matches_the_reference_fold(ctx, wsize, rng.randrange(1000))


@pytest.mark.parametrize("ladder", ["canonical", "explicit", "short"])
def test_build_filter_matches_the_reference_fold_with_more_limits_than_wsize(ladder):
    """Partitions designating up to every block limit, and ladders listing
    rungs for each, down to a single rung."""
    rng = random.Random(73)
    for _ in range(6):
        count = rng.randrange(17, 60)
        ordinals = default_index_blocks(count)
        limits = sorted(default_partition(ordinals).S)
        S = frozenset(rng.sample(limits, rng.randrange(2, len(limits) + 1)))
        rungs = {d: [Ordinal(d.q - 1, r) for r in range(1 if ladder == "short" else 9)] for d in limits}
        ctx = QContext(
            forge(ordinals, count + 4, rng.randrange(1000)),
            Ladder.canonical() if ladder == "canonical" else Ladder.explicit(rungs),
            SPartition(S, frozenset(set(limits) - S), frozenset(limits)),
        )
        for wsize in range(len(S) + 2):
            _assert_matches_the_reference_fold(ctx, wsize, rng.randrange(1000))


def _random_explicit_ladder(rng: random.Random, limits) -> Ladder:
    """Per limit w*q, a seeded strictly increasing table of 0 to 12 rungs
    drawn from the block below it."""
    return Ladder.explicit({d: sorted(rng.sample([Ordinal(d.q - 1, r) for r in range(12)], rng.randrange(13))) for d in limits})


@pytest.mark.parametrize("ladder", ["canonical", "explicit"])
def test_the_clause_kernel_blocks_no_pick(ladder):
    """The kernel is the reference for the ascending check: on forged
    diagrams at random sizes and seeds, with partitions designating random
    block limits, `ladder_blocked` keeps out no pick from the condition of
    the trace just before it, and raises nothing, not even past a short
    explicit table."""
    rng = random.Random(79 if ladder == "canonical" else 83)
    for _ in range(12):
        count = rng.randrange(1, 120)
        ordinals = default_index_blocks(count)
        limits = sorted(default_partition(ordinals).S)
        S = frozenset(rng.sample(limits, rng.randrange(len(limits) + 1)))
        ctx = QContext(
            forge(ordinals, count + rng.randrange(8), rng.randrange(1000)),
            Ladder.canonical() if ladder == "canonical" else _random_explicit_ladder(rng, S),
            SPartition(S, frozenset(set(limits) - S), frozenset(limits)),
        )
        for wsize in (rng.randrange(count + 1), count):
            run = build_filter(ctx, wsize, rng.randrange(1000))
            before = {b.w - a.w: a for a, b in zip(run.trace, run.trace[1:]) if b.w != a.w}
            assert [ladder_blocked(ctx, [before[frozenset({pick})]], [pick]) for pick in run.picks] == [[0]] * wsize


def test_the_selection_holds_its_picks_not_its_chain():
    """At 1024 indices, height 1024 and wsize 1024 the chain of 2,049
    conditions, each with its own w and s, held 22 MiB; the picks, limits
    and step names hold well under 1 KiB per index."""
    ctx = _forged_ctx(1024, 1024, 0)
    run, peak = traced_peak(build_filter, ctx, 1024, 0)
    assert len(run.picks) == 1024 and peak < 1024 * 2**10


def test_s_takes_only_the_first_wsize_limits():
    """With 40 indices the partition designates w, w*2, w*3 and w*4; a
    selection of 2 indices grows s by the first two alone."""
    ctx = _forged_ctx(40, 64, 0)
    assert sorted(ctx.part.S) == [Ordinal(q, 0) for q in (1, 2, 3, 4)]
    assert build_filter(ctx, 2, seed=1).result.s == {Ordinal(1, 0), Ordinal(2, 0)}
    for wsize in range(41):
        assert build_filter(ctx, wsize, seed=1).result.s == frozenset(sorted(ctx.part.S)[:wsize])


def _as_json(report) -> dict:
    """A pipeline report as its text reads, through the reference dict forms."""
    return json.loads(json.dumps(report, default=report_default))


def test_pipeline_trivial():
    report = _as_json(pipeline((), 0, 0, Ladder.canonical(), default_partition(()), 0))
    assert report["W"] == []
    assert report["witnesses"] == []
    assert report["fragment"]["universe"] == 0


def test_pipeline_deterministic():
    ordinals = default_index_blocks(12)
    args = (ordinals, 32, 6, Ladder.canonical(), default_partition(ordinals), 7)
    one = pipeline(*args)
    two = pipeline(*args)
    text = functools.partial(json.dumps, sort_keys=True, default=report_default)
    assert text(one) == text(two)
    other = pipeline(ordinals, 32, 6, Ladder.canonical(), default_partition(ordinals), 8)
    assert text(one) != text(other)


def test_forging_builds_and_parses_no_words(monkeypatch):
    def no_words(*args):
        raise AssertionError("a bit word was built or parsed")

    monkeypatch.setattr(poset_p, "word", no_words)
    monkeypatch.setattr(poset_p, "bits", no_words)
    ordinals = default_index_blocks(40)
    report = pipeline(ordinals, 64, 10, Ladder.canonical(), default_partition(ordinals), 0)
    assert len(report["W"]) >= 10


def test_pipeline_report_shape():
    ordinals = default_index_blocks(12)
    report = _as_json(pipeline(ordinals, 32, 6, Ladder.canonical(), default_partition(ordinals), 7))
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
