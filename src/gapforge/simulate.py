"""The two-phase pipeline that first forges a diagram and then specializes
a selection of it.

The forge draws one level mask per index from the seed and computes, in
one sweep, the final condition of the P chain those draws determine; it
then checks tower coherence and the pairing containment on that diagram.
The selection stands in for a generic filter in Q by a finite chain that
it keeps as its limits and picks, rebuilt only when asked for: one loop
grows s by the designated limits and w by seeded picks, which must ascend.
What a generic filter would guarantee is downgraded to invariants checked
on the result.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from .errors import InvariantViolation, RequirementFailure
from .gaps import GapFragment, Witnesses, bits, c_hausdorff_check, excess_matrix_csv
from .ordinals import Ladder, Ordinal, SPartition, Value
from .poset_p import p_leq  # unused here, but perfbench/tests reads simulate.p_leq
from .poset_q import QCondition, QContext


class Selection(Value):
    """One run of the selection: the names of its steps, and the designated
    limits and the ascending picks it took.  Step k adds limits[k] to s,
    while one is left, then picks[k] to w."""

    __slots__ = ("schedule", "limits", "picks")

    @property
    def result(self) -> QCondition:
        """The last condition of the chain, which holds every earlier one."""
        return QCondition(frozenset(self.picks), frozenset(self.limits))

    @property
    def trace(self) -> list[QCondition]:
        """The chain in Q from the empty condition, built anew on each call."""
        trace = [QCondition.empty()]
        for k, pick in enumerate(self.picks):
            if k < len(self.limits):
                trace.append(QCondition(trace[-1].w, trace[-1].s | {self.limits[k]}))
            trace.append(QCondition(trace[-1].w | {pick}, trace[-1].s))
        return trace


def build_filter(ctx: QContext, wsize: int, seed: int) -> Selection:
    """Grow a selection (w, s) through Q from the empty condition.

    Step k first adds the k-th designated limit to s, while one is left, then
    picks one tower index into w: of the indices above the last pick that
    leave enough above them to finish, the one a seed-shuffled order ranks
    first.  That window is never empty, so every step is taken.  One check
    requires the finished picks to strictly ascend, which is enough for the
    ladder clause: it only blocks a fresh index below a delta of s that has
    an anchor in w (a member at or above delta), and a pick above every
    member of w lies below no such delta.  The last condition is checked
    once against the context.  A `wsize` above the tower indices fails
    before any step.
    """
    if wsize < 0:
        raise ValueError(f"target size of w must be a natural, got {wsize}")
    order = sorted(ctx.g.a)
    n = len(order)
    if wsize > n:
        raise RequirementFailure(f"|w| >= {wsize} asks for more than the {n} tower indices")
    shuffled = list(range(n))
    random.Random(seed).shuffle(shuffled)
    rank = sorted(range(n), key=shuffled.__getitem__)  # the inverse: where each position was shuffled to
    limits = sorted(ctx.part.S)[:wsize]
    schedule, picks, last = [], [], -1
    for k in range(wsize):
        if k < len(limits):
            schedule.append(f"s:{limits[k]}")
        last = min(range(last + 1, n - wsize + k + 1), key=rank.__getitem__)
        picks.append(order[last])
        schedule.append(f"wsize>={k + 1}")
    for x, y in zip(picks, picks[1:]):
        if not x < y:
            raise InvariantViolation("selection-order", f"pick {y} does not lie above the pick {x} before it")
    run = Selection(tuple(schedule), tuple(limits), tuple(picks))
    ctx.check_condition(run.result)
    return run


def check_tower_coherence(masks: Mapping[Ordinal, tuple[int, int]], entry: Mapping[Ordinal, int]) -> None:
    """Assert the entry-height bound on a diagram's excesses.

    `masks` maps each index to its (a, b) pair, and `entry` gives the height
    at which each index entered.  For x < y, with h the later entry height:
    excess(a_x, a_y) <= h and excess(b_y, b_x) <= h, the order's extension
    clause between the entry and the final condition.  One sweep per side,
    side 0 up the sorted indices and side 1 down them, checks it: above its
    entry height, each mask holds the earlier masks of its side, each cut
    below its own.
    """
    up = sorted(masks)
    for s, order in (0, up), (1, up[::-1]):
        seen = 0
        for y in order:
            h, m = entry[y], masks[y][s]
            if (seen & ~m) >> h:
                x = next(x for x in order if (masks[x][s] >> entry[x] << entry[x] & ~m) >> h)
                detail = f"{'ab'[s]}-excess at ({x}, {y}) exceeds entry height {max(entry[x], h)}"
                raise InvariantViolation("tower-coherence", detail)
            seen |= m >> h << h


BLOCK_WIDTH = 8  # indices per w-block of the default index list
_COIN = b"1" * 128 + b"0" * 128  # translation table: a top byte below 128 draws 1
COIN_BLOCK = 1 << 17  # most coins drawn by one getrandbits call, a 1 MiB int


def default_index_blocks(count: int) -> tuple[Ordinal, ...]:
    """Spread `count` indices across w-blocks of `BLOCK_WIDTH` indices."""
    if count < 0:
        raise ValueError(f"index count must be a natural, got {count}")
    return tuple(Ordinal(k // BLOCK_WIDTH, k % BLOCK_WIDTH) for k in range(count))


def default_partition(ordinals: Sequence[Ordinal]) -> SPartition:
    """Designate every block-boundary limit reachable from the indices,
    with the club surrogate equal to the designated set itself."""
    top = max((o.q for o in ordinals), default=0)
    limits = frozenset(Ordinal(q, 0) for q in range(1, top + 1))
    return SPartition(S=limits, T=frozenset(), D=limits)


def forge(ordinals: Sequence[Ordinal], height: int, seed: int) -> GapFragment:
    """Forge a diagram through P in one sweep, then check it.

    Index k of the sorted domain enters at height k.  The seed draws the
    bits of each level in turn, one per index, so the plan of index k is
    its column of draws, read as a level mask, and its grant is that plan
    cut below k.  The P chain that adds index k and grants level k, for
    every k, and then the levels above, carries each grant up the two-sided
    order, so its final condition is in closed form: at index k, the low
    mask is the union of the grants at or below k and the high mask the
    union of every grant, each cut below k.  Tower coherence and the pairing
    containment are asserted on that diagram; either failure raises
    InvariantViolation.  A negative height, or more indices than levels, is
    refused before any draw.
    """
    if height < 0:
        raise ValueError(f"target height must be a natural, got {height}")
    todo = sorted(set(ordinals))
    n = len(todo)
    if n > height:
        raise ValueError(f"{n} indices exceed the target height {height}, one level per index")
    # random() < 0.5 just when bit 31 of the first of its two 32-bit words is 0, and
    # getrandbits(64 m) gives those 2m words, least significant first: take byte 3 of 8.
    # Blocks of at most COIN_BLOCK draws continue one word stream, so they split anywhere.
    rng, total = random.Random(seed), height * n
    sizes = [min(COIN_BLOCK, total - start) for start in range(0, total, COIN_BLOCK)]
    draws = b"".join([rng.getrandbits(64 * m).to_bytes(8 * m, "little")[3::8] for m in sizes]).translate(_COIN)
    grants = [bits(draws[k::n]) >> k << k for k in range(n)]
    every = 0
    for grant in grants:
        every |= grant
    a, b, seen = {}, {}, 0
    for k, (o, grant) in enumerate(zip(todo, grants)):
        seen |= grant
        a[o], b[o] = seen >> k << k, every >> k << k
    check_tower_coherence({o: (a[o], b[o]) for o in todo}, {o: k for k, o in enumerate(todo)})
    for o in todo:
        if a[o] & ~b[o]:
            raise InvariantViolation("pairing-containment", f"a[{o}] escapes b[{o}]")
    return GapFragment(height, a, b)


def pipeline(
    ordinals: Sequence[Ordinal],
    height: int,
    wsize: int,
    ladder: Ladder,
    part: SPartition,
    seed: int,
) -> dict:
    """Forge a diagram, bind the context, specialize a selection, check it.

    Forges the diagram, builds the context, runs the selection (w grows to
    `wsize` indices, and s by the first min(wsize, |S|) designated limits),
    and evaluates the ladder-threshold clause on the selected sub-diagram.  Any missing witness raises
    InvariantViolation.  The report is fully determined by the parameters
    and the seed.
    """
    frag = forge(ordinals, height, seed)
    selected = build_filter(QContext(frag, ladder, part), wsize, seed + 1).picks  # ascending
    sub = frag.restrict(selected)
    rows, failures = c_hausdorff_check(sub, ladder, part)
    if failures:
        delta, j = failures[0]
        raise InvariantViolation("ladder-threshold-witness", f"no witness for ({delta}, {j})")
    return {
        "seed": seed,
        "params": {
            "indices": [o.to_json() for o in sorted(ordinals)],
            "height": height,
            "w_target": wsize,
        },
        "fragment": frag,
        "W": [o.to_json() for o in selected],
        "witnesses": Witnesses(rows),
        "excess_csv": excess_matrix_csv(sub),
    }
