"""Reference folds, diagram extraction and tower-coherence check.

`ref_build_filter` is the generic fold both phases once ran through: named
dense requirements, each a total meet rule that returns the condition
itself once it holds and verifies every step it takes, folded over a
schedule from a start condition.  It returns a `SimRun`, the schedule and
the whole trace of conditions, as `simulate.build_filter` once did.

`ref_coin_draws` is the draw loop `simulate.forge` replaced by whole
generator words: one `rng.random() < 0.5` per coin.

`ref_p_standard_schedule` is the fold that `simulate.forge`, which computes
the final condition in one sweep, replaced.  It draws the same level plans
from the seed, lets each index enter before the level of its own position,
and then grants the remaining levels one requirement at a time, each
through `p_extend`.  Index positions at or past the target height get no
level, and an empty domain gets a height requirement alone.

`ref_q_standard_schedule` is the selection schedule that
`simulate.build_filter`, one pick loop, replaced: it alternates an s
requirement per designated limit with a w requirement that scans a
seed-shuffled priority for the first index above the current maximum of w
with enough indices above it to finish.

`extract_gap_fragment` reads the diagram off a condition of the P fold, and
`entry_heights` the height at which each index entered its trace.

`ref_check_tower_coherence` is the pairwise check that
`check_tower_coherence`, one prefix-union sweep per side up the two-sided
order, replaced: it tests both excesses of every pair of indices against
the entry height of the later one.  `ref_sweep_tower_coherence` is that
sweep as one pass of `two_sided` (in `ordinals_reference`), with a list
per side of the indices already passed, which two plain loops, side 0 up
and side 1 down, replaced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from gapforge import (
    GapforgeError,
    GapFragment,
    InvariantViolation,
    Ordinal,
    PCondition,
    QCondition,
    QContext,
    RequirementFailure,
    excess,
    p_extend,
    q_leq,
)
from ordinals_reference import two_sided


@dataclass
class SimRun:
    """One run of a fold: the names of its steps, and the increasing trace."""

    schedule: list[str]
    trace: list

    @property
    def result(self):
        return self.trace[-1]


@dataclass(frozen=True)
class DenseRequirement:
    """A named total rule mapping any condition to an extension meeting the
    requirement.  It returns the condition itself once the requirement
    holds, and verifies every step it does take."""

    name: str
    meet: Callable[[Any], Any]


def ref_build_filter(start, reqs: Sequence[DenseRequirement]) -> SimRun:
    """Fold the meet rules over the schedule; each rule verifies its own step."""
    trace = [start]
    for req in reqs:
        try:
            trace.append(req.meet(trace[-1]))
        except InvariantViolation:
            raise  # a broken postcondition, not a failed requirement: keep its fields
        except (GapforgeError, ValueError) as e:
            raise RequirementFailure(f"requirement {req.name!r} failed: {e}") from e
    return SimRun([r.name for r in reqs], trace)


def _q_step(ctx: QContext, p: QCondition, nxt: QCondition) -> QCondition:
    if not q_leq(ctx, p, nxt):
        raise InvariantViolation("selection-order", f"{nxt.to_json()} does not extend {p.to_json()}")
    return nxt


def _s_requirement(ctx: QContext, sigma: Ordinal) -> DenseRequirement:
    def meet(p: QCondition) -> QCondition:
        if sigma in p.s:
            return p
        return _q_step(ctx, p, QCondition(p.w, p.s | {sigma}))

    return DenseRequirement(f"s:{sigma}", meet)


def _w_requirement(
    ctx: QContext, size: int, priority: tuple[Ordinal, ...], above: dict[Ordinal, int], target: int
) -> DenseRequirement:
    """`above[j]` is the number of tower indices above j."""

    def meet(p: QCondition) -> QCondition:
        if len(p.w) >= size:
            return p
        # fresh picks lie above the current maximum and, for headroom, leave
        # enough indices above them to finish the schedule
        need = target - len(p.w) - 1
        top = max(p.w, default=None)
        pick = next((j for j in priority if (top is None or j > top) and above[j] >= need), None)
        if pick is None:
            raise RequirementFailure(f"no admissible fresh index for |w| >= {size}")
        return _q_step(ctx, p, QCondition(p.w | {pick}, p.s))

    return DenseRequirement(f"wsize>={size}", meet)


def ref_q_standard_schedule(ctx: QContext, target_w_size: int, seed: int) -> list[DenseRequirement]:
    """Alternate growing s by the designated limits and w by fresh indices.

    Target 0 yields an empty schedule; a target above the number of tower
    indices fails before any requirement is built.
    """
    if target_w_size < 0:
        raise ValueError(f"target size of w must be a natural, got {target_w_size}")
    if target_w_size > len(ctx.g.a):
        raise RequirementFailure(f"|w| >= {target_w_size} asks for more than the {len(ctx.g.a)} tower indices")
    s_list = sorted(ctx.part.S)
    rng = random.Random(seed)
    priority = sorted(ctx.g.a)
    above = {j: len(priority) - 1 - rank for rank, j in enumerate(priority)}
    rng.shuffle(priority)
    priority = tuple(priority)
    reqs: list[DenseRequirement] = []
    for k in range(target_w_size):
        if k < len(s_list):
            reqs.append(_s_requirement(ctx, s_list[k]))
        reqs.append(_w_requirement(ctx, k + 1, priority, above, target_w_size))
    return reqs


def _domain_requirement(o: Ordinal) -> DenseRequirement:
    def meet(p: PCondition) -> PCondition:
        return p if o in p.masks else p_extend(p, p.height, {o: (0, 0)})

    return DenseRequirement(f"dom:{o}", meet)


def _level_requirement(level: int, plan: frozenset[Ordinal]) -> DenseRequirement:
    def meet(p: PCondition) -> PCondition:
        if p.height > level:
            return p
        return p_extend(p, level + 1, {o: (1 << level, 0) for o in plan if o in p.masks})

    return DenseRequirement(f"bits@{level}", meet)


def _height_requirement(target: int) -> DenseRequirement:
    def meet(p: PCondition) -> PCondition:
        return p if p.height >= target else p_extend(p, target)

    return DenseRequirement(f"height>={target}", meet)


def ref_coin_draws(rng: random.Random, count: int) -> str:
    """`count` coins as a 01 word, character k "1" exactly when the k-th
    `rng.random()` is below 0.5."""
    return "".join(["01"[rng.random() < 0.5] for _ in range(count)])


def ref_p_standard_schedule(
    ordinals: Sequence[Ordinal], target_height: int, seed: int
) -> list[DenseRequirement]:
    todo = sorted(set(ordinals))
    if not todo:
        return [_height_requirement(target_height)]
    rng = random.Random(seed)
    plans = {
        level: frozenset(o for o in todo if rng.random() < 0.5)
        for level in range(target_height)
    }
    reqs: list[DenseRequirement] = []
    for pos, o in enumerate(todo):
        reqs.append(_domain_requirement(o))
        if pos < target_height:
            reqs.append(_level_requirement(pos, plans[pos]))
    for level in range(min(len(todo), target_height), target_height):
        reqs.append(_level_requirement(level, plans[level]))
    return reqs


def extract_gap_fragment(final: PCondition) -> GapFragment:
    """Read the diagram off a condition: low masks give a, high masks give b.

    The pairing containment of conditions makes a_x a subset of b_x for
    every x; the universe is the condition's height.
    """
    return GapFragment(
        final.height,
        {o: lo for o, (lo, _) in final.masks.items()},
        {o: hi for o, (_, hi) in final.masks.items()},
    )


def entry_heights(trace) -> dict[Ordinal, int]:
    """The height of the first condition of a trace that holds each index."""
    entry: dict[Ordinal, int] = {}
    for cond in trace:
        for o in cond.masks:
            entry.setdefault(o, cond.height)
    return entry


def ref_sweep_tower_coherence(masks, entry) -> None:
    """`check_tower_coherence` as one sweep up the two-sided order."""
    seen, done = [0, 0], ([], [])
    for y, s in two_sided(masks):
        h, m = entry[y], masks[y][s]
        if (seen[s] & ~m) >> h:
            x = next(x for x in done[s] if (masks[x][s] >> entry[x] << entry[x] & ~m) >> h)
            detail = f"{'ab'[s]}-excess at ({x}, {y}) exceeds entry height {max(entry[x], h)}"
            raise InvariantViolation("tower-coherence", detail)
        seen[s] |= m >> h << h
        done[s].append(y)


def ref_check_tower_coherence(run: SimRun) -> None:
    final = run.result
    entry = entry_heights(run.trace)
    frag = extract_gap_fragment(final)
    dom = sorted(final.masks)
    for xi, x in enumerate(dom):
        for y in dom[xi + 1:]:
            h = max(entry[x], entry[y])
            if excess(frag.a[x], frag.a[y]) > h:
                raise InvariantViolation("tower-coherence", f"a-excess at ({x}, {y}) exceeds entry height {h}")
            if excess(frag.b[y], frag.b[x]) > h:
                raise InvariantViolation("tower-coherence", f"b-excess at ({y}, {x}) exceeds entry height {h}")
