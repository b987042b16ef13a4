"""Reference forge schedule and tower-coherence check.

`ref_p_standard_schedule` is the schedule that `p_standard_schedule`, which
grants every level above the last index in one step, replaced.  It draws
the same level plans from the seed, lets each index enter before the level
of its own position, and then grants the remaining levels one requirement
at a time.  Index positions at or past the target height get no level, and
an empty domain gets a height requirement alone.

`ref_check_tower_coherence` is the pairwise check that
`check_tower_coherence`, one prefix-union sweep per side up the two-sided
order, replaced: it tests both excesses of every pair of indices against
the entry height of the later one.
"""

from __future__ import annotations

import random
from typing import Sequence

from gapforge import (
    DenseRequirement,
    InvariantViolation,
    Ordinal,
    PCondition,
    SimRun,
    excess,
    extract_gap_fragment,
    p_extend,
)


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


def ref_check_tower_coherence(run: SimRun) -> None:
    final = run.result
    entry: dict[Ordinal, int] = {}
    for cond in run.trace:
        for o in cond.masks:
            entry.setdefault(o, cond.height)
    frag = extract_gap_fragment(final)
    dom = sorted(final.masks)
    for xi, x in enumerate(dom):
        for y in dom[xi + 1:]:
            h = max(entry[x], entry[y])
            if excess(frag.a[x], frag.a[y]) > h:
                raise InvariantViolation("tower-coherence", f"a-excess at ({x}, {y}) exceeds entry height {h}")
            if excess(frag.b[y], frag.b[x]) > h:
                raise InvariantViolation("tower-coherence", f"b-excess at ({y}, {x}) exceeds entry height {h}")
