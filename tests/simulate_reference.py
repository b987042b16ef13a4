"""Reference forge fold, diagram extraction and tower-coherence check.

`ref_p_standard_schedule` is the fold that `simulate.forge`, which computes
the final condition in one sweep, replaced.  It draws the same level plans
from the seed, lets each index enter before the level of its own position,
and then grants the remaining levels one requirement at a time, each
through `p_extend`.  Index positions at or past the target height get no
level, and an empty domain gets a height requirement alone.

`extract_gap_fragment` reads the diagram off a condition of that fold, and
`entry_heights` the height at which each index entered its trace.

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
    GapFragment,
    InvariantViolation,
    Ordinal,
    PCondition,
    SimRun,
    excess,
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
