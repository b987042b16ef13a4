"""Dense-requirement scheduling, filter construction, and the two-phase
pipeline that first forges a diagram and then specializes a selection of it.

Genericity is emulated: the schedules pre-draw every choice from the seed,
so each meet rule is a pure function of the condition, and each rule
verifies the step it takes.  What a generic filter would guarantee is
downgraded to invariants checked on the produced run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .errors import GapforgeError, InvariantViolation, RequirementFailure
from .gaps import GapFragment, bits, c_hausdorff_check, excess_matrix_csv
from .ordinals import Ladder, Ordinal, SPartition, two_sided
from .poset_p import PCondition, p_extend
from .poset_p import p_leq  # unused here, but perfbench/tests reads simulate.p_leq
from .poset_q import QCondition, QContext, q_leq


@dataclass(frozen=True)
class DenseRequirement:
    """A named total rule mapping any condition to an extension meeting the
    requirement.  It returns the condition itself once the requirement
    holds, and verifies every step it does take."""

    name: str
    meet: Callable[[Any], Any]


@dataclass
class SimRun:
    """One deterministic run: the schedule met, and the increasing trace."""

    schedule: list[str]
    trace: list

    @property
    def result(self):
        return self.trace[-1]


def build_filter(start, reqs: Sequence[DenseRequirement]) -> SimRun:
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


def _domain_requirement(o: Ordinal) -> DenseRequirement:
    def meet(p: PCondition) -> PCondition:
        if o in p.masks:
            return p
        return p_extend(p, p.height, {o: (0, 0)})

    return DenseRequirement(f"dom:{o}", meet)


def _bit_requirement(start: int, stop: int, plans: Mapping[Ordinal, int]) -> DenseRequirement:
    """Grow to height `stop` in one step, granting each index present the
    levels of its plan not yet reached in [start, stop); an index off the
    schedule has no plan."""

    def meet(p: PCondition) -> PCondition:
        if p.height >= stop:
            return p
        window = (1 << stop) - (1 << max(start, p.height))
        return p_extend(p, stop, {o: (plans.get(o, 0) & window, 0) for o in p.masks})

    return DenseRequirement(f"bits[{start}:{stop}]", meet)


def p_standard_schedule(
    ordinals: Sequence[Ordinal], target_height: int, seed: int
) -> list[DenseRequirement]:
    """Domain growth interleaved with randomized bit grants, one level per index.

    Index k enters at height k and receives level k, then one step grants
    every level above the last index up to the target height, leaving the
    masks level-by-level steps would.  Each level gives every low-side
    column an independent chance of a bit, pre-drawn from the seed level by
    level so the meet rules stay pure; the plan of an index is its column
    of draws, read as a level mask.  More indices than levels is refused
    before any draw.
    """
    if target_height < 0:
        raise ValueError(f"target height must be a natural, got {target_height}")
    todo = sorted(set(ordinals))
    n = len(todo)
    if n > target_height:
        raise ValueError(f"{n} indices exceed the target height {target_height}, one level per index")
    rng = random.Random(seed)
    draws = "".join(["01"[rng.random() < 0.5] for _ in range(target_height * n)])
    plans = {o: bits(draws[x::n]) for x, o in enumerate(todo)}
    reqs: list[DenseRequirement] = []
    for k, o in enumerate(todo):
        reqs += [_domain_requirement(o), _bit_requirement(k, k + 1, plans)]
    reqs.append(_bit_requirement(n, target_height, plans))
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


def q_standard_schedule(ctx: QContext, target_w_size: int, seed: int) -> list[DenseRequirement]:
    """Alternate growing s by the designated limits and w by fresh indices.

    New w members are always taken above the current maximum (additions
    below it can be incompatible); the pick order is a seed-shuffled
    priority over the tower indices.  Target 0 yields an empty schedule; a
    target above the number of tower indices fails before any requirement
    is built, and every smaller one is met.
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


def check_tower_coherence(run: SimRun) -> None:
    """Assert the trace-height bound on the extracted diagram's excesses.

    For x < y in the final domain, with h the height at which the later one
    entered the trace: excess(a_x, a_y) <= h and excess(b_y, b_x) <= h, the
    order's extension clause between the entry and the final condition.
    One sweep up the two-sided order checks it: above its entry height,
    each mask holds the earlier masks of its side, each cut below its own.
    """
    entry: dict[Ordinal, int] = {}
    for cond in run.trace:
        entry.update(dict.fromkeys(cond.masks.keys() - entry.keys(), cond.height))
    masks = run.result.masks
    seen, done = [0, 0], ([], [])
    for y, s in two_sided(masks):
        h, m = entry[y], masks[y][s]
        if (seen[s] & ~m) >> h:
            x = next(x for x in done[s] if (masks[x][s] >> entry[x] << entry[x] & ~m) >> h)
            detail = f"{'ab'[s]}-excess at ({x}, {y}) exceeds entry height {max(entry[x], h)}"
            raise InvariantViolation("tower-coherence", detail)
        seen[s] |= m >> h << h
        done[s].append(y)


BLOCK_WIDTH = 8  # indices per w-block of the default index list
MAX_INDICES = 2048
"""Most tower indices the CLI forges; indices times height is capped at its
square.  Each domain step rebuilds every entry and the run keeps every
condition, so the forge is quadratic in the index count in time and
memory: `simulate-p` at 1024² takes 6.4-6.9 s and 389 MB, and at 2048²
34 s and 2.2 GB in one run (wall and peak RSS with interpreter start;
2-vCPU Xeon, Python 3.11)."""


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
    """Forge a diagram and check it: run the forge schedule, assert tower
    coherence on the run and the pairing containment on the diagram read
    off its final condition.  Either failure raises InvariantViolation."""
    run = build_filter(PCondition.empty(), p_standard_schedule(ordinals, height, seed))
    check_tower_coherence(run)
    frag = extract_gap_fragment(run.result)
    for o in frag.a:
        if frag.a[o] & ~frag.b[o]:
            raise InvariantViolation("pairing-containment", f"a[{o}] escapes b[{o}]")
    return frag


def pipeline(
    ordinals: Sequence[Ordinal],
    height: int,
    wsize: int,
    ladder: Ladder,
    part: SPartition,
    seed: int,
) -> dict:
    """Forge a diagram, bind the context, specialize a selection, check it.

    Forges the diagram, builds the context, runs the selection simulation
    (s grows by every designated limit), and evaluates the ladder-threshold
    clause on the selected sub-diagram.  Any missing witness raises
    InvariantViolation.  The report is fully determined by the parameters
    and the seed.
    """
    frag = forge(ordinals, height, seed)
    ctx = QContext(frag, ladder, part)
    q_run = build_filter(QCondition.empty(), q_standard_schedule(ctx, wsize, seed + 1))
    selected = q_run.result.w  # every step was verified, so w only grew
    sub = frag.restrict(selected)
    witnesses = c_hausdorff_check(sub, ladder, part)
    for (delta, j), wit in sorted(witnesses.items()):
        if wit is None:
            raise InvariantViolation("ladder-threshold-witness", f"no witness for ({delta}, {j})")
    return {
        "seed": seed,
        "params": {
            "indices": [o.to_json() for o in sorted(ordinals)],
            "height": height,
            "w_target": wsize,
        },
        "fragment": frag.to_json(),
        "W": [o.to_json() for o in sorted(selected)],
        "witnesses": [wit.to_json() for _, wit in sorted(witnesses.items())],
        "excess_csv": excess_matrix_csv(sub),
    }
