"""Dense-requirement scheduling, filter construction, and the two-phase
pipeline that first forges a diagram and then specializes a selection of it.

Genericity is emulated: meet rules draw their choices from a seeded
generator, and what a generic filter would guarantee is downgraded to
invariants asserted on the produced run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .errors import GapforgeError, InvariantViolation, RequirementFailure
from .gaps import GapFragment, c_hausdorff_check, excess, excess_matrix_csv
from .ordinals import Ladder, Ordinal, SPartition
from .poset_p import PCondition, bits, p_extend, p_leq
from .poset_q import QCondition, QContext, extract_w, q_leq


@dataclass(frozen=True)
class DenseRequirement:
    """A named total rule mapping any condition to an extension meeting the
    requirement; idempotent once the requirement holds."""

    name: str
    meet: Callable[[Any, random.Random], Any]


@dataclass(frozen=True)
class Poset:
    """Just enough of a poset for the filter builder: a name and its order."""

    name: str
    leq: Callable[[Any, Any], bool]


def p_poset() -> Poset:
    return Poset("P", p_leq)


def q_poset(ctx: QContext) -> Poset:
    return Poset("Q", lambda a, b: q_leq(ctx, a, b))


@dataclass
class SimRun:
    """One deterministic run: the schedule met, and the increasing trace."""

    seed: int
    schedule: list[str]
    trace: list

    @property
    def result(self):
        return self.trace[-1]


def build_filter(poset: Poset, start, reqs: Sequence[DenseRequirement], seed: int) -> SimRun:
    """Fold the meet rules over the schedule, verifying growth per step."""
    rng = random.Random(seed)
    trace = [start]
    for req in reqs:
        current = trace[-1]
        try:
            nxt = req.meet(current, rng)
        except InvariantViolation:
            raise  # a broken postcondition, not a failed requirement: keep its fields
        except (GapforgeError, ValueError) as e:
            raise RequirementFailure(f"requirement {req.name!r} failed: {e}") from e
        if not poset.leq(current, nxt):
            raise RequirementFailure(f"requirement {req.name!r} did not extend the condition")
        trace.append(nxt)
    return SimRun(seed, [r.name for r in reqs], trace)


def _domain_requirement(o: Ordinal) -> DenseRequirement:
    def meet(p: PCondition, _rng) -> PCondition:
        if o in p.entries:
            return p
        return p_extend(p, p.height, (o,), ())

    return DenseRequirement(f"dom:{o}", meet)


def _bit_requirement(level: int, plan: frozenset[Ordinal]) -> DenseRequirement:
    def meet(p: PCondition, _rng) -> PCondition:
        if p.height > level:
            return p
        forced = tuple(((o, 0), level) for o in sorted(plan) if o in p.entries)
        return p_extend(p, level + 1, (), forced)

    return DenseRequirement(f"bits@{level}", meet)


def _height_requirement(target: int) -> DenseRequirement:
    def meet(p: PCondition, _rng) -> PCondition:
        if p.height >= target:
            return p
        return p_extend(p, target, (), ())

    return DenseRequirement(f"height>={target}", meet)


def p_standard_schedule(
    ordinals: Sequence[Ordinal], target_height: int, seed: int
) -> list[DenseRequirement]:
    """Domain growth interleaved with per-level randomized bit grants.

    Each level gives every low-side column present an independent chance of
    a fresh bit; the choices are pre-drawn from the seed so the meet rules
    stay pure.  With no ordinals only the height requirement remains.
    """
    if target_height < 0:
        raise ValueError(f"target height must be a natural, got {target_height}")
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
            reqs.append(_bit_requirement(pos, plans[pos]))
    for level in range(min(len(todo), target_height), target_height):
        reqs.append(_bit_requirement(level, plans[level]))
    reqs.append(_height_requirement(target_height))
    return reqs


def extract_gap_fragment(final: PCondition) -> GapFragment:
    """Read the diagram off a condition: low words give a, high words give b.

    The pairing containment of conditions makes a_x a subset of b_x for
    every x; the universe is the condition's height.
    """
    return GapFragment(
        final.height,
        {o: bits(final.entries[o][0]) for o in final.entries},
        {o: bits(final.entries[o][1]) for o in final.entries},
    )


def _s_requirement(sigma: Ordinal) -> DenseRequirement:
    def meet(p: QCondition, _rng) -> QCondition:
        if sigma in p.s:
            return p
        return QCondition(p.w, p.s | {sigma})

    return DenseRequirement(f"s:{sigma}", meet)


def _w_requirement(size: int, priority: tuple[Ordinal, ...], target: int) -> DenseRequirement:
    def meet(p: QCondition, _rng) -> QCondition:
        if len(p.w) >= size:
            return p
        remaining = target - len(p.w)
        eligible = [j for j in priority if j not in p.w and (not p.w or j > max(p.w))]
        # keep enough headroom above the pick to finish the schedule
        safe = [j for j in eligible if sum(1 for x in priority if x > j) >= remaining - 1]
        if not safe:
            raise RequirementFailure(f"no admissible fresh index for |w| >= {size}")
        return QCondition(p.w | {safe[0]}, p.s)

    return DenseRequirement(f"wsize>={size}", meet)


def q_standard_schedule(
    ctx: QContext, target_w_size: int, s_ordinals: Sequence[Ordinal], seed: int
) -> list[DenseRequirement]:
    """Alternate growing s by the given limits and w by fresh indices.

    New w members are always taken above the current maximum (additions
    below it can be incompatible); the pick order is a seed-shuffled
    priority over the tower indices.  Target 0 yields an empty schedule.
    """
    if target_w_size < 0:
        raise ValueError(f"target size of w must be a natural, got {target_w_size}")
    s_list = sorted(set(s_ordinals))
    if any(o not in ctx.part.S for o in s_list):
        raise ValueError("scheduled limits must lie inside the designated set S")
    rng = random.Random(seed)
    priority = sorted(ctx.g.a)
    rng.shuffle(priority)
    priority = tuple(priority)
    reqs: list[DenseRequirement] = []
    for k in range(target_w_size):
        if k < len(s_list):
            reqs.append(_s_requirement(s_list[k]))
        reqs.append(_w_requirement(k + 1, priority, target_w_size))
    return reqs


def check_tower_coherence(run: SimRun) -> None:
    """Assert the trace-height bound on the extracted diagram's excesses.

    For ordinals x < y in the final domain, with h the height at which the
    later of the two entered the trace: excess(a_x, a_y) <= h and
    excess(b_y, b_x) <= h.  That is the extension clause of the order,
    applied between the entry condition and the final one.
    """
    final = run.result
    entry: dict[Ordinal, int] = {}
    for cond in run.trace:
        for o in cond.entries:
            entry.setdefault(o, cond.height)
    frag = extract_gap_fragment(final)
    dom = sorted(final.entries)
    for xi, x in enumerate(dom):
        for y in dom[xi + 1:]:
            h = max(entry[x], entry[y])
            if excess(frag.a[x], frag.a[y]) > h:
                raise InvariantViolation("tower-coherence", f"a-excess at ({x}, {y}) exceeds entry height {h}")
            if excess(frag.b[y], frag.b[x]) > h:
                raise InvariantViolation("tower-coherence", f"b-excess at ({y}, {x}) exceeds entry height {h}")


@dataclass(frozen=True)
class PParams:
    ordinals: tuple[Ordinal, ...]
    target_height: int


@dataclass(frozen=True)
class QParams:
    target_w_size: int
    s_ordinals: tuple[Ordinal, ...] | None = None


def default_index_blocks(count: int, block: int = 8) -> tuple[Ordinal, ...]:
    """Spread `count` indices across w-blocks of the given width."""
    if count < 0:
        raise ValueError(f"index count must be a natural, got {count}")
    return tuple(Ordinal(k // block, k % block) for k in range(count))


def default_partition(ordinals: Sequence[Ordinal]) -> SPartition:
    """Designate every block-boundary limit reachable from the indices,
    with the club surrogate equal to the designated set itself."""
    top = max((o.q for o in ordinals), default=0)
    limits = frozenset(Ordinal(q, 0) for q in range(1, top + 1))
    return SPartition(S=limits, T=frozenset(), D=limits)


def pipeline(
    p_params: PParams,
    ladder: Ladder,
    part: SPartition,
    q_params: QParams,
    seed: int,
) -> dict:
    """Forge a diagram, bind the context, specialize a selection, check it.

    Runs the diagram-forging simulation, asserts tower coherence and the
    pairing containment, builds the context, runs the selection simulation,
    and evaluates the ladder-threshold clause on the selected sub-diagram.
    Any missing witness raises InvariantViolation.  The report is fully
    determined by the parameters and the seed.
    """
    p_run = build_filter(
        p_poset(),
        PCondition.empty(),
        p_standard_schedule(p_params.ordinals, p_params.target_height, seed),
        seed,
    )
    check_tower_coherence(p_run)
    frag = extract_gap_fragment(p_run.result)
    for o in frag.a:
        if frag.a[o] & ~frag.b[o]:
            raise InvariantViolation("pairing-containment", f"a[{o}] escapes b[{o}]")
    ctx = QContext(frag, ladder, part)
    s_list = tuple(sorted(part.S)) if q_params.s_ordinals is None else q_params.s_ordinals
    q_run = build_filter(
        q_poset(ctx),
        QCondition.empty(),
        q_standard_schedule(ctx, q_params.target_w_size, s_list, seed + 1),
        seed + 1,
    )
    selected = extract_w(ctx, q_run.trace)
    sub = frag.restrict(selected)
    witnesses = c_hausdorff_check(sub, ladder, part)
    for (delta, j), wit in sorted(witnesses.items()):
        if wit is None:
            raise InvariantViolation("ladder-threshold-witness", f"no witness for ({delta}, {j})")
    return {
        "seed": seed,
        "params": {
            "indices": [o.to_json() for o in sorted(p_params.ordinals)],
            "height": p_params.target_height,
            "w_target": q_params.target_w_size,
        },
        "fragment": frag.to_json(),
        "W": [o.to_json() for o in sorted(selected)],
        "witnesses": [wit.to_json() for _, wit in sorted(witnesses.items())],
        "excess_csv": excess_matrix_csv(sub),
    }


def convergent_inclusion_scan(
    frag: GapFragment,
    jset: Sequence[Ordinal],
    kset: Sequence[Ordinal],
    delta_candidates: Sequence[Ordinal],
) -> list[dict]:
    """Exploratory scan for long threshold-bounded runs approaching a limit.

    For each candidate delta and each k in kset at or above delta, take the
    topmost j in jset below delta, record m = excess(a_j, b_k) and how many
    members of jset below delta fit under that same threshold.  A statistic,
    not a verdict.
    """
    from .errors import UnknownIndex

    if any(j not in frag.a for j in jset) or any(k not in frag.b for k in kset):
        raise UnknownIndex("scan index sets must carry tower sets in the diagram")
    rows: list[dict] = []
    for delta in sorted(set(delta_candidates)):
        below = [j for j in sorted(set(jset)) if j < delta]
        for k in sorted(set(kset)):
            if k < delta:
                continue
            if not below:
                rows.append({"delta": delta.to_json(), "k": k.to_json(), "found": False})
                continue
            m = excess(frag.a[max(below)], frag.b[k])
            run = [j for j in below if excess(frag.a[j], frag.b[k]) <= m]
            rows.append(
                {
                    "delta": delta.to_json(),
                    "k": k.to_json(),
                    "found": True,
                    "m": m,
                    "length": len(run),
                }
            )
    return rows
