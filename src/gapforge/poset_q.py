"""The specialization poset over a fixed diagram, ladder, and partition.

Conditions are pairs (w, s) of finite ordinal sets: w collects tower indices
being selected, s collects designated limits that anchor the ladder clause.
Extending a condition may only add below-delta indices j whose excess over
each committed b_i beats the rung count of c_delta below j.  Tower sets
are int bitmasks (bit k = member k), and `ladder_blocked` collects the
indices a condition's clause keeps out as a bitmask over a candidate list:
both the order and the pcc compatibility matrix stand on it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .errors import InvariantViolation, UnknownIndex
from .gaps import GapFragment
from .ordinals import Ladder, Ordinal, SPartition


@dataclass(frozen=True)
class QCondition:
    """A pair (w, s) of finite ordinal sets; s must stay inside the
    designated set S of the ambient context."""

    w: frozenset[Ordinal]
    s: frozenset[Ordinal]

    @classmethod
    def empty(cls) -> QCondition:
        return cls(frozenset(), frozenset())

    def to_json(self) -> dict:
        return {"w": [o.to_json() for o in sorted(self.w)], "s": [o.to_json() for o in sorted(self.s)]}

    @classmethod
    def from_json(cls, data) -> QCondition:
        if not isinstance(data, dict) or not {"w", "s"} <= set(data):
            raise ValueError("bad condition encoding")
        return cls(
            frozenset(Ordinal.from_json(o) for o in data["w"]),
            frozenset(Ordinal.from_json(o) for o in data["s"]),
        )


@dataclass(frozen=True)
class QContext:
    """The bound context: a diagram with one shared index set, a ladder
    covering the designated limits, and the designated-set partition."""

    g: GapFragment
    ladder: Ladder
    part: SPartition

    def __post_init__(self):
        if set(self.g.a) != set(self.g.b):
            raise ValueError("the context diagram must carry one shared index set")
        for delta in self.part.S:
            if not self.ladder.has(delta):
                raise ValueError(f"designated limit {delta} has no ladder")

    def check_condition(self, p: QCondition) -> None:
        for o in p.w:
            if o not in self.g.a:
                raise UnknownIndex(f"index {o} has no tower set in the diagram")
        if not p.s <= self.part.S:
            raise ValueError("the s component must stay inside the designated set S")


def ladder_blocked(ctx: QContext, p: QCondition, cand: Sequence[Ordinal]) -> int:
    """The members of cand that p's ladder clause keeps out, as a bitmask.

    Bit k is set when j = cand[k] is outside w^p and lies below some delta
    in s^p with an anchor i in w^p (delta <= i) such that excess(a_j, b_i)
    is at most the rung count |c_delta below j|.  cand must ascend; it is
    cut below each delta by bisection.  Every rung the clause needs is
    counted, so a short explicit ladder table raises TableTooShort whatever
    the outcome.
    """
    blocked = 0
    for delta in p.s:
        anchors = [ctx.g.b[i] for i in p.w if delta <= i]
        if not anchors:
            continue
        for k, j in enumerate(cand[:bisect_left(cand, delta)]):
            if j in p.w:
                continue
            rungs = ctx.ladder.count_below(delta, j)
            a = ctx.g.a[j]
            for b in anchors:
                if (a & ~b).bit_length() <= rungs:
                    blocked |= 1 << k
                    break
    return blocked


def q_leq(ctx: QContext, p: QCondition, q: QCondition) -> bool:
    """Extension order: componentwise inclusion, plus the ladder clause.

    For every delta in s^p and i in w^p with delta <= i, each freshly added
    j below delta must satisfy excess(a_j, b_i) > |c_delta below j|.
    """
    ctx.check_condition(p)
    ctx.check_condition(q)
    if not (p.w <= q.w and p.s <= q.s):
        return False
    return not ladder_blocked(ctx, p, sorted(q.w - p.w))


def q_restrict(p: QCondition, alpha: Ordinal) -> QCondition:
    """Componentwise intersection with [0, alpha); always below p."""
    return QCondition(
        frozenset(o for o in p.w if o < alpha),
        frozenset(o for o in p.s if o < alpha),
    )


def q_compatible(ctx: QContext, p: QCondition, q: QCondition) -> QCondition | None:
    """Exact compatibility: the componentwise union, or None.

    The union is the least upper bound whenever any common extension exists,
    because the ladder clause of (p, u) and (q, u) ranges over a subset of
    what any common extension already satisfies.
    """
    u = QCondition(p.w | q.w, p.s | q.s)
    if q_leq(ctx, p, u) and q_leq(ctx, q, u):
        return u
    return None


def separated_pair_check(
    ctx: QContext, p1: QCondition, p2: QCondition, gamma: Ordinal, alpha: Ordinal
) -> bool:
    """Sufficient criterion for compatibility of a separated pair.

    The shape: p1 lives below alpha, p2 jumps over the interval [gamma,
    alpha] (its w and s meet it only below gamma), both restrictions to
    gamma are compatible with the other condition, and some witness n lies
    in the intersection of p1's upper a-sets minus the union of p2's upper
    b-sets, clearing every rung count |c_delta below alpha| for delta in s2
    beyond alpha.  True means p1 and p2 are compatible outright.
    """
    if not gamma < alpha:
        raise ValueError("the split points must satisfy gamma < alpha")
    ctx.check_condition(p1)
    ctx.check_condition(p2)
    if any(not i < alpha for i in p1.w):
        return False
    if any(not j < gamma for j in p2.w if j < alpha):
        return False
    if any(not d < gamma for d in p2.s if d <= alpha):
        return False
    low2 = q_restrict(p2, gamma)
    if q_restrict(p2, alpha) != low2:  # forced by the two clauses above
        detail = f"p2 restricted to {alpha} differs from its part below {gamma}"
        raise InvariantViolation("separated-restriction", detail)
    if q_compatible(ctx, q_restrict(p1, gamma), p2) is None:
        return False
    if q_compatible(ctx, low2, p1) is None:
        return False
    meet = (1 << ctx.g.universe) - 1
    for i in p1.w:
        if not i < gamma:
            meet &= ctx.g.a[i]
    join = 0
    for j in p2.w:
        if not j < gamma:
            join |= ctx.g.b[j]
    floor = max(
        (ctx.ladder.count_below(d, alpha) for d in p2.s if not d < alpha),
        default=-1,
    )
    return bool((meet & ~join) >> (floor + 1))

