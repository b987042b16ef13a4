"""The specialization poset over a fixed diagram, ladder, and partition.

Conditions are pairs (w, s) of finite ordinal sets: w collects tower indices
being selected, s collects designated limits that anchor the ladder clause.
Extending a condition may only add below-delta indices j whose excess over
each committed b_i beats the rung count of c_delta below j.  Tower sets
are int bitmasks (bit k = member k), and `ladder_blocked` collects, for
each condition of a family, the candidates its clause keeps out as a
bitmask over one ascending candidate list, bit-sliced at most once per
call and only once a clause reaches the slices: the order (a family of
one) and the pcc compatibility matrix (one call per family) stand on it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Sequence

from .errors import TableTooShort, UnknownIndex
from .gaps import GapFragment, bits, word
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
        if not all(map(self.g.a.__contains__, p.w)):
            o = next(o for o in p.w if o not in self.g.a)
            raise UnknownIndex(f"index {o} has no tower set in the diagram")
        if not p.s <= self.part.S:
            raise ValueError("the s component must stay inside the designated set S")


def ladder_blocked(ctx: QContext, conds: Sequence[QCondition], cand: Sequence[Ordinal]) -> list[int]:
    """The candidates each condition's ladder clause keeps out, as one
    bitmask over the ascending cand (bit k = cand[k]) per condition.

    Bit k is set when j = cand[k] is outside w^p and lies below some delta
    in s^p with an anchor i in w^p (delta <= i) such that excess(a_j, b_i)
    is at most the rung count r = |c_delta below j|: no u >= r outside b_i
    lies in a_j.  The anchors of delta are the suffix of sorted w^p from
    delta on.  Per delta, `Ladder.count_runs` splits the candidates below
    delta into runs of equal r, and per run and anchor the candidates that
    do hold such a u are the OR of the slices sl[u] over the bits u >= r of
    `used & ~b_i`, where used is the union of the candidates' a-sets and
    sl[u] the mask of those whose a-set holds u (the bit-sliced index of
    O'Neil and Quass); the rest of the run is blocked, and only the hit
    part goes on to the next anchor.  The slices are cut at most once per
    call, when a delta first has anchors and fresh candidates below it.
    Whenever a delta has both, a fresh candidate past an explicit ladder
    table raises TableTooShort first, whatever the outcome; conditions are
    taken in order, so the first that raises decides the error.
    """
    pos = {o: k for k, o in enumerate(cand)}
    sets = [ctx.g.a[o] for o in cand]
    used = reduce(or_, sets, 0)
    sl = None
    out = []
    for p in conds:
        w = sorted(p.w)
        fresh = ~sum(1 << pos[o] for o in w if o in pos)
        blocked = 0
        for delta in p.s:
            n = bisect_left(cand, delta)
            below = fresh & (1 << n) - 1
            first = bisect_left(w, delta)
            if not below or first == len(w):
                continue
            runs, end = ctx.ladder.count_runs(delta, cand, n)
            if below >> end:
                j = cand[below.bit_length() - 1]
                raise TableTooShort(f"ladder at {delta} never reaches {j} within its table")
            if sl is None:
                # transpose: character k * width + u of the text is bit u of cand[k]'s a-set
                width = used.bit_length()
                text = "".join([word(s, width) for s in sets])
                sl = [bits(text[u::width]) for u in range(width)]
            below &= ~blocked
            # within used, so never negative: the bit loop below ends
            outside = [used & ~ctx.g.b[i] for i in w[first:]]
            for lo, hi, r in runs:
                run = below & (1 << hi) - (1 << lo)
                for nb in outside:
                    if not run:
                        break
                    nb = nb >> r << r
                    hit = 0
                    while nb:
                        low = nb & -nb
                        hit |= sl[low.bit_length() - 1]
                        nb ^= low
                    blocked |= run & ~hit
                    run &= hit
        out.append(blocked)
    return out


def q_leq(ctx: QContext, p: QCondition, q: QCondition) -> bool:
    """Extension order: componentwise inclusion, plus the ladder clause.

    For every delta in s^p and i in w^p with delta <= i, each freshly added
    j below delta must satisfy excess(a_j, b_i) > |c_delta below j|.
    """
    ctx.check_condition(p)
    ctx.check_condition(q)
    if not (p.w <= q.w and p.s <= q.s):
        return False
    return not ladder_blocked(ctx, [p], sorted(q.w - p.w))[0]


def upper_meet(ctx: QContext, p: QCondition, gamma: Ordinal) -> int:
    """Meet of the a-sets of p's w members at or beyond gamma; the whole
    universe when there are none."""
    return reduce(and_, (ctx.g.a[i] for i in p.w if not i < gamma), (1 << ctx.g.universe) - 1)


def upper_join(ctx: QContext, p: QCondition, gamma: Ordinal) -> int:
    """Join of the b-sets of p's w members at or beyond gamma; 0 when there
    are none."""
    return reduce(or_, (ctx.g.b[j] for j in p.w if not j < gamma), 0)


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
