"""Reference implementations of the pair-poset order and the pcc matrix.

`ref_q_leq` and `ref_build_compat_matrix` are the nested-loop ladder
clause and the cell-by-cell matrix the blocked-set kernel of poset_q
replaced.  They walk the clause literally, delta by delta, fresh index by
fresh index, anchor by anchor, over frozensets, with the tower sets read
as frozensets and the excess taken by gaps_reference and the rungs
counted by ordinals_reference, so they share no logic with the bitmask
code; the differential tests require both to agree exactly.

The loops stop at the first failing anchor, so with an explicit ladder
table too short for some needed rung the reference raises TableTooShort
or returns False depending on which fresh index the set yields first.

`ref_ladder_blocked` is the per-candidate blocked-set loop that the
bit-sliced kernel replaced: every fresh candidate below a delta gets its
rungs from `ref_count_below`, one at a time, and is then tested against
every anchor.  It keeps the kernel's error contract, so the two must agree
on the mask and on whether they raise.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from gapforge import CompatMatrix, Ordinal, QCondition, QContext
from gaps_reference import ref_excess, set_of
from ordinals_reference import ref_count_below


def ref_q_leq(ctx: QContext, p: QCondition, q: QCondition) -> bool:
    """Componentwise inclusion, plus for every delta in s^p and i in w^p
    with delta <= i: each fresh j below delta has excess(a_j, b_i) above
    the rung count |c_delta below j|."""
    ctx.check_condition(p)
    ctx.check_condition(q)
    if not (p.w <= q.w and p.s <= q.s):
        return False
    fresh = q.w - p.w
    for delta in p.s:
        anchors = [i for i in p.w if delta <= i]
        if not anchors:
            continue
        for j in fresh:
            if not j < delta:
                continue
            rungs = ref_count_below(ctx.ladder, delta, j)
            for i in anchors:
                if ref_excess(set_of(ctx.g.a[j], ctx.g.universe), set_of(ctx.g.b[i], ctx.g.universe)) <= rungs:
                    return False
    return True


def ref_q_compatible(ctx: QContext, p: QCondition, q: QCondition) -> QCondition | None:
    """The componentwise union when it lies above both, else None."""
    u = QCondition(p.w | q.w, p.s | q.s)
    if ref_q_leq(ctx, p, u) and ref_q_leq(ctx, q, u):
        return u
    return None


def ref_build_compat_matrix(ctx: QContext, fam1, fam2) -> CompatMatrix:
    """Compatibility decided cell by cell, each cell validating again, as
    bit y of row x."""
    for fam in (fam1, fam2):
        idx = [o for o, _ in fam]
        if any(not a < b for a, b in zip(idx, idx[1:])):
            raise ValueError("family indices must strictly increase")
    rows = tuple(
        sum(1 << y for y, (_, q) in enumerate(fam2) if ref_q_compatible(ctx, p, q) is not None)
        for _, p in fam1
    )
    return CompatMatrix(tuple(o for o, _ in fam1), tuple(o for o, _ in fam2), rows)


def ref_ladder_blocked(ctx: QContext, p: QCondition, cand: Sequence[Ordinal]) -> int:
    """The members of cand that p's ladder clause keeps out, as a bitmask:
    bit k is set when cand[k] is outside w^p, below some delta in s^p, and
    `(a_j & ~b_i) >> rungs` is 0 for some anchor i >= delta in w^p."""
    a = ctx.g.a
    blocked = 0
    for delta in p.s:
        outside = [~ctx.g.b[i] for i in p.w if delta <= i]
        if not outside:
            continue
        ks = [k for k, j in enumerate(cand[:bisect_left(cand, delta)]) if j not in p.w]
        if not ks:
            continue
        rungs = [ref_count_below(ctx.ladder, delta, cand[k]) for k in ks]
        for k, r in zip(ks, rungs):
            a_j = a[cand[k]]
            for nb in outside:
                if not (a_j & nb) >> r:
                    blocked |= 1 << k
                    break
    return blocked
