"""Two steps of the paper's iteration proof, kept as test code.

The proof that a finite-support iteration of polarized c.c.c. posets is
again polarized c.c.c. refines a family of P-conditions to a Δ-system
(`delta_system_refine`, whose members unite by `p_union_agreeing`) and
decides a separated pair of Q-conditions compatible from a witness above
the rung counts (`separated_pair_check`, which cuts conditions with
`q_restrict`).  No command and no benchmark workload runs either step, so
they live here, beside the tests that check them (acceptance tests 05 and
07 and the unit tests in `test_poset_p.py`, `test_poset_q.py` and
`test_pcc.py`), and not in the package.  They return to `gapforge` with
the command that runs them, once `pcc` runs the iteration theorem as an
experiment on product families.

Run through the tests, e.g. `pytest tests/test_acceptance.py -k "05 or 07"`.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import and_, or_
from typing import Sequence

from gapforge import GapforgeError, InvariantViolation, Ordinal, PCondition, QCondition, QContext, q_compatible


class HeightMismatch(GapforgeError):
    """A union of conditions was attempted across different heights."""


class AgreementFailure(GapforgeError):
    """Two conditions disagree on their common domain."""


def p_union_agreeing(p: PCondition, q: PCondition) -> PCondition:
    """Map union of two equal-height conditions agreeing on the overlap.

    This is the minimum common extension: neither side gains a single bit
    on its own domain.
    """
    if p.height != q.height:
        raise HeightMismatch(f"heights {p.height} and {q.height} differ")
    for o in p.masks.keys() & q.masks.keys():
        if p.masks[o] != q.masks[o]:
            raise AgreementFailure(f"conditions disagree at {o}")
    return PCondition.from_masks(p.height, {**p.masks, **q.masks})


def delta_system_refine(family: Sequence[PCondition]) -> tuple[list[PCondition], frozenset[Ordinal]]:
    """Pick an agreeing sunflower subfamily of one height.

    Keeps the plurality height, then tries the most frequent pairwise domain
    intersections (plus the empty set) as candidate cores; for each, members
    matching one core restriction are collected greedily under the rule that
    petals never overlap.  Every pair of the result unions via
    p_union_agreeing, and any finite subset has the iterated union as a
    common upper bound.
    """
    family = list(family)
    if not family:
        return [], frozenset()
    by_height = Counter(p.height for p in family)
    height = min(by_height, key=lambda h: (-by_height[h], h))
    group = [p for p in family if p.height == height]
    if len(group) == 1:
        return group, frozenset()
    doms = [frozenset(p.masks) for p in group]
    inter = Counter()
    for x in range(len(group)):
        for y in range(x + 1, len(group)):
            inter[doms[x] & doms[y]] += 1
    candidates = sorted(inter, key=lambda c: (-inter[c], len(c), tuple(sorted(c))))[:32]
    if frozenset() not in candidates:
        candidates.append(frozenset())
    best: list[PCondition] = []
    best_core: frozenset[Ordinal] = frozenset()
    for core in candidates:
        groups: dict[tuple, list[tuple[PCondition, frozenset[Ordinal]]]] = {}
        for p, d in zip(group, doms):
            if core <= d:
                sig = tuple((o, p.masks[o]) for o in sorted(core))
                groups.setdefault(sig, []).append((p, d))
        for members in groups.values():
            chosen: list[PCondition] = []
            used: set[Ordinal] = set()
            for p, d in members:
                petals = d - core
                if petals & used:
                    continue
                used |= petals
                chosen.append(p)
            if len(chosen) > len(best):
                best, best_core = chosen, core
    return best, best_core


def q_restrict(p: QCondition, alpha: Ordinal) -> QCondition:
    """Componentwise intersection with [0, alpha); always below p."""
    return QCondition(
        frozenset(o for o in p.w if o < alpha),
        frozenset(o for o in p.s if o < alpha),
    )


def separated_pair_check(
    ctx: QContext, p1: QCondition, p2: QCondition, gamma: Ordinal, alpha: Ordinal
) -> bool:
    """Sufficient criterion for compatibility of a separated pair.

    The shape: p1 lives below alpha, p2 jumps over the interval [gamma,
    alpha] (its w and s meet it only below gamma), both restrictions to
    gamma are compatible with the other condition, and some witness n lies
    in the meet of the a-sets of p1's w members at or beyond gamma (the
    whole universe when there are none) minus the join of the b-sets of
    p2's, clearing every rung count |c_delta below alpha| for delta in s2
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
    floor = max(
        (ctx.ladder.count_below(d, alpha) for d in p2.s if not d < alpha),
        default=-1,
    )
    meet = reduce(and_, (ctx.g.a[i] for i in p1.w if not i < gamma), (1 << ctx.g.universe) - 1)
    join = reduce(or_, (ctx.g.b[j] for j in p2.w if not j < gamma), 0)
    return bool((meet & ~join) >> (floor + 1))
