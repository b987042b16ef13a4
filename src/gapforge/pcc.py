"""Finite-scale laboratory for the polarized chain-condition mechanism.

Two families of pair conditions are indexed along increasing ordinal lists;
the lab builds their compatibility matrix, derives the meet/join profiles
of their upper tower sets, hunts for an order-respecting compatible pair
through a numeric witness, and searches for large order-respecting all-true
rectangles.  No stationarity is modeled: "large" means large within the
finite index lists, nothing more.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, or_
from typing import Sequence

from .errors import InvariantViolation
from .gaps import GapFragment
from .ordinals import Ladder, Ordinal, SPartition
from .poset_q import (
    CandidateSlices, QCondition, QContext, ladder_blocked, q_compatible, q_restrict, upper_join, upper_meet
)


@dataclass(frozen=True)
class CompatMatrix:
    """Pairwise compatibility of two indexed condition families.

    Bit y of rows[x] records whether the conditions at row_index[x] and
    col_index[y] admit a common extension.  Both index tuples strictly
    increase, in a built matrix and in one loaded from CSV alike.
    """

    row_index: tuple[Ordinal, ...]
    col_index: tuple[Ordinal, ...]
    rows: tuple[int, ...]

    @property
    def cells(self) -> tuple[tuple[bool, ...], ...]:
        """The rows as bools: read by perfbench/tracer.py:_after_matrix only, until it counts from rows."""
        return tuple(tuple(v == "1" for v in f"{r | 1 << len(self.col_index):b}"[:0:-1]) for r in self.rows)

    def to_csv(self) -> str:
        top = 1 << len(self.col_index)  # a sentinel bit keeps a row's leading zeros
        lines = [",".join([""] + [o.key() for o in self.col_index])]
        lines += [",".join([o.key(), *f"{r | top:b}"[:0:-1]]) for o, r in zip(self.row_index, self.rows)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> CompatMatrix:
        lines = [ln for ln in text.split("\n") if ln]
        if not lines:
            raise ValueError("empty matrix file")
        header = lines[0].split(",")
        col_index = tuple(Ordinal.from_key(k) for k in header[1:])
        row_index = []
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(col_index) + 1:
                raise ValueError("ragged matrix row")
            row_index.append(Ordinal.from_key(parts[0]))
            if any(v not in ("0", "1") for v in parts[1:]):
                raise ValueError("matrix cells must be 0 or 1")
            rows.append(int("0" + "".join(parts[:0:-1]), 2))  # the cells, last column first
        _require_increasing(row_index, "matrix row indices")
        _require_increasing(col_index, "matrix column indices")
        return cls(tuple(row_index), col_index, tuple(rows))


def _require_increasing(idx: Sequence[Ordinal], what: str) -> None:
    if any(not a < b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"{what} must strictly increase")


def build_compat_matrix(
    ctx: QContext,
    fam1: Sequence[tuple[Ordinal, QCondition]],
    fam2: Sequence[tuple[Ordinal, QCondition]],
) -> CompatMatrix:
    """Evaluate compatibility on all pairs of the two indexed families.

    p and q are compatible exactly when their union extends both, that is
    when neither one's ladder clause blocks a w member the other brings
    in.  Each condition is validated once and each family's w-union sorted
    and bit-sliced once (`CandidateSlices`); a row's blocked set is taken
    over the column union and a column's over the row union (bit k = k-th
    member) by the one `ladder_blocked` kernel, so a cell is
    `not (w_q & blocked_p or w_p & blocked_q)`.
    """
    sides = []
    for fam in (fam1, fam2):
        _require_increasing([o for o, _ in fam], "family indices")
        for _, p in fam:
            ctx.check_condition(p)
        cs = CandidateSlices(ctx.g, sorted(set().union(*(p.w for _, p in fam))))
        sides.append((cs, [sum(1 << cs.pos[o] for o in p.w) for _, p in fam]))
    (cs1, w1), (cs2, w2) = sides
    blocked1 = [ladder_blocked(ctx, p, cs2) for _, p in fam1]
    blocked2 = [ladder_blocked(ctx, q, cs1) for _, q in fam2]
    cols = list(zip(w2, blocked2))[::-1]  # binary digits put the last column first
    rows = tuple(
        int("0" + "".join(["0" if wq & bp or wp & bq else "1" for wq, bq in cols]), 2)
        for wp, bp in zip(w1, blocked1)
    )
    return CompatMatrix(tuple(o for o, _ in fam1), tuple(o for o, _ in fam2), rows)


@dataclass(frozen=True)
class PccInstance:
    """Two condition families in the split shape the pair-finder exploits.

    Each family is a tuple of (index, condition) pairs in ascending index
    order, the shape `build_compat_matrix` takes.  Working hypotheses,
    validated on construction: below gamma every condition restricts to one
    shared core; each condition's domain (w and s together) avoids [gamma,
    its own index); along the merged index order the part of each domain at
    or beyond gamma stays below the next index, so the upper domains are
    strictly increasing and separated; upper s members sit above their own
    index with rung counts below them strictly bounded by k.  Under this
    shape a numeric witness n >= k certifies compatibility of an
    order-respecting pair.
    """

    ctx: QContext
    gamma: Ordinal
    fam1: tuple[tuple[Ordinal, QCondition], ...]
    fam2: tuple[tuple[Ordinal, QCondition], ...]
    k: int

    def __post_init__(self):
        for fam in (self.fam1, self.fam2):
            _require_increasing([d for d, _ in fam], "index lists")
            if any(d in self.ctx.part.S for d, _ in fam):
                raise ValueError("family indices must avoid the designated set S")
        if {d for d, _ in self.fam1} & {d for d, _ in self.fam2}:
            raise ValueError("the two index lists must be disjoint")
        merged = sorted([*self.fam1, *self.fam2], key=itemgetter(0))
        core = None
        for pos, (delta, p) in enumerate(merged):
            self.ctx.check_condition(p)
            dom = p.w | p.s
            if any(x < delta and not x < self.gamma for x in dom):
                raise ValueError(f"domain of the condition at {delta} meets [gamma, {delta})")
            low = q_restrict(p, self.gamma)
            if core is None:
                core = low
            elif low != core:
                raise ValueError("all conditions must share one core below gamma")
            upper = [x for x in dom if not x < self.gamma]
            if pos + 1 < len(merged):
                fence = merged[pos + 1][0]
                if any(not x < fence for x in upper):
                    raise ValueError(f"upper domain at {delta} must stay below the next index {fence}")
            for alpha in p.s:
                if not alpha < self.gamma:
                    if not delta < alpha:
                        raise ValueError(f"upper s member {alpha} must lie above its index {delta}")
                    if not self.ctx.ladder.count_below(alpha, delta) < self.k:
                        raise ValueError(f"k={self.k} does not bound the rung count of {alpha} below {delta}")


def pcc_ab_profiles(inst: PccInstance) -> tuple[dict[Ordinal, int], dict[Ordinal, int]]:
    """Per index: meet of family-1 upper a-sets, join of family-2 upper b-sets.

    The profiles are `poset_q.upper_meet` and `upper_join` above gamma, the
    witness rule `separated_pair_check` reads too: the empty meet is the
    full universe, the empty join is empty.
    """
    meets = {d: upper_meet(inst.ctx, p, inst.gamma) for d, p in inst.fam1}
    joins = {d: upper_join(inst.ctx, q, inst.gamma) for d, q in inst.fam2}
    return meets, joins


def find_compatible_pair(inst: PccInstance) -> tuple[Ordinal, Ordinal, int] | None:
    """First order-respecting pair carrying a witness n >= k, or None.

    Scans index pairs delta1 < delta2 in increasing order; a witness is the
    least n >= k in the meet profile of delta1 minus the join profile of
    delta2, the lowest set bit of that difference cut below k.  On success
    the pair is checked compatible, which the split shape of the instance
    guarantees; InvariantViolation says it was not.
    """
    meets, joins = pcc_ab_profiles(inst)
    for d1, p1 in inst.fam1:
        for d2, p2 in inst.fam2:
            if not d1 < d2:
                continue
            witnesses = (meets[d1] & ~joins[d2]) >> inst.k << inst.k
            if witnesses:
                n = (witnesses & -witnesses).bit_length() - 1
                if q_compatible(inst.ctx, p1, p2) is None:
                    detail = f"witness {n} for {d1} < {d2}, yet the pair is incompatible"
                    raise InvariantViolation("compatible-pair", detail)
                return d1, d2, n
    return None


def _conflicts(m: CompatMatrix, x: int) -> int:
    """The columns above row x's index whose cell in row x is false, as a mask."""
    return ~m.rows[x] & (1 << len(m.col_index)) - (1 << bisect_right(m.col_index, m.row_index[x]))


def verify_rectangle(m: CompatMatrix, rows: Sequence[int], cols: Sequence[int]) -> bool:
    """One mask test per row: no row of the rectangle conflicts with one of its columns."""
    col_mask = reduce(or_, [1 << y for y in cols], 0)
    return not any(_conflicts(m, x) & col_mask for x in rows)


def _koenig_rows(masks: list[int], nc: int) -> list[int]:
    """Rows reached by alternating paths from the free rows of a maximum
    matching of the bipartite graph masks (bit y of masks[x]: edge x-y).

    Hopcroft-Karp: each phase layers the rows by breadth-first search from
    the free rows, then augments along layered paths found by depth-first
    search on an explicit stack, since a path may be as long as the graph.
    Once the search reaches no free column the matching is maximum.
    """
    adj = [[y for y, v in enumerate(f"{a:b}"[::-1]) if v == "1"] for a in masks]
    mate = [-1] * nc  # the row matched to each column
    while True:
        matched = set(mate)
        dist = [-1 if x in matched else 0 for x in range(len(adj))]
        roots = layer = [x for x, d in enumerate(dist) if d == 0]
        free = False
        while layer and not free:
            nxt = []
            for x in layer:
                for y in adj[x]:
                    if mate[y] < 0:
                        free = True
                    elif dist[mate[y]] < 0:
                        dist[mate[y]] = dist[x] + 1
                        nxt.append(mate[y])
            layer = nxt
        if not free:
            return [x for x, d in enumerate(dist) if d >= 0]
        nexts = [iter(a) for a in adj]
        for root in roots:
            path = [root]  # row, column, row, ...
            while path:
                x = path[-1]
                y = next((y for y in nexts[x] if mate[y] < 0 or dist[mate[y]] == dist[x] + 1), None)
                if y is None:
                    dist[x] = -1  # a dead end for the rest of this phase
                    del path[-2:]
                elif mate[y] < 0:
                    for x, y in zip(path[::2], path[1::2] + [y]):
                        mate[y] = x
                    break
                else:
                    path += [y, mate[y]]


def max_order_rectangle(m: CompatMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A largest row/column subset whose order-respecting cells are all true.

    Each false cell with its row below its column is an edge of a bipartite
    conflict graph, and a rectangle is an independent set of it, so by
    Koenig's theorem the most rows plus columns is their number minus a
    maximum matching.  The rectangle is the complement of the Koenig cover:
    the rows reached from the free rows by alternating paths and the columns
    none of them conflicts with.  Its rows lie in every largest rectangle and
    its columns hold those of each, so ties break the same way whatever the
    matching: fewest rows.  The result is verified row by row before being
    returned (InvariantViolation otherwise); positions index into the
    matrix, ascending.
    """
    conflicts = [_conflicts(m, x) for x in range(len(m.row_index))]
    rows = tuple(_koenig_rows(conflicts, len(m.col_index)))
    covered = reduce(or_, [conflicts[x] for x in rows], 0)
    cols = tuple(y for y in range(len(m.col_index)) if not covered >> y & 1)
    if not verify_rectangle(m, rows, cols):
        raise InvariantViolation("rectangle-verification", "the searched rectangle fails a cell check")
    return rows, cols


MAX_FAMILY = 2048
"""Most conditions per generated family.  The matrix and the rectangle
search grow with t1 * t2: `pcc` at 480 x 480 takes 0.2-0.3 s and 20 MB, at
1024 x 1024 0.7 s and 29 MB, and at 2048 x 2048 2.0-2.2 s and 63 MB
(wall and peak RSS with interpreter start, 2-vCPU Xeon, Python 3.11).
The bitmask rows retain 0.6 MiB at 2048 x 2048; the build's loop over the
t1 * t2 cells takes most of the time, about 1 s of it there."""


def generate_pcc_instance(
    seed: int, t1_size: int = 30, t2_size: int = 30, universe: int = 32
) -> PccInstance:
    """Seeded instance in the split shape, rich enough for the pair hunt.

    Indices alternate between the two families along a chain of regions;
    each region contributes upper w members on both sides of its own limit
    and usually that limit as an upper s member.  Family-1 a-sets mostly
    carry a shared high pool (a few lean ones do not), family-2 b-sets stay
    low, so witnesses beyond k exist for most order-respecting pairs while
    some cells still fail.
    """
    if universe < 16:
        raise ValueError("the generator needs a universe of at least 16")
    if t1_size < 1 or t2_size < 1:
        raise ValueError("each family needs at least one index")
    if t1_size > MAX_FAMILY or t2_size > MAX_FAMILY:
        raise ValueError(f"family sizes {t1_size} x {t2_size} exceed the limit {MAX_FAMILY}")
    rng = random.Random(seed)
    gamma = Ordinal(2, 0)
    core_w = frozenset(Ordinal(0, r) for r in sorted(rng.sample(range(8), 3)))
    core_s = frozenset({Ordinal(1, 0)})
    pool = range(universe - 8, universe)
    pool_mask = (1 << universe) - (1 << universe - 8)
    low = range(universe - 8)

    both = min(t1_size, t2_size)
    kinds = [1, 2] * both + [1] * (t1_size - both) + [2] * (t2_size - both)

    fam1: list[tuple[Ordinal, QCondition]] = []
    fam2: list[tuple[Ordinal, QCondition]] = []
    limits = set(core_s)
    a_map: dict[Ordinal, int] = {}
    b_map: dict[Ordinal, int] = {}
    counts: list[int] = []

    draw = rng.random

    def random_set(space, prob) -> int:
        got = 0
        for v in space:
            if draw() < prob:
                got |= 1 << v
        return got

    for o in core_w:
        a_map[o] = random_set(range(universe), 0.4)
        b_map[o] = random_set(range(universe), 0.6)

    for m, kind in enumerate(kinds):
        base = 3 * (m + 1)
        delta = Ordinal(base, rng.randint(1, 6))
        limit = Ordinal(base + 1, 0)
        limits.add(limit)
        lowers = {Ordinal(base, delta.r + 1 + t) for t in range(rng.randint(1, 2))}
        uppers = {Ordinal(base + 2, 1 + t) for t in range(rng.randint(1, 2))}
        w_extra = lowers | uppers
        s_extra = frozenset({limit}) if rng.random() < 0.8 else frozenset()
        if s_extra:
            counts.append(delta.r)  # rungs of c_limit below delta
        lean = kind == 1 and rng.random() < 0.3
        for o in sorted(w_extra):
            if kind == 1:
                got = random_set(low, 0.4)
                if not lean:
                    dropped = sum(1 << v for v in rng.sample(pool, rng.randint(0, 1)))
                    got |= pool_mask & ~dropped
                a_map[o] = got
                b_map[o] = got | random_set(range(universe), 0.3)
            else:
                a_map[o] = random_set(range(universe), 0.3)
                b_map[o] = random_set(low, 0.5) | 1 << rng.choice(low)
        cond = QCondition(frozenset(core_w | w_extra), frozenset(core_s | s_extra))
        (fam1 if kind == 1 else fam2).append((delta, cond))

    k = max(counts, default=-1) + 1
    part = SPartition(S=frozenset(limits), T=frozenset(), D=frozenset(limits))
    frag = GapFragment(universe, a_map, b_map)
    ctx = QContext(frag, Ladder.canonical(), part)
    return PccInstance(ctx, gamma, tuple(fam1), tuple(fam2), k)
