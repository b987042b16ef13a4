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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, or_
from typing import Sequence

from .errors import InvariantViolation
from .gaps import GapFragment, bits, members, table_csv, word
from .ordinals import Ladder, Ordinal, SPartition
from .poset_q import QCondition, QContext, ladder_blocked, q_compatible, upper_join, upper_meet


@dataclass(frozen=True)
class CompatMatrix:
    """Pairwise compatibility of two indexed condition families.

    Bit y of rows[x] records whether the conditions at row_index[x] and
    col_index[y] admit a common extension.  On construction both index
    tuples must strictly increase, and each row index has one row with no
    bit past the last column.
    """

    row_index: tuple[Ordinal, ...]
    col_index: tuple[Ordinal, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        _require_increasing(self.row_index, "matrix row indices")
        _require_increasing(self.col_index, "matrix column indices")
        if len(self.rows) != len(self.row_index):
            raise ValueError(f"{len(self.rows)} matrix rows for {len(self.row_index)} row indices")
        width = len(self.col_index)
        if any(r >> width for r in self.rows):  # a negative row shifts to -1
            raise ValueError(f"a matrix row sets a bit past its {width} columns")

    @property
    def cells(self) -> tuple[tuple[bool, ...], ...]:
        """The rows as bools: read by perfbench/tracer.py:_after_matrix only, until it counts from rows."""
        return tuple(tuple(v == "1" for v in word(r, len(self.col_index))) for r in self.rows)

    def to_csv(self) -> str:
        return table_csv(self.row_index, self.col_index, [word(r, len(self.col_index)) for r in self.rows])

    @classmethod
    def from_csv(cls, text: str) -> CompatMatrix:
        if not text:
            raise ValueError("empty matrix file")
        header, *lines = text.split("\n")  # the header line is empty when there are no columns
        corner, *cols = header.split(",")
        if corner:
            raise ValueError(f"matrix header must start with an empty field, got {corner!r}")
        col_index = tuple(Ordinal.from_key(k) for k in cols)
        row_index = []
        rows = []
        for ln in filter(None, lines):
            parts = ln.split(",")
            if len(parts) != len(col_index) + 1:
                raise ValueError("ragged matrix row")
            row_index.append(Ordinal.from_key(parts[0]))
            if any(v not in ("0", "1") for v in parts[1:]):
                raise ValueError("matrix cells must be 0 or 1")
            rows.append(bits("".join(parts[1:])))
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
    once; one `ladder_blocked` call per family takes the rows' blocked sets
    over the column union and another the columns' over the row union (bit
    k = k-th member), bit-slicing each family's w-union once at most.

    Two tables over the columns then give every row by ORs alone (the
    bit-sliced index of O'Neil and Quass, on the columns): owner[k] is the
    columns whose w holds the k-th column-union member, and blocker[k] the
    columns whose blocked set holds the k-th row-union member.  A row is
    false at the columns in the OR of owner[k] over its blocked set (its
    clause keeps out a member they bring in) and in the OR of blocker[k]
    over its own w (their clause keeps out one it brings in).
    """
    cands = []
    for fam in (fam1, fam2):
        for _, p in fam:
            ctx.check_condition(p)
        cands.append(sorted(set().union(*(p.w for _, p in fam))))
    cand1, cand2 = cands
    blocked1 = ladder_blocked(ctx, [p for _, p in fam1], cand2)
    blocked2 = ladder_blocked(ctx, [q for _, q in fam2], cand1)
    pos1, pos2 = ({o: k for k, o in enumerate(c)} for c in cands)
    owner, blocker = [0] * len(cand2), [0] * len(cand1)
    for y, ((_, q), bq) in enumerate(zip(fam2, blocked2)):
        col = 1 << y
        for o in q.w:
            owner[pos2[o]] |= col
        for k in members(bq):
            blocker[k] |= col
    full = (1 << len(fam2)) - 1
    rows = []
    for (_, p), bp in zip(fam1, blocked1):
        false = reduce(or_, map(owner.__getitem__, members(bp)), 0)
        rows.append(full & ~reduce(or_, [blocker[pos1[o]] for o in p.w], false))
    return CompatMatrix(tuple(o for o, _ in fam1), tuple(o for o, _ in fam2), tuple(rows))


@dataclass(frozen=True)
class PccInstance:
    """Two condition families in the split shape the pair-finder exploits.

    Each family is a tuple of (index, condition) pairs in ascending index
    order, the shape `build_compat_matrix` takes.  Working hypotheses,
    validated on construction: below gamma every condition restricts to one
    shared core; each condition's domain (w and s together) avoids [gamma,
    its own index); along the merged index order the part of each domain at
    or beyond gamma stays below the next index, so the upper domains are
    strictly increasing and separated; each upper s member lies above its
    index (the domain and S tests leave it no room below) with fewer than k
    rungs below that index.  Under this shape a numeric witness n >= k
    certifies compatibility of an order-respecting pair.
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
        gamma = self.gamma
        core = None
        for pos, (delta, p) in enumerate(merged):
            self.ctx.check_condition(p)
            dom = sorted(p.w | p.s)
            upper = bisect_left(dom, gamma)  # dom[upper:] is the part at or beyond gamma
            if upper < len(dom) and dom[upper] < delta:
                raise ValueError(f"domain of the condition at {delta} meets [gamma, {delta})")
            low = frozenset(filter(gamma.__gt__, p.w)), frozenset(filter(gamma.__gt__, p.s))
            if core is None:
                core = low
            elif low != core:
                raise ValueError("all conditions must share one core below gamma")
            if pos + 1 < len(merged) and upper < len(dom):
                fence = merged[pos + 1][0]
                if not dom[-1] < fence:
                    raise ValueError(f"upper domain at {delta} must stay below the next index {fence}")
            for alpha in p.s:
                if not alpha < gamma and not self.ctx.ladder.count_below(alpha, delta) < self.k:
                    raise ValueError(f"k={self.k} does not bound the rung count of {alpha} below {delta}")


def pcc_ab_profiles(inst: PccInstance) -> tuple[dict[Ordinal, int], dict[Ordinal, int]]:
    """Per index: meet of family-1 upper a-sets, join of family-2 upper b-sets.

    The profiles are `poset_q.upper_meet` and `upper_join` above gamma, the
    witness rule of the separated-pair criterion in `tests/proof_steps.py`:
    the empty meet is the full universe, the empty join is empty.
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


def _koenig_rows(masks: list[int], nc: int) -> tuple[list[int], int]:
    """Rows reached by alternating paths from the free rows of a maximum
    matching of the bipartite graph masks (bit y of masks[x]: edge x-y),
    and the union of their masks.

    One augmenting-path search per row, on an explicit stack as a path may
    be as long as the graph.  It takes a free column first, else the lowest
    column no search has reached since the matching last grew (no augmenting
    path runs through a column a failed search reached).  A row without an
    augmenting path never gets one later, so one pass gives a maximum
    matching; one breadth-first pass from its free rows reaches the rest.
    """
    mate = [-1] * nc  # the row matched to each column
    free = (1 << nc) - 1
    seen = 0
    for root in range(len(masks)):
        path, cols = [root], []  # rows, and the matched columns between them
        while path:
            edges = masks[path[-1]]
            ends, step = edges & free, edges & ~seen
            if ends:
                y = (ends & -ends).bit_length() - 1
                for x, c in zip(path, cols + [y]):
                    mate[c] = x
                free ^= 1 << y
                seen = 0
                break
            if step:
                step &= -step
                seen |= step
                cols.append(step.bit_length() - 1)
                path.append(mate[cols[-1]])
            else:
                path.pop()
                del cols[-1:]
    rows = sorted(set(range(len(masks))) - set(mate))
    covered = 0
    for x in rows:  # grows as the pass reaches matched rows
        reached = masks[x] & ~covered
        covered |= reached
        rows += [mate[y] for y in members(reached)]
    return sorted(rows), covered


def max_order_rectangle(m: CompatMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A largest row/column subset whose order-respecting cells are all true.

    Each false cell with its row below its column is an edge of a bipartite
    conflict graph, and a rectangle is an independent set of it, so by
    Koenig's theorem the most rows plus columns is their number minus a
    maximum matching.  The rectangle is the complement of the Koenig cover
    that `_koenig_rows` finds: the rows reached from the free rows by
    alternating paths and the columns none of them conflicts with.  Its rows
    lie in every largest rectangle and its columns hold those of each, so
    ties break the same way whatever the matching: fewest rows.  The result
    is verified row by row before being returned (InvariantViolation
    otherwise); positions index into the matrix, ascending.
    """
    rows, covered = _koenig_rows([_conflicts(m, x) for x in range(len(m.row_index))], len(m.col_index))
    rows, cols = tuple(rows), tuple(members(~covered & (1 << len(m.col_index)) - 1))
    if not verify_rectangle(m, rows, cols):
        raise InvariantViolation("rectangle-verification", "the searched rectangle fails a cell check")
    return rows, cols


MAX_FAMILY = 2048
"""Most conditions per generated family.  The matrix and the rectangle
search grow with t1 * t2: `pcc` at 480 x 480 takes 0.15-0.17 s and 20 MB, at
1024 x 1024 0.23-0.28 s and 29 MB, and at 2048 x 2048 0.59-0.67 s and 55 MB
(3 runs each; wall and peak RSS with interpreter start, 2-vCPU Xeon, Python
3.11).  The bitmask rows retain 0.6 MiB at 2048 x 2048, where the build
takes about 0.33 s (0.06 s of it in `ladder_blocked`, 0.11 s listing the
members of the rows' 198,672 blocked candidates) and the rectangle search
8 ms."""


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
