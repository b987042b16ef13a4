"""Reference rectangle checks and searches for the pcc compatibility matrix.

`ref_verify_rectangle` is the cell-by-cell check that `verify_rectangle`,
one mask test per row, replaced.  `exact_rectangle` is the exhaustive search
over row subsets that the matching-based `max_order_rectangle` replaced;
`matching_size` is a plain recursive augmenting-path matching of the conflict
graph that reads the cells themselves, not the package's conflict masks.  A
rectangle of size |rows| + |cols| - nu next to a matching of size nu
certifies both optimal (weak duality: every conflict edge of the matching
leaves at least one end out of any rectangle).  All of them read a cell as
bit y of row x.  `ref_koenig_rows` is the Hopcroft-Karp search that
`_koenig_rows`, one augmenting-path search per row, replaced; the rows it
returns are the same for every maximum matching.

`ref_matrix_rows` is the per-cell row build that `build_compat_matrix`'s
two column tables replaced: the same `ladder_blocked` sets, each condition's
w as a mask over its family's w-union, and one `wq & bp or wp & bq` test
per cell.  `ref_validate_instance` is the per-condition check that
`PccInstance.__post_init__`, one sorted pass per condition, replaced: it
runs `check_condition` and `proof_steps.q_restrict` on every condition
and tests each domain member against gamma, delta and the next index one
at a time.
"""

from __future__ import annotations

from operator import itemgetter

from gapforge import CompatMatrix, QContext, bits, ladder_blocked, members
from proof_steps import q_restrict


def _bad(m: CompatMatrix, x: int, y: int) -> bool:
    """Cell (x, y) is false, bit y of row x, with the row below the column."""
    return m.row_index[x] < m.col_index[y] and not m.rows[x] >> y & 1


def ref_verify_rectangle(m: CompatMatrix, rows, cols) -> bool:
    """Cell-by-cell check: every row-below-column pair must be compatible."""
    return not any(_bad(m, x, y) for x in rows for y in cols)


def exact_rectangle(m: CompatMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Best rows + cols over every row subset; exponential in the rows.

    For a fixed row set every column without a bad cell against it joins
    for free, so the best over all row subsets is optimal.
    """
    nr, nc = len(m.row_index), len(m.col_index)
    bad = [{x for x in range(nr) if _bad(m, x, y)} for y in range(nc)]
    best: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
    best_score = -1
    for mask in range(1 << nr):
        rows = {x for x in range(nr) if mask >> x & 1}
        cols = [y for y in range(nc) if not rows & bad[y]]
        score = len(rows) + len(cols)
        if score > best_score:
            best = (tuple(sorted(rows)), tuple(cols))
            best_score = score
    return best


def matching_size(m: CompatMatrix) -> int:
    """Size of a maximum matching of the conflict graph, one augmenting
    path search per row (recursive: for matrices of a few hundred rows).
    A free column ends a path at once, which keeps a dense graph at a
    quadratic number of steps."""
    nr, nc = len(m.row_index), len(m.col_index)
    adj = [[y for y in range(nc) if _bad(m, x, y)] for x in range(nr)]
    owner = [-1] * nc

    def augment(x: int, seen: set[int]) -> bool:
        for y in adj[x]:
            if owner[y] < 0:
                owner[y] = x
                return True
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                if owner[y] < 0 or augment(owner[y], seen):
                    owner[y] = x
                    return True
        return False

    return sum(augment(x, set()) for x in range(nr))


def ref_koenig_rows(masks: list[int], nc: int) -> list[int]:
    """Rows reached by alternating paths from the free rows of a maximum
    matching of the bipartite graph masks (bit y of masks[x]: edge x-y).

    Hopcroft-Karp: each phase layers the rows by breadth-first search from
    the free rows, then augments along layered paths found by depth-first
    search on an explicit stack, since a path may be as long as the graph.
    Once the search reaches no free column the matching is maximum.
    """
    adj = [members(a) for a in masks]
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


def ref_matrix_rows(ctx: QContext, fam1, fam2) -> tuple[int, ...]:
    """The matrix rows, one "0" or "1" per cell: bit y of row x is clear
    when w_q & blocked_p or w_p & blocked_q, over the w-union masks."""
    sides = []
    for fam in (fam1, fam2):
        for _, p in fam:
            ctx.check_condition(p)
        cand = sorted(set().union(*(p.w for _, p in fam)))
        pos = {o: k for k, o in enumerate(cand)}
        sides.append((cand, [sum(1 << pos[o] for o in p.w) for _, p in fam]))
    (cand1, w1), (cand2, w2) = sides
    blocked1 = ladder_blocked(ctx, [p for _, p in fam1], cand2)
    blocked2 = ladder_blocked(ctx, [q for _, q in fam2], cand1)
    cols = list(zip(w2, blocked2))
    return tuple(bits("".join(["0" if wq & bp or wp & bq else "1" for wq, bq in cols])) for wp, bp in zip(w1, blocked1))


def ref_validate_instance(ctx: QContext, gamma, fam1, fam2, k: int) -> None:
    """Raise what `PccInstance(ctx, gamma, fam1, fam2, k)` must raise, or
    nothing when the instance has the split shape."""
    for fam in (fam1, fam2):
        idx = [d for d, _ in fam]
        if any(not a < b for a, b in zip(idx, idx[1:])):
            raise ValueError("index lists must strictly increase")
        if any(d in ctx.part.S for d, _ in fam):
            raise ValueError("family indices must avoid the designated set S")
    if {d for d, _ in fam1} & {d for d, _ in fam2}:
        raise ValueError("the two index lists must be disjoint")
    merged = sorted([*fam1, *fam2], key=itemgetter(0))
    core = None
    for pos, (delta, p) in enumerate(merged):
        ctx.check_condition(p)
        dom = p.w | p.s
        if any(x < delta and not x < gamma for x in dom):
            raise ValueError(f"domain of the condition at {delta} meets [gamma, {delta})")
        low = q_restrict(p, gamma)
        if core is None:
            core = low
        elif low != core:
            raise ValueError("all conditions must share one core below gamma")
        upper = [x for x in dom if not x < gamma]
        if pos + 1 < len(merged):
            fence = merged[pos + 1][0]
            if any(not x < fence for x in upper):
                raise ValueError(f"upper domain at {delta} must stay below the next index {fence}")
        for alpha in p.s:
            if not alpha < gamma:
                if not delta < alpha:
                    raise ValueError(f"upper s member {alpha} must lie above its index {delta}")
                if not ctx.ladder.count_below(alpha, delta) < k:
                    raise ValueError(f"k={k} does not bound the rung count of {alpha} below {delta}")
