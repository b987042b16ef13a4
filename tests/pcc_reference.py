"""Reference rectangle checks and searches for the pcc compatibility matrix.

`ref_verify_rectangle` is the cell-by-cell check that `verify_rectangle`,
one mask test per row, replaced.  `exact_rectangle` is the exhaustive search
over row subsets that the matching-based `max_order_rectangle` replaced;
`matching_size` is a plain recursive augmenting-path matching of the conflict
graph, written apart from the package's Hopcroft-Karp code.  A rectangle of
size |rows| + |cols| - nu next to a matching of size nu certifies both
optimal (weak duality: every conflict edge of the matching leaves at least
one end out of any rectangle).  All of them read a cell as bit y of row x.
"""

from __future__ import annotations

from gapforge import CompatMatrix


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
    path search per row (recursive: for matrices of a few hundred rows)."""
    nr, nc = len(m.row_index), len(m.col_index)
    adj = [[y for y in range(nc) if _bad(m, x, y)] for x in range(nr)]
    owner = [-1] * nc

    def augment(x: int, seen: set[int]) -> bool:
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                if owner[y] < 0 or augment(owner[y], seen):
                    owner[y] = x
                    return True
        return False

    return sum(augment(x, set()) for x in range(nr))
