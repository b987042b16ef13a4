"""Reference rung counts of a ladder system.

These are linear scans that `Ladder.count_runs`, the package's one rung
count, replaced: `ref_count_below` walks the rungs upward and stops at the
first one not below j, and `ref_first_index_above` at the first one above
the bound.  They share no logic with the bisecting runs; the differential
tests require both to agree exactly, errors included.  `ref_value` reads
one rung, which no package code needs.  `two_sided` lists the points of
the two-sided index order, which the package sweeps one side at a time.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from gapforge import Ladder, Ordinal, TableTooShort, UnknownDelta


def two_sided(ordinals: Iterable[Ordinal]) -> Iterator[tuple[Ordinal, int]]:
    """The points (o, side) over distinct ordinals, ascending in the two-sided
    order: side 0 with the ordinals ascending, then side 1 descending, so
    that (a,0) < (b,0) < (b,1) < (a,1) whenever a < b; the order is total."""
    up = sorted(ordinals)
    for o in up:
        yield o, 0
    for o in reversed(up):
        yield o, 1


def ref_ordinal_from_json(data) -> Ordinal:
    """The ordinal of a JSON pair [q, r] of naturals."""
    if (
        not isinstance(data, (list, tuple))
        or len(data) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in data)
    ):
        raise ValueError(f"bad ordinal encoding: {data!r}")
    return Ordinal(data[0], data[1])


def ref_value(ladder: Ladder, delta: Ordinal, n: int) -> Ordinal:
    """The n-th rung c_delta(n)."""
    if not ladder.has(delta):
        raise UnknownDelta(f"no ladder at {delta}")
    if ladder.mode == "canonical":
        return Ordinal(delta.q - 1, n)
    values = ladder.entries[delta]
    if n >= len(values):
        raise TableTooShort(f"ladder at {delta} tabulates {len(values)} values, index {n} requested")
    return values[n]


def ref_count_below(ladder: Ladder, delta: Ordinal, j: Ordinal) -> int:
    """The number of rungs of c_delta lying strictly below j (j < delta)."""
    if not ladder.has(delta):
        raise UnknownDelta(f"no ladder at {delta}")
    if not j < delta:
        raise ValueError(f"count_below needs j < delta, got j={j}, delta={delta}")
    if ladder.mode == "canonical":
        # rungs are (delta.q - 1, n); j < delta forces j.q <= delta.q - 1
        return j.r if j.q == delta.q - 1 else 0
    count = 0
    for v in ladder.entries[delta]:
        if v < j:
            count += 1
        else:
            return count  # strictly increasing: the scan may stop here
    raise TableTooShort(f"ladder at {delta} never reaches {j} within its table")


def ref_first_index_above(ladder: Ladder, delta: Ordinal, bound: Ordinal) -> int:
    """The least n with c_delta(n) strictly above bound (bound < delta)."""
    if not ladder.has(delta):
        raise UnknownDelta(f"no ladder at {delta}")
    if not bound < delta:
        raise ValueError(f"first_index_above needs bound < delta, got {bound}, {delta}")
    if ladder.mode == "canonical":
        if bound.q < delta.q - 1:
            return 0
        return bound.r + 1
    for n, v in enumerate(ladder.entries[delta]):
        if bound < v:
            return n
    raise TableTooShort(f"ladder at {delta} never exceeds {bound} within its table")
