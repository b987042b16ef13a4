"""Reference rung count of a ladder system.

This is the one-j linear scan that `Ladder.counts_below` replaced: it walks
the rungs upward and stops at the first one not below j, so it shares no
logic with the batched bisection; the differential tests require both to
agree exactly, errors included.
"""

from __future__ import annotations

from gapforge import Ladder, Ordinal, TableTooShort, UnknownDelta


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
