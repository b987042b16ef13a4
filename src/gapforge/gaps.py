"""Excess numbers, finite pre-gap diagrams, and the decidable gap predicates.

A set of naturals inside a bounded universe [0, M) is an int bitmask whose
bit k is member k, and its text a 01 word whose character k is bit k: every
module converts through `bits`, `word`, `select`, `members` and
`member_text` alone.  `GapFragment.from_json` writes each loaded member
list into its 01 word, checking each member before it sets its character,
and reads the word through `bits`, under a cap on sets times universe per
side.  Between finite sets almost-inclusion is vacuous, so a diagram
carries no tower laws; everything of interest is measured through the
excess number.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress, count
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import IndexMismatch
from .ordinals import Ladder, Ordinal, SPartition, Value, ordinal_set

# Largest universe a diagram file may declare.  A loaded tower set is first
# written as its 01 word of universe bytes however few members it has, so
# it costs at most 64 KiB of word and 8 KiB of mask.
MAX_UNIVERSE = 1 << 16
MAX_INDICES = 2048
"""Most tower indices the CLI forges; indices times height is capped at its
square, and a diagram file's sets times universe on either side at the same
2^22.  The forge draws one bit per index and level, and the report lists
every member: `simulate-p` at 1024² takes 0.10-0.11 s and 19 MB, and at
2048² 0.24-0.25 s and 25 MB for a 49.5 MB report (3 runs each, wall and
peak RSS with interpreter start; 2-vCPU Xeon, Python 3.11).  The loader
writes a universe-byte word per set: without the cap, a 1.2 MB file of
20,000 one-member sets at universe 65536 takes 10 s to load, and at the cap
64 sets at 65536 take 0.7 s (in-process, same host)."""


def bits(text: str | bytes | bytearray) -> int:
    """The set of a 01 word, as text or ASCII bytes: bit k is character k."""
    return int(text[::-1] or "0", 2)


def word(mask: int, length: int) -> str:
    """The 01 word of the given length whose character k is bit k of mask."""
    # the sentinel bit at `length` keeps leading zeros; [:0:-1] drops it
    return format(mask | 1 << length, "b")[:0:-1]


# translation table: the byte "1" to 1, every other byte to 0
_ONES = bytes(c == ord("1") for c in range(256))
# a set holding more than one member in SPARSE bits of its width is dense
SPARSE = 8


def select(items: Iterable, mask: int) -> Iterator:
    """items[k] for each member k of a set, ascending, in C: one flag per bit of the set's width."""
    return compress(items, format(mask, "b")[::-1].encode().translate(_ONES))


def members(mask: int) -> list[int]:
    """The members of a set, ascending.  A dense set flags every bit of
    its width; a sparse one (see SPARSE) costs what it holds, one search of
    its binary text per member, from the lowest (the end of the text) up."""
    if mask.bit_count() * SPARSE > mask.bit_length():
        return list(select(count(), mask))
    text = format(mask, "b")
    top = len(text) - 1
    out = []
    k = text.rfind("1")
    while k >= 0:
        out.append(top - k)
        k = text.rfind("1", 0, k)
    return out


# a set with more than RUNS members per run boundary is written run by run:
# a run costs about what 16 member texts cost (2-vCPU Xeon, Python 3.11)
RUNS = 8


class MemberTable:
    """The texts of members 0, 1, ... for one write, and the separator that
    joins them.  The first set written run by run builds those texts joined
    by the separator, with the offset where each starts (one 8-byte int per
    text, in an array)."""

    __slots__ = ("texts", "sep", "joined", "starts")

    def __init__(self, texts: Sequence[str], sep: str):
        self.texts, self.sep, self.joined, self.starts = texts, sep, None, None


def member_text(mask: int, table: MemberTable) -> str:
    """table.texts[k] for each member k of a set, ascending, joined by
    table.sep: no member list is built.  A set of few runs of consecutive
    members for its size (see RUNS) is one slice of the joined texts per
    run: a single run is told by adding its lowest bit, and any other set's
    runs are found by `str.find` in its 01 word.  Any other set joins one
    text per member, through `select`."""
    if mask.bit_count() <= RUNS * (mask ^ mask << 1).bit_count():
        return table.sep.join(select(table.texts, mask))
    if table.joined is None:
        table.joined = table.sep.join(table.texts)
        table.starts = array("q", accumulate(map(len(table.sep).__add__, map(len, table.texts)), initial=0))
    joined, starts, gap = table.joined, table.starts, len(table.sep)
    low = mask & -mask
    if not mask & mask + low:  # the carry clears one run and leaves no member
        return joined[starts[low.bit_length() - 1]:starts[mask.bit_length()] - gap]
    text = word(mask, mask.bit_length() + 1)  # ends in a 0, which ends the last run
    runs = []
    lo = text.find("1")
    while lo >= 0:
        hi = text.find("0", lo)
        runs.append(joined[starts[lo]:starts[hi] - gap])
        lo = text.find("1", hi)
    return table.sep.join(runs)


def table_csv(row_index: Iterable[Ordinal], col_index: Iterable[Ordinal], rows: Iterable[Iterable[str]]) -> str:
    """CSV with an empty corner and the column keys, then per row its key and cells."""
    lines = [",".join(["", *[o.key() for o in col_index]])]
    lines += [",".join([o.key(), *cells]) for o, cells in zip(row_index, rows)]
    return "\n".join(lines) + "\n"


def excess(a: int, b: int) -> int:
    """Least k with a - b contained in [0, k); 0 exactly when a is a subset of b."""
    return (a & ~b).bit_length()


def almost_subset(a: int, b: int, n: int) -> bool:
    """True when a with its first n naturals removed is contained in b."""
    return not (a & ~b) >> n


class GapFragment(Value):
    """A finite pre-gap diagram: index sets I and J with subsets of [0, M).

    The a-map is keyed by I, the b-map by J.  Purely a diagram; which gap
    predicates it satisfies is measured by the checkers below.
    """

    __slots__ = ("universe", "a", "b")

    def __init__(self, universe: int, a: Mapping[Ordinal, int], b: Mapping[Ordinal, int]):
        super().__init__(universe, a, b)
        if universe < 0:
            raise ValueError("universe bound must be a natural")
        for name, side in (("a", a), ("b", b)):
            for o, mask in side.items():
                if mask < 0 or mask >> universe:
                    raise ValueError(f"{name}[{o}] leaves the universe [0, {universe})")

    @property
    def I(self) -> tuple[Ordinal, ...]:
        return tuple(sorted(self.a))

    @property
    def J(self) -> tuple[Ordinal, ...]:
        return tuple(sorted(self.b))

    def restrict(self, iset: Iterable[Ordinal], jset: Iterable[Ordinal] | None = None) -> GapFragment:
        """The sub-diagram on I & iset and J & jset (jset defaults to iset)."""
        ikeep = frozenset(iset)
        jkeep = ikeep if jset is None else frozenset(jset)
        return GapFragment(
            self.universe,
            {o: s for o, s in self.a.items() if o in ikeep},
            {o: s for o, s in self.b.items() if o in jkeep},
        )

    def to_json(self) -> dict:
        """The JSON form, each set its member list (`cli._write_json` writes its text from the masks)."""
        I, J = self.I, self.J
        return {
            "universe": self.universe,
            "I": [o.to_json() for o in I],
            "J": [o.to_json() for o in J],
            "a": {o.key(): members(self.a[o]) for o in I},
            "b": {o.key(): members(self.b[o]) for o in J},
        }

    @classmethod
    def from_json(cls, data) -> GapFragment:
        if not isinstance(data, dict) or not {"universe", "I", "J", "a", "b"} <= set(data):
            raise ValueError(f"bad fragment encoding: {type(data).__name__}")
        universe = data["universe"]
        if not isinstance(universe, int) or isinstance(universe, bool) or universe > MAX_UNIVERSE:
            raise ValueError(f"universe must be a natural of at most {MAX_UNIVERSE}, got {universe!r}")
        if not isinstance(data["a"], dict) or not isinstance(data["b"], dict):
            raise ValueError("the a and b maps must be JSON objects")
        for name in "ab":
            # each set costs a word of universe bytes: refused before any member is read
            if len(data[name]) * universe > MAX_INDICES**2:
                raise ValueError(
                    f"{len(data[name])} {name}-sets by universe {universe} exceed the load limit {MAX_INDICES}^2"
                )

        def mask(key: str, listed) -> int:
            text = bytearray(b"0") * universe
            for x in listed:
                # checked before it is set: a negative member would index from the end
                if type(x) is not int or not 0 <= x < universe:
                    raise ValueError(f"member {x!r} at {key} is no natural below {universe}")
                text[x] = 49  # "1"
            return bits(text)

        iset = ordinal_set(data["I"], "I")
        jset = ordinal_set(data["J"], "J")
        # a listed index's key is its canonical key; any other key is parsed, and refused if not canonical
        known = {o.key(): o for o in iset | jset}
        a = {(known[k] if k in known else Ordinal.from_key(k)): mask(k, v) for k, v in data["a"].items()}
        b = {(known[k] if k in known else Ordinal.from_key(k)): mask(k, v) for k, v in data["b"].items()}
        if a.keys() != iset or b.keys() != jset:
            raise ValueError("index lists do not match the tower maps")
        return cls(universe, a, b)


def special_gap_check(g: GapFragment, n0: int) -> bool:
    """Decide the uniform-threshold pairwise non-inclusion predicate.

    Requires I = J.  True when every a_x minus n0 sits inside b_x, while for
    every x < y the joint set (a_x | a_y) minus n0 escapes b_x & b_y.
    """
    if set(g.a) != set(g.b):
        raise IndexMismatch("the predicate needs one shared index set")
    idx = sorted(g.a)
    if any(not almost_subset(g.a[o], g.b[o], n0) for o in idx):
        return False
    for pos, x in enumerate(idx):
        for y in idx[pos + 1:]:
            if almost_subset(g.a[x] | g.a[y], g.b[x] & g.b[y], n0):
                return False
    return True


def uniform_interpolation(g: GapFragment, n0: int) -> int | None:
    """A set x with a_i - n0 within x - n0 within b_j for all i, j, or None.

    One exists exactly when every excess(a_i, b_j) is at most n0; the
    canonical witness returned is the union of the truncated a-sets.  The
    greatest excess(a_i, b_j) is that of the union of the a-sets against
    the meet of the b-sets, so one pass over each side decides it.
    """
    union, meet = 0, -1
    for a in g.a.values():
        union |= a
    for b in g.b.values():
        meet &= b
    # without a pair (i, j) there is no excess to bound, even by a negative n0
    if g.a and g.b and excess(union, meet) > n0:
        return None
    return union >> n0 << n0


def c_hausdorff_check(
    g: GapFragment, ladder: Ladder, part: SPartition
) -> tuple[list[tuple[Ordinal, Ordinal, int, int]], list[tuple[Ordinal, Ordinal]]]:
    """Evaluate the ladder-threshold gap clause on every queried pair.

    For each designated limit delta in S & D and each j in J at or above
    delta: with n_star the first rung of c_delta clearing max(I & delta),
    find the least k such that for all n in [k, n_star) every i in I lying
    in [c_delta(n), delta) has excess(a_i, b_j) > n.  Returns two lists in
    ascending (delta, j) order: `rows`, one (delta, j, k, n_star) per pair
    with a witness, 0 <= k <= n_star, and `failures`, one (delta, j) per
    pair where only the vacuous k = n_star > 0 survives.

    With t_i the number of rungs at or below i, i lies in [c_delta(n),
    delta) exactly when n < t_i, so the clause fails at n through i exactly
    when excess(a_i, b_j) <= n < t_i: k is the greatest t_i >= 1 with
    excess(a_i, b_j) < t_i, or 0.  Per delta every t_i comes from one
    `Ladder.count_runs` over the successors of I & delta, whose runs ascend
    in t, so per j a scan of the runs in reverse stops at the first hit.
    """
    I, J = g.I, g.J
    rows: list[tuple[Ordinal, Ordinal, int, int]] = []
    failures: list[tuple[Ordinal, Ordinal]] = []
    for delta in sorted(part.S & part.D):
        js = [j for j in J if j >= delta]
        if not js:
            continue
        below = [i for i in I if i < delta]
        if not below:
            rows += [(delta, j, 0, 0) for j in js]
            continue
        n_star = ladder.first_index_above(delta, below[-1])
        # succ(i) < delta as delta is a limit, and the table has just been
        # seen to hold rung n_star, above every count: no run ends early
        runs, _ = ladder.count_runs(delta, [i.succ() for i in below], len(below))
        rungs = [(t, g.a[i]) for lo, hi, t in reversed(runs) if t for i in below[lo:hi]]
        for j in js:
            outside = ~g.b[j]
            k = next((t for t, a in rungs if not (a & outside) >> (t - 1)), 0)
            if 0 < k == n_star:
                failures.append((delta, j))
            else:
                rows.append((delta, j, k, n_star))
    return rows, failures


class Witnesses(Value):
    """`c_hausdorff_check`'s rows as a report value, one JSON object per row
    under KEYS: its two ordinals as [q, r] pairs, then its ints."""

    __slots__ = ("rows",)
    KEYS = ("delta", "j", "k", "n_star")


class Failures(Value):
    """`c_hausdorff_check`'s failures as a report value, written as
    `Witnesses` are: one JSON object per (delta, j) pair under KEYS."""

    __slots__ = ("rows",)
    KEYS = ("delta", "j")


def excess_matrix_csv(g: GapFragment) -> str:
    """CSV of the excess matrix X(a_i, b_j), ordinal row and column headers."""
    I, J = g.I, g.J
    outside = [~g.b[j] for j in J]  # excess(a, b) is (a & ~b).bit_length()
    texts = list(map(str, range(g.universe + 1)))  # an excess may equal the universe
    return table_csv(I, J, ([texts[(a & o).bit_length()] for o in outside] for a in map(g.a.__getitem__, I)))
