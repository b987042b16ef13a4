"""Excess numbers, finite pre-gap diagrams, and the decidable gap predicates.

A set of naturals inside a bounded universe [0, M) is an int bitmask whose
bit k is member k, and its text a 01 word whose character k is bit k: every
module converts through `bits`, `word`, `members` and `member_text` alone,
except that `GapFragment.from_json` reads a member list in its own loop,
which checks each member before it sets a bit.  Between
finite sets almost-inclusion is vacuous, so a diagram carries no tower
laws; everything of interest is measured through the excess number.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Mapping, Sequence

from .errors import IndexMismatch
from .ordinals import Ladder, Ordinal, SPartition

# Largest universe a diagram file may declare.  A tower set costs universe/8
# bytes however few members it has, so a loaded set stays within 8 KiB.
MAX_UNIVERSE = 1 << 16


def bits(text: str | bytes) -> int:
    """The set of a 01 word, as text or ASCII bytes: bit k is character k."""
    return int(text[::-1] or "0", 2)


def word(mask: int, length: int) -> str:
    """The 01 word of the given length whose character k is bit k of mask."""
    # the sentinel bit at `length` keeps leading zeros; [:0:-1] drops it
    return format(mask | 1 << length, "b")[:0:-1]


# translation table: the byte "1" to 1, every other byte to 0
_ONES = bytes(c == ord("1") for c in range(256))


def members(mask: int) -> list[int]:
    """The members of a set, ascending."""
    return list(compress(count(), format(mask, "b")[::-1].encode().translate(_ONES)))


def member_text(mask: int, texts: Sequence[str], sep: str) -> str:
    """texts[k] for each member k of a set, ascending, joined by sep: no member list is built."""
    return sep.join(compress(texts, format(mask, "b")[::-1].encode().translate(_ONES)))


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


@dataclass(frozen=True)
class GapFragment:
    """A finite pre-gap diagram: index sets I and J with subsets of [0, M).

    The a-map is keyed by I, the b-map by J.  Purely a diagram; which gap
    predicates it satisfies is measured by the checkers below.
    """

    universe: int
    a: Mapping[Ordinal, int]
    b: Mapping[Ordinal, int]

    def __post_init__(self):
        if self.universe < 0:
            raise ValueError("universe bound must be a natural")
        for name, side in (("a", self.a), ("b", self.b)):
            for o, mask in side.items():
                if mask < 0 or mask >> self.universe:
                    raise ValueError(f"{name}[{o}] leaves the universe [0, {self.universe})")

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

        def mask(key: str, listed) -> int:
            out = 0
            for x in listed:
                # checked before shifting, so a huge member allocates nothing
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < universe:
                    raise ValueError(f"member {x!r} at {key} is no natural below {universe}")
                out |= 1 << x
            return out

        if not isinstance(data["a"], dict) or not isinstance(data["b"], dict):
            raise ValueError("the a and b maps must be JSON objects")
        iset = [Ordinal.from_json(o) for o in data["I"]]
        jset = [Ordinal.from_json(o) for o in data["J"]]
        a = {Ordinal.from_key(k): mask(k, v) for k, v in data["a"].items()}
        b = {Ordinal.from_key(k): mask(k, v) for k, v in data["b"].items()}
        if set(a) != set(iset) or set(b) != set(jset):
            raise ValueError("index lists do not match the tower maps")
        if len(iset) != len(a) or len(jset) != len(b):
            raise ValueError("an index list names an index twice")
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


@dataclass(frozen=True)
class Witnesses:
    """`c_hausdorff_check`'s rows as a report value, one JSON object per row."""

    rows: list[tuple[Ordinal, Ordinal, int, int]]


def excess_matrix_csv(g: GapFragment) -> str:
    """CSV of the excess matrix X(a_i, b_j), ordinal row and column headers."""
    I, J = g.I, g.J
    outside = [~g.b[j] for j in J]  # excess(a, b) is (a & ~b).bit_length()
    return table_csv(I, J, ([str((a & o).bit_length()) for o in outside] for a in map(g.a.__getitem__, I)))
