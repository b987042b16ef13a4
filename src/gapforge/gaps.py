"""Excess numbers, finite pre-gap diagrams, and the decidable gap predicates.

A set of naturals inside a bounded universe [0, M) is an int bitmask whose
bit k is member k, the convention of the bit words in poset_p.  Between
finite sets almost-inclusion is vacuous, so a diagram carries no tower
laws; everything of interest is measured through the excess number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import IndexMismatch
from .ordinals import Ladder, Ordinal, SPartition

# Largest universe a diagram file may declare.  A tower set costs universe/8
# bytes however few members it has, so a loaded set stays within 8 KiB.
MAX_UNIVERSE = 1 << 16


def members(mask: int) -> list[int]:
    """The members of a set, ascending."""
    return [k for k, ch in enumerate(reversed(format(mask, "b"))) if ch == "1"]


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


@dataclass(frozen=True)
class CHWitness:
    """Witness threshold for one (delta, j) query of the ladder predicate.

    n_star is the first rung index whose antecedent is empty; k <= n_star is
    the least threshold from which the excess clause holds up to n_star.
    """

    delta: Ordinal
    j: Ordinal
    k: int
    n_star: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n_star:
            raise ValueError("witness threshold must satisfy 0 <= k <= n_star")

    def to_json(self) -> dict:
        return {"delta": self.delta.to_json(), "j": self.j.to_json(), "k": self.k, "n_star": self.n_star}


def c_hausdorff_check(
    g: GapFragment, ladder: Ladder, part: SPartition
) -> dict[tuple[Ordinal, Ordinal], CHWitness | None]:
    """Evaluate the ladder-threshold gap clause on every queried pair.

    For each designated limit delta in S & D and each j in J at or above
    delta: with n_star the first rung of c_delta clearing max(I & delta),
    find the least k such that for all n in [k, n_star) every i in I lying
    in [c_delta(n), delta) has excess(a_i, b_j) > n.  A pair maps to its
    witness, or to None when only the vacuous k = n_star survives.

    With t_i the number of rungs at or below i, i lies in [c_delta(n),
    delta) exactly when n < t_i, so the clause fails at n through i exactly
    when excess(a_i, b_j) <= n < t_i: k is the greatest t_i >= 1 with
    excess(a_i, b_j) < t_i, or 0.  Per delta every t_i comes from one
    `Ladder.count_runs` over the successors of I & delta, whose runs ascend
    in t, so per j a scan of the runs in reverse stops at the first hit.
    """
    I, J = g.I, g.J
    out: dict[tuple[Ordinal, Ordinal], CHWitness | None] = {}
    for delta in sorted(part.S & part.D):
        js = [j for j in J if j >= delta]
        if not js:
            continue
        below = [i for i in I if i < delta]
        if not below:
            for j in js:
                out[(delta, j)] = CHWitness(delta, j, 0, 0)
            continue
        n_star = ladder.first_index_above(delta, below[-1])
        # succ(i) < delta as delta is a limit, and the table has just been
        # seen to hold rung n_star, above every count: no run ends early
        runs, _ = ladder.count_runs(delta, [i.succ() for i in below], len(below))
        rungs = [(t, g.a[i]) for lo, hi, t in reversed(runs) if t for i in below[lo:hi]]
        for j in js:
            outside = ~g.b[j]
            k = next((t for t, a in rungs if not (a & outside) >> (t - 1)), 0)
            if n_star > 0 and k == n_star:
                out[(delta, j)] = None
            else:
                out[(delta, j)] = CHWitness(delta, j, k, n_star)
    return out


def excess_matrix_csv(g: GapFragment) -> str:
    """CSV of the excess matrix X(a_i, b_j), ordinal row and column headers."""
    J = g.J
    lines = [",".join([""] + [j.key() for j in J])]
    for i in g.I:
        lines.append(",".join([i.key()] + [str(excess(g.a[i], g.b[j])) for j in J]))
    return "\n".join(lines) + "\n"
