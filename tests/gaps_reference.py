"""Reference versions of the excess number, the excess matrix, the gap
predicates (the ladder-threshold check among them) and the pcc meet/join
profiles, over frozensets, and the dict forms of the two report values
that `cli._write_json` writes straight to text.

These are the set-based versions the package's bitmask code replaced.  A
fragment's tower sets are read into frozensets one member test at a time
(`set_of`), and from there on everything is set algebra, so they share no
logic with the bitmask code; the differential tests require both to agree
exactly.

`witnesses_json` and `failures_json` are the lists of dicts the report's
witnesses and failures were built as before the writer learned `Witnesses`
and `Failures`, and `report_default`, passed as json.dumps's `default=`,
maps a `GapFragment` to its `to_json` and each of those values to its
list, so that a report object's json.dumps text is the text `cli` writes
for it.

`ref_fragment_from_json` is the diagram loader that `GapFragment.from_json`
replaced: it ORs one shifted bit per checked member into the mask, and
parses every map key with `Ordinal.from_key`.  It reads ordinals through
`ref_ordinal_from_json` and has no cap on sets times universe.  Both must
return equal fragments or raise the same `ValueError`.

`ref_coins` is the per-call coin loop that `gaps.coins` replaced: one
`rng.random()` per coin.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import compress, count
from typing import AbstractSet, Mapping

from gapforge import GapFragment, IndexMismatch, Ladder, Ordinal, PccInstance, SPartition
from gapforge.gaps import MAX_UNIVERSE, Failures, Witnesses
from ordinals_reference import ref_first_index_above, ref_ordinal_from_json, ref_value


def ref_coins(rng: random.Random, n: int, prob: float) -> str:
    """The 01 word of n draws, character k "1" exactly when the k-th `rng.random()` is below prob."""
    return "".join(["01"[rng.random() < prob] for _ in range(n)])


@lru_cache(maxsize=1 << 16)
def set_of(m: int, universe: int) -> frozenset[int]:
    """A tower set as the frozenset of its members, one member test each."""
    return frozenset(k for k in range(universe) if m >> k & 1)


def ref_fragment_from_json(data) -> GapFragment:
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
    idx = {}
    for name in "IJ":
        idx[name] = [ref_ordinal_from_json(o) for o in data[name]]
        # refused before any member is read
        if len(set(idx[name])) != len(idx[name]):
            raise ValueError(f"the {name} list names an ordinal twice")
    a = {Ordinal.from_key(k): mask(k, v) for k, v in data["a"].items()}
    b = {Ordinal.from_key(k): mask(k, v) for k, v in data["b"].items()}
    if set(a) != set(idx["I"]) or set(b) != set(idx["J"]):
        raise ValueError("index lists do not match the tower maps")
    return GapFragment(universe, a, b)


def compress_members(m: int) -> list[int]:
    """The members of a set, one flag per bit of its width: the listing
    `gaps.members` ran on every set before it took a sparse path, and the
    one its dense path still runs."""
    return list(compress(count(), format(m, "b")[::-1].encode().translate(_ONES)))


_ONES = bytes(c == ord("1") for c in range(256))


def ref_members(m: int) -> list[int]:
    """The members of a set, ascending, one character of its binary text at
    a time: the comprehension `gaps.members` replaced."""
    return [k for k, ch in enumerate(reversed(format(m, "b"))) if ch == "1"]


def as_sets(side: Mapping[Ordinal, int], universe: int) -> dict[Ordinal, frozenset[int]]:
    """Each tower set of a fragment side as a frozenset."""
    return {o: set_of(m, universe) for o, m in side.items()}


def ref_excess(a: AbstractSet[int], b: AbstractSet[int]) -> int:
    """Least k with a - b contained in [0, k); 0 exactly when a is a subset of b."""
    d = a - b
    return max(d) + 1 if d else 0


def ref_excess_matrix_csv(g: GapFragment) -> str:
    """The excess matrix, one `ref_excess` per cell over the frozensets:
    a header of the J keys after an empty corner, then per i its key and
    excess(a_i, b_j) for each j."""
    a, b = as_sets(g.a, g.universe), as_sets(g.b, g.universe)
    lines = [",".join(["", *(j.key() for j in sorted(b))])]
    lines += [",".join([i.key(), *(str(ref_excess(a[i], b[j])) for j in sorted(b))]) for i in sorted(a)]
    return "\n".join(lines) + "\n"


def witnesses_json(rows) -> list[dict]:
    """The report form of `c_hausdorff_check`'s rows, in their order."""
    return [{"delta": d.to_json(), "j": j.to_json(), "k": k, "n_star": n_star} for d, j, k, n_star in rows]


def failures_json(rows) -> list[dict]:
    """The report form of `c_hausdorff_check`'s failures, in their order."""
    return [{"delta": d.to_json(), "j": j.to_json()} for d, j in rows]


def report_default(obj):
    """json.dumps's `default=` for a report object: the dict forms of its
    three values that are no JSON."""
    if isinstance(obj, GapFragment):
        return obj.to_json()
    if isinstance(obj, Witnesses):
        return witnesses_json(obj.rows)
    if isinstance(obj, Failures):
        return failures_json(obj.rows)
    raise TypeError(f"{type(obj).__name__} is no report value")


def ref_almost_subset(a: AbstractSet[int], b: AbstractSet[int], n: int) -> bool:
    """True when a with its first n naturals removed is contained in b."""
    return all(x in b for x in a if x >= n)


def ref_special_gap_check(g: GapFragment, n0: int) -> bool:
    if set(g.a) != set(g.b):
        raise IndexMismatch("the predicate needs one shared index set")
    a, b = as_sets(g.a, g.universe), as_sets(g.b, g.universe)
    idx = sorted(a)
    if any(not ref_almost_subset(a[o], b[o], n0) for o in idx):
        return False
    for pos, x in enumerate(idx):
        for y in idx[pos + 1:]:
            joint = {v for v in (a[x] | a[y]) if v >= n0}
            if joint <= (b[x] & b[y]):
                return False
    return True


def ref_uniform_interpolation(g: GapFragment, n0: int) -> frozenset[int] | None:
    a, b = as_sets(g.a, g.universe), as_sets(g.b, g.universe)
    if any(ref_excess(a[i], b[j]) > n0 for i in a for j in b):
        return None
    out: set[int] = set()
    for i in a:
        out.update(x for x in a[i] if x >= n0)
    return frozenset(out)


def ref_c_hausdorff_check(
    g: GapFragment, ladder: Ladder, part: SPartition
) -> tuple[list[tuple[Ordinal, Ordinal, int, int]], list[tuple[Ordinal, Ordinal]]]:
    """The ladder clause scanned rung by rung: for each n below n_star, the
    tail of I in [c_delta(n), delta), and k = n + 1 whenever some i of the
    tail has excess(a_i, b_j) <= n.  A pair with k = n_star > 0 is a
    failure, every other pair a row (delta, j, k, n_star)."""
    a, b = as_sets(g.a, g.universe), as_sets(g.b, g.universe)
    rows, failures = [], []
    for delta in sorted(part.S & part.D):
        js = [j for j in sorted(b) if j >= delta]
        if not js:
            continue
        below = [i for i in sorted(a) if i < delta]
        if not below:
            rows += [(delta, j, 0, 0) for j in js]
            continue
        n_star = ref_first_index_above(ladder, delta, max(below))
        tails = [[i for i in below if i >= ref_value(ladder, delta, n)] for n in range(n_star)]
        for j in js:
            k = 0
            for n in range(n_star):
                if any(ref_excess(a[i], b[j]) <= n for i in tails[n]):
                    k = n + 1
            if n_star > 0 and k == n_star:
                failures.append((delta, j))
            else:
                rows.append((delta, j, k, n_star))
    return rows, failures


def ref_full_inclusion_union(g: GapFragment) -> frozenset[int] | None:
    a, b = as_sets(g.a, g.universe), as_sets(g.b, g.universe)
    x: set[int] = set()
    for i in a:
        x |= a[i]
    xf = frozenset(x)
    if all(xf <= b[j] for j in b):
        return xf
    return None


def ref_pcc_ab_profiles(
    inst: PccInstance,
) -> tuple[dict[Ordinal, frozenset[int]], dict[Ordinal, frozenset[int]]]:
    g = inst.ctx.g
    a, b = as_sets(g.a, g.universe), as_sets(g.b, g.universe)
    universe = frozenset(range(g.universe))
    meets: dict[Ordinal, frozenset[int]] = {}
    for delta, p in inst.fam1:
        acc = universe
        for i in p.w:
            if not i < inst.gamma:
                acc = acc & a[i]
        meets[delta] = acc
    joins: dict[Ordinal, frozenset[int]] = {}
    for delta, q in inst.fam2:
        acc: frozenset[int] = frozenset()
        for j in q.w:
            if not j < inst.gamma:
                acc = acc | b[j]
        joins[delta] = acc
    return meets, joins


def ref_first_witness(inst: PccInstance) -> tuple[Ordinal, Ordinal, int] | None:
    """The pair hunt of find_compatible_pair over the reference profiles,
    without its compatibility check."""
    meets, joins = ref_pcc_ab_profiles(inst)
    for d1, _ in inst.fam1:
        for d2, _ in inst.fam2:
            if not d1 < d2:
                continue
            witnesses = sorted(n for n in meets[d1] - joins[d2] if n >= inst.k)
            if witnesses:
                return d1, d2, witnesses[0]
    return None
