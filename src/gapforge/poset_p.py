"""The gap-introducing poset of finite bit-word conditions.

A condition assigns to each ordinal in its finite domain a pair of equal
length bit words (the growing lower set and its upper companion), all words
sharing one length, the condition's height.  Character k of a word is the
membership bit of k, so extending a word as a function means appending
characters.  The extension order additionally demands that every bit newly
granted at an index reappear at every index above it in the two-sided order,
which is what forges the tower structure out of raw bits.  One sweep up that
order, `_carry`, propagates grants for both `p_extend` and the canonical join.

A condition stores each word as the integer bitmask whose bit k is character
k, and every kernel here works on those masks; the `01` strings exist only
where a reader asks for them (`entries`, `word`, `to_json`, by `gaps.word`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    AgreementFailure,
    HeightMismatch,
    HypothesisFailure,
    InvalidBit,
    InvariantViolation,
    SearchTooLarge,
)
from .gaps import MAX_UNIVERSE, bits, word
from .ordinals import Ordinal, two_sided


@dataclass(frozen=True, init=False)
class PCondition:
    """height plus a finite map ordinal -> (low mask, high mask).

    Mask bit k is character k of the word it stands for.  Invariants
    enforced on construction: every mask lies in [0, 2^height), and the low
    mask is contained in the high mask.  Both sides of an ordinal are always
    present together because the map is keyed by the ordinal itself.
    Instances are frozen and hashable, and the map is read-only.
    """

    height: int
    masks: Mapping[Ordinal, tuple[int, int]]

    def __init__(self, height: int, entries: Mapping[Ordinal, tuple[str, str]]):
        """Build from words: each is checked for length and alphabet, then
        converted to its mask once."""
        masks = {}
        for o, (w0, w1) in entries.items():
            if len(w0) != height or len(w1) != height:
                raise ValueError(f"words at {o} must have length {height}")
            if w0.strip("01") or w1.strip("01"):
                raise ValueError(f"words at {o} must be over the alphabet 01")
            masks[o] = (bits(w0), bits(w1))
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "masks", MappingProxyType(masks))
        self.__post_init__()

    @classmethod
    def from_masks(cls, height: int, masks: Mapping[Ordinal, tuple[int, int]]) -> PCondition:
        """Build from (low, high) masks; the map is copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "masks", MappingProxyType(dict(masks)))
        self.__post_init__()
        return self

    def __post_init__(self):
        if self.height < 0:
            raise ValueError("height must be a natural")
        for o, (lo, hi) in self.masks.items():
            if (lo | hi) >> self.height:  # a negative mask shifts to -1
                raise ValueError(f"masks at {o} must lie in [0, 2^{self.height})")
            if lo & ~hi:
                raise ValueError(f"low mask at {o} must be bitwise contained in the high mask")

    def __hash__(self):
        return hash((self.height, frozenset(self.masks.items())))

    def __reduce__(self):
        # a read-only map does not pickle; rebuild from a plain copy of it
        return PCondition.from_masks, (self.height, dict(self.masks))

    @classmethod
    def empty(cls) -> PCondition:
        return cls.from_masks(0, {})

    @property
    def entries(self) -> Mapping[Ordinal, tuple[str, str]]:
        """The words, built from the masks on every read."""
        h = self.height
        return MappingProxyType({o: (word(lo, h), word(hi, h)) for o, (lo, hi) in self.masks.items()})

    def word(self, o: Ordinal, side: int) -> str:
        return word(self.masks[o][side], self.height)

    def to_json(self) -> dict:
        return {
            "height": self.height,
            "entries": [
                {"ord": o.to_json(), "a_bits": self.word(o, 0), "b_bits": self.word(o, 1)}
                for o in sorted(self.masks)
            ],
        }

    @classmethod
    def from_json(cls, data) -> PCondition:
        if not isinstance(data, dict) or not {"height", "entries"} <= set(data):
            raise ValueError("bad condition encoding")
        height = data["height"]
        if not isinstance(height, int) or isinstance(height, bool) or height > MAX_UNIVERSE:
            raise ValueError(f"height must be an integer of at most {MAX_UNIVERSE}, got {height!r}")
        entries: dict[Ordinal, tuple[str, str]] = {}
        for row in data["entries"]:
            o = Ordinal.from_json(row["ord"])
            if o in entries:
                raise ValueError(f"duplicate entry at {o}")
            if not isinstance(row["a_bits"], str) or not isinstance(row["b_bits"], str):
                raise ValueError(f"bit words at {o} must be strings")
            entries[o] = (row["a_bits"], row["b_bits"])
        return cls(height, entries)


def p_leq(p: PCondition, q: PCondition) -> bool:
    """Extension order: q extends p.

    Requires dom(p) within dom(q), every p-word a prefix of the matching
    q-word, height monotone, and the bits q grants at each p-domain index
    beyond p's height to reappear at every p-domain index above it in the
    two-sided order.  That order is total, so one prefix-union sweep up it
    checks the prefixes and the last clause, stopping at the first failure:
    at each index, the union of the grants below must lie inside q's mask.
    Only q restricted to dom(p) is ever consulted.
    """
    if p.height > q.height or not p.masks.keys() <= q.masks.keys():
        return False
    m = p.height
    below = (1 << m) - 1
    pm, qm = p.masks, q.masks
    seen = 0
    for o, s in two_sided(pm):
        q_mask = qm[o][s]
        if (q_mask ^ pm[o][s]) & below or seen & ~q_mask:
            return False
        seen |= q_mask >> m << m
    return True


def _carry(masks: Mapping[Ordinal, tuple[int, int]], grants: Mapping[Ordinal, tuple[int, int]]) -> dict:
    """The propagation clause as one sweep: over the keys of both maps, a
    missing entry read as all-zero, each mask joined by every grant at or
    below its point in the two-sided order, as {o: (low, high)} in key
    order."""
    zeros = (0, 0)
    order = sorted(masks.keys() | grants.keys())
    seen = 0
    out = {}
    for o, s in two_sided(order):
        seen |= grants.get(o, zeros)[s]
        out[o, s] = masks.get(o, zeros)[s] | seen
    return {o: (out[o, 0], out[o, 1]) for o in order}


def p_restrict(p: PCondition, keep: Iterable[Ordinal]) -> PCondition:
    """Drop the entries outside `keep`; the height is preserved."""
    keep = set(keep)
    return PCondition.from_masks(p.height, {o: pair for o, pair in p.masks.items() if o in keep})


def p_union_agreeing(p: PCondition, q: PCondition) -> PCondition:
    """Map union of two equal-height conditions agreeing on the overlap.

    This is the minimum common extension: neither side gains a single bit
    on its own domain.
    """
    if p.height != q.height:
        raise HeightMismatch(f"heights {p.height} and {q.height} differ")
    for o in p.masks.keys() & q.masks.keys():
        if p.masks[o] != q.masks[o]:
            raise AgreementFailure(f"conditions disagree at {o}")
    return PCondition.from_masks(p.height, {**p.masks, **q.masks})


def p_join(p: PCondition, q: PCondition) -> PCondition:
    """Canonical join r of p with q, where q dominates on A = dom(q).

    Needs p restricted to A below q, and q at least as tall.  On A the join
    copies q.  Off A each word keeps p's bits and additionally receives, for
    every A-index k of p's domain below it, all bits q granted at k at or
    above p's height, carried up the two-sided order by `_carry`.  That
    bulk transfer is exactly what makes r extend p: a bit new at i came from
    some k below i, and k sits below every j above i as well.  Guarantees
    r >= p, r >= q and r restricted to A equal to q.
    """
    a_dom = q.masks.keys()
    if q.height < p.height or not p_leq(p_restrict(p, a_dom), q):
        raise HypothesisFailure("join needs p restricted to dom(q) below q, and q at least as tall")
    m = p.height
    cuts = {o: (q.masks[o][0] >> m << m, q.masks[o][1] >> m << m) for o in p.masks.keys() & a_dom}
    r = PCondition.from_masks(q.height, {**_carry(p.masks, cuts), **q.masks})
    if not (p_leq(p, r) and p_leq(q, r) and p_restrict(r, a_dom) == q):
        raise InvariantViolation("join-upper-bound", f"join of heights {p.height} and {q.height} is no upper bound")
    return r


def p_join_from_core(p1: PCondition, p2: PCondition) -> PCondition:
    """Join two conditions whose shared core is comparable, p1 on top.

    With C the common domain, needs p2 restricted to C below p1 restricted
    to C and p1 at least as tall; then the join with A = dom(p1) extends
    both.  That hypothesis is `p_join(p2, p1)`'s own, since the order reads
    only the upper condition's height and its entries on the lower
    condition's domain, so this is that join.
    """
    return p_join(p2, p1)


def p_compatible_oracle(p: PCondition, q: PCondition, max_free_bits: int = 24) -> PCondition | None:
    """Exact bounded compatibility decision.

    Searches all conditions on dom(p) | dom(q) of height max(heights) whose
    words refine both inputs; any common extension restricted to that domain
    and truncated to that height is still one, so the search space is
    complete.  Returns the lexicographically least witness found, or None.
    Raises SearchTooLarge past the free-bit cap.
    """
    height = max(p.height, q.height)
    dom = sorted(p.masks.keys() | q.masks.keys())
    fixed: list[int] = []  # per (o, side), dom-major: the longer word, as a mask
    spans: list[tuple[int, int]] = []  # per (o, side): its slice of the free slots
    n_free = 0
    for o in dom:
        for s in (0, 1):
            known = [(c.height, c.masks[o][s]) for c in (p, q) if o in c.masks]
            (short, lo), (length, hi) = min(known), max(known)
            if (lo ^ hi) & ((1 << short) - 1):
                return None  # the words themselves admit no common refinement
            fixed.append(hi)
            spans.append((n_free, n_free + height - length))
            n_free += height - length
    # counted before any slot is built: the slots of one word take about height^2 / 16 bytes
    if n_free > max_free_bits:
        raise SearchTooLarge(f"{n_free} free bits exceed the {max_free_bits}-bit cap")
    # per free slot: (0, its bit), ascending within a word
    free = [(0, 1 << k) for a, b in spans for k in range(height - (b - a), height)]
    # the first slot varies slowest, so candidates come in lexicographic order
    for choice in itertools.product(*free):
        # the free bits of a word are distinct and above its fixed ones: sum is union
        words = [base + sum(choice[a:b]) for base, (a, b) in zip(fixed, spans)]
        try:
            cand = PCondition.from_masks(height, {o: (words[2 * x], words[2 * x + 1]) for x, o in enumerate(dom)})
        except ValueError:
            continue
        if p_leq(p, cand) and p_leq(q, cand):
            return cand
    return None


def p_extend(
    p: PCondition,
    target_height: int,
    grants: Mapping[Ordinal, tuple[int, int]] = MappingProxyType({}),
) -> PCondition:
    """Minimal-style extension: zero-fill new columns, then grant bits.

    `grants` maps an ordinal to a (low, high) pair of masks, the shape of
    `PCondition.masks`.  Each key joins the domain, all-zero if it is new,
    and receives its masks, whose bits must lie in [height(p),
    target_height).  Every granted bit is propagated to every domain index
    above its own in the two-sided order, which keeps both the pairing
    containment and the extension clauses intact (bits are only ever added,
    so no conflict can arise).  One sweep up the order, `_carry`, does it.
    """
    if target_height < p.height:
        raise ValueError("target height may not shrink the condition")
    window = (1 << target_height) - (1 << p.height)
    for o, (lo, hi) in grants.items():
        if (lo | hi) & ~window:
            raise InvalidBit(f"bits granted at {o} must lie in [{p.height}, {target_height})")
    out = PCondition.from_masks(target_height, _carry(p.masks, grants))
    if not p_leq(p, out):
        raise InvariantViolation("extend-order", f"extension to height {target_height} does not extend p")
    return out


def delta_system_refine(family: Sequence[PCondition]) -> tuple[list[PCondition], frozenset[Ordinal]]:
    """Pick an agreeing sunflower subfamily of one height.

    Keeps the plurality height, then tries the most frequent pairwise domain
    intersections (plus the empty set) as candidate cores; for each, members
    matching one core restriction are collected greedily under the rule that
    petals never overlap.  Every pair of the result unions via
    p_union_agreeing, and any finite subset has the iterated union as a
    common upper bound.
    """
    family = list(family)
    if not family:
        return [], frozenset()
    by_height = Counter(p.height for p in family)
    height = min(by_height, key=lambda h: (-by_height[h], h))
    group = [p for p in family if p.height == height]
    if len(group) == 1:
        return group, frozenset()
    doms = [frozenset(p.masks) for p in group]
    inter = Counter()
    for x in range(len(group)):
        for y in range(x + 1, len(group)):
            inter[doms[x] & doms[y]] += 1
    candidates = sorted(inter, key=lambda c: (-inter[c], len(c), tuple(sorted(c))))[:32]
    if frozenset() not in candidates:
        candidates.append(frozenset())
    best: list[PCondition] = []
    best_core: frozenset[Ordinal] = frozenset()
    for core in candidates:
        groups: dict[tuple, list[tuple[PCondition, frozenset[Ordinal]]]] = {}
        for p, d in zip(group, doms):
            if core <= d:
                sig = tuple((o, p.masks[o]) for o in sorted(core))
                groups.setdefault(sig, []).append((p, d))
        for members in groups.values():
            chosen: list[PCondition] = []
            used: set[Ordinal] = set()
            for p, d in members:
                petals = d - core
                if petals & used:
                    continue
                used |= petals
                chosen.append(p)
            if len(chosen) > len(best):
                best, best_core = chosen, core
    return best, best_core
