"""Reference implementations of the bit-word order, extension, join and
compatibility oracle.

These are the pairwise, set-based versions the package's prefix-union
sweeps replaced.  They compare every pair of domain indices in the
two-sided order and work on frozensets of bit positions or on the words
themselves, so they share no logic with the bitmask code; the differential
tests require both to agree exactly.
"""

from __future__ import annotations

import itertools

from gapforge import InvalidBit, PCondition, SearchTooLarge, UnknownIndex, p_restrict
from helpers import word_from_bits


def bits(word: str) -> frozenset[int]:
    """The positions of a word carrying '1'."""
    return frozenset(k for k, ch in enumerate(word) if ch == "1")


def _ilt(i, j) -> bool:
    """Strict two-sided order on (ordinal, side) pairs."""
    a, s = i
    b, t = j
    if s == 0:
        return True if t == 1 else a < b
    return b < a if t == 1 else False


def ref_p_leq(p: PCondition, q: PCondition) -> bool:
    """q extends p: for every pair of p-domain indices i below j, the bits q
    grants at i beyond p all appear at j."""
    if p.height > q.height:
        return False
    pe, qe = p.entries, q.entries  # each read builds every word
    for o, (w0, w1) in pe.items():
        if o not in qe:
            return False
        q0, q1 = qe[o]
        if not q0.startswith(w0) or not q1.startswith(w1):
            return False
    idx = [(o, s) for o in pe for s in (0, 1)]
    qset = {i: bits(qe[i[0]][i[1]]) for i in idx}
    grow = {i: qset[i] - bits(pe[i[0]][i[1]]) for i in idx}
    for i in idx:
        if not grow[i]:
            continue
        for j in idx:
            if _ilt(i, j) and not grow[i] <= qset[j]:
                return False
    return True


def ref_p_extend(p: PCondition, target_height: int, new_ordinals=(), forced_bits=()) -> PCondition:
    """Zero-fill new columns, then set each forced bit at its index and at
    every domain index above it."""
    if target_height < p.height:
        raise ValueError("target height may not shrink the condition")
    dom = set(p.entries) | set(new_ordinals)
    forced = list(forced_bits)
    for (o, side), k in forced:
        if side not in (0, 1):
            raise ValueError(f"side must be 0 or 1, got {side}")
        if not p.height <= k < target_height:
            raise InvalidBit(f"forced bit {k} must lie in [{p.height}, {target_height})")
        if o not in dom:
            raise UnknownIndex(f"forced index ({o}, {side}) is outside the extension domain")
    grid = {
        (o, s): set(bits(p.entries[o][s])) if o in p.entries else set()
        for o in dom
        for s in (0, 1)
    }
    for src, k in forced:
        grid[src].add(k)
        for tgt in grid:
            if _ilt(src, tgt):
                grid[tgt].add(k)
    return PCondition(
        target_height,
        {
            o: (word_from_bits(grid[(o, 0)], target_height), word_from_bits(grid[(o, 1)], target_height))
            for o in sorted(dom)
        },
    )


def ref_p_join(p: PCondition, q: PCondition) -> PCondition | None:
    """Canonical join with q dominating on A = dom(q): each word off A gets
    the bits q granted, at or above p's height, at every A-index below it.
    None when the join's hypothesis fails."""
    a_dom = set(q.entries)
    if q.height < p.height or not ref_p_leq(p_restrict(p, a_dom), q):
        return None
    m = p.height
    shared = [(o, s) for o in p.entries if o in a_dom for s in (0, 1)]
    payload = {i: frozenset(k for k in bits(q.entries[i[0]][i[1]]) if k >= m) for i in shared}
    entries = dict(q.entries)
    for o in sorted(p.entries.keys() - a_dom):
        words = []
        for s in (0, 1):
            got = set(bits(p.entries[o][s]))
            for k_idx, extra in payload.items():
                if _ilt(k_idx, (o, s)):
                    got |= extra
            words.append(word_from_bits(got, q.height))
        entries[o] = (words[0], words[1])
    return PCondition(q.height, entries)


def ref_p_join_from_core(p1: PCondition, p2: PCondition) -> PCondition | None:
    """The join of p2 under p1 when p2 lies below p1 on the shared core and
    p1 is at least as tall; None otherwise."""
    core = p1.entries.keys() & p2.entries.keys()
    if p1.height < p2.height or not ref_p_leq(p_restrict(p2, core), p_restrict(p1, core)):
        return None
    return ref_p_join(p2, p1)


def _oracle_stems(p: PCondition, q: PCondition) -> list[str] | None:
    """Per (ordinal, side), ordinals ascending and side 0 first: the longer
    of the inputs' words there, which every common extension continues.
    None when two words there are not one a prefix of the other."""
    pe, qe = p.entries, q.entries
    stems = []
    for o in sorted(set(pe) | set(qe)):
        for s in (0, 1):
            known = sorted((c[o][s] for c in (pe, qe) if o in c), key=len)
            if not known[-1].startswith(known[0]):
                return None
            stems.append(known[-1])
    return stems


def ref_oracle_free_bits(p: PCondition, q: PCondition) -> int | None:
    """The characters a common extension of height max(heights) adds to the
    stems; None when the stems conflict."""
    stems = _oracle_stems(p, q)
    height = max(p.height, q.height)
    return None if stems is None else sum(height - len(w) for w in stems)


def ref_p_compatible_oracle(p: PCondition, q: PCondition, max_free_bits: int = 24) -> PCondition | None:
    """The least common extension of p and q on dom(p) | dom(q) at height
    max(heights), ordering conditions by their words, ordinals ascending and
    side 0 first; None when there is none.  Every candidate continues the
    stems, so conflicting stems give None before any count, and more than
    `max_free_bits` added characters raise SearchTooLarge."""
    stems = _oracle_stems(p, q)
    if stems is None:
        return None
    height = max(p.height, q.height)
    n_free = sum(height - len(w) for w in stems)
    if n_free > max_free_bits:
        raise SearchTooLarge(f"{n_free} free bits exceed the {max_free_bits}-bit cap")
    dom = sorted(set(p.entries) | set(q.entries))
    tails = [["".join(t) for t in itertools.product("01", repeat=height - len(w))] for w in stems]
    witnesses = []
    for choice in itertools.product(*tails):
        words = [w + t for w, t in zip(stems, choice)]
        try:
            cand = PCondition(height, {o: (words[2 * x], words[2 * x + 1]) for x, o in enumerate(dom)})
        except ValueError:
            continue  # a low word escapes its high word
        if ref_p_leq(p, cand) and ref_p_leq(q, cand):
            witnesses.append(cand)
    return min(witnesses, key=lambda c: [c.entries[o] for o in dom], default=None)
