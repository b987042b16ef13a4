"""Reference extension order for bit-word conditions, written from the
definition in the gapforge docs and sharing no code with the package.

Used to check compat outputs: a witness must extend both inputs, and a join
must extend both of its arguments.
"""

from __future__ import annotations


def index_below(i, j) -> bool:
    """Strict two-sided order on (ordinal, side) pairs, ordinals as (q, r).

    Side 0 ascends and sits entirely below side 1, which descends:
    (a,0) < (b,0) < (b,1) < (a,1) whenever a < b.
    """
    (a, s), (b, t) = i, j
    if s != t:
        return s == 0
    if a == b:
        return False
    return (a < b) if s == 0 else (b < a)


def _key(o):
    return (o.q, o.r)


def ref_p_leq(p, q) -> bool:
    """True when condition q extends condition p.

    q extends p when it is at least as tall, its domain covers p's, every
    p-word is a prefix of the matching q-word, and for indices i below j in
    dom(p) every bit q sets at i at or above p's height is also set at j.
    """
    if p.height > q.height:
        return False
    words = {}
    for o, pair in p.entries.items():
        if o not in q.entries:
            return False
        for side in (0, 1):
            pw, qw = pair[side], q.entries[o][side]
            if qw[: len(pw)] != pw:
                return False
            words[(_key(o), side)] = qw
    grants = {
        i: [k for k in range(p.height, q.height) if qw[k] == "1"] for i, qw in words.items()
    }
    for i, granted in grants.items():
        for j, qw in words.items():
            if index_below(i, j) and any(qw[k] != "1" for k in granted):
                return False
    return True


def oracle_free_bits(p, q) -> int:
    """Free bits of the oracle's search, counted from the definition: every
    word shorter than the common height leaves the missing bits free."""
    height = max(p.height, q.height)
    longest = {}
    for cond in (p, q):
        for o, pair in cond.entries.items():
            for s in (0, 1):
                longest[(o, s)] = max(longest.get((o, s), 0), len(pair[s]))
    return sum(height - n for n in longest.values())
