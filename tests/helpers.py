"""Shared generators and enumerators for the test suite."""

from __future__ import annotations

import itertools
import random

from gapforge import (
    CompatMatrix,
    GapFragment,
    Ladder,
    Ordinal,
    PCondition,
    QCondition,
    QContext,
    SPartition,
    fin,
    p_extend,
)


def mask(members) -> int:
    """The tower-set bitmask of a collection of naturals: bit k = member k."""
    out = 0
    for k in members:
        out |= 1 << k
    return out


def word_from_bits(members, length: int) -> str:
    """The bit word of the given length whose character k is '1' exactly for
    the members k."""
    members = set(members)
    if members and (min(members) < 0 or max(members) >= length):
        raise ValueError(f"bits {sorted(members)} do not fit a word of length {length}")
    return "".join("1" if k in members else "0" for k in range(length))


def word_pairs(height: int) -> list[tuple[str, str]]:
    """All valid (low, high) word pairs of the given length."""
    out = []
    for hi in itertools.product("01", repeat=height):
        hi_word = "".join(hi)
        hi_bits = [k for k, ch in enumerate(hi_word) if ch == "1"]
        for take in itertools.chain.from_iterable(
            itertools.combinations(hi_bits, n) for n in range(len(hi_bits) + 1)
        ):
            out.append((word_from_bits(take, height), hi_word))
    return out


def enumerate_conditions(ordinals, heights) -> list[PCondition]:
    """Every condition with domain inside `ordinals` and height in `heights`."""
    ordinals = sorted(ordinals)
    out = []
    for height in heights:
        pairs = word_pairs(height)
        for size in range(len(ordinals) + 1):
            for dom in itertools.combinations(ordinals, size):
                for assignment in itertools.product(pairs, repeat=size):
                    out.append(PCondition(height, dict(zip(dom, assignment))))
    return out


def random_word_pair(rng: random.Random, height: int) -> tuple[str, str]:
    hi = [k for k in range(height) if rng.random() < 0.5]
    lo = [k for k in hi if rng.random() < 0.5]
    return word_from_bits(lo, height), word_from_bits(hi, height)


def random_pcondition(rng: random.Random, pool, height: int, max_dom: int = 4) -> PCondition:
    dom = rng.sample(sorted(pool), rng.randint(0, min(max_dom, len(pool))))
    return PCondition(height, {o: random_word_pair(rng, height) for o in dom})


def random_extension(rng: random.Random, p: PCondition, pool, extra_height: int = 2) -> PCondition:
    """A random proper-or-equal extension of p built through p_extend."""
    target = p.height + rng.randint(0, extra_height)
    entries = p.entries  # each read builds every word
    fresh = [o for o in pool if o not in entries]
    new = rng.sample(fresh, rng.randint(0, min(2, len(fresh))))
    dom = sorted(set(entries) | set(new))
    forced = []
    for _ in range(rng.randint(0, 3)):
        if target == p.height or not dom:
            break
        o = rng.choice(dom)
        forced.append(((o, rng.randint(0, 1)), rng.randint(p.height, target - 1)))
    return p_extend(p, target, new, forced)


def matrix_from_grid(row_index, col_index, grid) -> CompatMatrix:
    """The matrix whose cell (x, y) is grid[x][y], a grid of bools: bit y of
    row x is set exactly when grid[x][y] holds."""
    rows = tuple(mask(y for y, ok in enumerate(row) if ok) for row in grid)
    return CompatMatrix(tuple(row_index), tuple(col_index), rows)


def random_fragment(rng: random.Random, universe: int, pool, n_idx: int) -> GapFragment:
    idx = sorted(rng.sample(sorted(pool), n_idx))
    a = {o: mask(v for v in range(universe) if rng.random() < 0.45) for o in idx}
    b = {o: mask(v for v in range(universe) if rng.random() < 0.55) for o in idx}
    return GapFragment(universe, a, b)


def small_context(rng: random.Random, universe: int = 6) -> QContext:
    """A small bound context with limits inside the index set."""
    pool = [fin(1), fin(3), Ordinal(1, 0), Ordinal(1, 2), Ordinal(2, 0), Ordinal(2, 1)]
    n_idx = rng.randint(2, 4)
    frag = random_fragment(rng, universe, pool, n_idx)
    limits = frozenset({Ordinal(1, 0), Ordinal(2, 0)})
    part = SPartition(S=limits, T=frozenset(), D=limits)
    return QContext(frag, Ladder.canonical(), part)


def conditions_in(ctx: QContext, max_w: int = 2, max_s: int = 2) -> list[QCondition]:
    """Every condition over the context with bounded component sizes."""
    idx = sorted(ctx.g.a)
    s_pool = sorted(ctx.part.S)
    out = []
    for wn in range(min(max_w, len(idx)) + 1):
        for w in itertools.combinations(idx, wn):
            for sn in range(min(max_s, len(s_pool)) + 1):
                for s in itertools.combinations(s_pool, sn):
                    out.append(QCondition(frozenset(w), frozenset(s)))
    return out
