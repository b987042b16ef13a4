import copy
import itertools
import pickle
import random

import pytest

from gapforge import (
    HypothesisFailure,
    InvalidBit,
    InvariantViolation,
    PCondition,
    SearchTooLarge,
    bits,
    p_compatible_oracle,
    p_extend,
    p_join,
    p_join_from_core,
    p_leq,
    p_restrict,
    poset_p,
)
from helpers import enumerate_conditions, fin, random_extension, random_pcondition, word_from_bits
from proof_steps import AgreementFailure, HeightMismatch, delta_system_refine, p_union_agreeing

AL, BE = fin(0), fin(1)
POOL = [fin(k) for k in range(6)]


def test_condition_validation():
    with pytest.raises(ValueError):
        PCondition(1, {AL: ("1", "0")})  # low word escapes high word
    with pytest.raises(ValueError):
        PCondition(2, {AL: ("1", "11")})  # wrong length
    with pytest.raises(ValueError):
        PCondition(1, {AL: ("x", "1")})
    # strings int(w, 2) would read as binary numbers
    for bad in ("1_0", " 1", "+1", "\uff11"):
        n = len(bad)
        with pytest.raises(ValueError):
            PCondition(n, {AL: ("0" * n, bad)})
        with pytest.raises(ValueError):
            PCondition(n, {AL: (bad, "1" * n)})
    assert PCondition.empty().height == 0


def test_p_leq_examples():
    q = PCondition(2, {AL: ("10", "11"), BE: ("00", "01")})
    assert p_leq(PCondition.empty(), q) is True
    p = PCondition(1, {AL: ("1", "1")})
    assert p_leq(p, PCondition(2, {AL: ("10", "11")})) is True
    assert p_leq(p, PCondition(2, {AL: ("01", "11")})) is False


def test_p_leq_growth_clause():
    # a new bit at the low side of AL must reappear above, at BE's low side too
    p = PCondition(1, {AL: ("0", "0"), BE: ("0", "0")})
    good = PCondition(2, {AL: ("01", "01"), BE: ("01", "01")})
    bad = PCondition(2, {AL: ("01", "01"), BE: ("00", "01")})
    assert p_leq(p, good) is True
    assert p_leq(p, bad) is False


def test_p_restrict_examples():
    p = PCondition(2, {AL: ("10", "11"), BE: ("00", "01")})
    nothing = p_restrict(p, [])
    assert nothing.entries == {} and nothing.height == 2
    assert p_restrict(p, p.entries) == p
    dropped = p_restrict(p, [AL])
    assert set(dropped.entries) == {AL}
    assert p_leq(dropped, p) is True


def test_restriction_remark_and_monotone_restriction():
    rng = random.Random(21)
    for _ in range(300):
        p = random_pcondition(rng, POOL, rng.randint(0, 3))
        q = random_extension(rng, p, POOL)
        assert p_leq(p, q) is True
        assert p_leq(p, p_restrict(q, p.entries)) is True
        keep = rng.sample(POOL, rng.randint(0, len(POOL)))
        assert p_leq(p_restrict(p, keep), p_restrict(q, keep)) is True
        # the remark as an equivalence, on not-necessarily-related pairs
        r = random_pcondition(rng, POOL, rng.randint(0, 3))
        assert p_leq(p, r) == p_leq(p, p_restrict(r, p.entries))


def test_p_union_agreeing():
    p = PCondition(1, {AL: ("1", "1")})
    q = PCondition(1, {BE: ("0", "1")})
    u = p_union_agreeing(p, q)
    assert p_leq(p, u) and p_leq(q, u)
    assert p_union_agreeing(p, p) == p
    with pytest.raises(AgreementFailure):
        p_union_agreeing(p, PCondition(1, {AL: ("0", "1")}))
    with pytest.raises(HeightMismatch):
        p_union_agreeing(p, PCondition(2, {BE: ("00", "10")}))


def test_p_join_worked_example():
    p = PCondition(1, {AL: ("1", "1"), BE: ("0", "1")})
    q = PCondition(2, {AL: ("11", "11")})
    r = p_join(p, q)
    assert r.height == 2
    assert r.entries[AL] == ("11", "11")
    assert r.entries[BE] == ("01", "11")
    # cross-validate with the oracle
    assert p_compatible_oracle(p, q) is not None


def test_p_join_trivial_cases():
    p = PCondition(1, {AL: ("1", "1"), BE: ("0", "1")})
    padded = p_join(p, PCondition(1, {}))
    assert padded == p
    same = p_join(p, p)
    assert same == p


def test_p_join_precondition():
    p = PCondition(1, {AL: ("1", "1")})
    q = PCondition(2, {AL: ("01", "11")})  # not a word extension of p
    with pytest.raises(HypothesisFailure):
        p_join(p, q)
    with pytest.raises(HypothesisFailure):
        p_join(PCondition(2, {AL: ("10", "10")}), PCondition(1, {AL: ("1", "1")}))


def test_p_join_from_core_examples():
    p1 = PCondition(2, {AL: ("10", "11")})
    p2 = PCondition(1, {BE: ("0", "1")})
    r = p_join_from_core(p1, p2)
    assert p_leq(p1, r) and p_leq(p2, r)
    assert p_compatible_oracle(p1, p2) is not None
    assert p_join_from_core(p1, p1) == p1
    above = PCondition(2, {AL: ("11", "11")})
    with pytest.raises(HypothesisFailure):
        p_join_from_core(p1, above)  # p2 strictly above p1 on the core


def test_oracle_same_domain_dichotomy_examples():
    p = PCondition(1, {AL: ("1", "1")})
    q = PCondition(2, {AL: ("10", "11")})
    assert p_compatible_oracle(p, q) == q
    incomparable = PCondition(1, {AL: ("0", "1")})
    assert p_compatible_oracle(p, incomparable) is None


def test_oracle_agreeing_union_cross_validation():
    p = PCondition(1, {AL: ("1", "1")})
    q = PCondition(1, {BE: ("0", "1")})
    found = p_compatible_oracle(p, q)
    assert found is not None
    u = p_union_agreeing(p, q)
    assert p_leq(p, found) and p_leq(q, found)
    assert p_leq(u, found) or found == u


def test_oracle_cap():
    p = PCondition(20, {AL: (word_from_bits([], 20), word_from_bits([], 20))})
    q = PCondition(5, {BE: (word_from_bits([], 5), word_from_bits([], 5))})
    with pytest.raises(SearchTooLarge):
        p_compatible_oracle(p, q)  # 30 free bits
    assert p_compatible_oracle(p, q, max_free_bits=30) is not None


def test_p_extend_examples():
    p = PCondition(1, {AL: ("1", "1"), BE: ("0", "1")})
    assert p_extend(p, 1) == p
    granted = p_extend(p, 3, {AL: (1 << 2, 0)})
    assert granted.masks[AL] == (0b101, 0b101)  # pairing via propagation
    assert granted.masks[BE][0] >> 2 & 1  # AL low side sits below BE low side
    assert p_leq(p, granted) is True
    assert p_extend(p, 3, {AL: (1 << 2, 0), BE: (0, 0)}) == granted  # an empty grant adds nothing
    fresh = p_extend(p, 2, {fin(5): (0, 0)})
    assert fresh.entries[fin(5)] == ("00", "00")
    assert p_leq(p, fresh) is True
    # a grant at a new key adds that index, then its bits
    added = p_extend(p, 3, {fin(5): (0, 1 << 2)})
    assert added.entries[fin(5)] == ("000", "001")
    assert added.masks.keys() == {AL, BE, fin(5)} and p_leq(p, added)


def test_p_extend_errors():
    p = PCondition(1, {AL: ("1", "1")})
    with pytest.raises(InvalidBit):
        p_extend(p, 3, {AL: (1, 1)})  # below the current height
    with pytest.raises(InvalidBit):
        p_extend(p, 3, {AL: (0, 1 << 3)})  # beyond the target
    with pytest.raises(InvalidBit):
        p_extend(p, 3, {BE: (-1 << 1, 0)})  # a negative mask has bits above any target
    with pytest.raises(InvalidBit):
        p_extend(p, 1, {AL: (0, 1 << 1)})  # no level to grant
    with pytest.raises(ValueError):
        p_extend(p, 3, {AL: (0, 0, 1 << 2)})  # not a (low, high) pair
    with pytest.raises(ValueError):
        p_extend(p, 0)


def test_p_extend_postcondition_raises(monkeypatch):
    monkeypatch.setattr(poset_p, "p_leq", lambda p, q: False)
    with pytest.raises(InvariantViolation) as err:
        p_extend(PCondition(1, {AL: ("1", "1")}), 2)
    assert err.value.invariant == "extend-order"
    assert "height 2" in err.value.detail


def test_p_join_postcondition_raises(monkeypatch):
    """A join whose sweep loses a grant is no upper bound of p: the
    postcondition refuses it, whichever of its checks catches it."""
    p, q = PCondition(1, {AL: ("1", "1"), BE: ("0", "1")}), PCondition(2, {AL: ("11", "11")})
    assert p_join(p, q).masks == {AL: (0b11, 0b11), BE: (0b10, 0b11)}  # AL's new bit reaches BE
    real = poset_p._carry

    def carry_dropping_al(masks, grants):
        return real(masks, {o: pair for o, pair in grants.items() if o != AL})

    monkeypatch.setattr(poset_p, "_carry", carry_dropping_al)
    with pytest.raises(InvariantViolation) as err:
        p_join(p, q)
    assert err.value.invariant == "join-upper-bound"
    assert "heights 1 and 2" in err.value.detail


def test_p_extend_random_invariants():
    rng = random.Random(22)
    for _ in range(200):
        p = random_pcondition(rng, POOL, rng.randint(0, 3))
        q = random_extension(rng, p, POOL)
        for o, (w0, w1) in q.entries.items():
            assert not bits(w0) & ~bits(w1)
            assert len(w0) == q.height == len(w1)


def test_partial_order_laws_on_grid():
    conds = enumerate_conditions([AL, BE], [0, 1])
    rel = {}
    for i, p in enumerate(conds):
        for j, q in enumerate(conds):
            rel[(i, j)] = p_leq(p, q)
    n = len(conds)
    assert all(rel[(i, i)] for i in range(n))
    for i in range(n):
        for j in range(n):
            if rel[(i, j)] and rel[(j, i)]:
                assert conds[i] == conds[j]
    succ = {i: {j for j in range(n) if rel[(i, j)]} for i in range(n)}
    for i in range(n):
        for j in succ[i]:
            assert succ[j] <= succ[i]


def test_delta_system_refine_examples():
    disjoint = [PCondition(1, {fin(k): ("1", "1")}) for k in range(5)]
    fam, core = delta_system_refine(disjoint)
    assert len(fam) == 5 and core == frozenset()
    single = [PCondition(2, {AL: ("10", "10")})]
    fam, core = delta_system_refine(single)
    assert fam == single
    mixed = disjoint + [PCondition(2, {fin(k): ("10", "11")}) for k in range(3)]
    fam, core = delta_system_refine(mixed)
    assert all(p.height == 1 for p in fam)
    for p, q in itertools.combinations(fam, 2):
        u = p_union_agreeing(p, q)
        assert p_leq(p, u) and p_leq(q, u)


def test_delta_system_refine_shared_core():
    rng = random.Random(23)
    core_word = ("10", "11")
    family = []
    for k in range(20):
        entries = {AL: core_word, fin(2 + k): ("01", "01")}
        family.append(PCondition(2, entries))
    family.append(PCondition(2, {AL: ("01", "01")}))  # disagrees on the core
    fam, core = delta_system_refine(family)
    assert core == frozenset({AL})
    assert len(fam) == 20
    for p, q in itertools.combinations(fam, 2):
        p_union_agreeing(p, q)


def test_pcondition_json_roundtrip():
    p = PCondition(2, {AL: ("10", "11"), BE: ("00", "01")})
    assert PCondition.from_json(p.to_json()) == p
    with pytest.raises(ValueError):
        PCondition.from_json({"height": 1, "entries": [{"ord": [0, 0], "a_bits": "1", "b_bits": "0"}]})


def test_pcondition_is_frozen_and_hashable():
    p = PCondition(2, {AL: ("10", "11"), BE: ("00", "01")})
    with pytest.raises(AttributeError):  # the contract of every value class, tests/test_values.py
        p.height = 3
    with pytest.raises(AttributeError):
        p.masks = {}
    with pytest.raises(TypeError):
        p.masks[AL] = (0, 0)  # the map is read-only too
    twin = PCondition.from_masks(2, {BE: (0, 2), AL: (1, 3)})
    assert twin == p and hash(twin) == hash(p)
    assert len({p, twin, PCondition.from_json(p.to_json())}) == 1
    assert len({p, p_extend(p, 3)}) == 2


def test_pcondition_copies_and_pickles():
    p = PCondition(2, {AL: ("10", "11"), BE: ("00", "01")})
    clones = [copy.copy(p), copy.deepcopy(p)]
    clones += [pickle.loads(pickle.dumps(p, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert clone == p and hash(clone) == hash(p)
        with pytest.raises(TypeError):
            clone.masks[AL] = (0, 0)


def test_pcondition_word_views_round_trip():
    words = {AL: ("10", "11"), BE: ("00", "01")}
    p = PCondition(2, words)
    assert p.masks == {AL: (1, 3), BE: (0, 2)}  # bit k is character k
    assert p.entries == words
    assert [p.word(o, s) for o in (AL, BE) for s in (0, 1)] == ["10", "11", "00", "01"]
    assert p.to_json() == {
        "height": 2,
        "entries": [
            {"ord": [0, 0], "a_bits": "10", "b_bits": "11"},
            {"ord": [0, 1], "a_bits": "00", "b_bits": "01"},
        ],
    }
    assert PCondition(p.height, p.entries) == p


@pytest.mark.parametrize(
    "masks",
    [{AL: (0, 4)}, {AL: (4, 4)}, {AL: (-1, 3)}, {AL: (0, -1)}, {AL: (1, 2)}],
    ids=["high-too-tall", "low-too-tall", "negative-low", "negative-high", "low-escapes-high"],
)
def test_from_masks_rejects_invalid_masks(masks):
    with pytest.raises(ValueError):
        PCondition.from_masks(2, masks)


def test_from_masks_copies_its_map():
    masks = {AL: (1, 3)}
    p = PCondition.from_masks(2, masks)
    masks[AL] = (3, 3)
    assert p.masks == {AL: (1, 3)}
