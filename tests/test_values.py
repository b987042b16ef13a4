"""The value contract of the package's immutable classes, and the import
they no longer need.

Every value class is a slotted `ordinals.Value`, whose one constructor sets
the fields in `__slots__` order (a class with checks or defaults calls it
once), in place of a frozen dataclass: the same equality, hash, repr,
immutability and pickling, with no `dataclasses` (and so no `inspect`) at
import time.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gapforge
from gapforge import (
    CompatMatrix,
    GapFragment,
    Ladder,
    Ordinal,
    PccInstance,
    PCondition,
    QCondition,
    QContext,
    Selection,
    SPartition,
)
from gapforge.gaps import Failures, Witnesses
from gapforge.ordinals import Value
from helpers import fin

W = Ordinal(1, 0)
G_REPR = "GapFragment(universe=3, a={Ordinal(q=0, r=0): 5}, b={Ordinal(q=0, r=0): 7})"
PART_REPR = "SPartition(S=frozenset({Ordinal(q=1, r=0)}), T=frozenset(), D=frozenset({Ordinal(q=1, r=0)}))"
CTX_REPR = f"QContext(g={G_REPR}, ladder=Ladder(mode='canonical', entries={{}}), part={PART_REPR})"
EMPTY_Q = "QCondition(w=frozenset(), s=frozenset())"


def _ctx() -> QContext:
    g = GapFragment(3, {fin(0): 5}, {fin(0): 7})
    return QContext(g, Ladder.canonical(), SPartition(frozenset({W}), D=frozenset({W})))


# per class: a factory building a fresh instance, whether its fields hash,
# and the repr a frozen dataclass would write for it
CASES = {
    GapFragment: (lambda: GapFragment(3, {fin(0): 5}, {fin(0): 7}), False, G_REPR),
    Witnesses: (
        lambda: Witnesses([(W, W.succ(), 0, 2)]),
        False,
        "Witnesses(rows=[(Ordinal(q=1, r=0), Ordinal(q=1, r=1), 0, 2)])",
    ),
    Failures: (
        lambda: Failures([(W, W.succ())]),
        False,
        "Failures(rows=[(Ordinal(q=1, r=0), Ordinal(q=1, r=1))])",
    ),
    Ladder: (
        lambda: Ladder.explicit({W: [fin(1), fin(3)]}),
        False,
        "Ladder(mode='explicit', entries={Ordinal(q=1, r=0): (Ordinal(q=0, r=1), Ordinal(q=0, r=3))})",
    ),
    SPartition: (lambda: SPartition(frozenset({W}), D=frozenset({W})), True, PART_REPR),
    PCondition: (
        lambda: PCondition(2, {fin(0): ("10", "11")}),
        True,
        "PCondition(height=2, masks=mappingproxy({Ordinal(q=0, r=0): (1, 3)}))",
    ),
    QCondition: (
        lambda: QCondition(frozenset({fin(0)}), frozenset({W})),
        True,
        "QCondition(w=frozenset({Ordinal(q=0, r=0)}), s=frozenset({Ordinal(q=1, r=0)}))",
    ),
    QContext: (_ctx, False, CTX_REPR),
    CompatMatrix: (
        lambda: CompatMatrix((fin(0),), (fin(1), fin(2)), (2,)),
        True,
        "CompatMatrix(row_index=(Ordinal(q=0, r=0),), col_index=(Ordinal(q=0, r=1), Ordinal(q=0, r=2)), rows=(2,))",
    ),
    PccInstance: (
        lambda: PccInstance(_ctx(), fin(0), ((fin(1), QCondition.empty()),), ((fin(2), QCondition.empty()),), 0),
        False,
        f"PccInstance(ctx={CTX_REPR}, gamma=Ordinal(q=0, r=0), fam1=((Ordinal(q=0, r=1), {EMPTY_Q}),),"
        f" fam2=((Ordinal(q=0, r=2), {EMPTY_Q}),), k=0)",
    ),
    Selection: (
        lambda: Selection(("s:w", "wsize>=1"), (W,), (fin(0),)),
        True,
        "Selection(schedule=('s:w', 'wsize>=1'), limits=(Ordinal(q=1, r=0),), picks=(Ordinal(q=0, r=0),))",
    ),
}


def test_every_value_class_is_covered():
    found = {
        cls
        for mod in vars(gapforge).values()
        if getattr(mod, "__package__", None) == "gapforge"
        for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, Value) and cls is not Value
    }
    assert found == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_contract(cls):
    make, hashable, expected_repr = CASES[cls]
    v, twin = make(), make()
    assert type(v) is cls and not hasattr(v, "__dict__")
    fields = cls.__slots__
    # frozen: no field is assigned or deleted, and no attribute is added
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(v, name, getattr(twin, name))
        with pytest.raises(AttributeError):
            delattr(v, name)
    with pytest.raises(AttributeError):
        v.extra = 0
    assert v == twin and not v != twin
    if hashable:
        assert hash(v) == hash(twin) and len({v, twin}) == 1
    else:
        with pytest.raises(TypeError):
            hash(v)
    # equal only to its own class: not to a plain tuple, nor to another
    # value class with the same fields and values
    values = tuple(getattr(v, name) for name in fields)
    other = type("Other", (Value,), {"__slots__": fields})(*values)
    for stranger in (values, other):
        assert v != stranger and stranger != v and not v == stranger
    assert repr(v) == expected_repr
    # every copy goes through a constructor, which validates again
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert v.__reduce_ex__(proto)[0] in (cls, PCondition.from_masks)
    clones = [copy.copy(v), copy.deepcopy(v)]
    clones += [pickle.loads(pickle.dumps(v, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is cls and clone == v and repr(clone) == expected_repr
        if hashable:
            assert hash(clone) == hash(v)


# the positional values a constructor requires, where defaults make it fewer
# than the fields
REQUIRED = {Ladder: 1, SPartition: 1}


@pytest.mark.parametrize("too_many", [True, False], ids=["one-too-many", "one-too-few"])
@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_a_wrong_number_of_fields_raises_type_error(cls, too_many):
    v = CASES[cls][0]()
    values = tuple(getattr(v, name) for name in cls.__slots__)
    args = values + values[:1] if too_many else values[: REQUIRED.get(cls, len(values)) - 1]
    with pytest.raises(TypeError):
        cls(*args)


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """A fresh interpreter, since pytest itself imports both; -S keeps site's
    own imports out of the count, and the package is found from its path."""
    src = str(Path(gapforge.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gapforge.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
