"""Desk-scale ordinals below w^2, ladder systems and designated limit-point
partitions.

Ordinals are pairs (q, r) denoting w*q + r, compared lexicographically.
This is the smallest surrogate that still has genuine limit points with
canonical cofinal sequences, which is all the ladder machinery needs.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left, bisect_right
from typing import Mapping, Sequence

from .errors import TableTooShort, UnknownDelta


_KEY = re.compile(r"(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)")


class Ordinal(tuple):
    """The ordinal w*q + r, for naturals q and r: the tuple (q, r).

    Hashing and the lexicographic order are tuple's own, so they run in C
    and an ordinal equals, and hashes like, the plain pair (q, r).
    """

    __slots__ = ()

    def __new__(cls, q: int, r: int) -> Ordinal:
        if q < 0 or r < 0:
            raise ValueError(f"ordinal parts must be naturals, got ({q}, {r})")
        return tuple.__new__(cls, (q, r))

    q = property(operator.itemgetter(0))
    r = property(operator.itemgetter(1))
    # tuple's own slots, named here so that instrumentation can wrap them
    __lt__ = tuple.__lt__
    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self):
        return f"Ordinal(q={self[0]}, r={self[1]})"

    @property
    def is_limit(self) -> bool:
        return self.r == 0 and self.q >= 1

    def succ(self) -> Ordinal:
        return Ordinal(self.q, self.r + 1)

    def key(self) -> str:
        """Serialized map-key form, "q.r"."""
        return "%d.%d" % self

    def to_json(self) -> list[int]:
        return [self.q, self.r]

    @classmethod
    def from_json(cls, data) -> Ordinal:
        if isinstance(data, (list, tuple)) and len(data) == 2:
            q, r = data
            if type(q) is int and q >= 0 and type(r) is int and r >= 0:
                return tuple.__new__(cls, (q, r))  # checked here, so __new__'s check is skipped
        raise ValueError(f"bad ordinal encoding: {data!r}")

    @classmethod
    def from_key(cls, key: str) -> Ordinal:
        """The ordinal of a canonical key, the one `key()` writes: ASCII
        digits with no leading zeros, so that no two keys name one ordinal."""
        m = _KEY.fullmatch(key)
        if m is None:
            raise ValueError(f"bad ordinal key: {key!r}")
        return cls(int(m[1]), int(m[2]))

    def __str__(self):
        if self.q == 0:
            return str(self.r)
        head = "w" if self.q == 1 else f"w*{self.q}"
        return head if self.r == 0 else f"{head}+{self.r}"


class Value:
    """An immutable value.  Each subclass names its fields in `__slots__`, and
    `__init__(*values)` sets them in that order (a subclass with checks or
    defaults calls it once).  It equals only an instance of its own class with
    equal fields, hashes their tuple, writes its repr as `Name(field=value,
    ...)`, and pickles through its constructor; assigning or deleting any
    attribute raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


def ordinal_set(listed, name: str) -> frozenset[Ordinal]:
    """The ordinals of a JSON list, refusing one that the list names twice."""
    out = [Ordinal.from_json(o) for o in listed]
    once = frozenset(out)
    if len(once) != len(out):
        raise ValueError(f"the {name} list names an ordinal twice")
    return once


class Ladder(Value):
    """A ladder system: per limit ordinal d, an increasing sequence below d.

    Canonical mode computes c_d(n) = (d.q - 1, n) for every n and every
    limit d.  Explicit mode tabulates finitely many values per d; queries
    past the table raise TableTooShort rather than extrapolating.
    """

    __slots__ = ("mode", "entries")

    def __init__(self, mode: str, entries: Mapping[Ordinal, tuple[Ordinal, ...]] | None = None):
        entries = {} if entries is None else entries
        super().__init__(mode, entries)
        if mode not in ("canonical", "explicit"):
            raise ValueError(f"ladder mode must be canonical or explicit, got {mode!r}")
        if mode == "canonical" and entries:
            raise ValueError("canonical ladders carry no table")
        for delta, values in entries.items():
            if not delta.is_limit:
                raise ValueError(f"ladder domain must consist of limits, got {delta}")
            if any(not v < delta for v in values):
                raise ValueError(f"ladder values at {delta} must stay below {delta}")
            if any(not a < b for a, b in zip(values, values[1:])):
                raise ValueError(f"ladder values at {delta} must strictly increase")

    @classmethod
    def canonical(cls) -> Ladder:
        return cls("canonical")

    @classmethod
    def explicit(cls, entries: Mapping[Ordinal, Sequence[Ordinal]]) -> Ladder:
        return cls("explicit", {d: tuple(vs) for d, vs in entries.items()})

    def has(self, delta: Ordinal) -> bool:
        if self.mode == "canonical":
            return delta.is_limit
        return delta in self.entries

    def count_below(self, delta: Ordinal, j: Ordinal) -> int:
        """The number of rungs of c_delta lying strictly below j (j < delta)."""
        runs, end = self.count_runs(delta, (j,), 1)
        if not end:
            raise TableTooShort(f"ladder at {delta} never reaches {j} within its table")
        return runs[0][2]

    def first_index_above(self, delta: Ordinal, bound: Ordinal) -> int:
        """The least n with c_delta(n) strictly above bound (bound < delta):
        the rungs below bound.succ(), which stays below the limit delta."""
        runs, end = self.count_runs(delta, (bound.succ(),), 1)
        if not end:
            raise TableTooShort(f"ladder at {delta} never exceeds {bound} within its table")
        return runs[0][2]

    def count_runs(
        self, delta: Ordinal, cand: Sequence[Ordinal], n: int
    ) -> tuple[list[tuple[int, int, int]], int]:
        """Split cand[:n] (ascending, every member below delta) into runs of
        equal rung count: triples (lo, hi, count) for cand[lo:hi], ascending
        and non-empty, covering cand[:end].  From end on, cand[end:n] lie
        past an explicit table; end is n when the table reaches them all.
        This is the one rung count: every other query is a call on one point.

        A canonical ladder takes one bisection to the rung (delta.q - 1, 1),
        a plain pair: everything below it counts 0 rungs, and every later
        candidate is a run of its own with count j.r.  An explicit table
        bisects back and forth, the first candidate of a run into the table
        for its count, then the next rung into cand for the run's end, and
        stops once the prefix is used up: two bisections per run, however
        long the table.
        """
        canonical = self.mode == "canonical"
        q, r = delta
        if not (q and not r if canonical else delta in self.entries):  # `has`, on the pair
            raise UnknownDelta(f"no ladder at {delta}")
        if n and not cand[n - 1] < delta:
            raise ValueError(f"a rung count needs j < delta, got j={cand[n - 1]}, delta={delta}")
        if canonical:
            lo = bisect_left(cand, (q - 1, 1), 0, n)
            runs = [(0, lo, 0)] if lo else []
            return runs + [(k, k + 1, cand[k][1]) for k in range(lo, n)], n
        table = self.entries[delta]
        runs = []
        lo = 0
        while lo < n:
            count = bisect_left(table, cand[lo])
            if count == len(table):
                break
            hi = bisect_right(cand, table[count], lo, n)
            runs.append((lo, hi, count))
            lo = hi
        return runs, lo

    def to_json(self) -> dict:
        if self.mode == "canonical":
            return {"mode": "canonical"}
        return {
            "mode": "explicit",
            "entries": [
                {"delta": d.to_json(), "values": [v.to_json() for v in self.entries[d]]}
                for d in sorted(self.entries)
            ],
        }

    @classmethod
    def from_json(cls, data) -> Ladder:
        if not isinstance(data, dict) or "mode" not in data:
            raise ValueError(f"bad ladder encoding: {data!r}")
        if data["mode"] == "canonical":
            return cls.canonical()
        if data["mode"] == "explicit":
            entries = {}
            for row in data.get("entries", []):
                delta = Ordinal.from_json(row["delta"])
                if delta in entries:
                    raise ValueError(f"duplicate ladder entry at {delta}")
                entries[delta] = tuple(Ordinal.from_json(v) for v in row["values"])
            return cls.explicit(entries)
        raise ValueError(f"bad ladder mode: {data['mode']!r}")


class SPartition(Value):
    """Designated finite sets standing in for a stationary set S, its
    complement T, and a club D.  Checkers take these as explicit input;
    no stationarity is modeled or claimed."""

    __slots__ = ("S", "T", "D")

    def __init__(
        self, S: frozenset[Ordinal], T: frozenset[Ordinal] = frozenset(), D: frozenset[Ordinal] = frozenset()
    ):
        super().__init__(S, T, D)
        for name, part in (("S", S), ("T", T)):
            if any(not o.is_limit for o in part):
                raise ValueError(f"{name} must consist of limit ordinals")
        if S & T:
            raise ValueError("S and T must be disjoint")

    def to_json(self) -> dict:
        return {
            "S": [o.to_json() for o in sorted(self.S)],
            "T": [o.to_json() for o in sorted(self.T)],
            "D": [o.to_json() for o in sorted(self.D)],
        }

    @classmethod
    def from_json(cls, data) -> SPartition:
        if not isinstance(data, dict) or not {"S", "T", "D"} <= set(data):
            raise ValueError(f"bad partition encoding: {data!r}")
        return cls(ordinal_set(data["S"], "S"), ordinal_set(data["T"], "T"), ordinal_set(data["D"], "D"))
