"""Desk-scale ordinals below w^2, the two-sided index order, ladder systems,
and designated limit-point partitions.

Ordinals are pairs (q, r) denoting w*q + r, compared lexicographically.
This is the smallest surrogate that still has genuine limit points with
canonical cofinal sequences, which is all the ladder machinery needs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import TableTooShort, UnknownDelta


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
        return f"{self.q}.{self.r}"

    def to_json(self) -> list[int]:
        return [self.q, self.r]

    @classmethod
    def from_json(cls, data) -> Ordinal:
        if (
            not isinstance(data, (list, tuple))
            or len(data) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in data)
        ):
            raise ValueError(f"bad ordinal encoding: {data!r}")
        return cls(data[0], data[1])

    @classmethod
    def from_key(cls, key: str) -> Ordinal:
        parts = key.split(".")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValueError(f"bad ordinal key: {key!r}")
        return cls(int(parts[0]), int(parts[1]))

    def __str__(self):
        if self.q == 0:
            return str(self.r)
        head = "w" if self.q == 1 else f"w*{self.q}"
        return head if self.r == 0 else f"{head}+{self.r}"


def fin(n: int) -> Ordinal:
    """The finite ordinal n."""
    return Ordinal(0, n)


def two_sided(ordinals: Iterable[Ordinal]) -> Iterator[tuple[Ordinal, int]]:
    """The points (o, side) over distinct ordinals, ascending in the two-sided
    order: side 0 with the ordinals ascending, then side 1 descending, so
    that (a,0) < (b,0) < (b,1) < (a,1) whenever a < b; the order is total."""
    up = sorted(ordinals)
    for o in up:
        yield o, 0
    for o in reversed(up):
        yield o, 1


@dataclass(frozen=True)
class Ladder:
    """A ladder system: per limit ordinal d, an increasing sequence below d.

    Canonical mode computes c_d(n) = (d.q - 1, n) for every n and every
    limit d.  Explicit mode tabulates finitely many values per d; queries
    past the table raise TableTooShort rather than extrapolating.
    """

    mode: str
    entries: Mapping[Ordinal, tuple[Ordinal, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("canonical", "explicit"):
            raise ValueError(f"ladder mode must be canonical or explicit, got {self.mode!r}")
        if self.mode == "canonical" and self.entries:
            raise ValueError("canonical ladders carry no table")
        for delta, values in self.entries.items():
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

    def value(self, delta: Ordinal, n: int) -> Ordinal:
        """The n-th rung c_delta(n)."""
        if not self.has(delta):
            raise UnknownDelta(f"no ladder at {delta}")
        if self.mode == "canonical":
            return Ordinal(delta.q - 1, n)
        values = self.entries[delta]
        if n >= len(values):
            raise TableTooShort(f"ladder at {delta} tabulates {len(values)} values, index {n} requested")
        return values[n]

    def count_below(self, delta: Ordinal, j: Ordinal) -> int:
        """The number of rungs of c_delta lying strictly below j (j < delta)."""
        if not self.has(delta):
            raise UnknownDelta(f"no ladder at {delta}")
        if not j < delta:
            raise ValueError(f"count_below needs j < delta, got j={j}, delta={delta}")
        if self.mode == "canonical":
            # rungs are (delta.q - 1, n); j < delta forces j.q <= delta.q - 1
            return j.r if j.q == delta.q - 1 else 0
        count = 0
        for v in self.entries[delta]:
            if v < j:
                count += 1
            else:
                return count  # strictly increasing: the scan may stop here
        raise TableTooShort(f"ladder at {delta} never reaches {j} within its table")

    def first_index_above(self, delta: Ordinal, bound: Ordinal) -> int:
        """The least n with c_delta(n) strictly above bound (bound < delta)."""
        if not self.has(delta):
            raise UnknownDelta(f"no ladder at {delta}")
        if not bound < delta:
            raise ValueError(f"first_index_above needs bound < delta, got {bound}, {delta}")
        if self.mode == "canonical":
            if bound.q < delta.q - 1:
                return 0
            return bound.r + 1
        for n, v in enumerate(self.entries[delta]):
            if bound < v:
                return n
        raise TableTooShort(f"ladder at {delta} never exceeds {bound} within its table")

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


@dataclass(frozen=True)
class SPartition:
    """Designated finite sets standing in for a stationary set S, its
    complement T, and a club D.  Checkers take these as explicit input;
    no stationarity is modeled or claimed."""

    S: frozenset[Ordinal]
    T: frozenset[Ordinal] = frozenset()
    D: frozenset[Ordinal] = frozenset()

    def __post_init__(self):
        for name, part in (("S", self.S), ("T", self.T)):
            if any(not o.is_limit for o in part):
                raise ValueError(f"{name} must consist of limit ordinals")
        if self.S & self.T:
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
        return cls(
            frozenset(Ordinal.from_json(o) for o in data["S"]),
            frozenset(Ordinal.from_json(o) for o in data["T"]),
            frozenset(Ordinal.from_json(o) for o in data["D"]),
        )
