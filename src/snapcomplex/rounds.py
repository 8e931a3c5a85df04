"""Round counters: finite partial maps from process ids to remaining rounds.

A counter assigns each supported process the number of write/snapshot rounds
it still has to run.  Absence of a process id is distinct from the stored
value 0: a process with 0 rounds left is passive but participating, an absent
process never takes part.  Counters are immutable values; every operation
returns a new counter.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

from .errors import InvalidArgument, PreconditionViolation


def is_natural(x) -> bool:
    """A nonnegative int that is not a bool: a process id or a round count."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def id_set(ids: Iterable[int]) -> frozenset:
    """A set of process ids as a frozenset; an id that is not ``is_natural``
    raises ``InvalidArgument``."""
    v = frozenset(ids)
    if not all(map(is_natural, v)):
        raise InvalidArgument(f"process ids must be nonnegative integers: {sorted(v, key=repr)}")
    return v


def id_set_text(ids: Iterable[int]) -> str:
    """A set of process ids as report text, in increasing order: ``{0,1}``."""
    return "{" + ",".join(map(str, sorted(ids))) + "}"


def subsets(ids: Iterable[int]) -> list:
    """Every subset of ids as a sorted tuple, by size and then lexicographically."""
    ids = sorted(ids)
    return [c for n in range(len(ids) + 1) for c in combinations(ids, n)]


class Analysis(NamedTuple):
    support: frozenset
    active: frozenset
    passive: frozenset
    cardinality: int


class RoundCounter:
    """Immutable map process id -> rounds remaining (both nonnegative)."""

    __slots__ = ("_entries", "_map")

    def __init__(self, values: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = dict(values)
        for pid, val in items.items():
            if not (is_natural(pid) and is_natural(val)):
                raise InvalidArgument(f"bad counter entry {pid!r}: {val!r}")
        self._entries = tuple(sorted(items.items()))
        self._map = dict(self._entries)

    @classmethod
    def of(cls, *values: int | None) -> "RoundCounter":
        """Build from a dense tuple; ``None`` entries are non-participants."""
        return cls({i: v for i, v in enumerate(values) if v is not None})

    # -- plain accessors -------------------------------------------------

    def __getitem__(self, pid: int) -> int:
        return self._map[pid]

    def get(self, pid: int, default=None):
        return self._map.get(pid, default)

    def __contains__(self, pid: int) -> bool:
        return pid in self._map

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, RoundCounter) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"RoundCounter({dict(self._entries)!r})"

    # -- derived sets ----------------------------------------------------

    @property
    def support(self) -> frozenset:
        return frozenset(self._map)

    @property
    def active(self) -> frozenset:
        return frozenset(p for p, v in self._entries if v >= 1)

    @property
    def passive(self) -> frozenset:
        return frozenset(p for p, v in self._entries if v == 0)

    @property
    def cardinality(self) -> int:
        return sum(v for _, v in self._entries)

    def analyze(self) -> Analysis:
        return Analysis(self.support, self.active, self.passive, self.cardinality)

    # -- operations ------------------------------------------------------

    def chi(self) -> "RoundCounter":
        """Clamp every value to 0/1, keeping the active/passive split."""
        return RoundCounter({p: min(v, 1) for p, v in self._entries})

    def delete(self, ids: Iterable[int]) -> "RoundCounter":
        dropped = id_set(ids)
        return RoundCounter({p: v for p, v in self._entries if p not in dropped})

    def execute(self, step: Iterable[int]) -> "RoundCounter":
        """Decrement every id in ``step``; all of them must be active."""
        step = id_set(step)
        for p in sorted(step):
            if self._map.get(p, 0) < 1:
                raise PreconditionViolation(f"process {p} is not active, cannot execute it")
        return RoundCounter({p: v - 1 if p in step else v for p, v in self._entries})

    def reduce(self, step: Iterable[int], ids: Iterable[int]) -> "RoundCounter":
        """Execute ``step`` then delete ``ids``."""
        ids = id_set(ids)
        if not ids <= self.support:
            raise PreconditionViolation(f"cannot reduce by {sorted(ids)}: not within the support")
        return self.execute(step).delete(ids)

    def canonical(self) -> "RoundCounter":
        """Relabel the support order-preservingly onto 0..len-1."""
        return RoundCounter({i: v for i, (_, v) in enumerate(self._entries)})

    def relabel(self, pi: Mapping[int, int]) -> "RoundCounter":
        """Apply a finite-support bijection: result(i) = self(pi(i))."""
        moved = {k: v for k, v in pi.items() if k != v}
        if set(moved) != set(moved.values()):
            raise InvalidArgument("relabeling is not a finite-support bijection")
        inverse = {v: k for k, v in moved.items()}
        return RoundCounter({inverse.get(p, p): v for p, v in self._entries})

    # -- text / JSON forms -------------------------------------------------

    def text(self) -> str:
        """Dense comma form with ``x`` marking non-participants."""
        if not self._entries:
            return "x"
        top = self._entries[-1][0]
        return ",".join(str(self._map[i]) if i in self._map else "x" for i in range(top + 1))

    def to_json_obj(self) -> dict:
        return {"counter": {str(p): v for p, v in self._entries}}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RoundCounter":
        """Read ``to_json_obj`` output: ids are canonical decimal strings, and
        the counts go to the constructor as they are."""
        try:
            inner = obj["counter"]
            values = {int(k): v for k, v in inner.items()}
            if set(map(str, values)) != set(inner):  # " 1", "01", 1 or True as an id
                raise ValueError("process ids must be canonical decimal strings")
            return cls(values)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InvalidArgument(f"bad counter JSON: {obj!r}") from exc

    @classmethod
    def parse(cls, text: str) -> "RoundCounter":
        """Parse the CLI token syntax, e.g. ``2,x,1``."""
        values = {}
        for pos, token in enumerate(text.split(",")):
            token = token.strip()
            if token == "x":
                continue
            if not (token.isascii() and token.isdigit()):
                raise InvalidArgument(f"bad counter token {token!r} at position {pos}")
            try:
                values[pos] = int(token)
            except ValueError as exc:  # more digits than int reads
                raise InvalidArgument(f"counter token at position {pos} has {len(token)} digits, too many") from exc
        return cls(values)


def chi_pair(active_ids: Iterable[int], passive_ids: Iterable[int]) -> RoundCounter:
    """The 0/1 counter with the given active and passive sets (disjoint)."""
    a, b = frozenset(active_ids), frozenset(passive_ids)
    if a & b:
        raise InvalidArgument(f"active/passive sets overlap on {sorted(a & b)}")
    values = {p: 1 for p in a}
    values.update({p: 0 for p in b})
    return RoundCounter(values)
