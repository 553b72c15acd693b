"""Unordered alias pairs (paper §3).

Aliases are represented by unordered pairs of object names, e.g.
``(v, *p)``.  The relation is symmetric, so pairs are canonicalized on
construction; ``AliasPair(a, b) == AliasPair(b, a)``.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterator, Optional

from .object_names import ObjectName, is_nonvisible_based, k_limit, representatives


def _key(name: ObjectName) -> tuple:
    return (name.base, name.selectors, name.truncated)


# Hash-consing table keyed by the *canonicalized* member tuple.  Since
# ObjectName is itself interned, the tuple hashes from cached hashes and
# compares by identity, making pair construction cheap on repeat.
_INTERN: dict[tuple[ObjectName, ObjectName], "AliasPair"] = {}


class AliasPair:
    """A canonical, interned unordered pair of object names (hash
    cached: pairs are dictionary keys throughout the analysis).

    ``AliasPair(a, b)`` and ``AliasPair(b, a)`` return the *same*
    instance, so equality degenerates to identity on in-process pairs."""

    __slots__ = ("first", "second", "_hash")

    first: ObjectName
    second: ObjectName

    def __new__(cls, a: ObjectName, b: ObjectName) -> "AliasPair":
        if _key(b) < _key(a):
            a, b = b, a
        cached = _INTERN.get((a, b))
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)
        object.__setattr__(self, "_hash", hash((a, b)))
        _INTERN[(a, b)] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"AliasPair is immutable (tried to set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"AliasPair is immutable (tried to delete {name!r})")

    def __repr__(self) -> str:
        return f"AliasPair({self.first!r}, {self.second!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AliasPair):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.first == other.first
            and self.second == other.second
        )

    def __reduce__(self):
        return (AliasPair, (self.first, self.second))

    def __iter__(self) -> Iterator[ObjectName]:
        yield self.first
        yield self.second

    def other(self, name: ObjectName) -> ObjectName:
        """The member that is not ``name`` (``name`` must be a member)."""
        if name == self.first:
            return self.second
        if name == self.second:
            return self.first
        raise ValueError(f"{name} is not a member of {self}")

    def involves(self, name: ObjectName) -> bool:
        """Is ``name`` one of the two members?"""
        return name == self.first or name == self.second

    def involves_base(self, base: str) -> bool:
        """Does either member root at ``base``?"""
        return self.first.base == base or self.second.base == base

    @property
    def is_trivial(self) -> bool:
        """A name is trivially aliased to itself."""
        return self.first == self.second

    @property
    def has_nonvisible(self) -> bool:
        """Does either member root at a nonvisible token?"""
        return is_nonvisible_based(self.first) or is_nonvisible_based(self.second)

    def nonvisible_member(self) -> Optional[ObjectName]:
        """The nonvisible-rooted member, if any."""
        if is_nonvisible_based(self.first):
            return self.first
        if is_nonvisible_based(self.second):
            return self.second
        return None

    def visible_member(self) -> Optional[ObjectName]:
        """The member that is *not* nonvisible-based, if any."""
        if not is_nonvisible_based(self.first):
            return self.first
        if not is_nonvisible_based(self.second):
            return self.second
        return None

    def map(self, fn) -> "AliasPair":
        """Apply ``fn`` to both members, re-canonicalizing."""
        return AliasPair(fn(self.first), fn(self.second))

    def k_limited(self, k: int) -> "AliasPair":
        """Both members k-limited."""
        return AliasPair(k_limit(self.first, k), k_limit(self.second, k))

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


def make_pair(a: ObjectName, b: ObjectName, k: int) -> AliasPair:
    """Build a k-limited alias pair."""
    return AliasPair(k_limit(a, k), k_limit(b, k))


def pair_represented(
    partners: Callable[[ObjectName], Collection[ObjectName]],
    a: ObjectName,
    b: ObjectName,
) -> bool:
    """Does some stored pair represent ``(a, b)`` (paper §3)?

    ``partners(x)`` gives the names stored in a pair with exactly
    ``x``.  A stored pair represents ``(a, b)`` when one member is a
    representative of ``a`` and the other one of ``b``, so probing the
    representatives of ``a`` covers both orientations."""
    wanted = set(representatives(b))
    return any(not wanted.isdisjoint(partners(x)) for x in representatives(a))


def interned_pair_count() -> int:
    """Size of the AliasPair hash-consing table (observability)."""
    return len(_INTERN)
