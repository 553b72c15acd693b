"""Object names and k-limiting (paper §3).

An *object name* is a variable followed by a (possibly empty) sequence
of dereferences and field accesses::

    object-name -> *object-name
    object-name -> object-name.field
    object-name -> variable

We encode the selector sequence *inside-out*: ``p->next`` (that is,
``(*p).next``) is ``ObjectName("p", ("*", "next"))``.  A dereference is
the selector ``"*"``; any other selector string is a field name (C
identifiers can never be ``"*"``).

With recursive structures the name universe is infinite, so names are
**k-limited**: a name with more than ``k`` dereferences is truncated
just before its (k+1)-th dereference, and the truncated name represents
itself plus every extension (paper: for ``k = 1``, ``p->f1->f2`` is
represented by ``p->f1`` — *not* by ``*p``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

DEREF = "*"

# Bases for the special `nonvisible` object names.  The paper uses a
# single `nonvisible` name; the two-assumption exit rule needs two
# distinguishable ones.
NONVISIBLE_BASES = ("$nv1", "$nv2")

# Hash-consing table: (base, selectors, truncated) -> the one canonical
# instance.  Every constructor funnels through ``__new__``, so equal
# names are always the *same* object and the hot dict/set operations in
# the may-hold store compare by identity.
_INTERN: dict[tuple[str, tuple[str, ...], bool], "ObjectName"] = {}


class ObjectName:
    """An immutable, interned object name with a cached hash (names are
    hashed on every store operation, so this is hot).

    ``ObjectName(b, s, t)`` always returns the canonical instance for
    ``(b, s, t)``; equality therefore degenerates to identity on every
    name built in-process (a value-comparison fallback remains for
    safety)."""

    __slots__ = ("base", "selectors", "truncated", "_hash")

    base: str
    selectors: tuple[str, ...]
    truncated: bool

    def __new__(
        cls,
        base: str,
        selectors: tuple[str, ...] = (),
        truncated: bool = False,
    ) -> "ObjectName":
        key = (base, selectors, truncated)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "selectors", selectors)
        object.__setattr__(self, "truncated", truncated)
        object.__setattr__(self, "_hash", hash(key))
        _INTERN[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ObjectName is immutable (tried to set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ObjectName is immutable (tried to delete {name!r})")

    def __repr__(self) -> str:
        return (
            f"ObjectName(base={self.base!r}, selectors={self.selectors!r}, "
            f"truncated={self.truncated!r})"
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ObjectName):
            return NotImplemented
        # Interning makes equal names identical; this fallback only
        # matters for exotic instances (e.g. deserialized across a
        # cleared intern table).
        return (
            self._hash == other._hash
            and self.base == other.base
            and self.selectors == other.selectors
            and self.truncated == other.truncated
        )

    def __reduce__(self):
        # Re-intern on unpickling instead of materializing a twin.
        return (ObjectName, (self.base, self.selectors, self.truncated))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def variable(base: str) -> "ObjectName":
        """A bare-variable name."""
        return ObjectName(base)

    def deref(self) -> "ObjectName":
        """``*self`` (no k-limiting applied; see :func:`k_limit`)."""
        if self.truncated:
            # Extending a truncated name yields the same representative.
            return self
        return ObjectName(self.base, self.selectors + (DEREF,))

    def field(self, name: str) -> "ObjectName":
        """``self.name``."""
        if self.truncated:
            return self
        return ObjectName(self.base, self.selectors + (name,))

    def extend(self, extension: Iterable[str]) -> "ObjectName":
        """Apply a selector sequence."""
        result = self
        for sel in extension:
            result = result.deref() if sel == DEREF else result.field(sel)
        return result

    def with_base(self, new_base: str) -> "ObjectName":
        """The same selectors on a different base."""
        return ObjectName(new_base, self.selectors, self.truncated)

    # -- measurements ---------------------------------------------------------

    @property
    def num_derefs(self) -> int:
        """Number of dereferences in the selector path."""
        return self.selectors.count(DEREF)

    @property
    def is_variable(self) -> bool:
        """No selectors at all?"""
        return not self.selectors

    @property
    def is_nonvisible(self) -> bool:
        """Rooted at a nonvisible token?"""
        return self.base in NONVISIBLE_BASES

    # -- algebra ---------------------------------------------------------------

    def is_prefix(self, other: "ObjectName") -> bool:
        """Paper's ``is_prefix(self, other)``: can ``self`` be transformed
        into ``other`` by appending dereferences and field accesses?"""
        if self.base != other.base:
            return False
        n = len(self.selectors)
        return other.selectors[:n] == self.selectors

    def is_proper_prefix(self, other: "ObjectName") -> bool:
        """``is_prefix`` and strictly shorter."""
        return self.is_prefix(other) and len(self.selectors) < len(other.selectors)

    def is_prefix_with_deref(self, other: "ObjectName") -> bool:
        """``is_prefix`` and ``other`` has at least one more dereference
        than ``self`` (paper footnote 9)."""
        if not self.is_prefix(other):
            return False
        extra = other.selectors[len(self.selectors):]
        return DEREF in extra

    def suffix_after(self, prefix: "ObjectName") -> tuple[str, ...]:
        """Selector sequence ``sigma`` with ``prefix + sigma == self``."""
        if not prefix.is_prefix(self):
            raise ValueError(f"{prefix} is not a prefix of {self}")
        return self.selectors[len(prefix.selectors):]

    def __str__(self) -> str:
        """Render in C-ish concrete syntax (``p->next``, ``**q``, ``s.f``)."""
        text = self.base
        pending_deref = 0
        for sel in self.selectors:
            if sel == DEREF:
                pending_deref += 1
            else:
                if pending_deref > 0:
                    # One pending deref plus a field renders as `->`.
                    text = "*" * (pending_deref - 1) + text
                    if pending_deref >= 1:
                        text = f"{text}->{sel}" if pending_deref == 1 else f"({text})->{sel}"
                    pending_deref = 0
                else:
                    text = f"{text}.{sel}"
        if pending_deref:
            text = "*" * pending_deref + ("(" + text + ")" if ("->" in text or "." in text) else text)
        if self.truncated:
            text += "~"
        return text


def apply_trans(on1: ObjectName, on2: ObjectName, on3: ObjectName) -> ObjectName:
    """Paper's ``apply_trans``: ``is_prefix(on1, on2)`` must hold; apply
    to ``on3`` the selector sequence transforming ``on1`` into ``on2``.

    Example: ``apply_trans(p->n, p->n->d, r)`` returns ``r->d``.
    """
    return on3.extend(on2.suffix_after(on1))


def k_limit(name: ObjectName, k: int) -> ObjectName:
    """Truncate ``name`` just before its (k+1)-th dereference.

    The result carries ``truncated=True`` when anything was dropped, and
    then *represents* every extension of itself.
    """
    if name.num_derefs <= k:
        return name
    count = 0
    for index, sel in enumerate(name.selectors):
        if sel == DEREF:
            count += 1
            if count > k:
                return ObjectName(name.base, name.selectors[:index], truncated=True)
    raise AssertionError("unreachable: num_derefs > k but no (k+1)-th deref")


def representatives(name: ObjectName) -> tuple[ObjectName, ...]:
    """Every name that stands for ``name`` in a stored alias pair
    (paper §3): ``name`` itself, and the truncated name on each prefix
    of its selector path, since a truncated name represents all of its
    extensions.  At most ``len(name.selectors) + 2`` names.

    Only names already built are returned: a name never interned can
    sit in no store, and a query must not grow the intern table."""
    base, selectors = name.base, name.selectors
    out = [name]
    for end in range(len(selectors) + 1):
        truncated = _INTERN.get((base, selectors[:end], True))
        if truncated is not None and truncated is not name:
            out.append(truncated)
    return tuple(out)


def prefixes(name: ObjectName) -> Iterator[tuple[ObjectName, tuple[str, ...]]]:
    """Every built name ``x`` with ``is_prefix(x, name)`` — each prefix
    of ``name``'s selector path, truncated or not — paired with the
    selectors that extend ``x`` to ``name``."""
    base, selectors = name.base, name.selectors
    for end in range(len(selectors) + 1):
        head = selectors[:end]
        for truncated in (False, True):
            prefix = _INTERN.get((base, head, truncated))
            if prefix is not None:
                yield prefix, selectors[end:]


def nonvisible(index: int = 1) -> ObjectName:
    """The special non-visible object name (paper §4).

    ``index`` selects which of the two distinguishable tokens to use;
    ordinary single-assumption facts always use index 1.
    """
    return ObjectName(NONVISIBLE_BASES[index - 1])


def interned_name_count() -> int:
    """Size of the ObjectName hash-consing table (observability)."""
    return len(_INTERN)


def is_nonvisible_based(name: ObjectName) -> bool:
    """Is ``name`` rooted at a nonvisible token?"""
    return name.base in NONVISIBLE_BASES


def renumber_nonvisible(name: ObjectName, index: int) -> ObjectName:
    """Rewrite any nonvisible base in ``name`` to token ``index``."""
    if name.base in NONVISIBLE_BASES:
        return name.with_base(NONVISIBLE_BASES[index - 1])
    return name
