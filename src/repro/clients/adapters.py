"""Alias-provider adapters for client analyses.

Client analyses (:mod:`repro.clients.reaching_defs`,
:mod:`repro.clients.conflicts`) consume the small query surface of
:class:`MayAliasSolution`.  This module adapts the baselines to the
same surface so downstream precision can be compared — the paper's
motivation ("the precision of aliases greatly affects the quality of
optimized code") made measurable.
"""

from __future__ import annotations

from typing import Optional

from ..baselines.andersen import AndersenResult
from ..baselines.weihl import WeihlResult
from ..frontend.semantics import AnalyzedProgram
from ..icfg.graph import ICFG
from ..icfg.ir import Node
from ..names.alias_pairs import AliasPair, pair_represented
from ..names.context import NameContext
from ..names.object_names import ObjectName


class WeihlBackedSolution:
    """Presents a Weihl program-alias relation through the
    MayAliasSolution query surface (every node sees the same aliases —
    that is exactly Weihl's flow-insensitivity)."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        icfg: ICFG,
        weihl: WeihlResult,
        k: int = 3,
    ) -> None:
        self.icfg = icfg
        self.ctx = NameContext(analyzed.symbols, k)
        self.k = k
        self._aliases = weihl.aliases
        self._by_name: dict[ObjectName, set[ObjectName]] = {}
        for pair in weihl.aliases:
            self._by_name.setdefault(pair.first, set()).add(pair.second)
            self._by_name.setdefault(pair.second, set()).add(pair.first)

    def may_alias(self, node: Node | int) -> set[AliasPair]:
        """The whole program relation (same at every node)."""
        return set(self._aliases)

    def exact_partners(self, node: Node | int, name: ObjectName) -> set[ObjectName]:
        """Names paired with exactly ``name`` program-wide."""
        return set(self._by_name.get(name, ()))

    may_alias_names = exact_partners

    def alias_query(self, node: Node | int, a: ObjectName, b: ObjectName) -> bool:
        """Program-wide alias query with truncated-representative coverage."""
        return pair_represented(lambda name: self._by_name.get(name, ()), a, b)


class AndersenBackedSolution:
    """Presents the Andersen-style points-to baseline through the
    MayAliasSolution query surface.

    Andersen's abstraction is field-insensitive: an alias ``(*p, *q)``
    (same points-to sets) stands for aliasing at *any* selector depth
    below the variables, so ``alias_query`` widens each queried name to
    its first-deref form.  Flow-insensitive like Weihl: every node sees
    the same relation.
    """

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        icfg: ICFG,
        andersen: AndersenResult,
        k: int = 3,
    ) -> None:
        self.icfg = icfg
        self.ctx = NameContext(analyzed.symbols, k)
        self.k = k
        self._aliases = andersen.aliases
        self._by_base: dict[str, set[str]] = {}
        self._by_name: dict[ObjectName, set[ObjectName]] = {}
        for pair in andersen.aliases:
            self._by_base.setdefault(pair.first.base, set()).add(pair.second.base)
            self._by_base.setdefault(pair.second.base, set()).add(pair.first.base)
            self._by_name.setdefault(pair.first, set()).add(pair.second)
            self._by_name.setdefault(pair.second, set()).add(pair.first)

    def _bases_alias(self, a: ObjectName, b: ObjectName) -> bool:
        """Do the two names dereference variables with intersecting
        points-to sets?  Only deref-bearing names denote
        pointed-to storage (bare ``a``/``b`` never alias here)."""
        from ..names.object_names import DEREF

        if DEREF not in a.selectors and not a.truncated:
            return False
        if DEREF not in b.selectors and not b.truncated:
            return False
        return b.base in self._by_base.get(a.base, ())

    def may_alias(self, node: Node | int) -> set[AliasPair]:
        """The whole-program relation (flow-insensitive)."""
        return set(self._aliases)

    def may_alias_names(self, node: Node | int, name: ObjectName) -> set[ObjectName]:
        """Names aliased to ``name`` program-wide, at the coarse
        one-deref-per-variable granularity."""
        from ..names.object_names import DEREF

        if DEREF not in name.selectors and not name.truncated:
            return set()
        return {
            ObjectName(base).deref() for base in self._by_base.get(name.base, ())
        }

    def exact_partners(self, node: Node | int, name: ObjectName) -> set[ObjectName]:
        """Names paired with exactly ``name`` in the relation's pairs
        (finer than :meth:`may_alias_names`)."""
        return set(self._by_name.get(name, ()))

    def alias_query(self, node: Node | int, a: ObjectName, b: ObjectName) -> bool:
        """Coarse query: may the storage below ``a``'s and ``b``'s base
        variables overlap?"""
        return self._bases_alias(a, b)
