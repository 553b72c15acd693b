"""Object names, k-limiting, alias pairs, visibility (paper §3)."""

from .alias_pairs import AliasPair, make_pair, pair_represented
from .context import NameContext, collapse_arrays
from .object_names import (
    DEREF,
    NONVISIBLE_BASES,
    ObjectName,
    apply_trans,
    is_nonvisible_based,
    k_limit,
    nonvisible,
    renumber_nonvisible,
    representatives,
)

__all__ = [
    "AliasPair",
    "DEREF",
    "NONVISIBLE_BASES",
    "NameContext",
    "ObjectName",
    "apply_trans",
    "collapse_arrays",
    "is_nonvisible_based",
    "k_limit",
    "make_pair",
    "nonvisible",
    "pair_represented",
    "renumber_nonvisible",
    "representatives",
]
