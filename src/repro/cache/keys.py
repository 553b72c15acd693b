"""Cache keys: canonical IR hash + solve configuration + code version.

A cache entry must be invalidated by exactly the inputs that can change
the solution:

* the program itself — hashed over the *pretty-printed parse tree*, so
  formatting, comments and re-parses of identical source hit, while any
  change to one IR statement misses;
* the k-limit;
* the engine configuration (fact budget, backend) — a complete
  fixpoint is in fact independent of ``max_facts``, but keying
  on the configuration keeps the invariant trivially auditable and
  matches the stats the entry reproduces;
* the solver code version (:data:`ENGINE_CODE_VERSION`), bumped
  whenever the engine's semantics or the serialization change.

``deadline_seconds`` is deliberately *not* part of the key: it is a
wall-clock bound, and only complete solutions (which never hit it) are
ever stored.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from ..frontend.printer import print_program
from ..frontend.semantics import AnalyzedProgram

#: Bump on any change to the solver's semantics or to the serialized
#: solution format; every bump orphans old entries (they simply stop
#: being addressed — ``repro cache clear`` reclaims the space).
#: 6.0: integer-ID kernel backend + insertion-ordered reference
#: indexes (taint bits are now PYTHONHASHSEED-independent).
# 7.0: unconditional extension/closure emission in the assignment
# transfer (schedule-independent fact sets; solutions can gain implied
# alias pairs the gated emission dropped).
ENGINE_CODE_VERSION = "lr-engine/7.0"


def canonical_program_text(analyzed: AnalyzedProgram) -> str:
    """The pretty-printed parse tree: the canonical spelling of the
    program's IR (whitespace- and comment-insensitive)."""
    return print_program(analyzed.ast)


def canonical_ir_hash(analyzed: AnalyzedProgram) -> str:
    """SHA-256 over the canonical program text."""
    text = canonical_program_text(analyzed)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def engine_config_dict(
    max_facts: Optional[int] = None, engine: str = "kernel"
) -> dict:
    """The engine-configuration fragment of the key.

    The kernel and reference backends produce identical solutions (the
    difftest lattice pins that), but keying on the backend keeps every
    entry reproducible by exactly the configuration that wrote it."""
    return {"max_facts": max_facts, "engine": engine}


def entry_key(
    ir_hash: str,
    k: int,
    engine_config: dict,
    code_version: str = ENGINE_CODE_VERSION,
) -> str:
    """The content address: SHA-256 over the canonical JSON encoding of
    every key input."""
    payload = json.dumps(
        {
            "ir": ir_hash,
            "k": k,
            "engine": engine_config,
            "code": code_version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
