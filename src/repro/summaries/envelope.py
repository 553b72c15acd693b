"""Per-procedure cache keys and envelopes for the summary engine.

The whole-program cache (``repro.cache.solve``) keys one envelope on
the canonical text of the *entire* program, so editing any function
invalidates everything.  The summary engine's unit of work is one
drain of one procedure's restricted kernel, and that drain depends on
exactly:

* the shared declaration environment (structs, typedefs, globals,
  every function's signature — signatures bind call sites — which
  declared functions have no body, which decides how a call is
  lowered, and the string literal table, which names the ``$strN``
  global behind each literal),
* the procedure's own canonical body text,
* the k-limit and engine code version,
* the exact sequence of inputs injected so far (entry-seed pairs from
  callers and mirrored callee exit facts, one canonical delta per
  drain).

Keying on the *sequence* (not just the accumulated set) means a hit
always returns the byte-identical packed state the live run would have
produced, so warm and cold solves stay indistinguishable.  Editing one
function changes only that procedure's body hash — every other
procedure's drains replay from cache as long as the edited function
still feeds them the same deltas.

Envelopes live in the same :class:`~repro.cache.store.SolutionCache`
as whole-program entries under their own schema marker;
``verify_cache`` skips them (they are not self-contained programs).
An envelope stores the harvest as the barrier uses it, each seed pair
and exit entry as its canonical JSON text, so a hit reads one string
per item instead of a nested list to re-encode.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from ..cache.keys import ENGINE_CODE_VERSION
from ..frontend.ast_nodes import FuncDecl, FuncDef, Program
from ..frontend.printer import print_program
from ..frontend.semantics import AnalyzedProgram
from ..icfg.graph import ICFG

#: Schema marker for per-procedure summary entries (distinguishes them
#: from ``repro-cache-entry/1`` whole-program envelopes in a shared
#: cache directory).  It is part of every entry key, so entries of an
#: older schema are never looked up.
SUMMARY_ENTRY_SCHEMA = "repro-summary-entry/2"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def proc_environment_text(analyzed: AnalyzedProgram, icfg: ICFG) -> str:
    """The declaration environment every procedure's solve reads: all
    non-function top-levels plus each function's *signature* (printed
    as a prototype).  Bodies are deliberately absent — they are keyed
    per procedure — but whether a declared function has one is not: a
    call to a function without a body is lowered to one node instead of
    a CALL/RETURN pair, which moves every later node of the caller.  So
    the names of the functions declared without a body close the text.
    So does the program's string literal table, read off its ``icfg``
    (:attr:`~repro.icfg.graph.ICFG.string_literals`): literals are
    numbered ``$str0``, ``$str1``, ... across the whole program, so a
    literal added to one procedure renames those of every later one.  A
    program that defines every function it declares and has no literal
    keeps the plain prototype text, and with it its keys."""
    decls = []
    defined = {fn.name for fn in analyzed.functions}
    bodiless = set()
    for decl in analyzed.ast.decls:
        if isinstance(decl, FuncDef):
            decls.append(
                FuncDecl(decl.return_type, decl.name, decl.params, decl.span)
            )
        else:
            decls.append(decl)
            if isinstance(decl, FuncDecl) and decl.name not in defined:
                bodiless.add(decl.name)
    text = print_program(Program(decls=decls))
    if bodiless:
        text += "/* no body: " + " ".join(sorted(bodiless)) + " */\n"
    literals = icfg.string_literals
    if literals:
        text += "/* string literals: " + json.dumps(list(literals)) + " */\n"
    return text


def proc_program_texts(analyzed: AnalyzedProgram) -> dict[str, str]:
    """proc name -> canonical text of just that function definition."""
    return {
        decl.name: print_program(Program(decls=[decl]))
        for decl in analyzed.ast.decls
        if isinstance(decl, FuncDef)
    }


def summary_proc_key(
    env_text: str,
    proc_text: str,
    k: int,
    code_version: str = ENGINE_CODE_VERSION,
) -> str:
    """The per-procedure half of the address: environment + body + k +
    code version.  ``max_facts``/``deadline_seconds`` are excluded the
    same way the whole-program key excludes deadlines — only complete
    drains are stored, and a complete drain's result is budget-
    independent."""
    payload = json.dumps(
        {
            "type": "summary-proc",
            "env": _sha(env_text),
            "proc": _sha(proc_text),
            "k": k,
            "code": code_version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return _sha(payload)


def summary_entry_key(proc_key: str, inputs_digest: str) -> str:
    """The full address of one drain: entry schema x procedure identity
    x the running digest of every input delta injected so far (see
    :meth:`repro.summaries.solver.ProcSolver.advance_digest`)."""
    return _sha(f"{SUMMARY_ENTRY_SCHEMA}:{proc_key}:{inputs_digest}")


def make_summary_envelope(
    key: str,
    proc: str,
    proc_key: str,
    inputs_digest: str,
    state: dict,
    harvest: dict,
) -> dict:
    """The JSON envelope one per-procedure drain stores: the packed
    post-drain kernel state (with its cumulative counters) and the
    harvest surface the coordinator diffs, its items as canonical
    texts."""
    return {
        "schema": SUMMARY_ENTRY_SCHEMA,
        "key": key,
        "proc": proc,
        "inputs": {
            "proc_key": proc_key,
            "inputs_digest": inputs_digest,
            "code_version": ENGINE_CODE_VERSION,
        },
        "state": state,
        "harvest": harvest,
    }


def load_summary_envelope(envelope: dict) -> Optional[tuple[dict, dict]]:
    """``(state, harvest)`` when the envelope is a well-formed summary
    entry of the current code version, else None (treated as a miss).
    Every harvest item must be a string."""
    try:
        if envelope["schema"] != SUMMARY_ENTRY_SCHEMA:
            return None
        if envelope["inputs"]["code_version"] != ENGINE_CODE_VERSION:
            return None
        state = envelope["state"]
        harvest = envelope["harvest"]
        if not isinstance(state, dict) or not isinstance(harvest, dict):
            return None
        seeds = harvest["seeds"]
        if not isinstance(seeds, dict):
            return None
        for items in (harvest["exits"], *seeds.values()):
            if not isinstance(items, list) or not all(
                isinstance(item, str) for item in items
            ):
                return None
        return state, harvest
    except (KeyError, TypeError):
        return None
