"""Dynamic soundness: every alias observed by the concrete interpreter
must be predicted by the static may-alias solution.

This is the library's strongest correctness property — it exercises the
frontend, the lowerer, the interprocedural worklist and the concrete
interpreter together on randomly generated programs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.interp import validate_soundness
from repro.programs import ProgramSpec, generate_program
from repro.programs.fixtures import ALL_FIXTURES

FIXTURE_IDS = sorted(ALL_FIXTURES)

# string_table's bucket array makes k=3 two orders of magnitude more
# expensive (weak updates never kill, so the pair universe saturates);
# its deeper-k behaviour is covered by the stress suite.
_FIXTURE_MATRIX = [
    (name, k)
    for name in FIXTURE_IDS
    for k in ((1, 2) if name == "string_table" else (1, 2, 3))
]


@pytest.mark.parametrize(("name", "k"), _FIXTURE_MATRIX)
def test_fixture_soundness(name, k):
    report = validate_soundness(ALL_FIXTURES[name], k=k, fuel=200_000)
    assert report.ok, [str(v) for v in report.violations[:5]]
    assert report.checked_nodes > 0


# Two things let these run without the budget escape hatches older
# revisions needed: the generator's depth/density knobs steer draws
# away from the k-limiting saturation pathology (recursion + deep
# struct-pointer globals flooding the truncated-name universe), and
# ``derandomize=True`` pins the hypothesis examples — a verified draw
# stays verified, while randomized breadth lives in the difftest
# sweeps whose budgets degrade gracefully (on_budget="partial").
FUZZ_SPEC = dict(
    n_functions=3,
    n_globals=5,
    stmts_per_function=7,
    max_pointer_depth=1,
    pointer_density=0.85,
)


@pytest.mark.slow  # dominates the property suite (minutes of interpreter fuzzing)
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=1, max_value=10_000),
    k=st.integers(min_value=1, max_value=3),
)
def test_generated_program_soundness(seed, k):
    spec = ProgramSpec(name=f"fuzz{seed}", seed=seed, **FUZZ_SPEC)
    source = generate_program(spec)
    report = validate_soundness(source, k=k, fuel=60_000, max_facts=600_000)
    assert report.ok, (
        [str(v) for v in report.violations[:5]],
        source,
    )


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=1, max_value=10_000))
def test_generated_program_analyzable(seed):
    """Generated programs always parse, check, lower and analyze —
    with the depth/density knobs, within budget."""
    from repro import analyze_source

    spec = ProgramSpec(name=f"gen{seed}", seed=seed, **FUZZ_SPEC)
    solution = analyze_source(generate_program(spec), k=2, max_facts=600_000)
    assert solution.stats().icfg_nodes > 0


# Generator draws that blow past the fact budget at k=2 despite the
# knobs.  They must end in a bounded, labelled partial verdict rather
# than a hang or an unbounded store.
@pytest.mark.parametrize("seed", [725])
def test_generated_blowup_ends_budget_partial(seed):
    from repro import analyze_source

    spec = ProgramSpec(name=f"gen{seed}", seed=seed, **FUZZ_SPEC)
    solution = analyze_source(
        generate_program(spec), k=2, max_facts=600_000, on_budget="partial"
    )
    assert not solution.complete
    assert solution.budget.reason == "max_facts"
