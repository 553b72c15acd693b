"""Scaling: analysis cost as a function of program size.

The paper's tables report analysis time per program; this bench makes
the size→cost relationship explicit on a controlled family (one
generator, one style, four sizes).  Expected shape: fact counts and
time grow superlinearly with ICFG nodes — exactly the growth visible
across the paper's Table 2 (257 aliases at 407 nodes vs 400k at 5960).

Output: ``benchmarks/out/scaling.txt``.
"""

import pytest

from repro.bench import format_table, write_report
from repro.bench.runner import measure
from repro.programs import ProgramSpec, generate_program

SIZES = (100, 200, 400, 800)

_ROWS: dict[int, object] = {}


@pytest.mark.parametrize("target", SIZES)
def test_scaling_point(benchmark, target):
    spec = ProgramSpec.for_target_nodes("scaling", target)
    source = generate_program(spec)

    def run():
        return measure(f"scale{target}", source, k=3, run_weihl=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _ROWS[target] = result


def test_scaling_report(benchmark):
    if not _ROWS:
        pytest.skip("no rows collected (run with --benchmark-only)")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for target in SIZES:
        m = _ROWS[target]
        rows.append(
            (
                target,
                m.icfg_nodes,
                m.lr_node_aliases,
                f"{m.lr_node_aliases / max(1, m.icfg_nodes):.1f}",
                f"{m.percent_yes:.0f}",
                f"{m.lr_seconds:.2f}s",
            )
        )
    table = format_table(
        "Scaling — analysis cost vs program size (same generator family)",
        ("target", "nodes", "(node,alias)", "aliases/node", "%YES", "time"),
        rows,
        note="superlinear alias growth matches the paper's Table 2 spread",
    )
    path = write_report("scaling.txt", table)
    print(f"\n{table}\nwritten to {path}")
    small = _ROWS[SIZES[0]]
    large = _ROWS[SIZES[-1]]
    assert (
        large.lr_node_aliases / max(1, small.lr_node_aliases)
        > large.icfg_nodes / max(1, small.icfg_nodes)
    ), "alias counts must grow superlinearly in nodes on this family"
