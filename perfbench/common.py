"""Helpers shared by the benchmark's driver, pass worker and serve client.

Nothing here imports ``repro`` at module level: the driver has to be able
to start (and fail cleanly) in a checkout that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for caches and trace files; listed in the root .gitignore.
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = BENCH_DIR / "golden.json"


def require_source() -> None:
    """Exit with status 2 unless the analyser's source tree is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no analyser source at {SRC}", file=sys.stderr)
        sys.exit(2)


def use_source() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: this checkout's ``src`` on the
    path and temporary files kept inside the checkout."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    return env


def fact_rows(solution) -> list[tuple[int, str, str, int]]:
    """The ``(node, AA, PA, taint)`` rows of a solved store, with AA and
    PA in the ``repro.io`` JSON encoding."""
    from repro.io import pair_to_json

    pair_text: dict = {}
    aa_text: dict = {}
    rows = []
    for (nid, assumption, pair), taint in solution.store.facts():
        p = pair_text.get(pair)
        if p is None:
            p = pair_text[pair] = json.dumps(pair_to_json(pair))
        a = aa_text.get(assumption)
        if a is None:
            a = aa_text[assumption] = json.dumps(
                [pair_to_json(x) for x in assumption]
            )
        rows.append((nid, a, p, int(bool(taint))))
    return rows


def rows_digest(rows: list[tuple[int, str, str, int]]) -> str:
    """sha256 over the sorted rows, one tab-separated line each."""
    digest = hashlib.sha256()
    for nid, a, p, taint in sorted(rows):
        digest.update(f"{nid}\t{a}\t{p}\t{taint}\n".encode("utf-8"))
    return digest.hexdigest()


def typical(samples: dict) -> float:
    """Each unit's median, then the geometric mean over units.

    The units (programs or documents) differ in cost by orders of
    magnitude, so a median over their pooled samples would sit on the
    boundary between two of them and read whichever side it lands on.
    The geometric mean weighs every unit's relative change alike."""
    medians = [statistics.median(values) for values in samples.values() if values]
    return statistics.geometric_mean(medians)


def stamp(workload: str, seed: int, trace: bool) -> dict:
    """What every report records about where and on what it ran."""
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    if not head:
        head = "unknown (not a git checkout)"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_head": head,
    }


def load_golden() -> dict:
    with GOLDEN.open() as handle:
        return json.load(handle)
