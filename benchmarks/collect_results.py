#!/usr/bin/env python3
"""Embed the benchmark tables into EXPERIMENTS.md.

Run after ``pytest benchmarks/ --benchmark-only``::

    python benchmarks/collect_results.py

Every ``benchmarks/out/*.txt`` table is embedded, in name order, as the
appendix of EXPERIMENTS.md, replacing the previous appendix.  Wall
times, per-layer splits and fact-set digests come from
``perfbench/run.py`` (see perfbench/README.md); the ``BENCH_PR*.json``
files at the repository root are the history of the per-PR sections
this script used to hold.
"""

import argparse
import pathlib

MARKER = "## Appendix — measured tables (latest benchmark run)"


def collect_tables(root: pathlib.Path, out_dir: pathlib.Path) -> None:
    experiments = root / "EXPERIMENTS.md"
    tables = []
    for path in sorted(out_dir.glob("*.txt")):
        tables.append(f"### {path.name}\n\n```\n{path.read_text().rstrip()}\n```\n")
    if not tables:
        print("no tables in benchmarks/out/; skipping EXPERIMENTS.md appendix")
        return
    text = experiments.read_text()
    if MARKER in text:
        text = text[: text.index(MARKER)].rstrip() + "\n"
    appendix = f"\n{MARKER}\n\n" + "\n".join(tables)
    experiments.write_text(text + appendix)
    print(f"embedded {len(tables)} tables into EXPERIMENTS.md")


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    root = pathlib.Path(__file__).resolve().parents[1]
    collect_tables(root, root / "benchmarks" / "out")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
