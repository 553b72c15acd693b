"""End-to-end: ``--jobs`` / ``--cache-dir`` on the CLI, the ``repro
cache`` subcommand, and the cross-job determinism guarantee.

Determinism is checked the strong way: the stats documents of runs at
different job counts must be *equal* after stripping wall-clock fields
(``repro.core.metrics.strip_timing``) — not merely similar.
"""

import json

import pytest

from repro.cli import main
from repro.core.metrics import strip_timing
from repro.difftest.harness import DifftestConfig, run_difftest_suite
from repro.programs.fixtures import FIGURE1

pytestmark = pytest.mark.parallel

#: Small but non-trivial: calls, globals, pointer-dense.
SWEEP_SEEDS = [1, 2, 3]
SWEEP_CONFIG = dict(k=2, draws=4)


def _suite_stats(jobs, cache_dir=None):
    config = DifftestConfig(**SWEEP_CONFIG)
    suite = run_difftest_suite(
        SWEEP_SEEDS, config, jobs=jobs, cache_dir=cache_dir
    )
    return suite.stats_dict()


class TestJobsDeterminism:
    def test_difftest_suite_stats_equal_across_job_counts(self):
        docs = [strip_timing(_suite_stats(jobs)) for jobs in (1, 2, 4)]
        assert docs[0] == docs[1] == docs[2]
        assert docs[0]["programs"] == len(SWEEP_SEEDS)
        assert docs[0]["failures"] == 0
        assert docs[0]["degraded_shards"] == 0
        # The aggregated engine block is part of the guarantee.
        assert docs[0]["engine"]["worklist_pops"] > 0

    def test_analyze_single_file_output_equal_across_job_counts(
        self, tmp_path, capsys
    ):
        path = tmp_path / "fig1.c"
        path.write_text(FIGURE1)

        def run(jobs):
            assert main([str(path), "-k", "2", "--jobs", str(jobs)]) == 0
            out = capsys.readouterr().out
            # Only the wall-clock line may differ: --jobs does not
            # change how the kernel engine solves one file, so the
            # worklist counters match too.
            return [
                line
                for line in out.splitlines()
                if not line.startswith("analysis time:")
            ]

        assert run(1) == run(2) == run(4)


class TestSummaryEngineDeterminism:
    """PR 7: ``--engine summary`` returns *byte-identical* solutions
    for every job count (strict-barrier rounds; see the solver module
    docstring)."""

    def test_summary_solutions_byte_identical_across_job_counts(self, monkeypatch):
        import repro.summaries.solver as solver_module
        from repro.frontend.semantics import parse_and_analyze
        from repro.icfg.builder import build_icfg
        from repro.io import solution_to_dict
        from repro.programs import ProgramSpec, generate_program
        from repro.summaries.solver import solve_summary

        # The pool runs at jobs 2 and 4 even on a 1- or 2-core host.
        monkeypatch.setattr(solver_module, "_cores", lambda: 8)
        source = generate_program(ProgramSpec("summary-par", seed=2))
        documents = []
        for jobs in (1, 2, 4):
            # A fresh parse per run: repeated ICFG builds over one
            # analyzed program shift the temp-name uniquifiers, which
            # would fail the byte comparison for reasons that have
            # nothing to do with scheduling.
            analyzed = parse_and_analyze(source)
            icfg = build_icfg(analyzed)
            solution = solve_summary(analyzed, icfg, k=2, jobs=jobs)
            assert solution.complete
            documents.append(
                json.dumps(solution_to_dict(solution, packed=True), sort_keys=True)
            )
        assert documents[0] == documents[1] == documents[2]

    def test_summary_cli_stats_equal_across_job_counts(self, tmp_path, capsys):
        path = tmp_path / "fig1.c"
        path.write_text(FIGURE1)

        def run(jobs):
            stats_path = tmp_path / f"stats{jobs}.json"
            code = main(
                [
                    str(path),
                    "-k",
                    "2",
                    "--engine",
                    "summary",
                    "--jobs",
                    str(jobs),
                    "--stats-json",
                    str(stats_path),
                ]
            )
            assert code == 0
            capsys.readouterr()
            return strip_timing(json.loads(stats_path.read_text()))

        assert run(1) == run(2) == run(4)


class TestWarmCache:
    def test_warm_difftest_rerun_skips_all_solves(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = _suite_stats(jobs=1, cache_dir=cache_dir)
        warm = _suite_stats(jobs=2, cache_dir=cache_dir)

        assert cold["cache"]["hit"] == 0
        assert cold["cache"]["miss"] == len(SWEEP_SEEDS)
        # ISSUE acceptance: a warm rerun skips >= 90% of solves; here
        # every complete solution comes back from the cache.
        assert warm["cache"]["hit"] == len(SWEEP_SEEDS)
        assert warm["cache"]["miss"] == 0
        assert warm["cache"]["hit_rate"] == 1.0

        # Warm results are byte-identical to cold modulo timing.
        assert strip_timing({**cold, "cache": None}) == strip_timing(
            {**warm, "cache": None}
        )

    def test_analyze_cache_roundtrip_cli(self, tmp_path, capsys):
        path = tmp_path / "fig1.c"
        path.write_text(FIGURE1)
        cache_dir = str(tmp_path / "cache")
        args = [str(path), "-k", "2", "--cache-dir", cache_dir]

        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out

        strip = lambda text: [
            line
            for line in text.splitlines()
            if not line.startswith("analysis time:")
        ]
        assert strip(cold) == strip(warm)


class TestMultiFileSweeps:
    def test_analyze_sweep_prints_one_line_per_file(self, tmp_path, capsys):
        paths = []
        for index in range(3):
            path = tmp_path / f"prog{index}.c"
            path.write_text(FIGURE1)
            paths.append(str(path))
        stats_file = tmp_path / "stats.json"
        code = main(
            paths + ["-k", "2", "--jobs", "2", "--stats-json", str(stats_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for path in paths:
            assert any(line.startswith(f"{path}:") for line in out.splitlines())
        document = json.loads(stats_file.read_text())
        assert document["schema"] == "repro-stats-multi/1"
        assert len(document["files"]) == 3
        assert document["failed_shards"] == 0
        assert document["engine"]["worklist_pops"] > 0

    @pytest.mark.parametrize("engine", ["kernel", "reference", "summary"])
    def test_sweep_entry_equals_single_file_document(self, engine, tmp_path, capsys):
        """A file analyzed in a sweep reports exactly what it reports
        alone: same engine, same counters, same phases."""
        from repro.programs import ProgramSpec, generate_program

        fig1 = tmp_path / "fig1.c"
        fig1.write_text(FIGURE1)
        seed2 = tmp_path / "seed2.c"
        seed2.write_text(generate_program(ProgramSpec("seed2", seed=2)))
        sweep_path = tmp_path / "sweep.json"
        single_path = tmp_path / "single.json"
        common = ["-k", "2", "--engine", engine, "--stats-json"]
        assert main([str(fig1), str(seed2), *common, str(sweep_path)]) == 0
        assert main([str(fig1), *common, str(single_path)]) == 0
        capsys.readouterr()
        (entry,) = [
            e
            for e in json.loads(sweep_path.read_text())["files"]
            if e["file"] == str(fig1)
        ]
        single = json.loads(single_path.read_text())

        def comparable(document):
            document = strip_timing(
                {k: v for k, v in document.items() if k not in ("file", "cache")}
            )
            document["engine"] = {
                k: v
                for k, v in document["engine"].items()
                if not k.startswith("interned_")
            }
            return document

        assert comparable(entry) == comparable(single)
        assert set(entry["phases"]) == set(single["phases"])
        assert {"parse", "icfg"} <= set(entry["phases"])

    def test_lint_sweep_renders_every_file(self, tmp_path, capsys):
        paths = []
        for index in range(2):
            path = tmp_path / f"prog{index}.c"
            path.write_text(FIGURE1)
            paths.append(str(path))
        code = main(["lint"] + paths + ["--jobs", "2", "--fail-on", "never"])
        assert code == 0
        out = capsys.readouterr().out
        for path in paths:
            assert f"== {path} ==" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_lint_sweep_over_budget_names_each_file(self, tmp_path, capsys, jobs):
        """An exceeded fact budget is a per-file error, the same at every
        --jobs: the message crosses the worker boundary, not the
        exception holding the partial solution."""
        paths = []
        for index in range(2):
            path = tmp_path / f"prog{index}.c"
            path.write_text(FIGURE1)
            paths.append(str(path))
        stats = tmp_path / "lint.json"
        argv = ["lint", *paths, "--max-facts", "10", "--jobs", jobs]
        assert main([*argv, "--stats-json", str(stats)]) == 1
        err = capsys.readouterr().err
        for path in paths:
            assert f"error: {path}: analysis exceeded max_facts=10" in err
        assert "shard" not in err
        document = json.loads(stats.read_text())
        assert document["failed_shards"] == 0
        assert document["parse_errors"] == 0
        assert [entry["file"] for entry in document["files"]] == paths
        assert all(
            entry["error"].startswith(f"{entry['file']}: analysis exceeded")
            for entry in document["files"]
        )


class TestCacheSubcommand:
    def _populate(self, tmp_path, capsys):
        path = tmp_path / "fig1.c"
        path.write_text(FIGURE1)
        cache_dir = str(tmp_path / "cache")
        assert main([str(path), "-k", "2", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        return cache_dir

    def test_stats_clear_verify_flow(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path, capsys)

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["schema"] == "repro-cache/1"
        assert stats["entries"] == 1

        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
        assert "0 problems" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "1 entries removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_verify_flags_a_tampered_entry(self, tmp_path, capsys):
        import base64

        from repro.cache.store import SolutionCache

        cache_dir = self._populate(tmp_path, capsys)
        (entry,) = list(SolutionCache(cache_dir).iter_paths())
        envelope = json.loads(entry.read_text())
        packed = envelope["solution"]["packed"]
        taint = bytearray(base64.b64decode(packed["taint"]))
        taint[0] ^= 1
        packed["taint"] = base64.b64encode(bytes(taint)).decode("ascii")
        entry.write_text(json.dumps(envelope))
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
        assert "1 problems" in capsys.readouterr().out
