"""Integration tests for the repro-aliases CLI."""

import json

import pytest

from repro.cli import main
from repro.programs.fixtures import FIGURE1


@pytest.fixture()
def figure1_file(tmp_path):
    path = tmp_path / "figure1.c"
    path.write_text(FIGURE1)
    return str(path)


class TestCli:
    def test_summary(self, figure1_file, capsys):
        assert main([figure1_file]) == 0
        out = capsys.readouterr().out
        assert "ICFG nodes:" in out
        assert "%YES_3" in out

    def test_program_aliases_listing(self, figure1_file, capsys):
        assert main([figure1_file, "--program-aliases"]) == 0
        out = capsys.readouterr().out
        assert "(*g1, g2)" in out

    def test_per_node_listing(self, figure1_file, capsys):
        assert main([figure1_file, "--per-node"]) == 0
        out = capsys.readouterr().out
        assert "per-node may-aliases:" in out

    def test_weihl_flag(self, figure1_file, capsys):
        assert main([figure1_file, "--weihl"]) == 0
        out = capsys.readouterr().out
        assert "Weihl aliases:" in out

    def test_weihl_overflow_is_an_error(self, figure1_file, capsys, monkeypatch):
        import repro.baselines.weihl as weihl

        bounded = weihl.weihl_aliases
        monkeypatch.setattr(
            weihl,
            "weihl_aliases",
            lambda *args, **kwargs: bounded(*args, max_pairs=1, **kwargs),
        )
        assert main([figure1_file, "--weihl"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: Weihl closure exceeded 1 unifications\n"
        assert captured.out == ""

    def test_dot_output(self, figure1_file, capsys):
        assert main([figure1_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_k_flag(self, figure1_file, capsys):
        assert main([figure1_file, "-k", "1"]) == 0
        assert "%YES_1" in capsys.readouterr().out

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("int main() { return 0; }"))
        assert main(["-"]) == 0
        assert "ICFG nodes:" in capsys.readouterr().out

    def test_max_facts_exceeded_reports_error(self, tmp_path, capsys):
        dense = tmp_path / "dense.c"
        dense.write_text(
            """
            struct node { int v; struct node *next; };
            struct node *p, *q;
            int main() { p = q; return 0; }
            """
        )
        assert main([str(dense), "--max-facts", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_analyze_subcommand_word_optional(self, figure1_file, capsys):
        # `repro analyze file.c` and `repro-aliases file.c` both work.
        assert main(["analyze", figure1_file]) == 0
        assert "ICFG nodes:" in capsys.readouterr().out

    def test_worklist_counters_in_summary(self, figure1_file, capsys):
        assert main([figure1_file]) == 0
        out = capsys.readouterr().out
        assert "worklist:" in out
        assert "pops" in out and "pushes" in out and "dedup hits" in out

    def test_stats_json_to_stdout(self, figure1_file, capsys):
        import json

        assert main([figure1_file, "--stats-json", "-"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out[: out.index("ICFG nodes:")])
        assert document["schema"] == "repro-stats/1"
        assert document["k"] == 3
        assert document["engine"]["worklist_pops"] > 0
        assert "propagate" in document["phases"]
        assert "parse" in document["phases"]
        assert document["budget"]["exceeded"] is False

    def test_stats_json_to_file(self, figure1_file, tmp_path, capsys):
        import json

        stats_path = tmp_path / "stats.json"
        assert main([figure1_file, "--stats-json", str(stats_path)]) == 0
        with open(stats_path) as fp:
            document = json.load(fp)
        assert document["schema"] == "repro-stats/1"
        assert document["solution"]["icfg_nodes"] > 0
        assert document["solution"]["may_hold_facts"] > 0

    def test_budget_run_still_emits_stats(self, tmp_path, capsys):
        import json

        dense = tmp_path / "dense.c"
        dense.write_text(
            """
            struct node { int v; struct node *next; };
            struct node *p, *q;
            int main() { p = q; return 0; }
            """
        )
        stats_path = tmp_path / "stats.json"
        assert main([str(dense), "--max-facts", "2", "--stats-json", str(stats_path)]) == 1
        assert "error:" in capsys.readouterr().err
        with open(stats_path) as fp:
            document = json.load(fp)
        assert document["budget"]["exceeded"] is True
        assert document["budget"]["reason"] == "max_facts"
        assert document["solution"]["percent_yes"] == 0.0

    def test_deadline_flag_accepted(self, figure1_file, capsys):
        assert main([figure1_file, "--deadline-seconds", "600"]) == 0
        assert "ICFG nodes:" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["/does/not/exist.c"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_export(self, figure1_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main([figure1_file, "--json", str(out)]) == 0
        from repro.io import load_solution

        with open(out) as fp:
            loaded = load_solution(fp)
        assert loaded.k == 3
        assert loaded.node_pair_count() > 0

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        assert main([str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [[], ["lint"]])
    def test_stdin_only_as_sole_input(self, figure1_file, capsys, command):
        assert main([*command, figure1_file, "-"]) == 2
        assert "'-' (stdin) requires a single input file" in capsys.readouterr().err

    def test_unsupported_feature_reported(self, tmp_path, capsys):
        bad = tmp_path / "fp.c"
        bad.write_text("int (*fp)(int); int main() { return 0; }")
        assert main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert "function pointer" in err or "declarator" in err


class TestDifftestCli:
    """``repro difftest``: exit statuses, reports, replay, stats."""

    def test_clean_sweep_exits_zero(self, capsys):
        assert main(["difftest", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "difftest: 2 programs, 0 violations" in out

    def test_replay_corpus_entry(self, capsys):
        assert (
            main(
                [
                    "difftest",
                    "--replay",
                    "tests/corpus/mutation-assign-intro.c",
                ]
            )
            == 0
        )
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_replay_parse_error_exits_one_at_every_job_count(
        self, tmp_path, capsys, jobs
    ):
        good = tmp_path / "good.c"
        good.write_text(FIGURE1)
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        stats = tmp_path / "stats.json"
        status = main(
            [
                "difftest",
                "--replay",
                str(good),
                str(bad),
                "--jobs",
                jobs,
                "--stats-json",
                str(stats),
            ]
        )
        assert status == 1
        captured = capsys.readouterr()
        # The same line at every --jobs: the parse error survives the
        # worker boundary unchanged.
        assert (
            f"error: {bad}: shard error: ParseError: <input>:1:11: expected type"
            in captured.err
        )
        # The good file still ran; the bad one is a degraded verdict.
        assert "difftest: 2 programs, 0 violations" in captured.out
        assert json.loads(stats.read_text())["suite"]["degraded_shards"] == 1

    def test_replay_missing_file_exits_two(self, capsys):
        assert main(["difftest", "--replay", "/does/not/exist.c"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_json_stdout(self, capsys):
        import json

        assert main(["difftest", "--seeds", "1", "--stats-json", "-"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out[: out.rindex("}") + 1])
        assert document["schema"] == "repro-difftest/1"
        assert document["suite"]["programs"] == 1

    def test_violation_exits_three_with_report_and_shrunk_corpus(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.core.transfer import AssignTransfer
        from repro.cli import EXIT_SOUNDNESS_VIOLATION

        monkeypatch.setattr(
            AssignTransfer, "intro", lambda self, succ_id, stmt: None
        )
        corpus = tmp_path / "corpus"
        status = main(
            [
                "difftest",
                "--seeds",
                "3",
                "--draws",
                "4",
                "--corpus-dir",
                str(corpus),
            ]
        )
        assert status == EXIT_SOUNDNESS_VIOLATION
        out = capsys.readouterr().out
        assert "SOUNDNESS VIOLATION" in out
        assert "dynamic_in_lr" in out
        assert "saved to" in out
        entries = list(corpus.glob("*.c"))
        assert len(entries) == 1
        assert len(entries[0].read_text().splitlines()) <= 30
