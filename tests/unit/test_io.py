"""Unit tests for solution serialization."""

import base64
import copy
import io
import json
from array import array

import pytest

from repro import analyze_source
from repro.frontend.semantics import parse_and_analyze
from repro.icfg.builder import build_icfg
from repro.io import (
    LoadedSolution,
    dump_solution,
    dumps_solution,
    load_solution,
    loads_solution,
    rebuild_solution,
    solution_to_dict,
)
from repro.names import ObjectName
from repro.programs.fixtures import FIGURE1

#: Document version -> the ``solution_to_dict`` flags that write it.
VERSIONS = {
    1: {},
    2: {"include_report": True},
    3: {"include_report": True, "packed": True},
}


def _document(solution, version):
    document = solution_to_dict(solution, **VERSIONS[version])
    assert document["version"] == version
    return document


def _read_back(document):
    """The stores ``rebuild_solution`` and ``LoadedSolution`` read a
    document into, the former over a fresh parse of FIGURE1."""
    analyzed = parse_and_analyze(FIGURE1)
    rebuilt = rebuild_solution(document, analyzed, build_icfg(analyzed))
    return rebuilt.store, LoadedSolution(document).store


@pytest.fixture(scope="module")
def solution():
    return analyze_source(FIGURE1, k=3)


class TestRoundTrip:
    def test_dict_shape(self, solution):
        doc = solution_to_dict(solution)
        assert doc["format"] == "repro-alias-solution"
        assert doc["version"] == 1
        assert doc["k"] == 3
        assert len(doc["nodes"]) == len(solution.icfg)
        assert doc["facts"]

    def test_string_round_trip(self, solution):
        loaded = loads_solution(dumps_solution(solution))
        for node in solution.icfg.nodes:
            assert loaded.may_alias(node.nid) == solution.may_alias(node)

    def test_file_round_trip(self, solution, tmp_path):
        path = tmp_path / "solution.json"
        with open(path, "w") as fp:
            dump_solution(solution, fp)
        with open(path) as fp:
            loaded = load_solution(fp)
        assert loaded.k == 3

    def test_alias_query_preserved(self, solution):
        loaded = loads_solution(dumps_solution(solution))
        exit_main = solution.icfg.exit_of("main")
        l1 = ObjectName("main::l1").deref().deref()
        l2 = ObjectName("main::l2").deref()
        assert loaded.alias_query(exit_main.nid, l1, l2) == solution.alias_query(
            exit_main, l1, l2
        )

    def test_percent_yes_close(self, solution):
        loaded = loads_solution(dumps_solution(solution))
        # Loaded %YES collapses assumptions to (node, pair) — identical
        # to the solution's own definition.
        assert loaded.percent_yes() == pytest.approx(solution.percent_yes(), abs=1e-9)

    def test_truncated_names_survive(self):
        src = """
        struct node { int v; struct node *next; };
        struct node *p, *q;
        int main() { p = q; return 0; }
        """
        original = analyze_source(src, k=1)
        loaded = loads_solution(dumps_solution(original))
        exit_main = original.icfg.exit_of("main")
        deep_p = ObjectName("p").extend(("*", "next", "*"))
        deep_q = ObjectName("q").extend(("*", "next", "*"))
        assert loaded.alias_query(exit_main.nid, deep_p, deep_q)


    @pytest.mark.parametrize("version", sorted(VERSIONS))
    def test_every_version_reads_back_the_live_answers(self, solution, version):
        document = _document(solution, version)
        live = solution.store
        for store in _read_back(document):
            assert store.pair_counts() == live.pair_counts()
            assert dict(store.facts()) == dict(live.facts())
            for node in solution.icfg.nodes:
                pairs = live.pairs_at(node.nid)
                assert store.pairs_at(node.nid) == pairs
                names = {member for pair in pairs for member in pair}
                for name in names | {ObjectName("no_such_var")}:
                    assert store.partners(node.nid, name) == live.partners(
                        node.nid, name
                    )
        if version == 3:
            # Nothing is re-interned: the rebuilt store packs back to the
            # document's own bytes.
            rebuilt, _ = _read_back(document)
            assert json.dumps(rebuilt.packed_json(), sort_keys=True) == json.dumps(
                document["packed"], sort_keys=True
            )


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            LoadedSolution({"format": "other", "version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError):
            LoadedSolution({"format": "repro-alias-solution", "version": 99})

    @pytest.mark.parametrize("version", sorted(VERSIONS))
    def test_fact_at_an_unlisted_node_rejected(self, solution, version):
        document = copy.deepcopy(_document(solution, version))
        unlisted = len(document["nodes"])
        if version == 3:
            column = document["packed"]["fact_node"]
            nodes = array("i")
            nodes.frombytes(base64.b64decode(column["b64"]))
            nodes[0] = unlisted
            column["b64"] = base64.b64encode(nodes.tobytes()).decode("ascii")
        else:
            document["facts"][0]["node"] = unlisted
        with pytest.raises(ValueError):
            LoadedSolution(document)
        analyzed = parse_and_analyze(FIGURE1)
        with pytest.raises(ValueError):
            rebuild_solution(document, analyzed, build_icfg(analyzed))
