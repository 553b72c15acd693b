"""Unit tests for the pycparser adapter (skipped without pycparser)."""

import pytest

pycparser = pytest.importorskip("pycparser")

from repro.frontend import UnsupportedFeatureError, analyze
from repro.frontend.pycparser_bridge import parse_c
from repro.icfg import build_icfg


def analyze_c(source):
    return analyze(parse_c(source))


class TestConversion:
    def test_simple_program(self):
        ap = analyze_c(
            """
            int *g, v;
            int main() { g = &v; return 0; }
            """
        )
        assert "g" in ap.symbols.globals
        build_icfg(ap).validate()

    def test_struct_and_arrow(self):
        ap = analyze_c(
            """
            struct node { int v; struct node *next; };
            struct node *head;
            int main() { head->v = 1; return 0; }
            """
        )
        assert ap.ast.structs[0].name == "node"

    def test_functions_and_calls(self):
        ap = analyze_c(
            """
            int *identity(int *p) { return p; }
            int *r; int v;
            int main() { r = identity(&v); return 0; }
            """
        )
        assert ap.symbols.function("identity").return_slot is not None

    def test_control_flow(self):
        ap = analyze_c(
            """
            int main() {
                int i, s;
                s = 0;
                for (i = 0; i < 3; i = i + 1) { s = s + i; }
                while (s > 0) { s = s - 1; }
                do { s = s + 1; } while (s < 2);
                if (s) { s = 0; } else { s = 1; }
                return s;
            }
            """
        )
        build_icfg(ap).validate()

    def test_switch(self):
        ap = analyze_c(
            """
            int main() {
                int x;
                x = 1;
                switch (x) { case 1: x = 2; break; default: x = 3; }
                return x;
            }
            """
        )
        build_icfg(ap).validate()

    def test_typedef(self):
        ap = analyze_c("typedef int *intp; intp g; int main() { return 0; }")
        assert "g" in ap.symbols.globals

    def test_full_analysis_matches_native_frontend(self):
        """The bridge and the native parser must agree on the alias
        solution for a shared-subset program."""
        from repro import analyze_program, parse_and_analyze
        from repro.core import analyze_program as ap_run

        source = """
        int *g1, g2;
        void p(void) { g1 = &g2; }
        int main() {
            int **l1, *l2;
            l2 = &g2; g1 = &g2; l1 = &g1;
            p();
            return 0;
        }
        """
        native = analyze_program(parse_and_analyze(source), k=3)
        bridged = analyze_program(analyze(parse_c(source)), k=3)
        native_pairs = {str(p) for p in native.program_aliases()}
        bridged_pairs = {str(p) for p in bridged.program_aliases()}
        assert native_pairs == bridged_pairs

    def test_char_escapes_match_native_frontend(self):
        from repro import parse_and_analyze
        from repro.frontend.printer import print_program

        source = r"""
        int main() {
            char a, b, c, d;
            a = '\0'; b = '\\'; c = '\''; d = 'x';
            return 0;
        }
        """
        native = print_program(parse_and_analyze(source).ast)
        assert print_program(parse_c(source)) == native
        assert print_program(parse_and_analyze(native).ast) == native


class TestRejections:
    def test_union_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            analyze_c("union u { int a; float b; }; union u v; int main() { return 0; }")

    def test_cast_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            analyze_c("int main() { int x; x = (int) 1.5; return x; }")

    def test_varargs_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            analyze_c("int f(int a, ...); int main() { return 0; }")
