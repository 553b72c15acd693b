"""The taint lattice end to end: clean re-derivations must upgrade
facts and re-propagate (absent < tainted < clean)."""

import pytest

from repro import analyze_source


class TestUpgradePropagation:
    def test_fact_with_both_clean_and_tainted_derivations_counts_yes(self):
        # (**u, a) is derivable two ways at p = &a:
        #   - via the pairing with an independent fact (tainted), and
        #   - via case 3.i from (p, *u) directly (clean).
        # Whichever order the worklist takes, the final state is clean.
        source = """
        int *p, **u, *z, a, c;
        int main() {
            u = &p;
            if (c) { z = p; }
            p = &a;
            return 0;
        }
        """
        solution = analyze_source(source)
        node = next(
            n
            for n in solution.icfg.nodes
            if n.is_pointer_assignment and "p = &a" in n.label()
        )
        from repro.names import AliasPair, ObjectName

        pair = AliasPair(ObjectName("u").deref().deref(), ObjectName("a"))
        taints = [
            clean
            for (nid, _aa, pa), clean in solution.store.facts()
            if nid == node.nid and pa == pair
        ]
        assert taints, "the derived alias must exist"
        assert any(taints), "the clean derivation must win"

    def test_upgrades_counted_in_stats(self):
        source = """
        int *p, **u, *z, a, c;
        int main() {
            u = &p;
            if (c) { z = p; }
            p = &a;
            z = *u;
            return 0;
        }
        """
        solution = analyze_source(source)
        # Upgrades may or may not fire depending on worklist order, but
        # the counter must be consistent with the lattice (no negative
        # or absurd values) and the store must be internally coherent.
        stats = solution.engine
        assert stats.upgrades >= 0
        assert stats.facts == len(solution.store)
