// difftest-corpus: {"checks": ["dynamic_in_lr", "exact_in_lr", "lint_soundness"], "k": 3, "lines": 9, "origin": "NULL stored through an alias: *h = 0 with h = &p"}
// Reproduce: PYTHONPATH=src python -m repro.cli difftest --replay tests/corpus/null-store-through-alias.c
// h points to p, so `*h = 0` writes NULL into p and the final `*p`
// dereferences it.  The null-deref detector sees that store only
// through the may-alias (*h, p), so `repro lint` reports the deref as
// warning/possible; the dead store to x is the one definite finding.
// Replay holds the alias (*h, p) to the dynamic and exact oracles.
int x;
int *p;
int **h;
void main(void) {
    h = &p;
    p = &x;
    *h = 0;
    x = *p;
}
