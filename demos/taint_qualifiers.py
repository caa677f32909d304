"""Synthesizing a taint-style qualifier order from data-flow examples.

A trusted run shows untainted data flowing into a tainted context (that is
fine: untainted values can always be treated as tainted).  A bad run shows
tainted data reaching an untainted sink.  From these two traces the
synthesizer derives the familiar two-point taint lattice: the reverse flow
is cut, untainted sits strictly below tainted, and the resulting checker
rejects exactly the bad direction.

Run with:  python3 demos/taint_qualifiers.py
"""

from flowsynth import (
    Corpus,
    Trace,
    check_trace,
    dump_analysis,
    lattice_dot,
    order_query,
    synthesize,
)

corpus = Corpus(
    mode="qualifier",
    traces=(
        Trace("trusted-run", "positive", ("untainted", "tainted")),
        Trace("observed-leak", "negative", ("tainted", "untainted")),
    ),
)

result = synthesize(corpus)

print("== synthesized cut ==")
for src, dst in sorted(result.cut.edges):
    print(f"  prohibited flow: {src} -> {dst}")

print("\n== qualifier order ==")
print("  Q_untainted vs Q_tainted:", order_query(result.order, "Q_untainted", "Q_tainted"))
print("  Q_tainted vs Q_untainted:", order_query(result.order, "Q_tainted", "Q_untainted"))

print("\n== the synthesized analysis as a checker ==")
ok = check_trace(result.spec, Trace("probe-ok", "positive", ("untainted", "tainted")))
bad = check_trace(result.spec, Trace("probe-bad", "negative", ("tainted", "untainted")))
print(f"  untainted -> tainted: {'accepted' if ok.accepted else 'rejected'}")
print(f"  tainted -> untainted: {'accepted' if bad.accepted else 'rejected'}"
      f" (violates at edge {bad.violation_index}: {bad.source_element} not leq {bad.target_element})")

print("\n== Hasse diagram (DOT) ==")
print(lattice_dot(result.order).decode("utf-8"))

print("== serialized analysis ==")
print(dump_analysis(result.spec))
