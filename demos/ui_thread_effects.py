"""Mining an effect semilattice from UI-thread violation stack traces.

GUI frameworks enforce that view methods run on the event-loop thread and
throw when they do not; the exception's stack trace is a ready-made
negative example.  A trace captured from a healthy run of the same code
path is the positive example.  In effect mode the synthesizer produces a
join semilattice: the view operation's effect is permitted inside the UI
loop's dynamic extent but has no place above the worker thread's, so the
violating trace is rejected.

Run with:  python3 demos/ui_thread_effects.py
"""

from flowsynth import Corpus, join, lattice_dot, order_query, parse_stack_trace, synthesize

VIOLATION = """android.view.ViewRootImpl$CalledFromWrongThreadException: Only the original thread that created a view hierarchy can touch its views.
\tat android.view.View.requestLayout(View.java:23093)
\tat com.app.Worker.run(Worker.java:42)
"""

TRUSTED = """Trusted run: layout pass on the UI event loop
\tat android.view.View.requestLayout(View.java:23093)
\tat android.os.UiThread.loop(UiThread.java:158)
"""

corpus = Corpus(
    mode="effect",
    traces=(
        parse_stack_trace(TRUSTED, "positive", "ui-trusted"),
        parse_stack_trace(VIOLATION, "negative", "ui-violation"),
    ),
)

result = synthesize(corpus)
lattice = result.semilattice

print("== traces, innermost frame first ==")
for trace in corpus.traces:
    print(f"  {trace.id} ({trace.polarity}): {' -> '.join(trace.nodes)}")

print("\n== effect elements ==")
for element in lattice.elements:
    tag = " (synthetic)" if element.synthetic else ""
    print(f"  {element.name}{tag}")

request_layout = lattice.assignment["android.view.View.requestLayout"]
ui_loop = lattice.assignment["android.os.UiThread.loop"]
worker = lattice.assignment["com.app.Worker.run"]

print("\n== the discipline the lattice encodes ==")
print(f"  {request_layout} vs {ui_loop}: {order_query(lattice, request_layout, ui_loop)}")
print(f"  {request_layout} vs {worker}: {order_query(lattice, request_layout, worker)}")
print(f"  join of view effect and worker effect: {join(lattice, request_layout, worker).name}")

report = result.report
print("\n== checking the corpus against its own analysis ==")
print(f"  negatives rejected: {report.negatives_rejected}, positives accepted: {report.positives_accepted}")

print("\n== Hasse diagram (DOT) ==")
print(lattice_dot(lattice).decode("utf-8"))
