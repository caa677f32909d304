"""Seeded input generators for the benchmark's workloads.

Each workload puts the text of its input files into a `files` dict, path
to text (the caller writes them out, so that set-up time is generation and
serialization only), and returns the cases to run: one corpus each, with
the command lines for `synth` and `check` and the facts the independent
reference needs (the flow edges, the positive edges, the negative pairs and
the expected verdict of every probe trace).  flowsynth only ever sees the
files.

The seed renames nodes, reorders traces and draws the filler traces.  The
shape that sets the cost of a workload (gadget depth, cut instance,
semilattice size, probe count) is fixed per workload, so that every seed
asks the program for about the same work and the figures stay comparable
from seed to seed.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path

Edge = tuple[str, str]
TraceSpec = tuple[str, str, tuple[str, ...]]  # (id, polarity, nodes)

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass
class Case:
    """One corpus of a workload and what the reference checks it against."""

    name: str
    corpus: str  # cases that share a corpus share its synthesized analysis
    synth_argv: list[str]
    check_argv: list[str]
    analysis: Path
    check_report: Path
    edges: frozenset[Edge]
    protected: frozenset[Edge]
    negative_pairs: frozenset[Edge]
    expected: dict[str, bool] = field(repr=False)  # probe trace id -> accepted
    synth_repeats: int = 1  # syntheses per check in one iteration


@dataclass(frozen=True)
class Sizes:
    ladder_gadgets: int
    ladder_depth: int
    hub_layers: int
    hub_width: int
    exact_cycles: tuple[tuple[int, int], ...]  # (cuttable edges, window) per corpus
    ui_chains: int
    ui_positive_files: int
    stream_probes: int
    stream_files: int


FULL = Sizes(
    ladder_gadgets=6,
    ladder_depth=24,
    hub_layers=4,
    hub_width=16,
    exact_cycles=tuple((n, w) for w in (3, 4, 5, 6) for n in range(35, 41)),
    ui_chains=5,
    ui_positive_files=4,
    stream_probes=100_000,
    stream_files=4,
)

SMOKE = Sizes(
    ladder_gadgets=2,
    ladder_depth=4,
    hub_layers=2,
    hub_width=3,
    exact_cycles=((8, 3), (9, 4)),
    ui_chains=2,
    ui_positive_files=1,
    stream_probes=200,
    stream_files=2,
)


def tag(rng: random.Random, length: int = 4) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def corpus_text(mode: str, traces: list[TraceSpec]) -> str:
    doc = {
        "mode": mode,
        "traces": [{"id": i, "polarity": p, "nodes": list(nodes)} for i, p, nodes in traces],
    }
    return json.dumps(doc, indent=1) + "\n"


def number(rng: random.Random, specs: list[tuple[str, tuple[str, ...]]]) -> list[TraceSpec]:
    """Shuffle (polarity, nodes) pairs and give them fixed-width ids."""
    rng.shuffle(specs)
    return [(f"{p[:3]}{i:06d}", p, nodes) for i, (p, nodes) in enumerate(specs)]


def make_case(
    name: str,
    workdir: Path,
    synth_input: list[str],
    traces: list[TraceSpec],
    probe: Path,
    probes: list[TraceSpec],
    solver: str,
    synth_repeats: int = 1,
    corpus: str | None = None,
) -> Case:
    corpus = corpus or name
    out = workdir / corpus / "out"
    analysis = out / "analysis.json"
    checked = workdir / name / "checked"
    edges = {e for _, _, nodes in traces for e in zip(nodes, nodes[1:])}
    protected = {e for _, p, nodes in traces if p == POSITIVE for e in zip(nodes, nodes[1:])}
    return Case(
        name=name,
        corpus=corpus,
        synth_argv=["synth", *synth_input, "--solver", solver, "--out", str(out)],
        check_argv=["check", "--analysis", str(analysis), "--corpus", str(probe), "--out", str(checked)],
        analysis=analysis,
        check_report=checked / "report.json",
        edges=frozenset(edges),
        protected=frozenset(protected),
        negative_pairs=frozenset((nodes[0], nodes[-1]) for _, p, nodes in traces if p == NEGATIVE),
        expected={i: p == POSITIVE for i, p, _ in probes},
        synth_repeats=synth_repeats,
    )


# ---------------------------------------------------------------------------
# taint-ladder: refinement rounds over a large layered qualifier corpus

def ladder_specs(rng: random.Random, gadgets: int, depth: int, hub_layers: int, hub_width: int):
    """Layered qualifier traces built from refinement gadgets.

    A gadget has a source s and a sink t with the negative flow s -> t.
    Positives climb a spine s -> up1 -> ... -> up<depth>; from each spine
    node a negative descends to a rung node, which climbs back to t.  The
    path over rung j only shows up once the shorter rungs are cut, so
    separating s from t takes depth + 1 refinement rounds whatever the
    names are.  Each rung's descending edge is shared with a second
    negative, so greedy first picks the shared edge.  Every sink climbs
    into one shared hub, so each separation check walks the hub too.
    Filler positives, climbing sub-walks of the spines, bring the mix to
    about ten positives per negative.
    """
    positives: list[tuple[str, ...]] = []
    negatives: list[tuple[str, ...]] = []
    hub = [[f"hub{layer:02d}{tag(rng)}{i:02d}" for i in range(hub_width)] for layer in range(hub_layers)]
    for layer in range(hub_layers - 1):
        for i, node in enumerate(hub[layer]):
            positives.append((node, hub[layer + 1][i]))
            positives.append((node, hub[layer + 1][(i + 1) % hub_width]))
    spines = []
    for g in range(gadgets):
        prefix = f"g{g:02d}{tag(rng)}"
        source, sink = f"{prefix}.src", f"{prefix}.snk"
        spine = (source, *(f"{prefix}.up{j:03d}" for j in range(1, depth + 1)))
        spines.append(spine)
        positives.append(spine)
        positives.append((sink, hub[0][g % hub_width]))
        negatives.append((source, sink))
        for j in range(1, depth + 1):
            rung, drop, side = f"{prefix}.rg{j:03d}", f"{prefix}.dr{j:03d}", f"{prefix}.sd{j:03d}"
            negatives.append((spine[j], rung, drop))
            negatives.append((side, rung, drop))
            positives.append((rung, sink))
    while len(positives) < 10 * len(negatives):
        spine = rng.choice(spines)
        start = rng.randrange(len(spine) - 1)
        positives.append(spine[start : rng.randint(start + 2, min(len(spine), start + 6))])
    return positives, negatives


def taint_ladder(rng: random.Random, workdir: Path, sizes: Sizes, files: dict[Path, str]) -> list[Case]:
    positives, negatives = ladder_specs(
        rng, sizes.ladder_gadgets, sizes.ladder_depth, sizes.hub_layers, sizes.hub_width
    )
    traces = number(rng, [(POSITIVE, t) for t in positives] + [(NEGATIVE, t) for t in negatives])
    corpus = workdir / "ladder" / "corpus.json"
    files[corpus] = corpus_text("qualifier", traces)
    return [make_case("ladder", workdir, ["--corpus", str(corpus)], traces, corpus, traces, "auto")]


# ---------------------------------------------------------------------------
# exact-batch: branch and bound on medium cut instances

def window_specs(rng: random.Random, cuttable: int, window: int):
    """A cyclic window cover: cuttable edges u_i -> v_i joined in a ring by
    positive edges v_i -> u_{i+1}; negative i walks `window` consecutive
    cuttable edges.  When `window` does not divide the ring the packing
    bound is one short of the optimum and branch and bound has to prove
    it.  Node names sort in ring order, so the search tree is the same for
    every seed."""
    prefix = tag(rng, 3)
    u = [f"{prefix}{i:02d}u{tag(rng)}" for i in range(cuttable)]
    v = [f"{prefix}{i:02d}v{tag(rng)}" for i in range(cuttable)]
    positives = [(v[i], u[(i + 1) % cuttable]) for i in range(cuttable)]
    negatives = []
    for i in range(cuttable):
        walk: list[str] = []
        for k in range(window):
            j = (i + k) % cuttable
            walk += [u[j], v[j]]
        negatives.append(tuple(walk))
    return positives, negatives


def exact_batch(rng: random.Random, workdir: Path, sizes: Sizes, files: dict[Path, str]) -> list[Case]:
    cases = []
    for index, (cuttable, window) in enumerate(sizes.exact_cycles):
        positives, negatives = window_specs(rng, cuttable, window)
        traces = number(rng, [(POSITIVE, t) for t in positives] + [(NEGATIVE, t) for t in negatives])
        name = f"ring{index:02d}"
        corpus = workdir / name / "corpus.json"
        files[corpus] = corpus_text("qualifier", traces)
        # two syntheses per check: one pass over the batch gives each
        # corpus two samples, which steadies the batch's median
        cases.append(make_case(name, workdir, ["--corpus", str(corpus)], traces, corpus, traces, "exact", 2))
    return cases


# ---------------------------------------------------------------------------
# ui-effects: a semilattice of a few hundred elements from stack traces

def stack_trace_text(rng: random.Random, inner: str, outer: str) -> str:
    """A JVM-style dump whose root-cause section parses to [inner, outer].

    Some dumps wrap the root cause in an outer exception whose own frames
    are not nodes; the root cause then ends in "... 1 more", which copies
    the outer section's last frame, `outer`."""
    def frame(fqn: str) -> str:
        return f"\tat {fqn}({fqn.rsplit('.', 2)[-2]}.java:{rng.randint(10, 9999)})"

    header = f"java.lang.IllegalStateException: {tag(rng, 8)}"
    if rng.random() < 0.5:
        return "\n".join([header, frame(inner), frame(outer)]) + "\n"
    wrapper = [f"com.app.rt.{tag(rng)}.Dispatch.run{i}" for i in range(rng.randint(1, 4))]
    lines = [f"java.lang.RuntimeException: {tag(rng, 8)}", *map(frame, wrapper), frame(outer)]
    lines += [f"Caused by: {header}", frame(inner), "\t... 1 more"]
    return "\n".join(lines) + "\n"


def ui_effects(rng: random.Random, workdir: Path, sizes: Sizes, files: dict[Path, str]) -> list[Case]:
    """`chains` independent two-element chains op_c <= loop_c, one per UI
    toolkit: a view operation may run inside its own toolkit's event loop
    (positive) but not inside another toolkit's loop (negative).  The join
    completion is the product of three-element chains, 3**chains elements,
    while the cut is one forced edge per negative."""
    ops = [f"com.app.k{c}{tag(rng)}.View.invalidate" for c in range(sizes.ui_chains)]
    loops = [f"com.app.k{c}{tag(rng)}.Looper.loop" for c in range(sizes.ui_chains)]
    specs = [(POSITIVE, (ops[c], loops[c])) for c in range(sizes.ui_chains) for _ in range(sizes.ui_positive_files)]
    specs += [
        (NEGATIVE, (ops[a], loops[b]))
        for a in range(sizes.ui_chains)
        for b in range(sizes.ui_chains)
        if a != b
    ]
    traces = number(rng, specs)
    stacks = workdir / "ui" / "stacks"
    for trace_id, polarity, (inner, outer) in traces:
        suffix = ".pos.txt" if polarity == POSITIVE else ".neg.txt"
        files[stacks / f"{trace_id}{suffix}"] = stack_trace_text(rng, inner, outer)
    probe = workdir / "ui" / "probe.json"
    files[probe] = corpus_text("effect", traces)
    return [
        make_case("ui", workdir, ["--stack-traces", str(stacks), "--mode", "effect"], traces, probe, traces, "auto")
    ]


# ---------------------------------------------------------------------------
# check-stream: a modest analysis checked against a large probe corpus

def check_stream(rng: random.Random, workdir: Path, sizes: Sizes, files: dict[Path, str]) -> list[Case]:
    """A two-gadget ladder as the analysis, and a stream of probe traces in
    `stream_files` probe files: random walks over its positive (protected,
    so never cut) edges, which must be accepted, plus one copy of the corpus
    negatives per ten walks, which must be rejected.  One case per probe
    file, all checked against the one analysis, so that a run gathers many
    checks.  A check takes about a second and a synthesis tens of
    milliseconds, so each case synthesizes three times per check, to give
    synth_s as many samples as the other workloads give it."""
    positives, negatives = ladder_specs(rng, 2, 6, 3, 6)
    traces = number(rng, [(POSITIVE, t) for t in positives] + [(NEGATIVE, t) for t in negatives])
    corpus = workdir / "stream" / "corpus.json"
    files[corpus] = corpus_text("qualifier", traces)

    successors: dict[str, list[str]] = {}
    for src, dst in sorted({e for t in positives for e in zip(t, t[1:])}):
        successors.setdefault(src, []).append(dst)
    starts = sorted(successors)
    specs: list[tuple[str, tuple[str, ...]]] = []
    while len(specs) < sizes.stream_probes:
        if len(specs) % 11 == 10:
            specs.append((NEGATIVE, rng.choice(negatives)))
            continue
        walk = [rng.choice(starts)]
        for _ in range(rng.randint(1, 7)):
            nexts = successors.get(walk[-1])
            if not nexts:
                break
            walk.append(rng.choice(nexts))
        specs.append((POSITIVE, tuple(walk)))
    probes = number(rng, specs)
    cases = []
    per_file = -(-len(probes) // sizes.stream_files)
    for index in range(sizes.stream_files):
        part = probes[index * per_file : (index + 1) * per_file]
        probe = workdir / "stream" / f"probe{index}.json"
        files[probe] = corpus_text("qualifier", part)
        cases.append(make_case(
            f"stream{index}", workdir, ["--corpus", str(corpus)], traces, probe, part, "auto", 3, corpus="stream"
        ))
    return cases


WORKLOADS = {
    "taint-ladder": taint_ladder,
    "exact-batch": exact_batch,
    "ui-effects": ui_effects,
    "check-stream": check_stream,
}
