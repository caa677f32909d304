"""Random corpus generation for the oracle-comparison suites.

Corpora stay inside the acceptance bounds (<= 8 nodes, <= 16 distinct
edges, <= 6 traces) and are regenerated until they carry no error
diagnostics and no negative trace that equals a prefix of a positive one,
so every emitted corpus is synthesizable or honestly infeasible (conflict),
never malformed.  A negative equal to a prefix of a positive is a certain
conflict, which the cut solver reports; such corpora are left out so that
each seed keeps drawing the batch the acceptance criteria were set on.

`front_end_corpora` is a Hypothesis strategy for the front end instead
(graph building and validation), with none of those bounds or filters.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from flowsynth import Corpus, Trace, corpus_errors, trace_edges, validate_corpus

from oracles import prefix_conflicts

ALPHABET = "abcdefgh"

# strings that JSON writes as they are (no quote, backslash or control
# character; DEL, U+2028 and other non-ASCII text included), and strings
# that hold one character it escapes, anywhere in them
_plain_chars = st.sampled_from("abqz09_.:$ é⊥猫\x7f\u2028")
plain_strings = st.text(_plain_chars, min_size=1, max_size=6)
escaped_strings = st.builds(
    "".join,
    st.tuples(st.text(_plain_chars, max_size=3), st.sampled_from('"\\\n\t\x00\x1f'), st.text(_plain_chars, max_size=3)),
)


def random_walk(rng: random.Random, alphabet: list[str], length: int) -> tuple[str, ...]:
    path = [rng.choice(alphabet)]
    while len(path) < length:
        step = rng.choice(alphabet)
        if step == path[-1]:
            continue  # self-loops never constrain anything
        path.append(step)
    return tuple(path)


def random_corpus(
    rng: random.Random,
    mode: str | None = None,
    max_nodes: int = 8,
    max_edges: int = 16,
    max_traces: int = 6,
) -> Corpus:
    while True:
        corpus = _attempt(rng, mode, max_nodes, max_edges, max_traces)
        if corpus is not None:
            return corpus


def _attempt(rng, mode, max_nodes, max_edges, max_traces) -> Corpus | None:
    alphabet = list(ALPHABET[: rng.randint(3, max_nodes)])
    traces = []
    for i in range(rng.randint(1, max_traces)):
        polarity = "positive" if rng.random() < 0.4 else "negative"
        for _ in range(20):
            path = random_walk(rng, alphabet, rng.randint(2, 5))
            if polarity == "positive" or path[0] != path[-1]:
                break
        else:
            return None
        traces.append(Trace(f"t{i}", polarity, path))
    required = frozenset()
    if rng.random() < 0.1:
        src, dst = rng.sample(alphabet, 2)
        required = frozenset({(src, dst)})
    corpus = Corpus(
        mode=mode if mode is not None else rng.choice(["qualifier", "effect"]),
        traces=tuple(traces),
        required_edges=required,
    )
    distinct = {edge for trace in corpus.traces for edge in trace_edges(trace)}
    distinct |= corpus.required_edges
    if len(distinct) > max_edges:
        return None
    if corpus_errors(validate_corpus(corpus)) or prefix_conflicts(corpus):
        return None
    return corpus


def add_random_negative(rng: random.Random, corpus: Corpus) -> Corpus | None:
    """The same corpus plus one fresh negative trace, or None when no
    valid extension was found."""
    alphabet = sorted({node for trace in corpus.traces for node in trace.nodes}) or ["a", "b"]
    for _ in range(30):
        path = random_walk(rng, alphabet, rng.randint(2, 5))
        if path[0] == path[-1]:
            continue
        extended = Corpus(
            mode=corpus.mode,
            traces=corpus.traces + (Trace("extra-negative", "negative", path),),
            required_edges=corpus.required_edges,
            min_positive_support=corpus.min_positive_support,
        )
        return extended
    return None


@st.composite
def front_end_corpora(draw):
    """A corpus of up to 8 short traces over four nodes, so self-loops (at a
    path's start, its end or inside it), closed paths and edges repeated
    within a trace come up often.  A trace may start at the node the one
    before it ends at.  Required edges may be self-loops or name nodes no
    trace holds, and the positive support threshold goes up to 3.  Trace
    ids are unique, so `Corpus` accepts every draw."""
    alphabet = ["a", "b", "c", "d"]
    traces = []
    for number in range(draw(st.integers(0, 8))):
        path = draw(st.lists(st.sampled_from(alphabet), min_size=2, max_size=6))
        if traces and draw(st.booleans()):
            path[0] = traces[-1].nodes[-1]
        traces.append(Trace(f"t{number}", draw(st.sampled_from(["positive", "negative"])), tuple(path)))
    node = st.sampled_from(alphabet + ["x", "y"])
    return Corpus(
        traces=tuple(traces),
        required_edges=draw(st.frozensets(st.tuples(node, node), max_size=3)),
        min_positive_support=draw(st.integers(1, 3)),
    )
