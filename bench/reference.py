"""The benchmark's own correctness reference.

It never reads flowsynth's view of a corpus: the flow edges, positive
edges, negative pairs and expected verdicts come from the generator
(`workloads.Case`), and only the cut and the verdicts are read from the
files flowsynth wrote.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from workloads import Case


def cut_problems(case: Case, analysis_text: str) -> tuple[list[str], int, bool]:
    """Check a written analysis.json: the cut keeps every positive edge and,
    by breadth-first search over (flow edges - cut), leaves every negative
    pair's sink unreachable from its source.  Returns the problems found,
    the cut size and the analysis' `optimal` flag."""
    doc = json.loads(analysis_text)
    cut = {(src, dst) for src, dst in doc["cut"]}
    problems = [f"cut removes positive edge {src} -> {dst}" for src, dst in sorted(cut & case.protected)]
    successors: dict[str, list[str]] = defaultdict(list)
    for edge in case.edges - cut:
        successors[edge[0]].append(edge[1])
    sinks_by_source: dict[str, set[str]] = defaultdict(set)
    for source, sink in case.negative_pairs:
        sinks_by_source[source].add(sink)
    for source, sinks in sorted(sinks_by_source.items()):
        seen = {source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for nxt in successors[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        problems += [f"negative pair {source} -> {sink} still connected" for sink in sorted(sinks & seen)]
    return problems, len(cut), bool(doc["metadata"].get("optimal"))


def verdict_problems(case: Case, report: Path) -> list[str]:
    """Every probe trace has exactly one verdict, and it equals the trace's
    polarity: positives accepted, negatives rejected."""
    verdicts = {v["trace_id"]: v["accepted"] for v in json.loads(report.read_text(encoding="utf-8"))["verdicts"]}
    problems = []
    if verdicts.keys() != case.expected.keys():
        problems.append(f"report covers {len(verdicts)} trace(s), expected {len(case.expected)}")
    wrong = sorted(i for i, accepted in verdicts.items() if case.expected.get(i, accepted) != accepted)
    if wrong:
        problems.append(f"{len(wrong)} wrong verdict(s), first {wrong[0]}")
    return problems
