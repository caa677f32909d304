"""Run the benchmark over many seeds and summarize it, as BASELINE.json is.

    python3 bench/baseline.py --seeds 1-10 --unseen-seed 1009 --out bench/BASELINE.json

For every workload: ten untraced runs, one per seed, summarized per
end-to-end metric as median, quartiles and spread (interquartile distance
over the median, as the acceptance check takes it); one run on a seed
that was not used while the benchmark was built; and one traced run for
the per-layer figures.  Runs are made one after another, never in
parallel, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Which end-to-end metric each per-layer metric should move, and on which
# workload.  Elsewhere the prediction is no change.
LAYER_MAP = {
    "traces.parse_corpus.s": ("check_s", ["check-stream"]),
    "traces.corpus_digest.s": ("check_s", ["check-stream"]),
    "checker.check_corpus.s": ("check_s", ["check-stream"]),
    "checker.traces_checked": ("check_s", ["check-stream"]),
    "traces.validate_corpus.calls": ("synth_s", ["taint-ladder", "ui-effects"]),
    "traces.validate_corpus.s": ("synth_s", ["taint-ladder", "ui-effects"]),
    "traces.parse_stack_trace.s": ("synth_s", ["ui-effects"]),
    "graph.build_graph.s": ("synth_s", ["taint-ladder"]),
    "graph.nodes": ("synth_s", ["taint-ladder"]),
    "graph.edges": ("synth_s", ["taint-ladder"]),
    "graph.shortest_path.calls": ("synth_s", ["taint-ladder"]),
    "graph.shortest_path.s": ("synth_s", ["taint-ladder"]),
    "cut.solve_synthesis_cut.s": ("synth_s", ["taint-ladder"]),
    "cut.iterations": ("synth_s", ["taint-ladder"]),
    "cut.constraints": ("synth_s", ["taint-ladder"]),
    "cut.min_hitting_set_greedy.calls": ("synth_s", ["taint-ladder"]),
    "cut.min_hitting_set_greedy.s": ("synth_s", ["taint-ladder"]),
    "cut.verify_separation.calls": ("synth_s", ["taint-ladder"]),
    "cut.verify_separation.s": ("synth_s", ["taint-ladder"]),
    "cut.witness_yield": ("synth_s", ["taint-ladder"]),
    "cut.min_hitting_set_exact.calls": ("synth_s", ["exact-batch"]),
    "cut.min_hitting_set_exact.s": ("synth_s", ["exact-batch"]),
    "lattice.build_order.s": ("synth_s", ["ui-effects"]),
    "lattice.complete_join_semilattice.s": ("synth_s", ["ui-effects"]),
    "lattice.check_consistency.s": ("synth_s", ["ui-effects"]),
    "lattice.elements": ("analysis_bytes", ["ui-effects"]),
    "lattice.synthetic_elements": ("analysis_bytes", ["ui-effects"]),
    "lattice.relation_pairs": ("analysis_bytes", ["ui-effects"]),
    "pipeline.make_analysis_spec.s": ("synth_s", ["taint-ladder", "exact-batch", "ui-effects", "check-stream"]),
    "pipeline.synthesize.self_s": ("synth_s", ["taint-ladder", "exact-batch", "ui-effects", "check-stream"]),
    "checker.dump_analysis.s": ("synth_s", ["ui-effects", "taint-ladder"]),
    "checker.load_analysis.s": ("check_s", ["ui-effects", "taint-ladder"]),
    "dot.lattice_dot.s": ("synth_s", ["taint-ladder", "ui-effects"]),
    "graph.hasse_reduce.s": ("synth_s", ["taint-ladder", "ui-effects"]),
    "cli.self_s": ("synth_s", ["taint-ladder", "exact-batch", "ui-effects", "check-stream"]),
}
NOTES = {
    "cut.min_hitting_set_exact.calls": "also cut_edges and optimal_share on taint-ladder, if a change lets exact run there",
    "lattice.relation_pairs": "also synth_s and peak_rss_mib on ui-effects",
    "checker.load_analysis.s": "must not slow the per-edge lookups of check_s on check-stream",
}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=400, check=True)
    lines = done.stdout.strip().splitlines()
    shares = {}
    for line in lines:
        name, _, rest = line.partition(": ")
        if name in ("failed_share", "optimal_share"):
            shares[name] = float(rest.split()[0])
    return json.loads(lines[-1]), shares


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--unseen-seed", type=int, default=1009)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="", help="what was measured, and on which machine")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    summary = {
        "note": args.note,
        "python": platform.python_version(),
        "run_seconds": seconds,
        "seeds": parse_seeds(args.seeds),
        "unseen_seed": args.unseen_seed,
        "layer_map": {name: {"moves": metric, "on": on, **({"note": NOTES[name]} if name in NOTES else {})}
                      for name, (metric, on) in LAYER_MAP.items()},
        "workloads": {},
    }
    for workload in names:
        runs = []
        for seed in summary["seeds"]:
            result, shares = bench_run(workload, seed, seconds, 0)
            runs.append((result, shares))
            print(workload, seed, result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        unseen, unseen_shares = bench_run(workload, args.unseen_seed, seconds, 0)
        traced, _ = bench_run(workload, summary["seeds"][0], seconds, 1)
        summary["workloads"][workload] = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "all_correct": all(r["correct"] for r, _ in runs) and unseen["correct"] and traced["correct"],
            "end_to_end": {
                metric: summarize([r["metrics"][metric]["value"] for r, _ in runs])
                for metric in runs[0][0]["metrics"]
            },
            "shares": {name: summarize([s[name] for _, s in runs]) for name in runs[0][1]},
            "unseen_seed": {**{k: v["value"] for k, v in unseen["metrics"].items()}, **unseen_shares},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
