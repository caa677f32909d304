"""Seeded benchmark of flowsynth's two user commands, `synth` and `check`.

    python3 bench/run.py --workload taint-ladder --seed 1 --seconds 25 --trace 0

One process, one caller, one command at a time (a closed loop, no
threads).  Set-up generates the workload's input files from the seed into
memory, at least five times and until a second has gone into it; every
copy must be byte-identical, and setup_s is the median.  The last copy is
then written to a temporary directory under .bench_run/.  The run then
alternates `flowsynth.cli.main(["synth", ...])` and `main(["check", ...])`
in process over the workload's corpora, in whole passes: at least one, and
then as many as fit in `--seconds`, judged by the length of the pass before.
exact-batch synthesizes twice and check-stream three times per check.  Each
command is timed on its own, after a garbage collection, with a wall-clock
cap; interpreter start-up is not part of any figure.

The benchmark gets a share of a busy host, and the speed that share runs
at drifts by tens of per cent within seconds.  So the benchmark samples
that speed with a probe, a fixed allocation-free arithmetic loop of about
a tenth of a millisecond: PROBES_AROUND times before and after each timed
piece of work (each command, each set-up), and inside it on a profiling
timer, every PROBE_EVERY_S of CPU time.  The end-to-end times are reported
in reference seconds: (wall seconds - the probes inside) * PROBE_S / the
median probe time, which is what the work would take on a host where the
probe takes PROBE_S.  A change to flowsynth moves the work and not the
probe, so it moves the figure in full; a change of host speed moves both
and cancels.  The wall-clock medians are printed too, and the traced
run's figures stay in wall seconds.

Every output is checked against the benchmark's own reference
(reference.py): a breadth-first search over (flow edges - cut) must find
every negative pair separated, and every verdict must equal the probe
trace's polarity.  Repeated syntheses of one corpus must write the same
analysis.json bytes.  An unexpected exit code, an escaped exception, a
wrong answer or a timeout counts as a failed operation; the run goes on.

With --trace 0 the last line holds the end-to-end metrics.  With
--trace 1 every (synth, check) runs twice, untraced and then traced; the
last line holds per-layer figures per traced iteration, plus the tracing
overhead (traced minus untraced median), and the spans go to
.bench_run/spans-<workload>-<seed>.jsonl.
--smoke runs every workload at toy sizes, for the tests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import cut_problems, verdict_problems
from workloads import FULL, SMOKE, WORKLOADS, Case, Sizes

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
# Set-up runs at least SETUP_REPEATS times and until SETUP_BUDGET_S have
# been spent on it (at most SETUP_MAX_REPEATS), and reports the median.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPEATS = 50
OP_TIMEOUT_S = 30.0
# About the probe's median time on a quiet core (x86-64 VM, CPython 3.11), so
# that on such a host reference seconds read as wall seconds.
PROBE_S = 7.0e-05
PROBE_EVERY_S = 0.02
PROBES_AROUND = 10

# name -> unit, for the metrics on the last line with --trace 0
END_TO_END = {
    "synth_s": "s",
    "check_s": "s",
    "analysis_bytes": "bytes",
    "cut_edges": "count",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# Printed by name on every run, but not on the last line: both are 0 on
# some workload at the seed commit (no failures anywhere; greedy, never
# exact, on taint-ladder).  Failures also show in "failed" and "correct".
SHARES = {"failed_share": "ratio", "optimal_share": "ratio"}
TRACE_TOTALS = {
    "trace.synth_s": "s",
    "trace.check_s": "s",
    "trace.synth_overhead_s": "s",
    "trace.check_overhead_s": "s",
}


class OperationTimeout(BaseException):
    """Raised by SIGALRM inside a command that ran past OP_TIMEOUT_S.  A
    BaseException, so that no handler inside flowsynth swallows it."""


def _alarm(signum, frame):
    raise OperationTimeout


def probe() -> float:
    """Wall seconds of a fixed loop of integer arithmetic, which allocates
    nothing the garbage collector tracks."""
    start = time.perf_counter()
    total = 0
    for i in range(1000):
        total += i * i % 7
    return time.perf_counter() - start


def timed(work):
    """Run `work()`; return its result, wall seconds and reference seconds.
    A `work` that raises is timed by its caller."""
    samples = [probe() for _ in range(PROBES_AROUND)]
    inside: list[float] = []
    previous = signal.signal(signal.SIGPROF, lambda signum, frame: inside.append(probe()))
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        start = time.perf_counter()
        value = work()
        wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    samples += inside + [probe() for _ in range(PROBES_AROUND)]
    return value, wall, (wall - sum(inside)) * PROBE_S / statistics.median(samples)


@dataclass
class Op:
    kind: str
    seconds: float  # wall
    ref_seconds: float  # reference seconds, see the module docstring
    traced: bool
    problems: list[str]


@dataclass
class Outcome:
    """What a case's first verified synthesis wrote."""

    analysis_sha256: str
    analysis_bytes: int
    cut_edges: int
    optimal: bool


@dataclass
class RunResult:
    ops: list[Op] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)  # reference seconds
    outcomes: dict[str, Outcome] = field(default_factory=dict)  # per corpus
    verified_reports: dict[str, str] = field(default_factory=dict)  # case -> report.json SHA-256
    setup_problems: list[str] = field(default_factory=list)
    tracer: object = None


def files_digest(files: dict[Path, str], root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(hashlib.sha256(files[path].encode("utf-8")).digest())
    return digest.hexdigest()


def set_up(workload: str, seed: int, sizes: Sizes, workdir: Path, result: RunResult) -> list[Case]:
    """Generate the inputs repeatedly from the same seed; every copy must
    be byte-identical.  Writes the last copy under `workdir`."""
    digests = set()
    while len(result.setup_s) < SETUP_REPEATS or (
        sum(result.setup_s) < SETUP_BUDGET_S and len(result.setup_s) < SETUP_MAX_REPEATS
    ):
        # drop the last copy first, so that the peak memory holds one copy
        files: dict[Path, str] = {}
        cases = None
        gc.collect()
        cases, _, ref_seconds = timed(
            lambda: WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir, sizes, files)
        )
        result.setup_s.append(ref_seconds)
        digests.add(files_digest(files, workdir))
    if len(digests) != 1:
        result.setup_problems.append(f"the same seed gave {len(digests)} different input sets")
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    # the program's garbage collections should not walk the benchmark's own objects
    gc.collect()
    gc.freeze()
    return cases


def run_op(kind: str, argv: list[str], tracer) -> tuple[float, float, list[str]]:
    """Run one command in process; returns its wall seconds, reference
    seconds and problems."""
    from flowsynth import cli

    def command() -> int:
        traced = tracer.operation(kind) if tracer is not None else contextlib.nullcontext()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(io.StringIO()), traced:
                return cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    gc.collect()
    problems = []
    try:
        code, elapsed, ref_elapsed = timed(command)
        if code != 0:
            problems.append(f"exit code {code}")
    except OperationTimeout:
        problems.append("timeout")
    except SystemExit as exc:
        problems.append(f"exit code {exc.code}")
    except Exception as exc:  # an escaped exception is a failed operation, not a fatal one
        problems.append(f"exception {type(exc).__name__}: {exc}")
    # a failed command misses any latency limit
    if problems:
        return OP_TIMEOUT_S, OP_TIMEOUT_S, problems
    return elapsed, ref_elapsed, problems


def check_synth(case: Case, outcome: Outcome | None) -> tuple[Outcome | None, list[str]]:
    try:
        data = case.analysis.read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        if outcome is not None:
            same = sha == outcome.analysis_sha256
            return outcome, [] if same else ["analysis.json differs from the first synthesis of this corpus"]
        problems, cut_size, optimal = cut_problems(case, data.decode("utf-8"))
    except (OSError, ValueError, LookupError, TypeError) as exc:
        return None, [f"unreadable analysis.json: {type(exc).__name__}: {exc}"]
    if problems:
        return None, problems
    return Outcome(sha, len(data), cut_size, optimal), []


def check_verdicts(case: Case, verified: dict[str, str]) -> list[str]:
    """The reference verdict check, skipped when report.json is byte for
    byte one that already passed it."""
    try:
        sha = hashlib.sha256(case.check_report.read_bytes()).hexdigest()
        if verified.get(case.name) == sha:
            return []
        problems = verdict_problems(case, case.check_report)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        return [f"unreadable report.json: {type(exc).__name__}: {exc}"]
    if not problems:
        verified[case.name] = sha
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> RunResult:
    result = RunResult()
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_DIR))
    previous_handler = signal.signal(signal.SIGALRM, _alarm)
    try:
        cases = set_up(workload, seed, sizes, workdir, result)
        if trace:
            from tracing import Tracer

            result.tracer = Tracer()
        # a traced run does each (synth, check) twice, untraced then traced,
        # so that both halves see the same corpora
        tracers = (None, result.tracer) if trace else (None,)
        deadline = time.perf_counter() + seconds
        # whole passes only, so that every corpus counts equally in the
        # medians: at least one, and no pass that would end past the deadline
        while True:
            pass_start = time.perf_counter()
            for case in cases:
                for tracer in tracers:
                    for _ in range(case.synth_repeats):
                        elapsed, ref_elapsed, problems = run_op("synth", case.synth_argv, tracer)
                        if not problems:
                            outcome, problems = check_synth(case, result.outcomes.get(case.corpus))
                            if outcome is not None:
                                result.outcomes[case.corpus] = outcome
                        result.ops.append(Op("synth", elapsed, ref_elapsed, tracer is not None, problems))
                    elapsed, ref_elapsed, problems = run_op("check", case.check_argv, tracer)
                    if not problems:
                        problems = check_verdicts(case, result.verified_reports)
                    result.ops.append(Op("check", elapsed, ref_elapsed, tracer is not None, problems))
            now = time.perf_counter()
            if now + (now - pass_start) > deadline:
                break
    finally:
        signal.signal(signal.SIGALRM, previous_handler)
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples above it."""
    ordered = sorted(values)
    for pct in range(99, 0, -1):
        cut = ordered[max(0, -(-pct * len(ordered) // 100) - 1)]
        if sum(1 for v in ordered if v > cut) >= 10:
            return f"p{pct} {cut:.6f} s"
    return "no percentile has ten samples above it"


def report(result: RunResult, workload: str, seed: int, trace: bool) -> dict:
    """Print the human-readable lines and return the last-line object."""
    ops = result.ops
    failed = [op for op in ops if op.problems]
    for op in failed[:10]:
        print(f"failed {op.kind}: {'; '.join(op.problems[:3])}", file=sys.stderr)
    for problem in result.setup_problems:
        print(f"failed set-up: {problem}", file=sys.stderr)
    outcomes = result.outcomes.values()

    def times(kind: str, traced: bool) -> list[float]:
        return [op.seconds for op in ops if op.kind == kind and op.traced == traced]

    def ref_times(kind: str) -> list[float]:
        return [op.ref_seconds for op in ops if op.kind == kind and not op.traced]

    print(f"workload={workload} seed={seed} trace={int(trace)} operations={len(ops)}")
    for kind in ("synth", "check"):
        values, wall = ref_times(kind), times(kind, False)
        print(f"{kind}_s: {statistics.median(values):.6f} s median of {len(values)} untraced, tail {tail(values)}"
              f" (reference seconds; wall median {statistics.median(wall):.6f} s, tail {tail(wall)})")
    shares = {
        "failed_share": len(failed) / len(ops),
        "optimal_share": sum(o.optimal for o in outcomes) / max(len(result.outcomes), 1),
    }
    for name, value in shares.items():
        print(f"{name}: {value:.6f} {SHARES[name]}")
    for name, outcome in sorted(result.outcomes.items()):
        print(f"analysis_sha256 {name}: {outcome.analysis_sha256}")

    if trace:
        traced_iterations = sum(1 for op in ops if op.kind == "check" and op.traced)
        metrics = result.tracer.layer_metrics(traced_iterations)
        for kind in ("synth", "check"):
            traced_median = statistics.median(times(kind, True))
            metrics[f"trace.{kind}_s"] = traced_median
            metrics[f"trace.{kind}_overhead_s"] = traced_median - statistics.median(times(kind, False))
        spans = RUN_DIR / f"spans-{workload}-{seed}.jsonl"
        result.tracer.write(spans)
        print(f"spans: {len(result.tracer.spans)} written to {spans}")
        covered = sum(op.seconds for op in ops if op.traced) / traced_iterations
        print(f"per traced iteration the spans cover {covered:.6f} s of synth + check; "
              f"untraced medians sum to {statistics.median(times('synth', False)) + statistics.median(times('check', False)):.6f} s")
        units = per_layer_units()
    else:
        metrics = {
            "synth_s": statistics.median(ref_times("synth")),
            "check_s": statistics.median(ref_times("check")),
            "analysis_bytes": sum(o.analysis_bytes for o in outcomes),
            "cut_edges": sum(o.cut_edges for o in outcomes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(result.setup_s),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    return {
        "correct": not failed and not result.setup_problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def per_layer_units() -> dict[str, str]:
    from tracing import COUNT_METRICS, SPAN_METRICS

    units = {name: ("count" if name.endswith(".calls") else "s") for name in SPAN_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["cut.witness_yield"] = "ratio"
    units.update(TRACE_TOTALS)
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowsynth" / "cli.py").is_file():
        print(f"error: flowsynth sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sizes = SMOKE if args.smoke else FULL
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    print(json.dumps(report(result, args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
