"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from reference import cut_problems, verdict_problems  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_metrics_the_benchmark_prints():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_by_name_with_its_unit(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 2
    assert {name: m["unit"] for name, m in last["metrics"].items()} == run.END_TO_END
    for name, unit in {**run.END_TO_END, **run.SHARES}.items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("synth_s: ") and " median of " in line and " tail " in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics_and_nested_spans(workload, tmp_path):
    done = bench("--workload", workload, "--seed", "4", "--seconds", "0.2", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert {name: m["unit"] for name, m in last["metrics"].items()} == run.per_layer_units()
    assert last["metrics"]["cut.verify_separation.calls"]["value"] >= 1
    # build_graph validates the corpus a second time
    synths = workloads.WORKLOADS[workload](random.Random(4), tmp_path, workloads.SMOKE, {})[0].synth_repeats
    assert last["metrics"]["traces.validate_corpus.calls"]["value"] == 2 * synths

    spans = [json.loads(line) for line in (run.RUN_DIR / f"spans-{workload}-4.jsonl").read_text().splitlines()]
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    assert {span["name"] for span in roots} == {"synth", "check"}
    assert "pipeline.synthesize" in {span["name"] for span in spans}
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["op"] == span["op"]
    synth_layers = {by_id[s["parent"]]["name"] for s in spans if s["name"] == "cut.solve_synthesis_cut"}
    assert synth_layers == {"pipeline.synthesize"}


def test_an_escaped_exception_is_counted_and_the_run_goes_on(monkeypatch):
    from flowsynth import cli
    from flowsynth.errors import RefinementLimitError

    real_run_check = cli.run_check
    calls = []

    def failing_once(args):
        calls.append(args)
        if len(calls) == 1:
            raise RefinementLimitError("injected")
        return real_run_check(args)

    monkeypatch.setattr(cli, "run_check", failing_once)
    result = run.run_workload("ui-effects", 5, 0.3, False, workloads.SMOKE)
    failed = [op for op in result.ops if op.problems]
    assert len(failed) == 1 and "RefinementLimitError" in failed[0].problems[0]
    assert len(calls) >= 2
    summary = run.report(result, "ui-effects", 5, False)
    assert summary["correct"] is False and summary["failed"] == 1
    assert summary["attempted"] == len(result.ops)


def test_a_command_past_the_cap_is_a_timeout(monkeypatch):
    from flowsynth import cli

    real_run_synth = cli.run_synth
    calls = []

    def slow_once(args):
        calls.append(args)
        if len(calls) == 1:
            time.sleep(5)
        return real_run_synth(args)

    monkeypatch.setattr(cli, "run_synth", slow_once)
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.2)
    result = run.run_workload("exact-batch", 6, 0.0, False, workloads.SMOKE)
    problems = [op.problems for op in result.ops if op.problems]
    assert problems == [["timeout"]]
    assert result.ops[0].seconds == 0.2
    # two syntheses and a check per corpus
    assert len(result.ops) == 3 * len(workloads.SMOKE.exact_cycles)


def test_timed_work_is_scaled_by_the_probe_and_restores_the_timer(monkeypatch):
    import signal

    monkeypatch.setattr(run, "probe", lambda: 2 * run.PROBE_S)  # a host at half speed
    previous = signal.getsignal(signal.SIGPROF)
    deadline = time.process_time() + 0.1
    value, wall, ref = run.timed(lambda: next(i for i in range(10**9) if time.process_time() > deadline))
    assert value > 0 and ref == pytest.approx(wall / 2, rel=0.05)
    assert signal.getsignal(signal.SIGPROF) == previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_a_missing_analysis_is_a_failed_operation(monkeypatch):
    from flowsynth import cli

    monkeypatch.setattr(cli, "run_synth", lambda args: 0)
    result = run.run_workload("ui-effects", 5, 0.0, False, workloads.SMOKE)
    assert result.ops[0].problems[0].startswith("unreadable analysis.json: FileNotFoundError")


def test_a_wrong_cut_or_verdict_is_caught_by_the_reference(tmp_path):
    case = workloads.taint_ladder(random.Random(1), tmp_path, workloads.SMOKE, {})[0]
    empty_cut = json.dumps({"cut": [], "metadata": {"optimal": False}})
    problems, size, _ = cut_problems(case, empty_cut)
    assert size == 0 and len(problems) == len(case.negative_pairs)
    protected = sorted(case.protected)[0]
    problems, _, _ = cut_problems(case, json.dumps({"cut": [list(protected)], "metadata": {}}))
    assert any("positive edge" in p for p in problems)

    verdicts = [{"trace_id": i, "accepted": True} for i in case.expected]
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"verdicts": verdicts}))
    assert any("wrong verdict" in p for p in verdict_problems(case, report))


def test_the_same_seed_gives_the_same_inputs(tmp_path):
    digests = []
    for seed in (7, 7, 8):
        files = {}
        workloads.ui_effects(random.Random(seed), tmp_path, workloads.SMOKE, files)
        digests.append(run.files_digest(files, tmp_path))
    assert digests[0] == digests[1] != digests[2]


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
