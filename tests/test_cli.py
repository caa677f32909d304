"""Every subcommand and every exit code, plus artifact determinism."""

from __future__ import annotations

import gc
import importlib
import json
import logging
import os
import pkgutil
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowsynth
from flowsynth import (
    AnalysisSpec,
    CheckReport,
    Corpus,
    CycleError,
    FlowSynthError,
    InfeasibleSet,
    UnknownElement,
    Verdict,
    cli,
    load_analysis,
    serialize_corpus,
    stack_traces_from_dir,
)
from flowsynth import lattice as lattice_module
from flowsynth import pipeline
from flowsynth.cli import build_parser, main
from flowsynth.cut import SEPARATION, SolverConfig
from flowsynth.expand import EndpointSpec
from flowsynth.dot import lattice_dot
from flowsynth.pipeline import synthesize
from flowsynth.traces import corpus_digest, parse_corpus, parse_file

from corpusgen import escaped_strings, plain_strings
from oracles import (
    reference_check_corpus,
    reference_dump_analysis,
    reference_make_analysis_spec,
    reference_report_json,
)

try:
    import resource
except ImportError:  # not on every platform
    resource = None

FIXTURES = Path(__file__).parent / "fixtures"

TAINT_CORPUS = {
    "mode": "qualifier",
    "traces": [
        {"id": "trusted", "polarity": "positive", "nodes": ["untainted", "tainted"]},
        {"id": "leak", "polarity": "negative", "nodes": ["tainted", "untainted"]},
    ],
}

# positive sanitize chain and a negative flow sharing its endpoints: the
# protected chain makes endpoint separation impossible by construction
SANITIZE_CORPUS = {
    "mode": "qualifier",
    "traces": [
        {"id": "ok", "polarity": "positive", "nodes": ["user_input", "sanitize", "sql_exec"]},
        {"id": "bad", "polarity": "negative", "nodes": ["user_input", "render", "sql_exec"]},
    ],
}

REFINE_CORPUS = {
    "mode": "qualifier",
    "traces": [
        {"id": "observed", "polarity": "negative", "nodes": ["a", "b", "c"]},
        {"id": "shortcut", "polarity": "positive", "nodes": ["a", "c"]},
    ],
    "options": {"min_positive_support": 2},
}

DIAMOND_GRAPH = {
    "nodes": ["a", "b", "c", "d"],
    "edges": [["a", "b"], ["b", "d"], ["a", "c"], ["c", "d"]],
}


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def synth(tmp_path: Path, corpus: dict, *extra: str, name: str = "corpus.json") -> tuple[int, Path]:
    corpus_file = write_json(tmp_path / name, corpus)
    out = tmp_path / "out"
    code = main(["synth", "--corpus", str(corpus_file), "--out", str(out), *extra])
    return code, out


def test_synth_taint_fixture(tmp_path, capsys):
    code, out = synth(tmp_path, TAINT_CORPUS)
    assert code == 0
    analysis = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert analysis["cut"] == [["tainted", "untainted"]]
    assert ["Q_untainted", "Q_tainted"] in analysis["leq"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["summary"]["negatives_rejected"] == 1
    assert report["summary"]["positives_accepted"] == 1
    dot = (out / "lattice.dot").read_text(encoding="utf-8")
    assert '"Q_untainted" -> "Q_tainted";' in dot
    summary = capsys.readouterr().out
    assert "cut: 1 edge(s)" in summary


def test_synth_protected_endpoints_conflict(tmp_path, capsys):
    code, _ = synth(tmp_path, SANITIZE_CORPUS)
    assert code == 1
    err = capsys.readouterr().err
    assert "conflict: cannot separate user_input -> sql_exec" in err
    assert "user_input -> sanitize -> sql_exec" in err
    assert "bad" in err and "ok" in err


def test_synth_sanitize_corpus_under_path_semantics(tmp_path, capsys):
    # path semantics cuts the observed hop but leaves the endpoints related
    # through the protected chain; that is an internal consistency violation
    code, out = synth(tmp_path, SANITIZE_CORPUS, "--semantics", "path")
    assert code == 3
    analysis = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert analysis["cut"] == [["render", "sql_exec"]]
    # a transitive pair: implied by the covering pairs analysis.json stores
    spec = load_analysis((out / "analysis.json").read_text(encoding="utf-8"))
    assert spec.leq("Q_user_input", "Q_sql_exec")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["summary"]["negatives_rejected"] == 1
    assert report["summary"]["positives_accepted"] == 1
    err = capsys.readouterr().err
    assert "negative pair (user_input, sql_exec)" in err


# 14 negatives s{i} -> x -> y -> t{i} share (x, y), and a positive keeps
# x -> z -> y, so cutting (x, y) separates nothing.  29 candidate edges
# exceed auto's threshold of 24, so the greedy solver runs.
FUNNEL_CORPUS = {
    "traces": [
        {"id": "keep", "polarity": "positive", "nodes": ["x", "z", "y"]},
        *(
            {"id": f"n{i:02d}", "polarity": "negative", "nodes": [f"s{i:02d}", "x", "y", f"t{i:02d}"]}
            for i in range(14)
        ),
    ]
}


def test_greedy_fallback_drops_its_redundant_first_pick(tmp_path, capsys):
    # greedy picks (x, y) first and refinement then cuts every (s{i}, x);
    # a kept (x, y) would be a cut edge whose endpoints stay related
    code, out = synth(tmp_path, FUNNEL_CORPUS)
    assert code == 0
    analysis = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert analysis["cut"] == [[f"s{i:02d}", "x"] for i in range(14)]
    assert analysis["metadata"]["optimal"] is False
    assert "internal consistency violations" not in capsys.readouterr().err


def test_synth_duplicate_trace_conflict_exits_1(tmp_path, capsys):
    corpus = {
        "traces": [
            {"id": "pos", "polarity": "positive", "nodes": ["a", "b"]},
            {"id": "neg", "polarity": "negative", "nodes": ["a", "b"]},
        ]
    }
    code, _ = synth(tmp_path, corpus)
    assert code == 1
    err = capsys.readouterr().err
    assert "conflict" in err
    assert "a -> b" in err


def test_synth_parse_error_exits_2(tmp_path, capsys):
    corpus_file = tmp_path / "corpus.json"
    corpus_file.write_text("{broken", encoding="utf-8")
    code = main(["synth", "--corpus", str(corpus_file), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "check", "expand"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    corpus = write_json(tmp_path / "corpus.json", TAINT_CORPUS)
    out = str(tmp_path / "out")
    argv = {
        "synth": ["synth", "--corpus", str(deep), "--out", out],
        "check": ["check", "--analysis", str(deep), "--corpus", str(corpus), "--out", out],
        "expand": ["expand", "--static-graph", str(deep), "--source", "a", "--sink", "b", "--out", out],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: nested too deeply")
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["--corpus", "--stack-traces"])
def test_synth_non_utf8_input_exits_2(tmp_path, capsys, source):
    if source == "--corpus":
        path = tmp_path / "corpus.json"
    else:
        path = tmp_path / "stacks"
        path.mkdir()
    (path if source == "--corpus" else path / "t.neg.txt").write_bytes(b"\xff{}")
    assert main(["synth", source, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["synth --stack-traces", "synth --corpus", "check --analysis", "check --corpus", "expand"])
def test_non_utf8_input_names_the_file(tmp_path, capsys, command):
    stacks = tmp_path / "stacks"
    stacks.mkdir()
    for fixture in sorted((FIXTURES / "ui_traces").iterdir()):
        (stacks / fixture.name).write_bytes(fixture.read_bytes())
    good = write_json(tmp_path / "corpus.json", TAINT_CORPUS)
    assert main(["synth", "--corpus", str(good), "--out", str(tmp_path / "out")]) == 0
    analysis = str(tmp_path / "out" / "analysis.json")
    bad = stacks / "b_bad.neg.txt" if command == "synth --stack-traces" else tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    out = str(tmp_path / "again")
    argv = {
        "synth --stack-traces": ["synth", "--stack-traces", str(stacks), "--out", out],
        "synth --corpus": ["synth", "--corpus", str(bad), "--out", out],
        "check --analysis": ["check", "--analysis", str(bad), "--corpus", str(good), "--out", out],
        "check --corpus": ["check", "--analysis", analysis, "--corpus", str(bad), "--out", out],
        "expand": ["expand", "--static-graph", str(bad), "--source", "a", "--sink", "b", "--out", out],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["synth --corpus", "check --analysis", "check --corpus", "expand"])
def test_lone_surrogate_exits_2_and_names_the_file(tmp_path, capsys, command):
    good = write_json(tmp_path / "corpus.json", TAINT_CORPUS)
    assert main(["synth", "--corpus", str(good), "--out", str(tmp_path / "out")]) == 0
    analysis = tmp_path / "out" / "analysis.json"
    bad = tmp_path / "bad.json"
    if command == "check --analysis":
        doc = json.loads(analysis.read_text(encoding="utf-8"))
        doc["metadata"]["note"] = "\ud800"
    elif command == "expand":
        doc = {"nodes": ["a", "b", "\udfff"], "edges": [["a", "\udfff"], ["\udfff", "b"]]}
    else:
        doc = {"traces": [{"id": "t", "polarity": "negative", "nodes": ["a", "\ud800"]}]}
    write_json(bad, doc)  # json.dumps writes the surrogate as the escape \ud800
    out = str(tmp_path / "again")
    argv = {
        "synth --corpus": ["synth", "--corpus", str(bad), "--out", out],
        "check --analysis": ["check", "--analysis", str(bad), "--corpus", str(good), "--out", out],
        "check --corpus": ["check", "--analysis", str(analysis), "--corpus", str(bad), "--out", out],
        "expand": ["expand", "--static-graph", str(bad), "--source", "a", "--sink", "b", "--out", out],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: lone surrogate")
    assert str(bad) in err
    assert "Traceback" not in err


def test_stack_trace_file_name_that_is_not_utf8_exits_2(tmp_path, capsys):
    stacks = tmp_path / "stacks"
    stacks.mkdir()
    for fixture in sorted((FIXTURES / "ui_traces").iterdir()):
        (stacks / fixture.name).write_bytes(fixture.read_bytes())
    bad = stacks / os.fsdecode(b"\xff.neg.txt")  # the id would hold a lone surrogate
    bad.write_bytes((FIXTURES / "ui_traces" / "ui_violation.neg.txt").read_bytes())
    assert main(["synth", "--stack-traces", str(stacks), "--mode", "effect", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: file name is not UTF-8")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "error",
    [CycleError("input relation contains a cycle"), FlowSynthError("bad graph"), InfeasibleSet(3), UnknownElement("x")],
)
def test_any_other_flowsynth_error_exits_2(tmp_path, capsys, monkeypatch, error):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "run_synth", failing)
    code, _ = synth(tmp_path, TAINT_CORPUS)
    assert code == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_synth_out_of_memory_under_an_address_space_limit_exits_2(tmp_path):
    """A 40,000-node chain needs about 200 MB of up-set masks alone; the
    child process lowers its own address-space limit to 450 MiB first."""
    n = 40_000
    traces = [{"id": f"p{i:05d}", "polarity": "positive", "nodes": [f"n{i:05d}", f"n{i + 1:05d}"]} for i in range(n - 1)]
    traces.append({"id": "neg", "polarity": "negative", "nodes": [f"n{n - 1:05d}", "n00000"]})
    corpus = tmp_path / "chain.json"
    corpus.write_text(json.dumps({"traces": traces}))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (450 * 2**20, 450 * 2**20))\n"
        "from flowsynth.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(flowsynth.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script, "synth", "--corpus", str(corpus), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert "Traceback" not in run.stderr
    assert run.returncode == 2
    assert run.stderr == "error: out of memory: the input is too large for the memory available\n"


def test_synth_validation_error_exits_2(tmp_path, capsys):
    corpus = {"traces": [{"id": "n", "polarity": "negative", "nodes": ["a", "b", "a"]}]}
    code, _ = synth(tmp_path, corpus)
    assert code == 2
    assert "negative endpoints equal: a" in capsys.readouterr().err


def test_synth_refinement_limit_exits_1(tmp_path, capsys, monkeypatch):
    # REFINE_CORPUS needs two hitting-set solves; allow only one
    monkeypatch.setattr(cli, "SolverConfig", partial(SolverConfig, max_iterations=1))
    code, _ = synth(tmp_path, REFINE_CORPUS)
    assert code == 1
    assert "error: refinement did not terminate within 1 iterations" in capsys.readouterr().err


def test_synth_negative_max_exact_candidates_exits_2(tmp_path, capsys):
    code, _ = synth(tmp_path, TAINT_CORPUS, "--max-exact-candidates", "-1")
    assert code == 2
    assert "error: --max-exact-candidates must be >= 0" in capsys.readouterr().err


def test_synth_refinement_fixture(tmp_path):
    code, out = synth(tmp_path, REFINE_CORPUS)
    assert code == 0
    analysis = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert analysis["cut"] == [["a", "b"], ["a", "c"]]
    assert analysis["metadata"]["iterations"] == 2


def test_synth_from_stack_traces(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "synth",
            "--stack-traces",
            str(FIXTURES / "ui_traces"),
            "--mode",
            "effect",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    analysis = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert analysis["mode"] == "effect"
    assert analysis["default_element"] == "⊥"
    assert analysis["cut"] == [["android.view.View.requestLayout", "com.app.Worker.run"]]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["summary"] == {
        "traces": 2,
        "negatives_rejected": 1,
        "negatives_accepted": 0,
        "positives_accepted": 1,
        "positives_rejected": 0,
    }
    dot = (out / "lattice.dot").read_text(encoding="utf-8")
    assert "style=dashed" in dot  # synthetic joins and bottom


def test_synth_requires_some_input(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "needs --corpus and/or --stack-traces" in capsys.readouterr().err


def test_synth_deterministic_artifacts(tmp_path):
    code1, out1 = synth(tmp_path, REFINE_CORPUS)
    corpus_file = tmp_path / "corpus.json"
    out2 = tmp_path / "out2"
    code2 = main(["synth", "--corpus", str(corpus_file), "--out", str(out2)])
    assert code1 == code2 == 0
    for name in ("analysis.json", "lattice.dot", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# the cyclic collector

@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector switched as the parameter says, and restored after."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collector):
    code, out = synth(tmp_path, TAINT_CORPUS)
    assert code == 0
    assert gc.isenabled() == collector
    check = ["check", "--analysis", str(out / "analysis.json"), "--out", str(tmp_path / "check")]
    assert main([*check, "--corpus", str(tmp_path / "missing.json")]) == 2
    assert gc.isenabled() == collector

    during = []

    def failing(args):
        during.append(gc.isenabled())
        raise RuntimeError("not a flowsynth error")

    monkeypatch.setattr(cli, "run_check", failing)
    with pytest.raises(RuntimeError, match="not a flowsynth error"):
        main([*check, "--corpus", str(tmp_path / "corpus.json")])
    assert during == [False]
    assert gc.isenabled() == collector


def _cyclic_garbage_per_run(argvs: list[list[str]]) -> list[int]:
    """What `gc.collect()` finds after each command, the collector paused
    throughout; one warm-up run first, so that one-off set-up is not
    counted."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        main(argvs[0])
        gc.collect()
        found = []
        for argv in argvs:
            main(argv)
            found.append(gc.collect())
        return found
    finally:
        if was_enabled:
            gc.enable()


def _chains_corpus(chains: int, copies: int) -> dict:
    """`chains` taint pairs, each flow written `copies` times under its own id."""
    traces = []
    for i in range(chains):
        for k in range(copies):
            traces.append({"id": f"ok{i}.{k}", "polarity": "positive", "nodes": [f"u{i}", f"s{i}", f"t{i}"]})
            traces.append({"id": f"bad{i}.{k}", "polarity": "negative", "nodes": [f"t{i}", f"u{i}"]})
    return {"mode": "qualifier", "traces": traces}


def test_cyclic_garbage_of_a_command_does_not_grow_with_the_corpus(tmp_path, capsys):
    """Pausing the collector holds memory only while no command makes
    reference cycles that grow with its input."""
    small = write_json(tmp_path / "small.json", _chains_corpus(2, 1))
    large = write_json(tmp_path / "large.json", _chains_corpus(40, 2))
    synths = [["synth", "--corpus", str(path), "--out", str(tmp_path / path.stem)] for path in (small, large)]
    synth_garbage = _cyclic_garbage_per_run(synths)
    assert synth_garbage[0] == synth_garbage[1]

    analysis = str(tmp_path / "large" / "analysis.json")
    probes = []
    for size in (50, 5000):
        traces = _chains_corpus(40, size // 80 + 1)["traces"][:size]
        probes.append(write_json(tmp_path / f"probe{size}.json", {"traces": traces}))
    checks = [["check", "--analysis", analysis, "--corpus", str(path), "--out", str(tmp_path / "check")] for path in probes]
    check_garbage = _cyclic_garbage_per_run(checks)
    assert check_garbage[0] == check_garbage[1]


# ---------------------------------------------------------------------------
# check

def test_check_own_corpus_exits_0(tmp_path):
    code, out = synth(tmp_path, TAINT_CORPUS)
    assert code == 0
    check_out = tmp_path / "check"
    code = main(
        [
            "check",
            "--analysis",
            str(out / "analysis.json"),
            "--corpus",
            str(tmp_path / "corpus.json"),
            "--out",
            str(check_out),
        ]
    )
    assert code == 0
    report = json.loads((check_out / "report.json").read_text(encoding="utf-8"))
    assert report["summary"]["negatives_accepted"] == 0
    assert report["summary"]["positives_rejected"] == 0


def test_check_reports_miss_exits_4(tmp_path):
    code, out = synth(tmp_path, TAINT_CORPUS)
    assert code == 0
    # a negative trace the analysis accepts: untainted -> tainted is permitted
    miss_corpus = {
        "traces": [
            {"id": "sneaky", "polarity": "negative", "nodes": ["untainted", "tainted"]}
        ]
    }
    corpus_file = write_json(tmp_path / "miss.json", miss_corpus)
    check_out = tmp_path / "check"
    code = main(
        [
            "check",
            "--analysis",
            str(out / "analysis.json"),
            "--corpus",
            str(corpus_file),
            "--out",
            str(check_out),
        ]
    )
    assert code == 4
    report = json.loads((check_out / "report.json").read_text(encoding="utf-8"))
    assert report["summary"]["negatives_accepted"] == 1


def test_check_warns_on_digest_mismatch(tmp_path, caplog):
    code, out = synth(tmp_path, TAINT_CORPUS)
    assert code == 0
    other = {
        "traces": [
            {"id": "probe", "polarity": "positive", "nodes": ["untainted", "tainted"]}
        ]
    }
    corpus_file = write_json(tmp_path / "other.json", other)
    code = main(
        [
            "check",
            "--analysis",
            str(out / "analysis.json"),
            "--corpus",
            str(corpus_file),
            "--out",
            str(tmp_path / "check"),
        ]
    )
    assert code == 0  # mismatch is a warning, not an error
    assert any("digest" in record.message for record in caplog.records)


def test_check_invalid_analysis_exits_3(tmp_path):
    code, out = synth(tmp_path, TAINT_CORPUS)
    assert code == 0
    analysis = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    analysis["leq"].append(["Q_tainted", "Q_untainted"])  # break antisymmetry
    bad = write_json(tmp_path / "bad_analysis.json", analysis)
    code = main(
        [
            "check",
            "--analysis",
            str(bad),
            "--corpus",
            str(tmp_path / "corpus.json"),
            "--out",
            str(tmp_path / "check"),
        ]
    )
    assert code == 3


def test_check_malformed_analysis_exits_3(tmp_path, capsys):
    code, out = synth(tmp_path, TAINT_CORPUS)
    assert code == 0
    analysis = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    analysis["leq"].append([["Q_tainted"], "Q_untainted"])  # unhashable, not a name
    bad = write_json(tmp_path / "bad_analysis.json", analysis)
    argv = ["check", "--analysis", str(bad), "--corpus", str(tmp_path / "corpus.json")]
    code = main([*argv, "--out", str(tmp_path / "check")])
    assert code == 3
    assert "invalid analysis: leq entries must be pairs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# expand

def test_expand_diamond(tmp_path):
    graph_file = write_json(tmp_path / "graph.json", DIAMOND_GRAPH)
    out_file = tmp_path / "expanded.json"
    code = main(
        [
            "expand",
            "--static-graph",
            str(graph_file),
            "--source",
            "a",
            "--sink",
            "d",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    corpus = json.loads(out_file.read_text(encoding="utf-8"))
    assert [t["nodes"] for t in corpus["traces"]] == [["a", "b", "d"], ["a", "c", "d"]]
    assert all(t["polarity"] == "negative" for t in corpus["traces"])
    assert all(t["origin"] == "static-expansion" for t in corpus["traces"])
    assert corpus["metadata"]["truncated"] is False
    assert corpus["metadata"]["max_path_len"] == 12


def test_expand_unknown_endpoint_exits_2(tmp_path, capsys):
    graph_file = write_json(tmp_path / "graph.json", DIAMOND_GRAPH)
    code = main(
        [
            "expand",
            "--static-graph",
            str(graph_file),
            "--source",
            "zz",
            "--sink",
            "d",
            "--out",
            str(tmp_path / "expanded.json"),
        ]
    )
    assert code == 2


def test_expanded_corpus_feeds_synth(tmp_path):
    graph_file = write_json(tmp_path / "graph.json", DIAMOND_GRAPH)
    expanded = tmp_path / "expanded.json"
    assert (
        main(
            [
                "expand",
                "--static-graph",
                str(graph_file),
                "--source",
                "a",
                "--sink",
                "d",
                "--out",
                str(expanded),
            ]
        )
        == 0
    )
    out = tmp_path / "out"
    assert main(["synth", "--corpus", str(expanded), "--out", str(out)]) == 0
    analysis = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert analysis["cut"] == [["a", "b"], ["a", "c"]]


def test_expand_long_chain_without_recursion(tmp_path):
    names = [f"n{i:04d}" for i in range(3000)]
    graph = {"nodes": names, "edges": [[a, b] for a, b in zip(names, names[1:])]}
    graph_file = write_json(tmp_path / "chain.json", graph)
    out_file = tmp_path / "expanded.json"
    argv = ["expand", "--static-graph", str(graph_file), "--source", names[0]]
    argv += ["--sink", names[-1], "--max-path-len", "5000", "--out", str(out_file)]
    assert main(argv) == 0
    corpus = json.loads(out_file.read_text(encoding="utf-8"))
    assert [t["nodes"] for t in corpus["traces"]] == [names]


def test_expand_of_a_sink_out_of_reach_ends_at_once(tmp_path):
    """A 14-node clique that the source feeds and the sink only leaves: no
    path reaches the sink, and under the default bounds the walk enters
    no node of the clique, where walking every simple path through it
    would run for minutes."""
    clique = [f"v{i}" for i in range(14)]
    edges = [[a, b] for a in clique for b in clique if a != b] + [["src", "v0"], ["snk", "v0"]]
    graph_file = write_json(tmp_path / "dense.json", {"nodes": [*clique, "src", "snk"], "edges": edges})
    out_file = tmp_path / "expanded.json"
    src = str(Path(flowsynth.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "flowsynth.cli", "expand", "--static-graph", str(graph_file)]
        + ["--source", "src", "--sink", "snk", "--out", str(out_file)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=10,
    )
    assert (run.returncode, run.stderr) == (0, "")
    corpus = json.loads(out_file.read_text(encoding="utf-8"))
    assert corpus["traces"] == []
    assert corpus["metadata"]["truncated"] is False


def test_parser_defaults_are_the_dataclass_defaults():
    parser = build_parser()
    synth_args = parser.parse_args(["synth", "--out", "out"])
    assert synth_args.solver == SolverConfig.solver
    assert synth_args.max_exact_candidates == SolverConfig.max_exact_candidates
    expand_args = parser.parse_args(["expand", "--static-graph", "g.json", "--source", "a", "--sink", "b", "--out", "o"])
    assert expand_args.max_path_len == EndpointSpec.max_path_len
    assert expand_args.max_paths == EndpointSpec.max_paths


# ---------------------------------------------------------------------------
# explain

def test_explain_rejected_trace(tmp_path, capsys):
    code, out = synth(tmp_path, TAINT_CORPUS)
    assert code == 0
    code = main(
        [
            "explain",
            "--analysis",
            str(out / "analysis.json"),
            "--trace-id",
            "leak",
            "--corpus",
            str(tmp_path / "corpus.json"),
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "trace leak rejected at edge 0: tainted -> untainted" in output
    assert "Q_tainted not leq Q_untainted" in output
    assert "separated by cut edge: tainted -> untainted" in output
    assert "forced by constraint leak" in output


def test_explain_refined_constraint(tmp_path, capsys):
    code, out = synth(tmp_path, REFINE_CORPUS)
    assert code == 0
    code = main(
        [
            "explain",
            "--analysis",
            str(out / "analysis.json"),
            "--trace-id",
            "shortcut",
            "--corpus",
            str(tmp_path / "corpus.json"),
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "forced by constraint refined-1: a -> c" in output


def test_explain_accepted_trace(tmp_path, capsys):
    code, out = synth(tmp_path, TAINT_CORPUS)
    assert code == 0
    code = main(
        [
            "explain",
            "--analysis",
            str(out / "analysis.json"),
            "--trace-id",
            "trusted",
            "--corpus",
            str(tmp_path / "corpus.json"),
        ]
    )
    assert code == 0
    assert "nothing to explain" in capsys.readouterr().out


def test_explain_missing_trace_id_exits_2(tmp_path, capsys):
    code, out = synth(tmp_path, TAINT_CORPUS)
    assert code == 0
    code = main(
        [
            "explain",
            "--analysis",
            str(out / "analysis.json"),
            "--trace-id",
            "ghost",
            "--corpus",
            str(tmp_path / "corpus.json"),
        ]
    )
    assert code == 2


def test_artifacts_match_golden_files(tmp_path):
    """The on-disk formats, byte for byte: a corpus with non-ASCII ids,
    an origin, nested metadata, rejected negatives and accepted positives."""
    _assert_artifacts_match(FIXTURES / "golden", tmp_path)


def test_artifacts_match_golden_files_with_ids_that_need_escaping(tmp_path):
    """As above for ids that JSON escapes or that are not printable: node
    ids with a quote, a backslash and U+0001, trace ids with a tab and
    U+2028.  The corpus digest renders such a corpus with an escape per
    id; its bytes and the digest are those json.dumps gives."""
    _assert_artifacts_match(FIXTURES / "escaped", tmp_path)


def _assert_artifacts_match(golden: Path, tmp_path: Path) -> None:
    corpus = str(golden / "corpus.json")
    out = tmp_path / "synth"
    assert main(["synth", "--corpus", corpus, "--out", str(out)]) == 0
    checked = tmp_path / "check"
    argv = ["check", "--analysis", str(out / "analysis.json"), "--corpus", corpus, "--out", str(checked)]
    assert main(argv) == 0
    produced = {
        "analysis.json": out / "analysis.json",
        "lattice.dot": out / "lattice.dot",
        "synth.report.json": out / "report.json",
        "check.report.json": checked / "report.json",
    }
    for name, path in produced.items():
        assert path.read_bytes() == (golden / name).read_bytes(), name


def test_synth_and_check_expand_no_pairs(tmp_path, monkeypatch):
    """Synthesis, the written files and the check read the order as up-set
    masks: neither command expands it into name pairs."""
    calls = []
    # every flowsynth module that defines or imports it: graph and lattice
    modules = [importlib.import_module(f"flowsynth.{info.name}") for info in pkgutil.iter_modules(flowsynth.__path__)]
    holders = [module for module in modules if hasattr(module, "_upset_pairs")]
    assert len(holders) >= 2
    for module in holders:
        monkeypatch.setattr(module, "_upset_pairs", lambda nodes, up: calls.append(len(nodes)))
    chains = Corpus(mode="effect", traces=stack_traces_from_dir(FIXTURES / "ui_chains" / "traces"))
    (tmp_path / "chains.json").write_text(serialize_corpus(chains), encoding="utf-8")
    for name, corpus in (("golden", FIXTURES / "golden" / "corpus.json"), ("chains", tmp_path / "chains.json")):
        out = tmp_path / name
        assert main(["synth", "--corpus", str(corpus), "--out", str(out)]) == 0
        argv = ["check", "--analysis", str(out / "analysis.json"), "--corpus", str(corpus), "--out", str(out / "check")]
        assert main(argv) == 0
    assert calls == []


@pytest.mark.parametrize("fixture", ["golden", "ui_effect"])
def test_a_version_1_analysis_checks_like_its_version_2_twin(tmp_path, fixture):
    """analysis.v1.json is what synth wrote before format version 2 (in
    effect mode with every join and the full relation), analysis.json what
    it writes now: check writes the same report from either."""
    folder = FIXTURES / fixture
    corpus = str(folder / "corpus.json")
    reports = []
    for name in ("analysis.v1.json", "analysis.json"):
        out = tmp_path / name
        assert main(["check", "--analysis", str(folder / name), "--corpus", corpus, "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_effect_synthesis_writes_the_version_2_fixture(tmp_path):
    # generators and bottom only, covering pairs only
    out = tmp_path / "out"
    assert main(["synth", "--stack-traces", str(FIXTURES / "ui_traces"), "--mode", "effect", "--out", str(out)]) == 0
    assert (out / "analysis.json").read_bytes() == (FIXTURES / "ui_effect" / "analysis.json").read_bytes()


def test_effect_synthesis_writes_the_join_fixture(tmp_path):
    """Three chains of two and three elements: 36 elements with the joins,
    one join primed because a generator (from the frame named
    requestLayout∨Q_java.net.Socket.connect) already has its name; and the
    effect-mode report: runs of accepted rows between rejections, two of
    them adjacent."""
    folder = FIXTURES / "ui_chains"
    out = tmp_path / "out"
    assert main(["synth", "--stack-traces", str(folder / "traces"), "--mode", "effect", "--out", str(out)]) == 0
    for name, golden in (("analysis.json",) * 2, ("lattice.dot",) * 2, ("report.json", "synth.report.json")):
        assert (out / name).read_bytes() == (folder / golden).read_bytes(), name


# ---------------------------------------------------------------------------
# effect orders with more joins than lattice.dot draws

def _effect_chains(chains: int) -> dict:
    """`chains` two-node chains a_i -> b_i, each with the reversed flow as
    its negative: the join completion has 3**chains elements."""
    traces = []
    for i in range(chains):
        traces.append({"id": f"ok{i:02d}", "polarity": "positive", "nodes": [f"a{i:02d}", f"b{i:02d}"]})
        traces.append({"id": f"bad{i:02d}", "polarity": "negative", "nodes": [f"b{i:02d}", f"a{i:02d}"]})
    return {"mode": "effect", "traces": traces}


def test_synthesis_completes_only_when_the_semilattice_is_read(monkeypatch):
    calls = []
    complete = pipeline.complete_join_semilattice

    def spy(order, limit=None):
        calls.append(limit)
        return complete(order, limit)

    monkeypatch.setattr(pipeline, "complete_join_semilattice", spy)
    large = synthesize(parse_corpus(json.dumps(_effect_chains(12))))
    assert len(large.spec.elements) == 25
    small = synthesize(parse_corpus(json.dumps(_effect_chains(3))))
    assert calls == []
    assert len(small.semilattice.elements) == 27
    assert small.lattice is small.semilattice
    assert calls == [None]
    assert small.completion(26) is None
    assert calls == [None, 26]


def test_synth_draws_twelve_effect_chains_without_their_completion(tmp_path, capsys, caplog, monkeypatch):
    """3**12 joins are past the limit: the walk stops one down-set past
    it, one warning names it, and lattice.dot draws the generators and
    the bottom.  analysis.json and report.json are what an oracle builds
    from the generator order alone."""
    walked = []
    walk = lattice_module._downsets

    def counted(down, limit):
        levels, top, upper = walk(down, limit)
        walked.append(sum(map(len, levels)))
        return levels, top, upper

    monkeypatch.setattr(lattice_module, "_downsets", counted)
    corpus_file = write_json(tmp_path / "chains.json", _effect_chains(12))
    out = tmp_path / "out"
    start = time.perf_counter()
    with caplog.at_level(logging.WARNING, logger="flowsynth"):
        code = main(["synth", "--corpus", str(corpus_file), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0
    assert walked == [cli.DRAW_LIMIT + 1]
    assert [(record.levelno, record.getMessage()) for record in caplog.records] == [
        (
            logging.WARNING,
            f"the join completion has more than {cli.DRAW_LIMIT} elements; "
            "lattice.dot draws only the generators and the bottom",
        )
    ]
    assert "lattice: 25 element(s), 1 synthetic\n" in capsys.readouterr().out

    corpus = parse_file(parse_corpus, corpus_file)
    result = synthesize(corpus)
    assert (out / "lattice.dot").read_bytes() == lattice_dot(result.spec)
    spec = reference_make_analysis_spec(corpus, result.cut, result.order, SolverConfig(), SEPARATION)
    assert (out / "analysis.json").read_text(encoding="utf-8") == reference_dump_analysis(spec)
    report = reference_report_json(reference_check_corpus(spec, corpus), corpus_digest(corpus), spec)
    assert (out / "report.json").read_text(encoding="utf-8") == report


def test_synth_draws_seven_effect_chains_complete(tmp_path, capsys):
    """3**7 = 2,187 elements are within the limit: drawn as completed."""
    corpus_file = write_json(tmp_path / "chains.json", _effect_chains(7))
    out = tmp_path / "out"
    assert main(["synth", "--corpus", str(corpus_file), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "lattice: 2187 element(s), 2173 synthetic\n" in captured.out
    result = synthesize(parse_file(parse_corpus, corpus_file))
    assert (out / "lattice.dot").read_bytes() == lattice_dot(result.semilattice)


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_synth_of_twelve_effect_chains_fits_a_300_mib_address_space(tmp_path):
    """The completion would hold 531,441 elements, each with an up-set of
    as many bits; the child process lowers its own address-space limit to
    300 MiB first."""
    corpus = write_json(tmp_path / "chains.json", _effect_chains(12))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (300 * 2**20, 300 * 2**20))\n"
        "from flowsynth.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(flowsynth.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script, "synth", "--corpus", str(corpus), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == (
        f"WARNING: the join completion has more than {cli.DRAW_LIMIT} elements; "
        "lattice.dot draws only the generators and the bottom\n"
    )


# ---------------------------------------------------------------------------
# -v

def test_verbose_adds_one_line_per_round_and_quiet_stays_as_it_was(tmp_path, capsys):
    """-v logs each refinement round at DEBUG; the level is set on every
    call, so a later call without -v writes what it always wrote."""
    corpus = write_json(tmp_path / "corpus.json", REFINE_CORPUS)
    runs = []
    for flags in ([], ["-v"], []):
        out = tmp_path / f"out{len(runs)}"
        assert main([*flags, "synth", "--corpus", str(corpus), "--out", str(out)]) == 0
        runs.append(capsys.readouterr())
    quiet, loud, again = runs
    assert quiet.err == again.err == ""
    assert loud.out.replace("out1", "out0") == quiet.out == again.out.replace("out2", "out0")
    rounds = loud.err.splitlines()
    iterations = json.loads((tmp_path / "out1" / "analysis.json").read_text(encoding="utf-8"))["metadata"]["iterations"]
    assert len(rounds) == iterations == 2
    assert all(line.startswith(f"DEBUG: round {i}: ") for i, line in enumerate(rounds, 1))


_text = st.text(max_size=6)


@st.composite
def reports(draw):
    """Accepted and rejected verdicts with any ids, and the analysis digest
    absent, null, a string or any other JSON value."""
    verdicts = []
    for trace_id in draw(st.lists(_text, unique=True, max_size=6)):
        if draw(st.booleans()):
            verdicts.append(Verdict(trace_id, True))
        else:
            edge = (draw(_text), draw(_text))
            index = draw(st.integers(min_value=0, max_value=10**6))
            verdicts.append(Verdict(trace_id, False, index, edge, draw(_text), draw(_text)))
    counts = draw(st.lists(st.integers(min_value=0, max_value=10**6), min_size=4, max_size=4))
    recorded = draw(
        st.sampled_from([{}, {"corpus_sha256": None}])
        | st.fixed_dictionaries({"corpus_sha256": _text})
        | st.fixed_dictionaries({"corpus_sha256": st.recursive(
            st.none() | st.booleans() | st.integers() | _text,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
            max_leaves=6,
        )})
    )
    spec = AnalysisSpec((), (), {}, mode="qualifier", cut=frozenset(), default_element="Q", metadata=recorded)
    return CheckReport(tuple(verdicts), *counts), draw(_text), spec


@settings(max_examples=200, deadline=None)
@given(reports())
def test_report_json_matches_reference(case):
    report, digest, spec = case
    assert cli._report_json(report, digest, spec) == reference_report_json(report, digest, spec)


def _report_of(trace_ids, accepted) -> CheckReport:
    """A verdict per trace id, accepted or rejected as `accepted` says."""
    verdicts = tuple(
        Verdict(trace_id, True) if ok else Verdict(trace_id, False, 3, ("src", 'd"st'), "Q_src", "Q_d\\st")
        for trace_id, ok in zip(trace_ids, accepted)
    )
    rejected = accepted.count(False)
    return CheckReport(verdicts, rejected, 0, len(verdicts) - rejected, 0)


_SPEC = AnalysisSpec((), (), {}, mode="qualifier", cut=frozenset(), default_element="Q", metadata={})


@pytest.mark.parametrize(
    "pattern",
    ["", "+++++", "-----", "-+++-", "++--+", "+-+--+-", "-", "+"],
    ids=["none", "all-accepted", "all-rejected", "first-and-last-rejected", "adjacent-rejections", "mixed",
         "one-rejected", "one-accepted"],
)
@pytest.mark.parametrize("trace_id", ["t", 't"'], ids=["plain", "escaped"])
def test_report_json_runs_match_reference(pattern, trace_id):
    """The accepted rows between two rejections are one run: none, one
    run, runs at either end and between adjacent rejections."""
    report = _report_of([f"{trace_id}{k}" for k in range(len(pattern))], [c == "+" for c in pattern])
    assert cli._report_json(report, "d", _SPEC) == reference_report_json(report, "d", _SPEC)


@st.composite
def long_plain_reports(draw):
    """20-300 plain trace ids, each accepted or not, and zero or one id
    that needs escaping at a random position."""
    trace_ids = draw(st.lists(plain_strings, min_size=20, max_size=300))
    if draw(st.booleans()):
        trace_ids[draw(st.integers(0, len(trace_ids) - 1))] = draw(escaped_strings)
    accepted = draw(st.lists(st.booleans() | st.just(True), min_size=len(trace_ids), max_size=len(trace_ids)))
    return _report_of(trace_ids, accepted)


@settings(max_examples=100, deadline=None)
@given(long_plain_reports())
def test_report_json_of_long_plain_id_lists_matches_reference(report):
    assert cli._report_json(report, "d", _SPEC) == reference_report_json(report, "d", _SPEC)
