from __future__ import annotations

import json

import pytest
from conftest import TEMPLATES, RecordingBackend, assessor_snippets, build_workload

from treeroute import cli
from treeroute.cli import main
from treeroute.backends import BackendRole
from treeroute.config import EngineConfig
from treeroute.dataset import QueryRecord
from treeroute.errors import BackendError
from treeroute.pipeline import build_engine, read_traces


def _write_workload(path, records):
    rows = [
        {"id": r.id, "text": r.text, "intents": sorted(r.intents), "domain": r.domain}
        for r in records
    ]
    path.write_text("\n".join(json.dumps(row) for row in rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def workload_file(tmp_path):
    return _write_workload(tmp_path / "workload.jsonl", build_workload(16))


def _run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_route_simple_query(capsys, workload_file):
    code, out, err = _run_cli(capsys, ["route", str(workload_file), "cancel my card"])
    assert code == 0 and err == ""
    data = _last_json(out)
    assert data["mode"] == "simple"
    assert data["depth"] == 0
    assert data["qci"] == pytest.approx(0.024, abs=1e-12)
    assert data["level"] is None
    assert data["signals"]["length"] == pytest.approx(0.12, abs=1e-12)


def test_route_tree_query_reports_level(capsys, workload_file):
    code, out, _ = _run_cli(
        capsys, ["route", str(workload_file), "compare savings rates and open the new account"]
    )
    assert code == 0
    data = _last_json(out)
    assert data["mode"] == "tree"
    assert data["level"] == "mid"
    assert data["depth"] == 2


def _recording_engines(monkeypatch, backend_class=RecordingBackend):
    """Make cli build every engine with a fresh backend_class; returns the backends."""
    backends = []

    def build(config, passages):
        engine = build_engine(config, passages)
        engine.backend = backend_class()
        backends.append(engine.backend)
        return engine

    monkeypatch.setattr(cli, "build_engine", build)
    return backends


def test_route_shows_the_level_assessor_what_run_shows(
    capsys, monkeypatch, tmp_path, workload_file
):
    # route processes its query over run's corpus, so the assessor is shown
    # the same top search hits.
    text = build_workload(16)[6].text
    backends = _recording_engines(monkeypatch)
    code, out, _ = _run_cli(capsys, ["route", str(workload_file), text])
    assert code == 0 and _last_json(out)["mode"] == "tree"
    code, _, _ = _run_cli(capsys, ["run", str(workload_file), "--out", str(tmp_path / "t.jsonl")])
    assert code == 0
    route_prompts, run_prompts = (
        [
            r.prompt
            for r in backend.requests
            if r.role is BackendRole.LEVEL_ASSESSOR and f"Request: {text}\n" in r.prompt
        ]
        for backend in backends
    )
    assert len(route_prompts) == 1 and route_prompts == run_prompts
    snippets = assessor_snippets(backends[0]).splitlines()
    assert [line[:3] for line in snippets] == ["1. ", "2. ", "3. "]


class _FailingAssessorBackend(RecordingBackend):
    def chat(self, request):
        if request.role is BackendRole.LEVEL_ASSESSOR:
            raise BackendError(request.role.value, "injected failure")
        return super().chat(request)


def test_route_level_assessor_failure_is_engine_error(capsys, monkeypatch, workload_file):
    _recording_engines(monkeypatch, _FailingAssessorBackend)
    text = "compare savings rates and open the new account"
    code, out, err = _run_cli(capsys, ["route", str(workload_file), text])
    assert code == 1 and out == ""
    assert err.strip().count("\n") == 0
    error = json.loads(err.strip())
    assert error["command"] == "route"
    assert error["error"] == "route: level_assessor: injected failure"


def test_route_respects_config_file(capsys, tmp_path, workload_file):
    config = EngineConfig()
    config.apply({"qtc.tau_simple": "0.5"})
    config_path = tmp_path / "engine.ini"
    config_path.write_text(config.to_text(), encoding="utf-8")
    code, out, _ = _run_cli(
        capsys,
        ["route", str(workload_file), "what is my account balance", "--config", str(config_path)],
    )
    assert code == 0
    data = _last_json(out)
    assert data["mode"] == "simple"
    assert data["tau_simple"] == 0.5


def test_route_config_file_with_invalid_utf8_is_engine_error(capsys, tmp_path, workload_file):
    config_path = tmp_path / "latin1.ini"
    config_path.write_bytes("[qtc]\n# café\ntau_simple = 0.5\n".encode("latin-1"))
    code, out, err = _run_cli(
        capsys, ["route", str(workload_file), "cancel my card", "--config", str(config_path)]
    )
    assert code == 1 and out == ""
    assert err.strip().count("\n") == 0
    error = json.loads(err.strip())
    assert error["command"] == "route"
    assert error["error"].startswith(f"cannot read config file {config_path}")


@pytest.mark.parametrize("overrides", [{}, {"qtc.tau_simple": "0.5"}], ids=["defaults", "tau"])
def test_route_reports_what_the_pipeline_traces(capsys, tmp_path, overrides):
    config = EngineConfig()
    config.apply(overrides)
    config_path = tmp_path / "engine.ini"
    config_path.write_text(config.to_text(), encoding="utf-8")
    records = [
        QueryRecord(id=f"t{i}", text=text, intents=frozenset(intents))
        for i, (text, intents) in enumerate(TEMPLATES)
    ]
    workload = _write_workload(tmp_path / "templates.jsonl", records)
    traces_path = tmp_path / "traces.jsonl"
    argv = ["--config", str(config_path)]
    assert _run_cli(capsys, ["run", str(workload), "--out", str(traces_path), *argv])[0] == 0
    traces = read_traces(traces_path)
    assert [t.query_id for t in traces] == [r.id for r in records]
    modes = set()
    for record, trace in zip(records, traces):
        code, out, _ = _run_cli(capsys, ["route", str(workload), record.text, *argv])
        assert code == 0
        data = _last_json(out)
        assert (data["mode"], data["depth"], data["qci"], data["signals"]) == (
            trace.mode,
            trace.depth,
            trace.qci,
            trace.signals,
        ), record.text
        assert (data["level"] is None) == (trace.mode != "tree")
        assert data["tau_simple"] == config.qtc_tau_simple
        modes.add(data["mode"])
    # At tau_simple 0.5 every template without a tree marker routes simple.
    assert ("hybrid" in modes) == (config.qtc_tau_simple == 0.10)


def test_index_writes_reproducible_manifest(capsys, tmp_path, workload_file):
    out_path = tmp_path / "manifest.json"
    code, out, _ = _run_cli(
        capsys, ["index", str(workload_file), "--out", str(out_path)]
    )
    assert code == 0
    data = _last_json(out)
    assert data["queries"] == 16
    assert data["dropped_unlabeled"] == 0
    assert data["dropped_duplicates"] == 0
    assert data["passages"] == 8
    assert data["intent_count"] == 8
    first_bytes = out_path.read_bytes()

    code, _, _ = _run_cli(capsys, ["index", str(workload_file), "--out", str(out_path)])
    assert code == 0
    assert out_path.read_bytes() == first_bytes


def _write_catalog(path, *names):
    rows = [json.dumps({"name": name}) for name in names]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_index_reads_the_catalog(capsys, tmp_path, workload_file):
    catalog = _write_catalog(tmp_path / "catalog.jsonl", "cancel_card", "close_account")
    code, out, _ = _run_cli(
        capsys,
        ["index", str(workload_file), "--catalog", str(catalog), "--out", str(tmp_path / "m.json")],
    )
    assert code == 0
    data = _last_json(out)
    assert (data["intent_count"], data["passages"]) == (2, 2)


def _recorded_catalogs(capsys, tmp_path, workload_file, flags) -> list:
    """The catalog that index and run record, in index's manifest and JSON
    line and in run's JSON line and manifest."""
    manifest_path, traces_path = tmp_path / "m.json", tmp_path / "traces.jsonl"
    code, index_out, _ = _run_cli(
        capsys, ["index", str(workload_file), "--out", str(manifest_path), *flags]
    )
    assert code == 0
    code, run_out, _ = _run_cli(
        capsys, ["run", str(workload_file), "--out", str(traces_path), *flags]
    )
    assert code == 0
    run_manifest = json.loads((tmp_path / "traces.jsonl.manifest.json").read_text())
    return [
        json.loads(manifest_path.read_text())["catalog"],
        _last_json(index_out)["catalog"],
        _last_json(run_out)["catalog"],
        run_manifest["catalog"],
    ]


def test_index_and_run_record_a_derived_catalog(capsys, tmp_path, workload_file):
    assert _recorded_catalogs(capsys, tmp_path, workload_file, []) == ["derived"] * 4


def test_index_and_run_record_the_catalog_path(capsys, tmp_path, workload_file):
    catalog = str(_write_catalog(tmp_path / "catalog.jsonl", "cancel_card"))
    flags = ["--catalog", catalog]
    assert _recorded_catalogs(capsys, tmp_path, workload_file, flags) == [catalog] * 4


def test_index_seed_changes_config_hash(capsys, tmp_path, workload_file):
    out_path = tmp_path / "manifest.json"
    _, out_a, _ = _run_cli(capsys, ["index", str(workload_file), "--out", str(out_path)])
    _, out_b, _ = _run_cli(
        capsys, ["index", str(workload_file), "--out", str(out_path), "--seed", "7"]
    )
    assert _last_json(out_a)["config_hash"] != _last_json(out_b)["config_hash"]
    assert _last_json(out_a)["corpus_hash"] == _last_json(out_b)["corpus_hash"]


def test_env_overrides_reach_the_config(capsys, tmp_path, workload_file, monkeypatch):
    out_path = tmp_path / "manifest.json"
    _, out_a, _ = _run_cli(capsys, ["index", str(workload_file), "--out", str(out_path)])
    monkeypatch.setenv("TREEROUTE_BACKEND_MODEL", "other-model")
    _, out_b, _ = _run_cli(capsys, ["index", str(workload_file), "--out", str(out_path)])
    assert _last_json(out_a)["config_hash"] != _last_json(out_b)["config_hash"]


def test_run_produces_traces_and_manifest(capsys, tmp_path, workload_file):
    traces_path = tmp_path / "traces.jsonl"
    code, out, _ = _run_cli(
        capsys, ["run", str(workload_file), "--out", str(traces_path)]
    )
    assert code == 0
    summary = _last_json(out)
    assert summary["queries"] == 16
    assert summary["failed"] == 0
    assert summary["mode"] == "adaptive"
    assert summary["mean_depth"] > 0

    traces = read_traces(traces_path)
    assert len(traces) == 16
    assert [t.query_id for t in traces] == sorted(t.query_id for t in traces)
    modes = {t.mode for t in traces}
    assert {"simple", "hybrid", "tree"} <= modes

    manifest = json.loads((tmp_path / "traces.jsonl.manifest.json").read_text())
    assert manifest["mode"] == "adaptive"
    assert manifest["query_count"] == 16
    assert manifest["config_hash"] == summary["config_hash"]


def test_run_retrieves_from_the_catalog(capsys, tmp_path, workload_file):
    catalog = _write_catalog(tmp_path / "catalog.jsonl", "cancel_card")
    traces_path = tmp_path / "traces.jsonl"
    code, out, _ = _run_cli(
        capsys, ["run", str(workload_file), "--catalog", str(catalog), "--out", str(traces_path)]
    )
    assert code == 0
    assert _last_json(out)["failed"] == 0
    predicted = {label for t in read_traces(traces_path) for label in t.predicted_intents}
    assert predicted == {"cancel_card"}


@pytest.mark.parametrize(
    "key",
    [
        "run.deterministic",
        "rrl.floor_strict",
        "backend.kind",
        "embed.backend",
        "backend.max_in_flight",
    ],
)
def test_config_file_with_a_removed_key_fails_as_an_unknown_key(
    capsys, tmp_path, workload_file, key
):
    section, _, name = key.partition(".")
    config_path = tmp_path / "engine.ini"
    config_path.write_text(f"[{section}]\n{name} = false\n", encoding="utf-8")
    code, out, err = _run_cli(capsys, ["run", str(workload_file), "--config", str(config_path)])
    assert code == 1 and out == ""
    assert json.loads(err.strip()) == {"command": "run", "error": f"unknown config key: {key}"}


@pytest.mark.parametrize("flag", ["--deterministic", "--no-deterministic"])
def test_deterministic_flags_are_usage_errors(capsys, workload_file, flag):
    code, out, err = _run_cli(capsys, ["run", str(workload_file), flag])
    assert code == 2 and out == ""
    assert json.loads(err.strip()) == {
        "command": "cli",
        "error": f"unrecognized arguments: {flag}",
    }


_POSITIONALS = {
    "index": ["queries.jsonl"],
    "route": ["queries.jsonl", "cancel my card"],
    "eval": ["traces.jsonl", "queries.jsonl"],
    "pareto": ["report.json"],
}


@pytest.mark.parametrize(
    ("command", "flag"),
    [
        ("index", "--jobs"),
        ("route", "--jobs"),
        ("route", "--out"),
        ("eval", "--config"),
        ("eval", "--seed"),
        ("eval", "--jobs"),
        ("pareto", "--config"),
        ("pareto", "--seed"),
        ("pareto", "--jobs"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, command, flag):
    code, out, err = _run_cli(capsys, [command, *_POSITIONALS[command], flag, "1"])
    assert code == 2 and out == ""
    assert json.loads(err.strip()) == {
        "command": "cli",
        "error": f"unrecognized arguments: {flag} 1",
    }


def test_run_is_reproducible_across_invocations(capsys, tmp_path, workload_file):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert _run_cli(capsys, ["run", str(workload_file), "--out", str(a)])[0] == 0
    assert _run_cli(capsys, ["run", str(workload_file), "--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_parallel_matches_sequential(capsys, tmp_path, workload_file):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _run_cli(capsys, ["run", str(workload_file), "--out", str(a), "--jobs", "1"])
    _run_cli(capsys, ["run", str(workload_file), "--out", str(b), "--jobs", "4"])
    assert a.read_bytes() == b.read_bytes()


def test_run_modes(capsys, tmp_path, workload_file):
    for mode, expected_calls in (("standard", 2.0), ("fixed3", None)):
        out_path = tmp_path / f"{mode}.jsonl"
        code, out, _ = _run_cli(
            capsys,
            ["run", str(workload_file), "--out", str(out_path), "--mode", mode],
        )
        assert code == 0
        summary = _last_json(out)
        if expected_calls is not None:
            assert summary["mean_total_calls"] == expected_calls
        traces = read_traces(out_path)
        if mode == "fixed3":
            assert all(t.depth == 3 for t in traces)
            assert all(t.node_count == 15 for t in traces)


def test_eval_against_self_consistent_golds(capsys, tmp_path, workload_file):
    traces_path = tmp_path / "traces.jsonl"
    _run_cli(capsys, ["run", str(workload_file), "--out", str(traces_path)])
    traces = read_traces(traces_path)

    golds_path = tmp_path / "golds.jsonl"
    rows = [
        {"id": t.query_id, "text": f"echo {t.query_id}", "intents": t.predicted_intents}
        for t in traces
    ]
    golds_path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")

    report_path = tmp_path / "report.json"
    code, out, _ = _run_cli(
        capsys,
        ["eval", str(traces_path), str(golds_path), "--out", str(report_path)],
    )
    assert code == 0
    summary = _last_json(out)
    assert summary["subset_accuracy"] == 1.0
    assert summary["micro_f1"] == 1.0
    assert summary["macro_f1"] == 1.0

    report = json.loads(report_path.read_text())
    assert report["query_count"] == 16
    assert report["failed_traces"] == 0
    assert report["pareto_point"]["accuracy_axes"]["subset_accuracy"] == 1.0
    assert report["pareto_point"]["cost_axes"]["mean_total_calls"] > 0
    depths = [b["depth"] for b in report["depth_report"]["buckets"]]
    assert depths == sorted(depths)
    assert report["depth_report"]["weighted"]["depth"] == -1

    csv_text = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_text[0].startswith("depth,query_count,query_share")
    assert csv_text[-1].startswith("weighted,")
    # One row per depth bucket plus the weighted row.
    assert len(csv_text) == 1 + len(depths) + 1


def test_eval_with_true_golds_reports_depth_buckets(capsys, tmp_path, workload_file):
    traces_path = tmp_path / "traces.jsonl"
    _run_cli(capsys, ["run", str(workload_file), "--out", str(traces_path)])
    report_path = tmp_path / "report.json"
    code, out, _ = _run_cli(
        capsys,
        [
            "eval",
            str(traces_path),
            str(workload_file),
            "--out",
            str(report_path),
            "--label",
            "adaptive",
        ],
    )
    assert code == 0
    summary = _last_json(out)
    assert summary["label"] == "adaptive"
    assert 0.0 <= summary["subset_accuracy"] <= 1.0
    assert 0.0 < summary["micro_f1"] <= 1.0
    report = json.loads(report_path.read_text())
    shares = [b["query_share"] for b in report["depth_report"]["buckets"]]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_eval_catalog_averages_macro_f1_over_its_intents(capsys, tmp_path, workload_file):
    traces_path = tmp_path / "traces.jsonl"
    _run_cli(capsys, ["run", str(workload_file), "--out", str(traces_path)])
    seen = {label for t in read_traces(traces_path) for label in t.predicted_intents}
    seen |= {label for r in build_workload(16) for label in r.intents}
    catalog_path = tmp_path / "catalog.jsonl"
    # close_account is absent from both golds and predictions.
    catalog_path.write_text(
        "\n".join(json.dumps({"name": name}) for name in sorted(seen | {"close_account"})),
        encoding="utf-8",
    )
    argv = ["eval", str(traces_path), str(workload_file), "--out", str(tmp_path / "r.json")]
    default = _last_json(_run_cli(capsys, argv)[1])["macro_f1"]
    code, out, _ = _run_cli(capsys, argv + ["--catalog", str(catalog_path)])
    assert code == 0
    assert default < 1.0
    # A class absent from both golds and predictions scores 1.0.
    assert _last_json(out)["macro_f1"] == pytest.approx(
        (default * len(seen) + 1.0) / (len(seen) + 1), abs=1e-12
    )
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code, _, err = _run_cli(capsys, argv + ["--catalog", str(empty)])
    assert code == 2
    assert "no intents" in json.loads(err.strip())["error"]


def test_eval_missing_golds_is_usage_error(capsys, tmp_path, workload_file):
    traces_path = tmp_path / "traces.jsonl"
    _run_cli(capsys, ["run", str(workload_file), "--out", str(traces_path)])
    partial = tmp_path / "partial.jsonl"
    partial.write_text(
        json.dumps({"id": "q0000", "text": "cancel my card ref 0000", "intents": ["cancel_card"]}),
        encoding="utf-8",
    )
    code, _, err = _run_cli(capsys, ["eval", str(traces_path), str(partial)])
    assert code == 2
    error = json.loads(err.strip())
    assert "no gold labels" in error["error"]


def _eval_error(capsys, traces_path, workload_file) -> str:
    code, _, err = _run_cli(capsys, ["eval", str(traces_path), str(workload_file)])
    assert code == 1
    assert err.strip().count("\n") == 0
    error = json.loads(err.strip())
    assert error["command"] == "eval"
    return error["error"]


def test_eval_missing_trace_file_is_engine_error(capsys, tmp_path, workload_file):
    absent = tmp_path / "absent.jsonl"
    message = _eval_error(capsys, absent, workload_file)
    assert "cannot read trace file" in message and str(absent) in message


def test_eval_non_json_trace_line_is_engine_error(capsys, tmp_path, workload_file):
    traces_path = tmp_path / "traces.jsonl"
    _run_cli(capsys, ["run", str(workload_file), "--out", str(traces_path)])
    with traces_path.open("a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
    lines = len(traces_path.read_text(encoding="utf-8").splitlines())
    assert f"trace line {lines}: invalid record" in _eval_error(capsys, traces_path, workload_file)


def test_eval_trace_line_without_mode_is_engine_error(capsys, tmp_path, workload_file):
    traces_path = tmp_path / "traces.jsonl"
    _run_cli(capsys, ["run", str(workload_file), "--out", str(traces_path)])
    first, *rest = traces_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(first)
    del record["mode"]
    traces_path.write_text("\n".join([json.dumps(record), *rest]), encoding="utf-8")
    message = _eval_error(capsys, traces_path, workload_file)
    assert message == "trace line 1: missing field 'mode'"


def _point_report(path, label, f1, latency, calls):
    path.write_text(
        json.dumps(
            {
                "pareto_point": {
                    "label": label,
                    "accuracy_axes": {"micro_f1": f1},
                    "cost_axes": {"mean_latency_ms": latency, "mean_total_calls": calls},
                }
            }
        ),
        encoding="utf-8",
    )
    return path


def test_pareto_identifies_frontier_and_dominators(capsys, tmp_path):
    a = _point_report(tmp_path / "adaptive.json", "adaptive", 0.72, 9.7, 6.0)
    b = _point_report(tmp_path / "fixed.json", "fixed-depth", 0.71, 15.6, 10.5)
    c = _point_report(tmp_path / "single.json", "single-step", 0.63, 5.6, 2.0)
    code, out, _ = _run_cli(capsys, ["pareto", str(a), str(b), str(c)])
    assert code == 0
    data = _last_json(out)
    assert data["frontier"] == ["adaptive", "single-step"]
    rows = {row["label"]: row for row in data["points"]}
    assert rows["fixed-depth"]["on_frontier"] is False
    assert rows["fixed-depth"]["dominated_by"] == ["adaptive"]
    assert rows["adaptive"]["dominated_by"] == []


def test_pareto_rejects_reports_that_share_a_label(capsys, tmp_path):
    # eval labels a report by its trace file's stem, so two runs written to
    # traces.jsonl in different directories both report as "traces".
    a = _point_report(tmp_path / "a.json", "traces", 0.72, 9.7, 6.0)
    b = _point_report(tmp_path / "b.json", "traces", 0.71, 15.6, 10.5)
    assert _pareto_error(capsys, [str(a), str(b)]) == (
        f"reports {a} and {b} share the label 'traces'"
    )


def test_pareto_rejects_reports_with_different_axes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, cost_axis in ((a, "ms"), (b, "calls")):
        path.write_text(
            json.dumps(
                {"label": path.stem, "accuracy_axes": {"f1": 0.5}, "cost_axes": {cost_axis: 1.0}}
            ),
            encoding="utf-8",
        )
    assert _pareto_error(capsys, [str(a), str(b)]) == (
        f"reports {a} and {b} have different axes: "
        "accuracy ['f1'], cost ['ms'] and accuracy ['f1'], cost ['calls']"
    )


def test_pareto_axis_filters(capsys, tmp_path):
    a = _point_report(tmp_path / "a.json", "a", 0.72, 9.7, 2.0)
    b = _point_report(tmp_path / "b.json", "b", 0.71, 15.6, 1.0)
    code, out, _ = _run_cli(
        capsys,
        [
            "pareto",
            str(a),
            str(b),
            "--accuracy-axes",
            "micro_f1",
            "--cost-axes",
            "mean_latency_ms",
        ],
    )
    assert code == 0
    # With calls excluded, a dominates b outright.
    assert _last_json(out)["frontier"] == ["a"]


def test_pareto_accepts_raw_point_files(capsys, tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_text(
        json.dumps(
            {"label": "raw", "accuracy_axes": {"f1": 0.5}, "cost_axes": {"ms": 1.0}}
        ),
        encoding="utf-8",
    )
    code, out, _ = _run_cli(capsys, ["pareto", str(raw)])
    assert code == 0
    assert _last_json(out)["frontier"] == ["raw"]


def test_pareto_missing_axis_is_usage_error(capsys, tmp_path):
    a = _point_report(tmp_path / "a.json", "a", 0.72, 9.7, 2.0)
    code, _, err = _run_cli(capsys, ["pareto", str(a), "--cost-axes", "no_such_axis"])
    assert code == 2
    assert "missing cost axis" in json.loads(err.strip())["error"]


def _pareto_error(capsys, argv) -> str:
    code, out, err = _run_cli(capsys, ["pareto", *argv])
    assert code == 2 and out == ""
    assert err.strip().count("\n") == 0
    return json.loads(err.strip())["error"]


def test_pareto_unreadable_report_is_usage_error(capsys, tmp_path):
    absent = tmp_path / "absent.json"
    assert _pareto_error(capsys, [str(absent)]).startswith(f"cannot read report {absent}")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"label": "café"}'.encode("latin-1"))
    assert _pareto_error(capsys, [str(latin1)]).startswith(f"cannot read report {latin1}")


def test_pareto_report_without_a_point_is_usage_error(capsys, tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"label": "x", "overall": {"micro_f1": 0.5}}), encoding="utf-8")
    assert _pareto_error(capsys, [str(report)]) == f"report {report} has no usable pareto point"


@pytest.mark.parametrize("content", ["[1, 2]", '"x"', "3", "null"])
def test_pareto_report_that_is_not_an_object_is_usage_error(capsys, tmp_path, content):
    report = tmp_path / "report.json"
    report.write_text(content, encoding="utf-8")
    assert _pareto_error(capsys, [str(report)]) == f"report {report} has no usable pareto point"


def test_pareto_missing_accuracy_axis_is_usage_error(capsys, tmp_path):
    a = _point_report(tmp_path / "a.json", "a", 0.72, 9.7, 2.0)
    message = _pareto_error(capsys, [str(a), "--accuracy-axes", "micro_f1,macro_f1"])
    assert message == f"report {a} is missing accuracy axis 'macro_f1'"


def test_pareto_out_writes_what_it_prints(capsys, tmp_path):
    a = _point_report(tmp_path / "a.json", "a", 0.72, 9.7, 2.0)
    b = _point_report(tmp_path / "b.json", "b", 0.71, 15.6, 1.0)
    out_path = tmp_path / "pareto.json"
    code, out, _ = _run_cli(capsys, ["pareto", str(a), str(b), "--out", str(out_path)])
    assert code == 0
    written = json.loads(out_path.read_text(encoding="utf-8"))
    assert written == _last_json(out)
    assert written["frontier"] == ["a", "b"]


def test_missing_dataset_file_is_engine_error(capsys, tmp_path):
    code, _, err = _run_cli(capsys, ["run", str(tmp_path / "absent.jsonl")])
    assert code == 1
    error = json.loads(err.strip())
    assert error["command"] == "run"
    assert "cannot read" in error["error"]
    assert err.strip().count("\n") == 0


def test_bad_usage_exits_two(capsys):
    code, _, err = _run_cli(capsys, ["run"])  # missing dataset argument
    assert code == 2
    assert json.loads(err.strip())["command"] == "cli"

    code, _, err = _run_cli(capsys, ["frobnicate"])
    assert code == 2
    assert "invalid choice" in json.loads(err.strip())["error"]


def test_bad_config_value_exits_one(capsys, tmp_path, workload_file):
    config_path = tmp_path / "engine.ini"
    config_path.write_text("[apm]\nlo = 0.9\nhi = 0.2\n", encoding="utf-8")
    code, _, err = _run_cli(
        capsys, ["run", str(workload_file), "--config", str(config_path)]
    )
    assert code == 1
    assert "lo" in json.loads(err.strip())["error"]


def test_empty_trace_file_is_usage_error(capsys, tmp_path, workload_file):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code, _, err = _run_cli(capsys, ["eval", str(empty), str(workload_file)])
    assert code == 2
    assert "no traces" in json.loads(err.strip())["error"]
