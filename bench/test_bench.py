"""Tests of the benchmark itself, at small sizes so they run in seconds.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import measure  # noqa: E402
import projects  # noqa: E402
import run  # noqa: E402
from compatcheck import aslt  # noqa: E402

SMALL = {
    "large_project": {"files": 5, "blocks": 3},
    "aslt_trees": {"files": 4, "methods": 2, "calls": 7},
    "cold_faulted": {"files": 14, "components": 3, "faults_per_kind": 2},
}


def _contents(directory: Path) -> dict[str, bytes]:
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("workload", projects.WORKLOADS)
def test_same_seed_gives_byte_identical_project(tmp_path, workload):
    projects.build(workload, 7, tmp_path / "a", **SMALL[workload])
    projects.build(workload, 7, tmp_path / "b", **SMALL[workload])
    projects.build(workload, 8, tmp_path / "c", **SMALL[workload])
    first = _contents(tmp_path / "a")
    assert first == _contents(tmp_path / "b")
    assert first != _contents(tmp_path / "c")


@pytest.mark.parametrize("seed", range(5))
def test_fault_plan_covers_all_six_kinds(tmp_path, seed):
    project = projects.build("cold_faulted", seed, tmp_path)
    kinds = [report[0] for report in project.expected_reports]
    assert sorted(set(kinds)) == sorted(projects.FAULT_KINDS)
    assert all(kinds.count(kind) == 6 for kind in projects.FAULT_KINDS)
    assert project.expected_exit_code == 1


@pytest.mark.parametrize("workload", projects.WORKLOADS)
def test_generated_aslt_matches_the_analysers_serialization(workload):
    # The generator's .aslt writer must agree with the analyser's, or warm
    # siblings would be stale and tree inputs would not stand for sources.
    for klass in projects.PLANS[workload](random.Random(3), **SMALL[workload]):
        if klass.black_box:
            continue
        source_name = f"{klass.name}.java"
        tree = aslt.parse_source(projects.render_source(klass)[0], file_name=source_name)
        assert aslt.write_aslt(tree) == projects.render_aslt(klass, source_name)


@pytest.mark.parametrize("workload", projects.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_smoke_run_passes_the_verdict_check(tmp_path, workload, traced):
    answer = projects.build(workload, 11, tmp_path, **SMALL[workload]).answer()
    result = measure.measure(answer, 0.0, measure.Tracer() if traced else None)
    assert result["failures"] == []
    if traced:
        # One untraced analysis, then one traced (warm, or after a reset).
        assert result["traced"] == [False, True]
        metrics, failures = measure.trace_summary(answer, result)
        assert failures == []
        assert metrics["cli.dir_walks"] == 2
        assert metrics["analysis.call_sites"] == answer["expected_calls"]
        assert metrics["analysis.reports"] == len(answer["expected_reports"])


def test_missing_span_fails_the_traced_run(tmp_path):
    # Tree-input analyses never lex or write, so checking them against the
    # cold workload's span list must name exactly those layers.
    answer = projects.build("aslt_trees", 2, tmp_path, **SMALL["aslt_trees"]).answer()
    result = measure.measure(answer, 0.0, measure.Tracer())
    answer["workload"] = "cold_faulted"
    _metrics, failures = measure.trace_summary(answer, result)
    assert failures == [
        "no span recorded for aslt.parse_source, aslt.tokenize, aslt.write_aslt, cli.render_json"
    ]


def test_wrong_verdict_is_reported(tmp_path):
    answer = projects.build("cold_faulted", 4, tmp_path, **SMALL["cold_faulted"]).answer()
    answer["expected_reports"][0][3] += 1
    assert len(measure.measure(answer, 0.0)["failures"]) == 1


def test_warm_run_that_writes_aslt_fails(tmp_path):
    project = projects.build("large_project", 5, tmp_path, **SMALL["large_project"])
    project.aslt_paths[0].unlink()
    result = measure.measure(project.answer(), 0.0)
    assert result["failures"] == ["an .aslt file was written during a warm analysis"]


def test_benchmark_json_names_the_reported_metrics(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    answer = projects.build("cold_faulted", 1, tmp_path, **SMALL["cold_faulted"]).answer()
    metrics, _failures = measure.trace_summary(answer, measure.measure(answer, 0.0, measure.Tracer()))
    reported = list(metrics)
    assert [m["name"] for m in spec["per_layer"]] == reported
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit(name) for name in reported]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.unit(m["name"]) for m in spec["end_to_end"])
