"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import functools
import json
import os
import random
import time

import pytest

from compatcheck import aslt, cli
from compatcheck.analysis import MismatchKind, index_classes, method_called
from compatcheck.classfile import ClassFileError, emit_classfile, parse_classfile
from compatcheck.cli import gen_testbed, main, run_analysis
from compatcheck.config import KNOWN_KEYS, load_config, parse_properties

from oracles import oracle_preorder, oracle_reports
from printer import print_source
from randgen import (
    oracle_calls,
    oracle_classes,
    random_class_info,
    random_program_tree,
    random_serial_tree,
)
from test_cli import inject_fault
from test_config import REFERENCE_PROPERTIES


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number}: {description}")
                raise
            print(f"PASS  criterion {number}: {description}")

        return run

    return wrap


@pytest.fixture
def testbed(tmp_path):
    root = tmp_path / "testbed"
    gen_testbed(root)
    return root


def _config_for(root, **overrides):
    from compatcheck.config import load_config_file

    config = load_config_file(root / "constants.properties")
    return dataclasses.replace(config, **overrides) if overrides else config


@criterion(1, "compatible testbed: zero reports, exit 0, under one second")
def test_criterion_1_compatible_composition(testbed):
    started = time.monotonic()
    run = run_analysis(_config_for(testbed))
    elapsed = time.monotonic() - started
    assert run.reports == []
    assert run.exit_code == 0
    assert not any(d.fatal for d in run.diagnostics)
    assert elapsed < 1.0


@criterion(2, "string-vs-int fault: exactly one ParamTypeMismatch, exit 1")
def test_criterion_2_parameter_fault(testbed):
    inject_fault(testbed)
    run = run_analysis(_config_for(testbed))
    assert run.exit_code == 1
    assert len(run.reports) == 1
    report = run.reports[0]
    assert report.kind is MismatchKind.PARAM_TYPE_MISMATCH
    assert [str(t) for t in report.expected_parameters] == ["int"]
    assert [str(t) for t in report.given_parameters] == ["java.lang.String"]
    assert report.called_method == "doSomething"


@criterion(3, "every report renders the five record fields")
def test_criterion_3_report_fields(testbed, tmp_path):
    inject_fault(testbed)
    # Add a caller with an unknown receiver so a not-applicable report is
    # rendered too.
    (testbed / "Extra.java").write_text(
        "class Extra { void m() { ghost.poke(); } }", encoding="utf-8"
    )
    run = run_analysis(_config_for(testbed, debug_level=0))
    assert len(run.reports) == 2
    text = cli.show_all_errors(run)
    blocks = [b for b in text.split("error[") if " at " in b]
    assert len(blocks) == len(run.reports)
    for block in blocks:
        for label in (
            "ASLT class name:",
            "called class file:",
            "called method:",
            "expected parameters:",
            "given parameters:",
            "expected return:",
            "given return:",
        ):
            assert label in block
    payload = json.loads(cli.render_json(run))
    for error in payload["errors"]:
        for key in (
            "aslt_class_name",
            "called_class_file",
            "called_method",
            "expected_parameters",
            "given_parameters",
            "expected_return",
            "given_return",
        ):
            assert key in error
    unknown = [e for e in payload["errors"] if e["kind"] == "UnknownClass"][0]
    assert unknown["expected_parameters"] is None
    assert "n/a" in text


@criterion(4, "debug levels 0/1/2 dump nothing, class surfaces, everything")
def test_criterion_4_debug_levels(testbed):
    level_0 = cli.show_all_errors(run_analysis(_config_for(testbed, debug_level=0)))
    assert level_0 == "0 errors\n"
    assert "classes:" not in level_0

    level_1 = cli.show_all_errors(run_analysis(_config_for(testbed, debug_level=1)))
    assert "classes:" in level_1
    assert "doSomething(java.lang.String) -> void" in level_1
    assert "getNumber() -> int" in level_1
    assert "setNumber(int) -> void" in level_1
    assert "aslt " not in level_1

    run = run_analysis(_config_for(testbed, debug_level=2))
    level_2 = cli.show_all_errors(run)
    assert "classes:" in level_2
    for info in run.class_infos:
        assert info.qualified_name in level_2
    occurring_kinds = {n.kind for t in run.aslt_trees.values() for n in oracle_preorder(t)}
    for kind in occurring_kinds:
        assert kind in level_2


@criterion(5, "class files: 200 round trips; truncations and 10k fuzz inputs fail cleanly")
def test_criterion_5_classfile_totality(testbed):
    rng = random.Random(0xC1A55)
    for _ in range(200):
        info = random_class_info(rng)
        assert parse_classfile(emit_classfile(info)) == info

    fixture = (testbed / "SampleClassB.class").read_bytes()
    for cut in range(len(fixture)):
        with pytest.raises(ClassFileError):
            parse_classfile(fixture[:cut])

    for index in range(10_000):
        blob = rng.randbytes(rng.randrange(0, 100))
        if index % 2:
            blob = b"\xca\xfe\xba\xbe" + blob
        try:
            parse_classfile(blob)
        except ClassFileError:
            pass


@criterion(6, "ASLT round trips hold on the corpus and 500 random programs")
def test_criterion_6_aslt_round_trips(testbed):
    corpus = [
        (path.name, path.read_text(encoding="utf-8"))
        for path in sorted(testbed.glob("*.java"))
    ]
    corpus.append(
        (
            "Corner.java",
            """package deep.pkg;
class Corner extends Base implements api.Marker, Other {
    java.lang.String label = "x\\"y";

    static int[] grid(int[][] cells, char mark) {
        int a = 1, b;
        b = helper.get();
        run(a, 'z', 1.25, true, new Widget("w"));
        total = outer.f(inner.g(), 5);
        return cells;
    }
}
""",
        )
    )
    for file_name, source in corpus:
        tree = aslt.parse_source(source, file_name=file_name)
        assert aslt.parse_source(print_source(tree), file_name=file_name) == tree
        assert aslt.read_aslt(aslt.write_aslt(tree)) == tree

    rng = random.Random(0xA51)
    for _ in range(500):
        tree = random_program_tree(rng)
        assert aslt.parse_source(print_source(tree), file_name=tree.attributes["file"]) == tree
        assert aslt.read_aslt(aslt.write_aslt(tree)) == tree
    for _ in range(200):
        tree = random_serial_tree(rng)
        assert aslt.read_aslt(aslt.write_aslt(tree)) == tree


@criterion(7, "report sets equal the brute-force oracle in both modes")
def test_criterion_7_oracle_equivalence(testbed):
    # Corpus project: the generated testbed, pristine and faulted.
    for fault in (False, True):
        if fault:
            inject_fault(testbed)
        run = run_analysis(_config_for(testbed))
        assert len(run.class_infos) <= 10
        for widening in (False, True):
            assert method_called(
                run.call_sites, index_classes(run.class_infos), widening=widening
            ) == oracle_reports(run.call_sites, run.class_infos, widening)

    rng = random.Random(0x0AC1E)
    for _ in range(200):
        classes = oracle_classes(rng)
        calls = oracle_calls(rng, classes)
        assert len(classes) <= 10
        for widening in (False, True):
            assert method_called(
                calls, index_classes(classes), widening=widening
            ) == oracle_reports(calls, classes, widening)


@criterion(8, "permuted discovery order leaves text and JSON output byte-identical")
def test_criterion_8_determinism(testbed, monkeypatch, capsys):
    inject_fault(testbed)
    real_walk = os.walk
    config_path = str(testbed / "constants.properties")

    def capture(fmt, seed):
        shuffler = random.Random(seed)

        def shuffled_walk(top, **kwargs):
            for dirpath, dirnames, filenames in real_walk(top, **kwargs):
                shuffler.shuffle(dirnames)
                shuffler.shuffle(filenames)
                yield dirpath, dirnames, filenames

        monkeypatch.setattr(os, "walk", shuffled_walk)
        code = main(["run", "--config", config_path, "--format", fmt])
        assert code == 1
        return capsys.readouterr().out

    for fmt in ("text", "json"):
        first = capture(fmt, seed=1)
        second = capture(fmt, seed=2)
        third = capture(fmt, seed=3)
        assert first == second == third


@criterion(9, "the standard configuration file loads with all defaults intact")
def test_criterion_9_reference_config(tmp_path):
    config = load_config(parse_properties(REFERENCE_PROPERTIES), base_dir=tmp_path)
    assert config.debug_level == 1
    assert config.aslt_file_extension == ".aslt"
    assert config.class_file_extension == ".class"
    # The original tool's node-kind keys load, and change nothing.
    known = {k: v for k, v in parse_properties(REFERENCE_PROPERTIES).items() if k in KNOWN_KEYS}
    assert len(known) == 4
    assert config == load_config(known, base_dir=tmp_path)
    assert str(config.path_to_application).endswith("E:/Eclipse/Analyser/DUT/test1")
