import dataclasses
import gc
import json
from pathlib import Path

import pytest

from compatcheck import analysis, aslt, cli
from compatcheck.analysis import MismatchKind
from compatcheck.classfile import (
    VOID,
    ClassInfo,
    FieldMember,
    MethodSignature,
    TypeName,
    emit_classfile,
    parse_classfile,
)
from compatcheck.cli import (
    gen_testbed,
    main,
    parse_cli,
    render_json,
    run_analysis,
    show_all_errors,
)
from compatcheck.config import ProjectConfig, load_config_file


@pytest.fixture
def testbed(tmp_path):
    root = tmp_path / "testbed"
    gen_testbed(root)
    return root


def _config_for(root, **overrides):
    config = load_config_file(root / "constants.properties")
    return dataclasses.replace(config, **overrides) if overrides else config


def inject_fault(root):
    """Change SampleClassB's class file so doSomething takes an int."""
    path = root / "SampleClassB.class"
    info = parse_classfile(path.read_bytes())
    methods = tuple(
        MethodSignature("doSomething", (TypeName("int"),), VOID) if m.name == "doSomething" else m
        for m in info.methods
    )
    path.write_bytes(emit_classfile(dataclasses.replace(info, methods=methods)))


# ---------------------------------------------------------------------------
# gen_testbed
# ---------------------------------------------------------------------------

def test_testbed_writes_seven_files(testbed):
    names = sorted(p.name for p in testbed.iterdir())
    assert names == [
        "SampleClassA.class",
        "SampleClassA.java",
        "SampleClassB.class",
        "SampleClassB.java",
        "TestBed.class",
        "TestBed.java",
        "constants.properties",
    ]


def test_testbed_generation_is_deterministic(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    gen_testbed(first)
    gen_testbed(second)
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_testbed_class_files_expose_expected_surface(testbed):
    info = parse_classfile((testbed / "SampleClassB.class").read_bytes())
    assert info.qualified_name == "SampleClassB"
    assert info.superclass_name == "java.lang.Object"
    names = {str(m) for m in info.methods}
    assert "doSomething(java.lang.String) -> void" in names
    assert "getNumber() -> int" in names
    assert "<init>() -> void" in names
    main_info = parse_classfile((testbed / "TestBed.class").read_bytes())
    main_method = [m for m in main_info.methods if m.name == "main"][0]
    assert main_method.is_static
    assert main_method.parameter_types == (TypeName("java.lang.String", 1),)


# ---------------------------------------------------------------------------
# run_analysis
# ---------------------------------------------------------------------------

def test_pristine_testbed_analyses_clean(testbed):
    run = run_analysis(_config_for(testbed))
    assert run.reports == []
    assert run.exit_code == 0
    assert len(run.class_infos) == 3
    assert sorted(run.aslt_trees) == ["SampleClassA.java", "SampleClassB.java", "TestBed.java"]
    assert run.call_sites  # the cross-calls were seen


def test_run_writes_sibling_aslt_files(testbed):
    run_analysis(_config_for(testbed))
    for stem in ("TestBed", "SampleClassA", "SampleClassB"):
        path = testbed / f"{stem}.aslt"
        assert path.exists()
        tree = aslt.read_aslt(path.read_text(encoding="utf-8"), file_name=path.name)
        assert tree.kind == aslt.COMPILATION_UNIT


def test_faulty_testbed_reports_parameter_mismatch(testbed):
    inject_fault(testbed)
    run = run_analysis(_config_for(testbed))
    assert run.exit_code == 1
    assert len(run.reports) == 1
    report = run.reports[0]
    assert report.kind is MismatchKind.PARAM_TYPE_MISMATCH
    assert report.aslt_class_name == "SampleClassA"
    assert report.called_class_file == "SampleClassB.class"
    assert report.called_method == "doSomething"
    assert report.expected_parameters == (TypeName("int"),)
    assert report.given_parameters == (TypeName("java.lang.String"),)
    assert report.location.file == "SampleClassA.java"


def test_missing_project_path_is_fatal(tmp_path):
    config = ProjectConfig(path_to_application=tmp_path / "nope")
    run = run_analysis(config)
    assert run.exit_code == 2
    assert run.diagnostics and run.diagnostics[0].fatal


def test_all_sources_unparseable_exits_three(tmp_path):
    (tmp_path / "Broken.java").write_text("class {", encoding="utf-8")
    run = run_analysis(ProjectConfig(path_to_application=tmp_path))
    assert run.exit_code == 3
    assert run.aslt_trees == {}
    assert len(run.diagnostics) == 1
    assert run.diagnostics[0].fatal  # nothing survived, so the failure is fatal


def test_partial_parse_failure_keeps_analysing(testbed):
    (testbed / "Broken.java").write_text("not source", encoding="utf-8")
    run = run_analysis(_config_for(testbed))
    assert run.exit_code == 0  # remaining trees are clean
    assert any(d.file == "Broken.java" for d in run.diagnostics)
    assert len(run.aslt_trees) == 3


def test_preexisting_aslt_used_when_no_source(tmp_path):
    tree = aslt.parse_source("class A { void m() { ghost.f(); } }", file_name="A.java")
    (tmp_path / "A.aslt").write_text(aslt.write_aslt(tree), encoding="utf-8")
    run = run_analysis(ProjectConfig(path_to_application=tmp_path))
    assert sorted(run.aslt_trees) == ["A.aslt"]
    assert [r.kind for r in run.reports] == [MismatchKind.UNKNOWN_CLASS]
    assert run.exit_code == 1


def test_too_deep_files_become_diagnostics(testbed):
    (testbed / "Deep.java").write_text(
        "class Deep { void m() { " + "f(" * 2000 + ")" * 2000 + "; } }", encoding="utf-8"
    )
    (testbed / "Indented.aslt").write_text(
        "".join("  " * depth + "Block\n" for depth in range(3000)), encoding="utf-8"
    )
    run = run_analysis(_config_for(testbed))
    assert [(d.file, d.fatal) for d in run.diagnostics] == [
        ("Deep.java", False),
        ("Indented.aslt", False),
    ]
    assert all("nesting deeper than" in d.message for d in run.diagnostics)
    assert sorted(run.aslt_trees) == ["SampleClassA.java", "SampleClassB.java", "TestBed.java"]
    assert run.exit_code == 0


def test_trees_at_the_nesting_bound_pass_the_pipeline(testbed):
    levels = (aslt.MAX_DEPTH - 4) // 2  # the deepest ArgumentList sits at MAX_DEPTH
    source = "class Deep { void m() { " + "f(" * levels + ")" * levels + "; } }"
    (testbed / "Deep.java").write_text(source, encoding="utf-8")
    tree = aslt.parse_source(source, file_name="DeepTree.java")
    (testbed / "DeepTree.aslt").write_text(aslt.write_aslt(tree), encoding="utf-8")
    run = run_analysis(_config_for(testbed, debug_level=2))
    assert run.diagnostics == []
    assert len(run.aslt_trees) == 5
    assert sum(1 for call in run.call_sites if call.invoked_name == "f") == 2 * levels
    text = show_all_errors(run)
    assert f"{'  ' * aslt.MAX_DEPTH}ArgumentList\n" in text
    assert json.loads(render_json(run))["summary"]["error_count"] == len(run.reports)


def test_failed_sibling_write_is_a_diagnostic(testbed, monkeypatch):
    expected_calls = len(run_analysis(_config_for(testbed)).call_sites)
    for path in testbed.glob("*.aslt"):
        path.unlink()
    original = Path.write_text

    def write_text(self, *args, **kwargs):
        if self.suffix == ".aslt":
            raise PermissionError(13, "Permission denied", str(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    run = run_analysis(_config_for(testbed))
    assert [(d.file, d.fatal) for d in run.diagnostics] == [
        ("SampleClassA.aslt", False),
        ("SampleClassB.aslt", False),
        ("TestBed.aslt", False),
    ]
    assert all(d.message.startswith("cannot write: ") for d in run.diagnostics)
    assert len(run.call_sites) == expected_calls
    assert run.exit_code == 0


BAD_TREE_SOURCE = "class Bad { int[] a; B b = new B(); void m() { b.f(a); } }"


@pytest.mark.parametrize(
    "old, new, line",
    [
        ('TypeReference dims="1"', 'TypeReference dims="x"', 4),
        ('TypeReference dims="1"', 'TypeReference dims="-1"', 4),
        ('TypeReference dims="1"', 'TypeReference dims="1e3"', 4),
        ('TypeReference dims="1"', 'TypeReference dims=""', 4),
        ('TypeReference dims="1"', 'TypeReference dims="\u0663"', 4),  # a non-ASCII digit
        ('TypeReference dims="1"', 'TypeReference dims="256"', 4),
        ('TypeReference dims="1"', 'TypeReference dims="10000000000"', 4),
        ('TypeReference dims="1" name="int"', 'TypeReference dims="1"', 4),
        ('TypeReference name="B"', 'TypeReference name=""', 6),
        ('TypeReference name="void"', 'TypeReference dims="2" name="void"', 11),
        ('ClassDeclaration name="Bad"', "ClassDeclaration", 2),
    ],
)
def test_malformed_type_in_aslt_is_a_diagnostic(testbed, old, new, line):
    text = aslt.write_aslt(aslt.parse_source(BAD_TREE_SOURCE, file_name="Bad.java"))
    (testbed / "Bad.aslt").write_text(text.replace(old, new, 1), encoding="utf-8")
    run = run_analysis(_config_for(testbed))
    assert [(d.file, d.fatal) for d in run.diagnostics] == [("Bad.aslt", False)]
    assert run.diagnostics[0].message.startswith(f"line {line}: ")
    assert sorted(run.aslt_trees) == ["SampleClassA.java", "SampleClassB.java", "TestBed.java"]
    assert run.exit_code == 0


def wide_array_project(root, dims):
    """Add a source, an ``.aslt`` tree and a class file, each declaring a
    field ``a`` of type ``int`` with ``dims`` array dimensions."""
    brackets = "[]" * dims
    (root / "WideSource.java").write_text(f"class WideSource {{ int{brackets} a; }}", encoding="utf-8")
    tree = aslt.parse_source("class WideTree { int[] a; }", file_name="WideTree.java")
    text = aslt.write_aslt(tree).replace('dims="1"', f'dims="{dims}"')
    (root / "WideTree.aslt").write_text(text, encoding="utf-8")
    wide = ClassInfo("WideClass", fields=(FieldMember("a", TypeName("int", 1)),))
    data = emit_classfile(wide).replace(
        b"\x01\x00\x02[I", b"\x01" + (dims + 1).to_bytes(2, "big") + b"[" * dims + b"I"
    )
    (root / "WideClass.class").write_bytes(data)


def test_array_types_at_the_dimension_bound_are_analysed(testbed):
    wide_array_project(testbed, aslt.MAX_ARRAY_DIMS)
    run = run_analysis(_config_for(testbed, debug_level=1))
    assert run.diagnostics == []
    assert "WideSource.java" in run.aslt_trees and "WideTree.aslt" in run.aslt_trees
    assert [c.qualified_name for c in run.class_infos][-1] == "WideClass"
    assert f"field int{'[]' * aslt.MAX_ARRAY_DIMS} a" in show_all_errors(run)
    assert run.exit_code == 0


def test_array_types_past_the_dimension_bound_are_diagnostics(testbed):
    wide_array_project(testbed, aslt.MAX_ARRAY_DIMS + 1)
    run = run_analysis(_config_for(testbed))
    assert [(d.file, d.fatal) for d in run.diagnostics] == [
        ("WideClass.class", False),
        ("WideSource.java", False),
        ("WideTree.aslt", False),
    ]
    assert [d.message for d in run.diagnostics] == [
        "descriptor error at offset 0: array type with more than 255 dimensions",
        "1:20: array type with more than 255 dimensions",
        "line 4: dims must be at most 255, in at most three digits",
    ]
    assert sorted(run.aslt_trees) == ["SampleClassA.java", "SampleClassB.java", "TestBed.java"]
    assert len(run.class_infos) == 3
    assert run.exit_code == 0


def test_field_without_leading_type_reference_is_analysed(testbed):
    text = aslt.write_aslt(aslt.parse_source(BAD_TREE_SOURCE, file_name="Bad.java"))
    lines = text.splitlines(keepends=True)
    assert lines[5:9] == [
        '      TypeReference name="B"\n',
        "      NewObjectExpression\n",
        '        TypeReference name="B"\n',
        "        ArgumentList\n",
    ]
    lines[5:9] = lines[6:9] + lines[5:6]  # the initializer before the type
    (testbed / "Bad.aslt").write_text("".join(lines), encoding="utf-8")
    run = run_analysis(_config_for(testbed))
    assert run.diagnostics == []
    assert "Bad.aslt" in run.aslt_trees
    bad_calls = [c for c in run.call_sites if c.location.file == "Bad.aslt"]
    assert [(str(c), c.argument_types) for c in bad_calls] == [("B.f", (TypeName("int", 1),))]
    assert [r.called_method for r in run.reports] == ["f"]  # B is not a scanned class


def test_same_class_in_two_files_resolves_fields_from_the_first(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "A.java").write_text(
        "class A { int x; void m() { B b = new B(); b.f(x); } }", encoding="utf-8"
    )
    (tmp_path / "b" / "A.java").write_text(
        "class A { String x; void n() { B b = new B(); b.f(x); } }", encoding="utf-8"
    )
    from compatcheck.classfile import ClassInfo

    b = ClassInfo(
        "B",
        methods=(MethodSignature("<init>", (), VOID), MethodSignature("f", (TypeName("int"),), VOID)),
    )
    (tmp_path / "B.class").write_bytes(emit_classfile(b))
    run = run_analysis(ProjectConfig(path_to_application=tmp_path))
    calls = [(c.location.file, c.argument_types) for c in run.call_sites if c.invoked_name == "f"]
    assert calls == [("a/A.java", (TypeName("int"),)), ("b/A.java", (TypeName("int"),))]
    assert run.reports == []
    assert run.exit_code == 0


def test_widening_flag_reaches_comparison(tmp_path):
    (tmp_path / "A.java").write_text(
        "class A { void m() { B b = new B(); b.f(5); } }", encoding="utf-8"
    )
    from compatcheck.classfile import ClassInfo

    b = ClassInfo(
        "B",
        methods=(
            MethodSignature("<init>", (), VOID),
            MethodSignature("f", (TypeName("long"),), VOID),
        ),
    )
    (tmp_path / "B.class").write_bytes(emit_classfile(b))
    config = ProjectConfig(path_to_application=tmp_path)
    strict = run_analysis(config)
    widened = run_analysis(config, widening=True)
    assert [r.kind for r in strict.reports] == [MismatchKind.PARAM_TYPE_MISMATCH]
    assert widened.reports == []


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_show_all_errors_zero_reports_level_zero(testbed):
    run = run_analysis(_config_for(testbed, debug_level=0))
    assert show_all_errors(run) == "0 errors\n"


def test_show_all_errors_report_block_fields(testbed):
    inject_fault(testbed)
    run = run_analysis(_config_for(testbed, debug_level=0))
    text = show_all_errors(run)
    assert "error[ParamTypeMismatch]" in text
    assert "ASLT class name:     SampleClassA" in text
    assert "called class file:   SampleClassB.class" in text
    assert "called method:       doSomething" in text
    assert "expected parameters: int" in text
    assert "given parameters:    java.lang.String" in text
    assert "expected return:     void" in text
    assert "given return:        Unconstrained" in text
    assert "1 error\n" in text


def test_debug_level_one_appends_class_information(testbed):
    run = run_analysis(_config_for(testbed, debug_level=1))
    text = show_all_errors(run)
    assert "classes:" in text
    assert "doSomething(java.lang.String) -> void" in text
    assert "method static main(java.lang.String[]) -> void" in text
    assert "field int number" in text
    assert "superclass: java.lang.Object" in text


def test_debug_level_two_dumps_trees(testbed):
    run = run_analysis(_config_for(testbed, debug_level=2))
    text = show_all_errors(run)
    blocks = text.split("\n\naslt ")[1:]
    assert [block.split(":\n", 1)[0] for block in blocks] == sorted(run.aslt_trees)
    for block in blocks:
        name, dump = block.split(":\n", 1)
        assert dump.rstrip("\n") + "\n" == aslt.write_aslt(run.aslt_trees[name])


def test_json_rendering_matches_text_report_set(testbed):
    inject_fault(testbed)
    run = run_analysis(_config_for(testbed))
    payload = json.loads(render_json(run))
    assert payload["summary"]["error_count"] == 1
    assert payload["summary"]["classes_scanned"] == 3
    assert payload["summary"]["calls_checked"] == len(run.call_sites)
    error = payload["errors"][0]
    assert error["kind"] == "ParamTypeMismatch"
    assert error["aslt_class_name"] == "SampleClassA"
    assert error["called_class_file"] == "SampleClassB.class"
    assert error["called_method"] == "doSomething"
    assert error["expected_parameters"] == ["int"]
    assert error["given_parameters"] == ["java.lang.String"]
    assert error["expected_return"] == "void"
    assert error["given_return"] == "Unconstrained"
    assert error["location"]["file"] == "SampleClassA.java"


def test_json_rendering_is_the_standard_indented_encoding(testbed):
    inject_fault(testbed)
    (testbed / "Bad.java").write_text("class Bad { \u00a7 }", encoding="utf-8")
    (testbed / "Extra.java").write_text("class Extra { void m() { ghost.poke(1); } }", encoding="utf-8")
    run = run_analysis(_config_for(testbed))
    assert run.reports and run.diagnostics
    text = render_json(run)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    empty = run_analysis(ProjectConfig(path_to_application=testbed / "gone"))
    text = render_json(dataclasses.replace(empty, diagnostics=[]))
    assert '"errors": [],' in text and '"diagnostics": []' in text
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


# ---------------------------------------------------------------------------
# The cyclic garbage collector
# ---------------------------------------------------------------------------

@pytest.fixture
def collector_state():
    """Put the collector back as it was, whatever the test does to it."""
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_analysis_restores_the_collector_state(testbed, collector_state, enabled, monkeypatch):
    seen = []
    original = analysis.method_called

    def method_called(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "method_called", method_called)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    run = run_analysis(_config_for(testbed))
    assert run.exit_code == 0
    assert seen == [False]  # paused during the run
    assert gc.isenabled() is enabled


def test_run_analysis_restores_the_collector_after_an_exception(testbed, collector_state, monkeypatch):
    def method_called(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(analysis, "method_called", method_called)
    gc.enable()
    with pytest.raises(RuntimeError, match="boom"):
        run_analysis(_config_for(testbed))
    assert gc.isenabled()


def test_a_run_leaves_no_cyclic_garbage(tmp_path, collector_state):
    clean = tmp_path / "clean"
    faulted = tmp_path / "faulted"
    trees_only = tmp_path / "trees_only"
    cold = tmp_path / "cold"
    for root in (clean, faulted, trees_only, cold):
        gen_testbed(root)
    inject_fault(faulted)
    (faulted / "Broken.java").write_text("class Broken { void m() { f( } }", encoding="utf-8")
    (faulted / "Odd.aslt").write_text("CompilationUnit\n    Block\n", encoding="utf-8")
    for source in trees_only.glob("*.java"):
        tree = aslt.parse_source(source.read_text(encoding="utf-8"), file_name=source.name)
        source.with_suffix(".aslt").write_text(aslt.write_aslt(tree), encoding="utf-8")
        source.unlink()

    def analyse(root):
        if root == cold:
            for path in cold.glob("*.aslt"):
                path.unlink()
        run = run_analysis(_config_for(root, debug_level=2))
        return len(show_all_errors(run)) + len(render_json(run))

    for root in (clean, faulted, trees_only, cold):
        analyse(root)  # warm up: imports, caches and the sibling .aslt files
    gc.collect()
    gc.disable()
    outputs = [analyse(root) for root in (clean, faulted, trees_only, cold)]
    assert all(outputs)
    assert gc.collect() == 0


def test_exit_code_contract_matches_run_state(testbed):
    clean = run_analysis(_config_for(testbed))
    assert (clean.exit_code == 0) == (
        not clean.reports and not any(d.fatal for d in clean.diagnostics)
    )
    inject_fault(testbed)
    faulty = run_analysis(_config_for(testbed))
    assert faulty.exit_code == 1
    assert faulty.reports


def test_exit_zero_iff_no_reports_and_no_fatal_diagnostics(tmp_path, testbed):
    cases = []
    cases.append(run_analysis(_config_for(testbed)))  # clean: 0
    inject_fault(testbed)
    cases.append(run_analysis(_config_for(testbed)))  # mismatch: 1
    cases.append(run_analysis(ProjectConfig(path_to_application=tmp_path / "gone")))  # 2
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "Bad.java").write_text("class {", encoding="utf-8")
    cases.append(run_analysis(ProjectConfig(path_to_application=broken)))  # 3
    assert sorted(run.exit_code for run in cases) == [0, 1, 2, 3]
    for run in cases:
        clean = not run.reports and not any(d.fatal for d in run.diagnostics)
        assert (run.exit_code == 0) == clean


# ---------------------------------------------------------------------------
# CLI entry points
# ---------------------------------------------------------------------------

def test_parse_cli_run_command():
    args = parse_cli(["run", "--config", "c.properties"])
    assert args.command == "run"
    assert args.config == "c.properties"
    assert args.debug_level is None
    assert not args.widening
    assert args.format == "text"


def test_parse_cli_rejects_bad_debug_level():
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run", "--config", "c", "--debug-level", "9"])
    assert exc.value.code == 2


def test_parse_cli_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        parse_cli(["run", "--config", "c", "--frobnicate"])
    assert exc.value.code == 2


def test_parse_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        parse_cli([])
    assert exc.value.code == 2


def test_main_run_on_testbed(testbed, capsys):
    code = main(["run", "--config", str(testbed / "constants.properties")])
    captured = capsys.readouterr()
    assert code == 0
    assert "0 errors" in captured.out
    assert "classes:" in captured.out  # testbed config sets DebugLevel=1


def test_main_debug_flag_overrides_config_both_directions(testbed, capsys):
    main(["run", "--config", str(testbed / "constants.properties"), "--debug-level", "0"])
    silenced = capsys.readouterr().out
    assert "classes:" not in silenced
    main(["run", "--config", str(testbed / "constants.properties"), "--debug-level", "2"])
    verbose = capsys.readouterr().out
    assert "classes:" in verbose
    assert "aslt TestBed.java:" in verbose


def test_main_json_format(testbed, capsys):
    inject_fault(testbed)
    code = main(
        ["run", "--config", str(testbed / "constants.properties"), "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["summary"]["error_count"] == 1


def test_main_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.properties")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_main_invalid_config_contents(tmp_path, capsys):
    path = tmp_path / "bad.properties"
    path.write_text("DebugLevel=1\n", encoding="utf-8")  # PathToApplication missing
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert "PathToApplication" in capsys.readouterr().err


def _set_aslt_extension(root, extension):
    path = root / "constants.properties"
    text = path.read_text(encoding="utf-8")
    path.write_text(
        text.replace("ASLTFileExtension=.aslt\n", f"ASLTFileExtension={extension}\n"),
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("extension", [".", ".x/y"])
def test_main_run_rejects_an_extension_that_is_not_a_file_suffix(testbed, capsys, extension):
    code = main(["run", "--config", str(_set_aslt_extension(testbed, extension))])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: ASLTFileExtension must name a file suffix, got {extension!r}\n"
    )


@pytest.mark.parametrize("faulty", [False, True])
def test_multi_dot_extension_pairs_each_source_with_its_sibling(tmp_path, capsys, faulty):
    outputs = {}
    for extension in (".aslt", ".tree.aslt"):
        root = tmp_path / extension.lstrip(".")
        gen_testbed(root)
        if faulty:
            inject_fault(root)
        config = _set_aslt_extension(root, extension)
        runs = []
        for _ in range(2):  # the second run finds the siblings the first one wrote
            code = main(["run", "--config", str(config), "--format", "json"])
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        assert runs[0] == runs[1]
        assert sorted(p.name for p in root.iterdir() if p.name.endswith(extension)) == [
            f"{stem}{extension}" for stem in ("SampleClassA", "SampleClassB", "TestBed")
        ]
        outputs[extension] = runs[0]
    assert outputs[".tree.aslt"] == outputs[".aslt"]
    assert json.loads(outputs[".aslt"][1])["summary"]["calls_checked"] == 6


def test_main_aslt_subcommand(testbed, capsys):
    code = main(["aslt", str(testbed / "SampleClassA.java")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith('CompilationUnit file="SampleClassA.java"')
    assert 'ASLTJavaMethodInvokeExpression name="doSomething"' in out
    reread = aslt.read_aslt(out)
    assert reread.kind == aslt.COMPILATION_UNIT


def test_main_aslt_subcommand_parse_failure(tmp_path, capsys):
    path = tmp_path / "Broken.java"
    path.write_text("class {", encoding="utf-8")
    assert main(["aslt", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_main_testbed_subcommand(tmp_path, capsys):
    target = tmp_path / "env"
    code = main(["testbed", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.strip().split("\n")) == 7
    assert (target / "constants.properties").exists()


def test_main_run_after_testbed_subcommand(tmp_path, capsys):
    target = tmp_path / "env"
    main(["testbed", str(target)])
    capsys.readouterr()
    code = main(["run", "--config", str(target / "constants.properties")])
    assert code == 0


def test_unknown_config_keys_notice_at_debug_level(testbed, capsys):
    properties = testbed / "constants.properties"
    properties.write_text(
        properties.read_text(encoding="utf-8") + "MysteryKey=1\n", encoding="utf-8"
    )
    main(["run", "--config", str(properties), "--debug-level", "1"])
    assert "MysteryKey" in capsys.readouterr().err
    main(["run", "--config", str(properties), "--debug-level", "0"])
    assert "MysteryKey" not in capsys.readouterr().err


def test_every_report_maps_to_exactly_one_call_site(testbed):
    inject_fault(testbed)
    (testbed / "Extra.java").write_text(
        "class Extra { void m() { ghost.poke(); mystery.f(1); } }", encoding="utf-8"
    )
    run = run_analysis(_config_for(testbed))
    assert run.reports
    for report in run.reports:
        matching = [
            c
            for c in run.call_sites
            if c.caller_class == report.aslt_class_name
            and c.invoked_name == report.called_method
            and c.location == report.location
        ]
        assert len(matching) == 1


def test_text_and_json_describe_identical_report_sets(testbed):
    inject_fault(testbed)
    (testbed / "Extra.java").write_text(
        "class Extra { void m() { ghost.poke(); } }", encoding="utf-8"
    )
    run = run_analysis(_config_for(testbed, debug_level=0))
    text = show_all_errors(run)
    payload = json.loads(render_json(run))
    text_headers = [
        line for line in text.split("\n") if line.startswith("error[")
    ]
    json_headers = [
        "error[{}] at {}:{}:{}".format(
            e["kind"], e["location"]["file"], e["location"]["line"], e["location"]["column"]
        )
        for e in payload["errors"]
    ]
    assert text_headers == json_headers
    assert len(payload["errors"]) == len(run.reports)
