import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
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

from printer import print_source
from randgen import random_class_info, random_program_tree


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


def test_testbed_config_sets_the_four_keys(testbed):
    assert (testbed / "constants.properties").read_text(encoding="utf-8") == (
        "PathToApplication=.\nASLTFileExtension=.aslt\nClassFileExtension=.class\nDebugLevel=1\n"
    )


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


def test_files_that_are_not_utf8_become_diagnostics(testbed):
    expected_calls = len(run_analysis(_config_for(testbed)).call_sites)
    (testbed / "Cafe.java").write_bytes("class Café { }\n".encode("latin-1"))
    tree = 'CompilationUnit\n  ClassDeclaration name="é"\n'
    (testbed / "Tree.aslt").write_bytes(tree.encode("latin-1"))
    run = run_analysis(_config_for(testbed))
    assert [(d.file, d.fatal) for d in run.diagnostics] == [
        ("Cafe.java", False),
        ("Tree.aslt", False),
    ]
    assert all("can't decode byte 0xe9" in d.message for d in run.diagnostics)
    assert sorted(run.aslt_trees) == ["SampleClassA.java", "SampleClassB.java", "TestBed.java"]
    assert len(run.call_sites) == expected_calls
    assert run.exit_code == 0
    assert not (testbed / "Cafe.aslt").exists()


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
    body = " { void m() { " + "f(" * levels + ")" * levels + "; } }"
    (testbed / "Deep.java").write_text("class Deep" + body, encoding="utf-8")
    tree = aslt.parse_source("class DeepTree" + body, file_name="DeepTree.java")
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


# A name counts as present when the walk lists it among the files of its
# directory, so a directory named like a sibling or a source is not one.
def test_a_directory_where_the_sibling_would_go_is_a_write_diagnostic(testbed, capsys):
    (testbed / "SampleClassA.aslt").mkdir()
    assert main(["run", "--config", str(testbed / "constants.properties")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: SampleClassA.aslt: cannot write: ")
    assert "Is a directory" in err and err.count("\n") == 1
    assert (testbed / "SampleClassB.aslt").is_file() and (testbed / "TestBed.aslt").is_file()


def test_a_directory_named_like_the_source_leaves_its_tree_to_be_read(testbed):
    run_analysis(_config_for(testbed))
    inject_fault(testbed)
    (testbed / "SampleClassA.java").unlink()
    (testbed / "SampleClassA.java").mkdir()
    run = run_analysis(_config_for(testbed))
    assert sorted(run.aslt_trees) == ["SampleClassA.aslt", "SampleClassB.java", "TestBed.java"]
    assert run.diagnostics == []
    assert [(r.kind, r.location.file) for r in run.reports] == [
        (MismatchKind.PARAM_TYPE_MISMATCH, "SampleClassA.aslt")
    ]
    assert run.exit_code == 1



_MAIN = "import sys; from compatcheck.cli import main; sys.exit(main(sys.argv[1:]))"


def _in_child(script, *arguments):
    """Run ``script`` in a child process, so that a read that blocks fails
    the test at the timeout instead of hanging the suite."""
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, arguments)],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
    )


@pytest.mark.parametrize("name", ["Z.java", "Z.aslt", "Z.class"])
def test_a_named_pipe_is_a_diagnostic_not_a_wait(testbed, name):
    os.mkfifo(testbed / name)
    result = _in_child(_MAIN, "run", "--config", testbed / "constants.properties")
    assert (result.returncode, result.stderr) == (0, f"warning: {name}: not a regular file\n")
    assert not (testbed / "Z.aslt").is_file()


def test_aslt_of_a_named_pipe_is_an_error_not_a_wait(tmp_path):
    os.mkfifo(tmp_path / "Z.java")
    result = _in_child(_MAIN, "aslt", tmp_path / "Z.java")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {tmp_path / 'Z.java'}: not a regular file\n"


def test_a_named_pipe_as_the_config_is_an_error_not_a_wait(tmp_path):
    os.mkfifo(tmp_path / "c.properties")
    result = _in_child(_MAIN, "run", "--config", tmp_path / "c.properties")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {tmp_path / 'c.properties'}: not a regular file\n"


def test_load_config_file_refuses_a_named_pipe(tmp_path):
    os.mkfifo(tmp_path / "c.properties")
    script = "import sys; from compatcheck.config import load_config_file; load_config_file(sys.argv[1])"
    result = _in_child(script, tmp_path / "c.properties")
    assert result.returncode == 1
    assert result.stderr.endswith("\nOSError: not a regular file\n")


@pytest.mark.parametrize("command", [["run", "--config"], ["aslt"]])
def test_read_errors_of_the_config_and_the_source_print_as_path_reads_do(tmp_path, capsys, command):
    missing = tmp_path / "no" / "c.properties"
    with pytest.raises(OSError) as caught:
        missing.read_text(encoding="utf-8")
    assert main([*command, str(missing)]) == 2
    assert capsys.readouterr() == ("", f"error: {caught.value}\n")
    latin = tmp_path / "Caf\u00e9.java"
    latin.write_bytes("class Caf\u00e9 { }".encode("latin-1"))
    with pytest.raises(UnicodeDecodeError) as caught:
        latin.read_text(encoding="utf-8")
    assert main([*command, str(latin)]) == (2 if command[0] == "run" else 3)
    assert capsys.readouterr() == ("", f"error: {latin}: {caught.value}\n")


def test_a_directory_as_the_config_or_the_source_is_not_a_regular_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path)]) == 2
    assert main(["aslt", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {tmp_path}: not a regular file\n" * 2)


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


def test_same_class_in_two_files_resolves_fields_in_its_own_file(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "A.java").write_text(
        "class A { int x; void m() { B b = new B(); b.f(x); } }", encoding="utf-8"
    )
    (tmp_path / "b" / "A.java").write_text(
        "class A { String x; void n() { B b = new B(); b.f(x); } }", encoding="utf-8"
    )
    b = ClassInfo(
        "B",
        methods=(MethodSignature("<init>", (), VOID), MethodSignature("f", (TypeName("int"),), VOID)),
    )
    (tmp_path / "B.class").write_bytes(emit_classfile(b))
    run = run_analysis(ProjectConfig(path_to_application=tmp_path))
    calls = [(c.location.file, c.argument_types) for c in run.call_sites if c.invoked_name == "f"]
    assert calls == [
        ("a/A.java", (TypeName("int"),)),
        ("b/A.java", (TypeName("java.lang.String"),)),
    ]
    assert [(r.kind, str(r.location)) for r in run.reports] == [
        (MismatchKind.PARAM_TYPE_MISMATCH, "b/A.java:1:47")
    ]
    assert [(d.file, d.message, d.fatal) for d in run.diagnostics] == [
        ("b/A.java", "duplicate class 'A', first declared in a/A.java", False)
    ]
    assert run.exit_code == 1


OVERLOADS_SOURCE = """class A {
    void m(int a) {
        B b = new B();
        b.takeInt(a);
    }
    void m(String a) {
        B b = new B();
        b.takeStr(a);
    }
}
"""


def test_overloaded_caller_methods_compose_cleanly(tmp_path, capsys):
    (tmp_path / "A.java").write_text(OVERLOADS_SOURCE, encoding="utf-8")
    b = ClassInfo(
        "B",
        methods=(
            MethodSignature("<init>", (), VOID),
            MethodSignature("takeInt", (TypeName("int"),), VOID),
            MethodSignature("takeStr", (TypeName("java.lang.String"),), VOID),
        ),
    )
    (tmp_path / "B.class").write_bytes(emit_classfile(b))
    (tmp_path / "c.properties").write_text("PathToApplication=.\n", encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "c.properties")]) == 0
    assert capsys.readouterr() == ("0 errors\n", "")


# A bare call inside a packaged class targets that class by its qualified
# name, as javac resolves it.
PACKAGED_CALLER_SOURCE = """package p;
class A {
    int n() { return 1; }
    void m() {
        int r = n(%s);
    }
}
"""


@pytest.mark.parametrize("argument, exit_code", [("", 0), ("5", 1)])
def test_a_bare_call_in_a_packaged_class_targets_that_class(tmp_path, capsys, argument, exit_code):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text(PACKAGED_CALLER_SOURCE % argument, encoding="utf-8")
    a = ClassInfo(
        "p.A",
        methods=(
            MethodSignature("<init>", (), VOID),
            MethodSignature("n", (), TypeName("int")),
            MethodSignature("m", (), VOID),
        ),
    )
    (tmp_path / "p" / "A.class").write_bytes(emit_classfile(a))
    (tmp_path / "c.properties").write_text("PathToApplication=.\n", encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "c.properties")]) == exit_code
    out, err = capsys.readouterr()
    assert err == ""
    if exit_code == 0:
        assert out == "0 errors\n"
    else:
        assert out.startswith("error[ArityMismatch] at p/A.java:5:17\n")
        assert "  ASLT class name:     p.A\n" in out
        assert "  called class file:   p/A.class\n" in out


def _duplicate_class_project(root):
    """Four units: ``A`` twice in the default package, ``q.A``, and ``p.A``
    beside ``p.C``; each ``A.m`` calls ``B.f(int)`` with its own field ``x``."""
    sources = {
        "one/A.java": "class A { int x; void m() { B b = new B(); b.f(x); } }",
        "two/A.java": "class A { String x; void m() { B b = new B(); b.f(x); } }",
        "q/A.java": "package q; class A { int x; void m() { B b = new B(); b.f(x); } }",
        "p/P.java": "package p; class A { int x; } class C { }",
    }
    for name, text in sources.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    b = ClassInfo(
        "B",
        methods=(MethodSignature("<init>", (), VOID), MethodSignature("f", (TypeName("int"),), VOID)),
    )
    (root / "B.class").write_bytes(emit_classfile(b))
    config = root / "c.properties"
    config.write_text("PathToApplication=.\n", encoding="utf-8")
    return config


def test_duplicate_class_warns_on_the_later_file_only(tmp_path, capsys):
    config = _duplicate_class_project(tmp_path)
    assert main(["run", "--config", str(config)]) == 1
    out, err = capsys.readouterr()
    # Only the default-package A is declared twice; p.A and q.A are distinct.
    assert err == "warning: two/A.java: duplicate class 'A', first declared in one/A.java\n"
    assert out.startswith("error[ParamTypeMismatch] at two/A.java:1:47\n")
    assert out.endswith("\n1 error\n")
    assert "duplicate" not in out


def test_aslt_input_warnings_name_the_file_read(tmp_path, capsys):
    # The tree's "file" attribute names SameName.java, which is not there.
    tree = aslt.parse_source("class S { int x; long x; }", file_name="SameName.java")
    (tmp_path / "SameName.aslt").write_text(aslt.write_aslt(tree), encoding="utf-8")
    (tmp_path / "Other.java").write_text("class S { }", encoding="utf-8")
    (tmp_path / "c.properties").write_text("PathToApplication=.\n", encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "c.properties")]) == 0
    assert capsys.readouterr().err == (
        "warning: SameName.aslt: duplicate class 'S', first declared in Other.java\n"
        "warning: SameName.aslt: duplicate variable 'x' in scope S\n"
    )


def test_duplicate_class_in_one_file_names_that_file(tmp_path):
    (tmp_path / "A.java").write_text("package p; class A { } class A { }", encoding="utf-8")
    run = run_analysis(ProjectConfig(path_to_application=tmp_path))
    assert [(d.file, d.message) for d in run.diagnostics] == [
        ("A.java", "duplicate class 'p.A', first declared in A.java")
    ]


def test_duplicate_class_output_ignores_discovery_order(tmp_path, monkeypatch, capsys):
    config = str(_duplicate_class_project(tmp_path))
    real_walk = os.walk

    def capture(fmt, seed):
        shuffler = random.Random(seed)

        def shuffled_walk(top, **kwargs):
            for dirpath, dirnames, filenames in real_walk(top, **kwargs):
                shuffler.shuffle(dirnames)
                shuffler.shuffle(filenames)
                yield dirpath, dirnames, filenames

        monkeypatch.setattr(os, "walk", shuffled_walk)
        assert main(["run", "--config", config, "--format", fmt]) == 1
        return capsys.readouterr()

    for fmt in ("text", "json"):
        assert capture(fmt, 1) == capture(fmt, 2) == capture(fmt, 3)


def test_duplicate_class_file_warns_after_the_scan_and_before_the_load(testbed, capsys):
    (testbed / "other").mkdir()
    (testbed / "other" / "SampleClassB.class").write_bytes((testbed / "SampleClassB.class").read_bytes())
    config = str(testbed / "constants.properties")
    assert main(["run", "--config", config]) == 0
    # The first file of a name stands; a source and its own class file are no pair.
    assert capsys.readouterr().err == (
        "warning: other/SampleClassB.class: duplicate class 'SampleClassB', "
        "first declared in SampleClassB.class\n"
    )

    (testbed / "Junk.class").write_bytes(b"junk")
    (testbed / "Broken.java").write_text("class {", encoding="utf-8")
    assert main(["run", "--config", config, "--format", "json"]) == 0
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [(d["file"], d["fatal"]) for d in diagnostics] == [
        ("Junk.class", False),
        ("other/SampleClassB.class", False),
        ("Broken.java", False),
    ]


def test_load_diagnostics_list_sources_before_trees(tmp_path):
    # Not path order: the tree-only A.aslt sorts before Z.java.
    (tmp_path / "Z.java").write_text("class {", encoding="utf-8")
    (tmp_path / "A.aslt").write_text("NoSuchKind\n", encoding="utf-8")
    run = run_analysis(ProjectConfig(path_to_application=tmp_path))
    # Nothing loaded, so every load failure is fatal.
    assert [(d.file, d.fatal) for d in run.diagnostics] == [("Z.java", True), ("A.aslt", True)]
    assert run.exit_code == 3

    (tmp_path / "M.java").write_text("class M { }", encoding="utf-8")
    run = run_analysis(ProjectConfig(path_to_application=tmp_path))
    assert [(d.file, d.fatal) for d in run.diagnostics] == [("Z.java", False), ("A.aslt", False)]
    assert list(run.aslt_trees) == ["M.java"]
    assert run.exit_code == 0


def test_class_info_from_tree_lives_in_analysis():
    assert cli.class_info_from_tree is analysis.class_info_from_tree


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


def _random_project(root, seed):
    """The testbed, three random callers and two random components they may call."""
    rng = random.Random(seed)
    gen_testbed(root)
    for name in ("Widget", "Box"):
        info = dataclasses.replace(
            random_class_info(rng), qualified_name=name, source_file_name=f"{name}.class"
        )
        (root / f"{name}.class").write_bytes(emit_classfile(info))
    for index in range(3):
        tree = random_program_tree(rng, file_name=f"Random{index}.java")
        (root / f"Random{index}.java").write_text(print_source(tree), encoding="utf-8")


@pytest.mark.parametrize("project", ["pristine", "faulted", "aslt_only", "random"])
def test_a_run_changes_no_tree_it_loaded(tmp_path, project):
    # The nodes of one tree share attribute dicts, so a write anywhere in
    # binding, extraction, comparison or rendering would show here.
    projects = [tmp_path / "testbed"]
    if project == "random":
        projects = [tmp_path / f"random{seed}" for seed in range(3)]
        for seed, root in enumerate(projects):
            _random_project(root, seed)
    else:
        gen_testbed(projects[0])
        if project != "pristine":
            inject_fault(projects[0])
    for root in projects:
        if project == "aslt_only":
            run_analysis(_config_for(root))
            for path in root.glob("*.java"):
                path.unlink()
        for widening in (False, True):
            run = run_analysis(_config_for(root, debug_level=2), widening=widening)
            assert run.aslt_trees
            show_all_errors(run)
            render_json(run)
            for name, tree in run.aslt_trees.items():
                text = (root / name).read_text(encoding="utf-8")
                load = aslt.parse_source if name.endswith(".java") else aslt.read_aslt
                assert tree == load(text, file_name=name), name


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
    # A line the reader refuses on first sight, and a tree that reads but fails check_names.
    (faulted / "BadLine.aslt").write_text("CompilationUnit\n  Bogus\n", encoding="utf-8")
    (faulted / "Nameless.aslt").write_text('CompilationUnit\n  ClassDeclaration name=""\n', encoding="utf-8")
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


def _young_nodes() -> int:
    return sum(isinstance(o, aslt.AsltNode) for g in (0, 1) for o in gc.get_objects(g))


def test_a_run_hands_its_objects_to_the_oldest_generation(testbed, collector_state):
    if gc.get_freeze_count():
        pytest.skip("objects are frozen already, and a run leaves them frozen")
    gc.enable()
    run = run_analysis(_config_for(testbed))
    assert run.aslt_trees
    assert _young_nodes() == 0


def test_a_run_with_the_collector_off_moves_nothing(testbed, collector_state):
    gc.disable()
    run = run_analysis(_config_for(testbed))
    assert _young_nodes() >= len(run.aslt_trees) > 0


def test_a_run_leaves_frozen_objects_frozen(testbed, collector_state):
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen
        run = run_analysis(_config_for(testbed))
        assert gc.get_freeze_count() == frozen
        assert run.exit_code == 0
    finally:
        gc.unfreeze()


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


@pytest.mark.parametrize(
    "raw, code", [("0" * 5000, 0), ("1" + "0" * 5000, 2)], ids=["5000-zeros", "1-then-5000-zeros"]
)
def test_main_run_takes_a_debug_level_of_any_length(testbed, capsys, raw, code):
    config = testbed / "constants.properties"
    text = config.read_text(encoding="utf-8")
    config.write_text(text.replace("DebugLevel=1\n", f"DebugLevel={raw}\n"), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == code
    err = capsys.readouterr().err
    # The error echoes a bounded prefix of the value and its length.
    echoed = "'10000000000000000000'... (5001 characters)"
    assert err == ("" if code == 0 else f"error: DebugLevel must be one of 0, 1, 2; got {echoed}\n")


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


def test_main_run_rejects_a_tree_extension_equal_to_the_class_extension(testbed, capsys):
    (testbed / "Extra.java").write_text("class Extra { }\n", encoding="utf-8")
    code = main(["run", "--config", str(_set_aslt_extension(testbed, ".class"))])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: ASLTFileExtension and ClassFileExtension must differ, both are '.class'\n"
    )
    assert not (testbed / "Extra.class").exists()


@pytest.mark.parametrize(
    "aslt_extension, class_extension, message",
    [
        (".aslt", ".java", "ClassFileExtension '.java' ends with the source suffix '.java'"),
        (".tree.aslt", ".aslt", "ASLTFileExtension '.tree.aslt' ends with ClassFileExtension '.aslt'"),
    ],
)
def test_main_run_rejects_extensions_that_overlap(testbed, capsys, aslt_extension, class_extension, message):
    config = _set_aslt_extension(testbed, aslt_extension)
    config.write_text(
        config.read_text(encoding="utf-8").replace(
            "ClassFileExtension=.class\n", f"ClassFileExtension={class_extension}\n"
        ),
        encoding="utf-8",
    )
    before = sorted(p.name for p in testbed.iterdir())
    code = main(["run", "--config", str(config)])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}, so a file could be read as both\n")
    assert sorted(p.name for p in testbed.iterdir()) == before


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


def test_main_rejects_files_that_are_not_utf8(testbed, capsys):
    config = testbed / "constants.properties"
    config.write_bytes(config.read_bytes() + "# café\n".encode("latin-1"))
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: 'utf-8' codec can't decode")
    source = testbed / "Cafe.java"
    source.write_bytes("class Café { }\n".encode("latin-1"))
    assert main(["aslt", str(source)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {source}: 'utf-8' codec can't decode")


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


# Out of order, so that the notice's sorting shows.
_ORIGINAL_KIND_KEYS = (
    "ASLTJavaVariableDeclaration",
    "ASLTJavaVariableDeclarator",
    "ASLTJavaSimpleAssignmentOperatorExpression",
    "ASLTJavaMethodInvokeExpression",
    "ASLTJavaLiteralTag",
    "ASLTJavaIdentifierExpression",
    "ASLTJavaExpressionStatement",
)


def test_original_node_kind_keys_are_ignored_with_one_notice(testbed, capsys):
    properties = testbed / "constants.properties"
    main(["run", "--config", str(properties), "--debug-level", "1"])
    plain = capsys.readouterr()
    properties.write_text(
        properties.read_text(encoding="utf-8")
        + "".join(f"{key}={key}\n" for key in _ORIGINAL_KIND_KEYS),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(properties), "--debug-level", "1"]) == 0
    out, err = capsys.readouterr()
    assert out == plain.out
    notices = [line for line in err.splitlines() if line.startswith("notice:")]
    assert notices == [
        "notice: ignoring unknown configuration keys: " + ", ".join(sorted(_ORIGINAL_KIND_KEYS))
    ]
    assert main(["run", "--config", str(properties), "--debug-level", "0"]) == 0
    assert "notice:" not in capsys.readouterr().err


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
