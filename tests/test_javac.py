"""Differential tests against the Java compiler as ground truth.

Each composition is a caller source and the components it calls.  The
components are compiled by ``javac`` into real class files, then every
caller is compiled in one further ``javac -XDrawDiagnostics`` run against
them.  The lines where ``javac`` reports an error must be exactly the lines
where compatcheck reports a mismatch under ``--widening``.

Compositions on which the two are known to disagree are strict xfails, so
that the mark has to go once compatcheck is fixed.  The module is skipped
when no ``javac`` is on the path.
"""

import re
import shutil
import subprocess
import zipfile
from pathlib import Path

import pytest

from compatcheck.classfile import (
    VOID,
    ClassFileError,
    ClassInfo,
    FieldMember,
    MethodSignature,
    TypeName,
    parse_classfile,
    scan_classfiles,
)
from compatcheck.cli import run_analysis
from compatcheck.config import ProjectConfig

pytestmark = pytest.mark.skipif(shutil.which("javac") is None, reason="javac is not on the path")

INT = TypeName("int")
STRING = TypeName("java.lang.String")
OBJECT = TypeName("java.lang.Object")

# Component sources, by path below the class-path root.
COMPONENTS = {
    "ObjB.java": "class ObjB { void obj(Object o) { } }",
    "NameB.java": 'class NameB { String name() { return ""; } }',
    "GetB.java": "class GetB { int get() { return 0; } }",
    "P.java": "class P { int get() { return 0; } }",
    "C.java": "class C extends P { }",
    "p/Q.java": "package p; public class Q { public int get() { return 0; } }",
    "TakeB.java": "class TakeB { int count; void takeInt(int a) { } void takeStr(String a) { } }",
    "StaticB.java": "class StaticB { int get() { return 0; } }",
    # javac adds a bridge method "Object get()" for the generic supertype.
    "S.java": 'class S implements java.util.function.Supplier<String> { public String get() { return ""; } }',
    # The concatenation compiles to invokedynamic, with pool tags 15 and 18.
    "K.java": 'class K { String label(int n) { return "n=" + n; } }',
    # In modified UTF-8 the first constant is a surrogate pair, the second C0 80.
    "E.java": 'class E { String smile() { return "\U0001F600"; } String nul() { return "\\0"; } }',
    "CharB.java": "class CharB { void put(char c) { } }",
}


def _surface(name, *methods, superclass="java.lang.Object", interfaces=(), fields=()):
    """A component's expected surface: its methods after javac's implicit constructor."""
    return ClassInfo(name, superclass, interfaces, fields, (MethodSignature("<init>"), *methods))


# The surface each component's class file must expose, by qualified name.
SURFACE = {
    info.qualified_name: info
    for info in (
        _surface("ObjB", MethodSignature("obj", (OBJECT,), VOID)),
        _surface("NameB", MethodSignature("name", (), STRING)),
        _surface("GetB", MethodSignature("get", (), INT)),
        _surface("P", MethodSignature("get", (), INT)),
        _surface("C", superclass="P"),
        _surface("p.Q", MethodSignature("get", (), INT)),
        _surface(
            "TakeB",
            MethodSignature("takeInt", (INT,), VOID),
            MethodSignature("takeStr", (STRING,), VOID),
            fields=(FieldMember("count", INT),),
        ),
        _surface("StaticB", MethodSignature("get", (), INT)),
        _surface(
            "S", MethodSignature("get", (), STRING), interfaces=("java.util.function.Supplier",)
        ),
        _surface("K", MethodSignature("label", (INT,), STRING)),
        _surface("E", MethodSignature("smile", (), STRING), MethodSignature("nul", (), STRING)),
        _surface("CharB", MethodSignature("put", (TypeName("char"),), VOID)),
    )
}

# Name -> (the components the caller uses, its sources by path).
COMPOSITIONS = {
    "object-parameter": (
        ["ObjB"],
        {"Obj.java": 'class Obj { void m() { ObjB b = new ObjB(); b.obj("s"); } }'},
    ),
    "object-return": (
        ["NameB"],
        {"Name.java": "class Name { void m() { NameB b = new NameB(); Object o = b.name(); } }"},
    ),
    "long-return": (
        ["GetB"],
        {"Widen.java": "class Widen { void m() { GetB b = new GetB(); long r = b.get(); } }"},
    ),
    "inherited-method": (
        ["P", "C"],
        {"Inherit.java": "class Inherit { void m() { C c = new C(); int r = c.get(); } }"},
    ),
    "same-package": (
        ["p/Q"],
        {"p/A.java": "package p; class A { void m() { Q q = new Q(); int r = q.get(); } }"},
    ),
    "overloads": (
        ["TakeB"],
        {
            "Overload.java": """class Overload {
    void m(int a) {
        TakeB b = new TakeB();
        b.takeInt(a);
    }
    void m(String a) {
        TakeB b = new TakeB();
        b.takeStr(a);
    }
}
"""
        },
    ),
    "static-context": (
        ["StaticB"],
        {"Static.java": "class Static { void m() { int r = StaticB.get(); } }"},
    ),
    "qualified-name": (
        ["p/Q"],
        {"Qualified.java": "class Qualified { void m() { p.Q q = new p.Q(); int r = q.get(); } }"},
    ),
    "generic-supertype": (
        ["S"],
        {"UseS.java": "class UseS { void m() { S s = new S(); String r = s.get(); } }"},
    ),
    "string-concatenation": (
        ["K"],
        {
            "UseK.java": """class UseK {
    void m() {
        K k = new K();
        String r = k.label(1);
        k.label("one");
    }
}
"""
        },
    ),
    "supplementary-string": (
        ["E"],
        {"UseE.java": "class UseE { void m() { E e = new E(); String r = e.smile(); } }"},
    ),
    # Octal escapes (JLS 3.10.7) and Unicode escapes (JLS 3.3) in char literals.
    "char-escapes": (
        ["CharB"],
        {
            "UseCharB.java": "class UseCharB { void m() { CharB b = new CharB(); "
            "b.put('\\0'); b.put('\\101'); b.put('\\377'); b.put('\\u0041'); b.put('\\uu00e9'); } }"
        },
    ),
}

# Compositions where compatcheck disagrees with javac today.
KNOWN_DISAGREEMENTS = {
    "object-parameter": "reference widening of an argument to Object",
    "object-return": "reference widening of a return value to Object",
    "long-return": "primitive widening of a return value",
    "inherited-method": "methods inherited from a superclass",
    "same-package": "simple names of classes in the caller's own package",
    "static-context": "instance methods called through the class name",
}

# One error as -XDrawDiagnostics prints it: "File.java:line:column: compiler.err.key: ...".
_DIAGNOSTIC = re.compile(r"^(?P<file>[^:\n]+\.java):(?P<line>\d+):\d+: compiler\.err\.", re.M)


def _javac(*arguments: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["javac", *arguments], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """Compile every component in one javac run and every caller in a
    second; return the root and javac's error lines per composition."""
    root = tmp_path_factory.mktemp("javac")
    for path, text in COMPONENTS.items():
        (root / "components" / path).parent.mkdir(parents=True, exist_ok=True)
        (root / "components" / path).write_text(text, encoding="utf-8")
    result = _javac(
        "-encoding", "UTF-8", "-d", "classes", *(f"components/{path}" for path in COMPONENTS), cwd=root
    )
    if result.returncode != 0:
        pytest.fail(f"javac rejected the components:\n{result.stderr}")
    shutil.rmtree(root / "components")

    # -XDrawDiagnostics names a file by its base name, which is unique here.
    callers = {}
    for name, (components, sources) in COMPOSITIONS.items():
        project = root / "projects" / name
        for component in components:
            target = project / f"{component}.class"
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(root / "classes" / f"{component}.class", target)
        for path, text in sources.items():
            (project / path).parent.mkdir(parents=True, exist_ok=True)
            (project / path).write_text(text, encoding="utf-8")
            callers[Path(path).name] = (name, path)
    result = _javac(
        "-XDrawDiagnostics", "-Xmaxerrs", "100000", "-cp", "classes", "-d", "callers",
        *(f"projects/{name}/{path}" for name, path in callers.values()),
        cwd=root,
    )
    errors = {name: set() for name in COMPOSITIONS}
    for match in _DIAGNOSTIC.finditer(result.stdout + result.stderr):
        name, path = callers[match["file"]]
        errors[name].add((path, int(match["line"])))
    if (result.returncode != 0) != any(errors.values()):
        pytest.fail(f"javac failed without a located error:\n{result.stderr}")
    return root, errors


def _known_disagreement(name):
    """A strict xfail for a known disagreement: only a wrong answer may fail."""
    if name not in KNOWN_DISAGREEMENTS:
        return ()
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=KNOWN_DISAGREEMENTS[name])


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=_known_disagreement(name)) for name in COMPOSITIONS]
)
def test_reports_fall_on_the_lines_javac_rejects(compiled, name):
    root, errors = compiled
    run = run_analysis(ProjectConfig(path_to_application=root / "projects" / name), widening=True)
    assert run.diagnostics == []
    assert {(r.location.file, r.location.line) for r in run.reports} == errors[name]


def test_class_files_written_by_javac_expose_the_declared_surface(compiled):
    root, _ = compiled
    infos, diagnostics = scan_classfiles(root / "classes", ".class")
    assert diagnostics == []
    assert {info.qualified_name: info for info in infos} == SURFACE
    assert {info.qualified_name: info.source_file_name for info in infos}["p.Q"] == "p/Q.class"


def test_a_sample_of_the_jdk_class_files_parses():
    """Every 8th class file of the running JDK's java.base module in name
    order, and its module descriptor, the one that holds pool tags 19 and 20."""
    jmod = Path(shutil.which("javac")).resolve().parent.parent / "jmods" / "java.base.jmod"
    if not jmod.is_file():
        pytest.skip(f"{jmod} is absent")
    failures = {}
    with zipfile.ZipFile(jmod) as archive:  # a jmod is a zip after a 4-byte header
        names = sorted(name for name in archive.namelist() if name.endswith(".class"))
        sample = names[::8] + ["classes/module-info.class"]
        for name in sample:
            try:
                parse_classfile(archive.read(name), source_file_name=name)
            except ClassFileError as exc:
                failures[name] = str(exc)
    assert len(sample) > 100
    assert failures == {}


# Callers whose one literal javac rejects: an empty char literal, a backslash
# before a line break in a char literal, and digits outside ASCII.
REJECTED_LITERALS = {
    "EmptyChar.java": "class EmptyChar { char c = ''; }",
    "BrokenEscape.java": "class BrokenEscape { char c = '\\\n'; }",
    "Superscript.java": "class Superscript { int x = ²; }",
    "ArabicIndic.java": "class ArabicIndic { int x = ٣; }",
}


def test_literals_javac_rejects_leave_their_callers_unanalysed(tmp_path):
    for name, text in REJECTED_LITERALS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    result = _javac("-encoding", "UTF-8", "-XDrawDiagnostics", "-d", "out", *REJECTED_LITERALS, cwd=tmp_path)
    rejected = {match["file"] for match in _DIAGNOSTIC.finditer(result.stdout + result.stderr)}
    assert rejected == set(REJECTED_LITERALS)
    # Beside a caller that parses, each one is a warning and leaves no tree.
    (tmp_path / "Good.java").write_text("class Good { }", encoding="utf-8")
    run = run_analysis(ProjectConfig(path_to_application=tmp_path))
    assert sorted((d.file, d.fatal) for d in run.diagnostics) == sorted(
        (name, False) for name in REJECTED_LITERALS
    )
    assert list(run.aslt_trees) == ["Good.java"]
