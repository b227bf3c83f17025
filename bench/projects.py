"""Seeded synthetic projects for the benchmark, with their expected verdicts.

Each workload is first built as a *plan*: a small model of classes, methods,
statements and calls.  The plan is rendered to source text and to ``.aslt``
text by the renderers below, and the compiled class files are emitted from
``ClassInfo`` values built from the same plan.  Every call the plan marks as
faulty carries the mismatch kind it must produce, and the renderers record
where each call lands, so the expected reports come from the plan alone and
never from the analyser under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from compatcheck.classfile import (
    ClassInfo,
    FieldMember,
    MethodSignature,
    TypeName,
    emit_classfile,
)

WORKLOADS = ("large_project", "aslt_trees", "cold_faulted")

# The six MismatchKind values, spelled as the reports spell them.
FAULT_KINDS = (
    "UnknownClass",
    "UnknownMethod",
    "ArityMismatch",
    "ParamTypeMismatch",
    "ReturnTypeMismatch",
    "UnresolvedArgument",
)

# Full-size parameters of each workload; tests pass smaller ones.
SIZES = {
    "large_project": {"files": 200, "blocks": 20},
    "aslt_trees": {"files": 40, "methods": 10, "calls": 61},
    "cold_faulted": {"files": 300, "components": 10, "faults_per_kind": 6},
}

_DEFAULT_IMPORTS = {"String": "java.lang.String", "Object": "java.lang.Object"}


# ---------------------------------------------------------------------------
# Plan model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Lit:
    category: str  # "integer" or "string", as the parser names them
    lexeme: str


@dataclass(frozen=True)
class Call:
    """``receiver.name(args)``; ``fault`` is the report kind it must raise."""

    receiver: str | None
    name: str
    args: tuple = ()
    fault: str | None = None


@dataclass(frozen=True)
class New:
    type_name: str
    args: tuple = ()


@dataclass(frozen=True)
class Decl:
    type_name: str
    name: str
    value: object = None


@dataclass(frozen=True)
class Assign:
    target: str
    value: object


@dataclass(frozen=True)
class Eval:
    value: object


@dataclass(frozen=True)
class Return:
    value: object = None


@dataclass(frozen=True)
class Method:
    name: str
    returns: str
    params: tuple[tuple[str, str], ...]
    body: tuple


@dataclass(frozen=True)
class Klass:
    name: str
    fields: tuple[Decl, ...]
    methods: tuple[Method, ...]
    # A black-box component exists only as a class file, without source.
    black_box: bool = False

    def class_info(self) -> ClassInfo:
        """The compiled surface of this class, with the implicit constructor."""
        return ClassInfo(
            qualified_name=self.name,
            superclass_name="java.lang.Object",
            fields=tuple(FieldMember(f.name, _type(f.type_name)) for f in self.fields),
            methods=(MethodSignature("<init>"),)
            + tuple(
                MethodSignature(m.name, tuple(_type(t) for t, _ in m.params), _type(m.returns))
                for m in self.methods
            ),
        )


def _type(name: str) -> TypeName:
    return TypeName(_DEFAULT_IMPORTS.get(name, name))


def _calls(expr) -> int:
    if isinstance(expr, (Call, New)):
        return 1 + sum(_calls(a) for a in expr.args)
    return 0


def count_calls(klass: Klass) -> int:
    statements = klass.fields + tuple(s for m in klass.methods for s in m.body)
    return sum(_calls(s.value) for s in statements)


# ---------------------------------------------------------------------------
# Renderers.  The source renderer also returns, for every faulty call, the
# (line, column) where the analyser must locate it.
# ---------------------------------------------------------------------------

def _expr_source(expr, column: int, line: int, faults: list) -> str:
    """Source text of ``expr`` starting at ``column`` (1-based)."""
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Lit):
        return expr.lexeme
    if isinstance(expr, New):
        head = f"new {expr.type_name}("
        return head + _args_source(expr.args, column + len(head), line, faults) + ")"
    if expr.fault is not None:
        faults.append((expr.fault, line, column, expr.name))
    head = f"{expr.receiver}.{expr.name}(" if expr.receiver else f"{expr.name}("
    return head + _args_source(expr.args, column + len(head), line, faults) + ")"


def _args_source(args: tuple, column: int, line: int, faults: list) -> str:
    parts = []
    for arg in args:
        text = _expr_source(arg, column, line, faults)
        parts.append(text)
        column += len(text) + 2
    return ", ".join(parts)


def _statement_source(statement, line: int, faults: list, pad: str = " " * 8) -> str:
    if isinstance(statement, Decl):
        head = f"{pad}{statement.type_name} {statement.name}"
        if statement.value is None:
            return head + ";"
        head += " = "
        return head + _expr_source(statement.value, len(head) + 1, line, faults) + ";"
    if isinstance(statement, Assign):
        head = f"{pad}{statement.target} = "
        return head + _expr_source(statement.value, len(head) + 1, line, faults) + ";"
    if isinstance(statement, Eval):
        return pad + _expr_source(statement.value, len(pad) + 1, line, faults) + ";"
    if statement.value is None:
        return pad + "return;"
    head = f"{pad}return "
    return head + _expr_source(statement.value, len(head) + 1, line, faults) + ";"


def render_source(klass: Klass) -> tuple[str, list]:
    lines = [f"class {klass.name} {{"]
    faults: list = []
    for declaration in klass.fields:
        lines.append(_statement_source(declaration, len(lines) + 1, faults, pad=" " * 4))
    for method in klass.methods:
        lines.append("")
        params = ", ".join(f"{t} {n}" for t, n in method.params)
        lines.append(f"    {method.returns} {method.name}({params}) {{")
        for statement in method.body:
            lines.append(_statement_source(statement, len(lines) + 1, faults))
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n", faults


class _AsltLines:
    """The line-oriented ``.aslt`` format: one node per line, two spaces of
    indentation per depth, then sorted ``name="value"`` attributes."""

    def __init__(self):
        self.lines: list[str] = []

    def node(self, depth: int, kind: str, **attributes: str) -> None:
        parts = ["  " * depth + kind]
        for name in sorted(attributes):
            value = attributes[name].replace("\\", "\\\\").replace('"', '\\"')
            parts.append(f'{name}="{value}"')
        self.lines.append(" ".join(parts))

    def type_ref(self, depth: int, name: str) -> None:
        self.node(depth, "TypeReference", name=name)

    def expr(self, depth: int, expr) -> None:
        if isinstance(expr, Ident):
            self.node(depth, "ASLTJavaIdentifierExpression", name=expr.name)
        elif isinstance(expr, Lit):
            self.node(depth, "ASLTJavaLiteralTag", category=expr.category, value=expr.lexeme)
        elif isinstance(expr, New):
            self.node(depth, "NewObjectExpression")
            self.type_ref(depth + 1, expr.type_name)
            self.args(depth + 1, expr.args)
        else:
            self.node(depth, "ASLTJavaMethodInvokeExpression", name=expr.name)
            if expr.receiver:
                self.node(depth + 1, "ASLTJavaIdentifierExpression", name=expr.receiver)
            self.args(depth + 1, expr.args)

    def args(self, depth: int, args: tuple) -> None:
        self.node(depth, "ArgumentList")
        for arg in args:
            self.expr(depth + 1, arg)

    def statement(self, depth: int, statement) -> None:
        if isinstance(statement, Decl):
            self.node(depth, "ASLTJavaVariableDeclaration")
            self.type_ref(depth + 1, statement.type_name)
            self.node(depth + 1, "ASLTJavaVariableDeclarator", name=statement.name)
            if statement.value is not None:
                self.expr(depth + 2, statement.value)
        elif isinstance(statement, Assign):
            self.node(depth, "ASLTJavaExpressionStatement")
            self.node(depth + 1, "ASLTJavaSimpleAssignmentOperatorExpression")
            self.node(depth + 2, "ASLTJavaIdentifierExpression", name=statement.target)
            self.expr(depth + 2, statement.value)
        elif isinstance(statement, Eval):
            self.node(depth, "ASLTJavaExpressionStatement")
            self.expr(depth + 1, statement.value)
        else:
            self.node(depth, "ReturnStatement")
            if statement.value is not None:
                self.expr(depth + 1, statement.value)


def render_aslt(klass: Klass, source_name: str) -> str:
    out = _AsltLines()
    out.node(0, "CompilationUnit", file=source_name)
    out.node(1, "ClassDeclaration", name=klass.name)
    for declaration in klass.fields:
        out.node(2, "FieldDeclaration", name=declaration.name)
        out.type_ref(3, declaration.type_name)
        if declaration.value is not None:
            out.expr(3, declaration.value)
    for method in klass.methods:
        out.node(2, "MethodDeclaration", name=method.name)
        out.type_ref(3, method.returns)
        for type_name, name in method.params:
            out.node(3, "ParameterDeclaration", name=name)
            out.type_ref(4, type_name)
        out.node(3, "Block")
        for statement in method.body:
            out.statement(4, statement)
    return "\n".join(out.lines) + "\n"


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------

_GET = Method("get", "int", (("int", "v"),), (Return(Ident("v")),))
_PUT = Method("put", "void", (("String", "t"), ("int", "v")), (Assign("x", Ident("v")),))
_FIELDS = (Decl("int", "x"), Decl("String", "s"))


def _ring(rng: random.Random, names: list[str]) -> dict[str, str]:
    """A seeded cycle through every class: each class calls its successor."""
    order = list(names)
    rng.shuffle(order)
    return {name: order[(i + 1) % len(order)] for i, name in enumerate(order)}


def plan_large_project(rng: random.Random, files: int, blocks: int) -> list[Klass]:
    """The baseline project: per class, ``blocks`` repetitions of
    ``Cj oK = new Cj(); int rK = oK.get(x); oK.put(s, rK);``."""
    names = [f"C{i}" for i in range(files)]
    callee = _ring(rng, names)
    classes = []
    for name in names:
        target = callee[name]
        body = []
        for k in range(blocks):
            body += [
                Decl(target, f"o{k}", New(target)),
                Decl("int", f"r{k}", Call(f"o{k}", "get", (Ident("x"),))),
                Eval(Call(f"o{k}", "put", (Ident("s"), Ident(f"r{k}")))),
            ]
        run = Method("run", "void", (), tuple(body))
        classes.append(Klass(name, _FIELDS, (_GET, _PUT, run)))
    return classes


def plan_aslt_trees(rng: random.Random, files: int, methods: int, calls: int) -> list[Klass]:
    """Tree-input classes: a field ``Tj o = new Tj();`` and ``methods``
    methods of ``calls`` calls each on that field, so a class has just six
    bindings."""
    names = [f"T{i}" for i in range(files)]
    callee = _ring(rng, names)
    # Literal arguments keep identifier lookups, and so extraction, small
    # next to reading the trees.
    shapes = (
        lambda: Eval(Call("o", "get", (Lit("integer", "7"),))),
        lambda: Assign("x", Call("o", "get", (Lit("integer", "7"),))),
        lambda: Eval(Call("o", "put", (Lit("string", '"k"'), Lit("integer", "7")))),
    )
    classes = []
    for name in names:
        target = callee[name]
        members = [_GET, _PUT]
        for m in range(methods):
            # The same share of each shape for every seed, in seeded order,
            # so every seed does the same amount of work.
            order = [shapes[i % len(shapes)] for i in range(calls)]
            rng.shuffle(order)
            members.append(Method(f"m{m}", "void", (), tuple(shape() for shape in order)))
        fields = _FIELDS + (Decl(target, "o", New(target)),)
        classes.append(Klass(name, fields, tuple(members)))
    return classes


def _fault_statement(kind: str):
    """One statement whose single call raises ``kind`` against a component
    that declares only ``<init>()``, ``int get(int)`` and ``void put(String, int)``."""
    if kind == "UnknownClass":
        return Eval(Call("Missing", "get", (Ident("r"),), fault=kind))
    if kind == "UnknownMethod":
        return Eval(Call("o", "fetch", (Ident("r"),), fault=kind))
    if kind == "ArityMismatch":
        return Eval(Call("o", "get", (Ident("r"), Ident("r")), fault=kind))
    if kind == "ParamTypeMismatch":
        return Eval(Call("o", "get", (Lit("string", '"k"'),), fault=kind))
    if kind == "ReturnTypeMismatch":
        return Decl("String", "t", Call("o", "get", (Ident("r"),), fault=kind))
    return Eval(Call("o", "get", (Ident("y"),), fault=kind))


def plan_cold_faulted(
    rng: random.Random, files: int, components: int, faults_per_kind: int
) -> list[Klass]:
    """Small callers with six compatible calls each into a seeded one of
    ``components`` black-box components; the fault plan adds
    ``faults_per_kind`` faulty calls of every kind to distinct seeded callers."""
    names = [f"F{i}" for i in range(files)]
    kinds = [kind for kind in FAULT_KINDS for _ in range(faults_per_kind)]
    rng.shuffle(kinds)
    faulty = dict(zip(rng.sample(names, len(kinds)), kinds))
    classes = [
        Klass(f"K{j}", (), (_GET, _PUT), black_box=True) for j in range(components)
    ]
    for name in names:
        target = f"K{rng.randrange(components)}"
        # Literal arguments keep per-call work small next to per-file work.
        seven = Lit("integer", "7")
        body = [
            Decl(target, "o", New(target)),
            Decl("int", "r", Call("o", "get", (seven,))),
            Eval(Call("o", "put", (Lit("string", '"k"'), seven))),
            Eval(Call("o", "get", (seven,))),
            Eval(Call("o", "put", (Lit("string", '"k"'), Call("o", "get", (seven,))))),
        ]
        if name in faulty:
            body.insert(rng.randint(1, len(body)), _fault_statement(faulty[name]))
        classes.append(Klass(name, (), (Method("run", "void", (), tuple(body)),)))
    return classes


PLANS = {
    "large_project": plan_large_project,
    "aslt_trees": plan_aslt_trees,
    "cold_faulted": plan_cold_faulted,
}


# ---------------------------------------------------------------------------
# Writing a project
# ---------------------------------------------------------------------------

@dataclass
class Project:
    """A generated project and the verdict the analyser must reach on it."""

    workload: str
    config_path: Path
    root: Path
    expected_reports: list[tuple[str, str, int, int, str]]
    expected_exit_code: int
    expected_calls: int
    aslt_paths: list[Path]
    # Warm projects hold every .aslt file before timing and must keep them
    # as they are; cold ones start each analysis without .aslt files.
    warm: bool
    render_json: bool

    def answer(self) -> dict:
        """The project as the JSON-ready answer ``measure.py`` checks against."""
        return json.loads(json.dumps(asdict(self), default=str))


def build(workload: str, seed: int, directory: Path | str, **size: int) -> Project:
    """Write ``workload``'s project for ``seed`` into ``directory``, which
    must not hold one yet, and return it with its expected verdict."""
    params = dict(SIZES[workload], **size)
    rng = random.Random(f"{workload}:{seed}")
    directory = Path(directory)
    root = directory / "project"
    root.mkdir(parents=True)
    project = Project(
        workload=workload,
        config_path=directory / "compatcheck.properties",
        root=root,
        expected_reports=[],
        expected_exit_code=0,
        expected_calls=0,
        aslt_paths=[],
        warm=workload != "cold_faulted",
        render_json=workload == "cold_faulted",
    )
    plan = PLANS[workload](rng, **params)

    for klass in plan:
        source_name = f"{klass.name}.java"
        aslt_name = f"{klass.name}.aslt"
        (root / f"{klass.name}.class").write_bytes(emit_classfile(klass.class_info()))
        if klass.black_box:
            continue
        project.expected_calls += count_calls(klass)
        project.aslt_paths.append(root / aslt_name)
        if workload == "aslt_trees":
            (root / aslt_name).write_text(render_aslt(klass, source_name), encoding="utf-8")
            continue
        text, faults = render_source(klass)
        (root / source_name).write_text(text, encoding="utf-8")
        project.expected_reports += [(k, source_name, line, col, m) for k, line, col, m in faults]
        if workload == "large_project":
            # Up-to-date siblings, byte-identical to what the analyser
            # writes for this source.
            (root / aslt_name).write_text(render_aslt(klass, source_name), encoding="utf-8")

    project.expected_reports.sort(key=lambda r: (r[1], r[2], r[3]))
    project.expected_exit_code = 1 if project.expected_reports else 0
    debug_level = 1 if workload == "cold_faulted" else 0
    project.config_path.write_text(
        f"PathToApplication=project\nDebugLevel={debug_level}\n", encoding="utf-8"
    )
    return project
