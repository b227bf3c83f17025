"""Command-line front end: run analyses, convert sources, build the testbed.

Exit codes: 0 no mismatches, 1 mismatches reported, 2 configuration or
usage failure, 3 nothing could be parsed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import analysis, aslt
from .analysis import CallSite, MismatchReport
from .classfile import (
    VOID,
    ClassInfo,
    Diagnostic,
    FieldMember,
    MethodSignature,
    emit_classfile,
    walk_files,
)
from .config import (
    ConfigError,
    KNOWN_KEYS,
    ProjectConfig,
    load_config,
    parse_properties,
    render_properties,
)

SOURCE_EXTENSION = ".java"

EXIT_OK = 0
EXIT_MISMATCHES = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3


@dataclass
class AnalysisRun:
    """Everything one pipeline execution produced."""

    config: ProjectConfig
    class_infos: list[ClassInfo] = field(default_factory=list)
    aslt_trees: dict[str, aslt.AsltNode] = field(default_factory=dict)
    call_sites: list[CallSite] = field(default_factory=list)
    reports: list[MismatchReport] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    exit_code: int = EXIT_OK


def run_analysis(config: ProjectConfig, widening: bool = False) -> AnalysisRun:
    """Scan the project, convert sources, and run the comparison pipeline.

    Source files without a sibling ``.aslt`` are converted and the ``.aslt``
    written next to them.  When both a source file and its ``.aslt`` exist,
    the source is parsed (so report locations always point at source and
    repeated runs stay byte-identical).

    The cyclic garbage collector is paused for the call and then restored
    to its previous state.  Everything a run builds is acyclic, so
    reference counting frees it, and a full collection would only re-scan
    every tree loaded so far.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _analyse(config, widening)
    finally:
        if collecting:
            gc.enable()


def _analyse(config: ProjectConfig, widening: bool) -> AnalysisRun:
    run = AnalysisRun(config=config)
    root = Path(config.path_to_application)
    if not root.is_dir():
        run.diagnostics.append(
            Diagnostic(str(root), "project path is not a readable directory", fatal=True)
        )
        run.exit_code = EXIT_CONFIG
        return run

    run.class_infos, class_diagnostics = analysis.get_class_infos(config)
    run.diagnostics.extend(class_diagnostics)

    source_paths: list[Path] = []
    aslt_paths: list[Path] = []
    for path in sorted(walk_files(root), key=lambda p: p.relative_to(root).as_posix()):
        if path.name.endswith(SOURCE_EXTENSION):
            source_paths.append(path)
        elif path.name.endswith(config.aslt_file_extension):
            aslt_paths.append(path)

    trees: dict[str, aslt.AsltNode] = {}
    parse_diagnostics: list[Diagnostic] = []
    for path in source_paths:
        relative = path.relative_to(root).as_posix()
        try:
            tree = aslt.parse_source(path.read_text(encoding="utf-8"), file_name=relative)
        except (OSError, aslt.AsltError) as exc:
            parse_diagnostics.append(Diagnostic(relative, str(exc)))
            continue
        trees[relative] = tree
        sibling = path.with_name(path.name[: -len(SOURCE_EXTENSION)] + config.aslt_file_extension)
        if not sibling.exists():
            try:
                sibling.write_text(aslt.write_aslt(tree), encoding="utf-8")
            except OSError as exc:
                sibling_name = sibling.relative_to(root).as_posix()
                parse_diagnostics.append(Diagnostic(sibling_name, f"cannot write: {exc}"))
    for path in aslt_paths:
        stem = path.name[: -len(config.aslt_file_extension)]
        if path.with_name(stem + SOURCE_EXTENSION).exists():
            continue  # the source was (or will be) analysed directly
        relative = path.relative_to(root).as_posix()
        try:
            tree = aslt.read_aslt(path.read_text(encoding="utf-8"), file_name=relative)
            aslt.check_names(tree)
        except (OSError, aslt.AsltError) as exc:
            parse_diagnostics.append(Diagnostic(relative, str(exc)))
            continue
        trees[relative] = tree

    # Parse failures are recoverable while at least one tree survives;
    # when nothing survives they abort the analysis and count as fatal.
    unrecoverable = bool(parse_diagnostics) and not trees
    if unrecoverable:
        parse_diagnostics = [dataclasses.replace(d, fatal=True) for d in parse_diagnostics]
    run.diagnostics.extend(parse_diagnostics)

    run.aslt_trees = dict(sorted(trees.items()))

    bindings: list[analysis.VariableBinding] = []
    for name in sorted(run.aslt_trees):
        tree_bindings, binding_diagnostics = analysis.get_all_variables_types(run.aslt_trees[name])
        bindings.extend(tree_bindings)
        run.diagnostics.extend(binding_diagnostics)
    binding_index = analysis.index_bindings(bindings)
    class_index = analysis.index_classes(run.class_infos)
    for name in sorted(run.aslt_trees):
        run.call_sites.extend(
            analysis.get_all_method_calls(run.aslt_trees[name], binding_index, class_index)
        )
    run.reports = analysis.method_called(run.call_sites, run.class_infos, widening=widening)

    if unrecoverable:
        run.exit_code = EXIT_PARSE
    elif run.reports:
        run.exit_code = EXIT_MISMATCHES
    else:
        run.exit_code = EXIT_OK
    return run


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _types_text(types) -> str:
    if types is None:
        return "n/a"
    if not types:
        return "(none)"
    return ", ".join(str(t) for t in types)


def _type_text(value) -> str:
    return "n/a" if value is None else str(value)


def _report_block(report: MismatchReport) -> list[str]:
    return [
        f"error[{report.kind.value}] at {report.location}",
        f"  ASLT class name:     {report.aslt_class_name}",
        f"  called class file:   {report.called_class_file or 'n/a'}",
        f"  called method:       {report.called_method}",
        f"  expected parameters: {_types_text(report.expected_parameters)}",
        f"  given parameters:    {_types_text(report.given_parameters)}",
        f"  expected return:     {_type_text(report.expected_return)}",
        f"  given return:        {_type_text(report.given_return)}",
    ]


def _class_block(info: ClassInfo) -> list[str]:
    lines = [f"  {info.qualified_name} ({info.source_file_name or 'in-memory'})"]
    lines.append(f"    superclass: {info.superclass_name or '(none)'}")
    if info.interface_names:
        lines.append(f"    interfaces: {', '.join(info.interface_names)}")
    for member in info.fields:
        static = "static " if member.is_static else ""
        lines.append(f"    field {static}{member.declared_type} {member.name}")
    for method in info.methods:
        static = "static " if method.is_static else ""
        lines.append(f"    method {static}{method}")
    return lines


def show_all_errors(run: AnalysisRun) -> str:
    """Text rendering of every report, plus the configured debug dumps.

    Level 0 prints report blocks and the summary only; level 1 appends the
    essential information per class; level 2 additionally dumps every tree
    in ``.aslt`` form.
    """
    lines: list[str] = []
    for report in run.reports:
        lines.extend(_report_block(report))
        lines.append("")
    count = len(run.reports)
    lines.append(f"{count} error{'s' if count != 1 else ''}")
    if run.config.debug_level >= 1 and run.class_infos:
        lines.append("")
        lines.append("classes:")
        for info in run.class_infos:
            lines.extend(_class_block(info))
    if run.config.debug_level >= 2:
        for name in sorted(run.aslt_trees):
            lines.append("")
            lines.append(f"aslt {name}:")
            lines.append(aslt.write_aslt(run.aslt_trees[name]).rstrip("\n"))
    return "\n".join(lines) + "\n"


def render_json(run: AnalysisRun) -> str:
    """Machine-readable rendering: errors, diagnostics and a summary."""

    def types_json(types):
        return None if types is None else [str(t) for t in types]

    errors = [
        {
            "kind": report.kind.value,
            "aslt_class_name": report.aslt_class_name,
            "called_class_file": report.called_class_file,
            "called_method": report.called_method,
            "expected_parameters": types_json(report.expected_parameters),
            "given_parameters": types_json(report.given_parameters),
            "expected_return": _type_text(report.expected_return) if report.expected_return is not None else None,
            "given_return": _type_text(report.given_return) if report.given_return is not None else None,
            "location": {
                "file": report.location.file,
                "line": report.location.line,
                "column": report.location.column,
            },
        }
        for report in run.reports
    ]
    payload = {
        "errors": errors,
        "diagnostics": [
            {"file": d.file, "message": d.message, "fatal": d.fatal} for d in run.diagnostics
        ],
        "summary": {
            "error_count": len(run.reports),
            "classes_scanned": len(run.class_infos),
            "calls_checked": len(run.call_sites),
        },
    }
    return _indented_json(payload) + "\n"


def _indented_json(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)`` for the dicts, lists and scalars of a
    report.  The standard encoder indents through closures that refer to
    one another, so each call would leave a reference cycle behind."""
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_indented_json(v, depth + 1)}" for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_indented_json(v, depth + 1) for v in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    newline = "\n" + "  " * (depth + 1)
    return brackets[0] + newline + ("," + newline).join(items) + "\n" + "  " * depth + brackets[1]


# ---------------------------------------------------------------------------
# Testbed generation
# ---------------------------------------------------------------------------

_TESTBED_SOURCES = {
    "TestBed.java": """class TestBed {
    static void main(String[] args) {
        SampleClassA sampleClassA = new SampleClassA();
        sampleClassA.run();
    }
}
""",
    "SampleClassA.java": """class SampleClassA {
    void run() {
        SampleClassB sampleClassB = new SampleClassB();
        String str = "compose me";
        sampleClassB.doSomething(str);
        int number = sampleClassB.getNumber();
        sampleClassB.setNumber(number);
    }
}
""",
    "SampleClassB.java": """class SampleClassB {
    int number;

    void doSomething(String text) {
        String copy = text;
    }

    int getNumber() {
        return number;
    }

    void setNumber(int value) {
        number = value;
    }
}
""",
}


def class_info_from_tree(unit: aslt.AsltNode, source_file_name: str = "") -> ClassInfo:
    """Derive the compiled surface a compiler would produce for a unit's
    first class: declared members plus an implicit no-argument constructor."""
    class_node = unit.first(aslt.CLASS_DECLARATION)
    if class_node is None:
        raise ValueError("compilation unit contains no class declaration")
    extends = class_node.attributes.get("extends")
    superclass = analysis.canonical_name(extends) if extends else "java.lang.Object"
    implements = class_node.attributes.get("implements", "")
    interfaces = tuple(analysis.canonical_name(n) for n in implements.split(",") if n)
    fields = []
    methods = [MethodSignature("<init>", (), VOID)]
    for member in class_node.children:
        if member.kind == aslt.FIELD_DECLARATION:
            type_node = member.first(aslt.TYPE_REFERENCE)
            if type_node is not None:
                fields.append(
                    FieldMember(member.attributes.get("name", ""), analysis.source_type_name(type_node))
                )
        elif member.kind == aslt.METHOD_DECLARATION:
            parameters = tuple(
                analysis.source_type_name(child.children[0])
                for child in member.children
                if child.kind == aslt.PARAMETER_DECLARATION and child.children
            )
            methods.append(
                MethodSignature(
                    member.attributes.get("name", ""),
                    parameters,
                    analysis.source_type_name(member.children[0]),
                    is_static=member.attributes.get("static") == "true",
                )
            )
    return ClassInfo(
        qualified_name=class_node.attributes.get("name", ""),
        superclass_name=superclass,
        interface_names=interfaces,
        fields=tuple(fields),
        methods=tuple(methods),
        source_file_name=source_file_name,
    )


def gen_testbed(directory: Path | str) -> list[Path]:
    """Write the three-class test environment into ``directory``.

    Produces the sources, a compiled class file for each (derived from its
    own declarations), and a ready configuration file: seven files total,
    byte-identical on every invocation.  Analysing the result reports
    nothing.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in sorted(_TESTBED_SOURCES):
        source = _TESTBED_SOURCES[name]
        source_path = root / name
        source_path.write_text(source, encoding="utf-8")
        written.append(source_path)
        info = class_info_from_tree(aslt.parse_source(source, file_name=name))
        class_path = root / (name[: -len(SOURCE_EXTENSION)] + ".class")
        class_path.write_bytes(emit_classfile(info))
        written.append(class_path)
    properties_path = root / "constants.properties"
    properties_path.write_text(
        render_properties(ProjectConfig(path_to_application=Path("."), debug_level=1)),
        encoding="utf-8",
    )
    written.append(properties_path)
    return written


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_cli(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="compatcheck",
        description="Check black-box component compatibility before composition.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="analyse the project named by a config file")
    run_parser.add_argument("--config", required=True, help="path to constants.properties")
    run_parser.add_argument(
        "--debug-level",
        type=int,
        choices=(0, 1, 2),
        default=None,
        help="override the DebugLevel property",
    )
    run_parser.add_argument(
        "--widening", action="store_true", help="accept primitive widening conversions"
    )
    run_parser.add_argument("--format", choices=("text", "json"), default="text")

    aslt_parser = subparsers.add_parser("aslt", help="print a source file in .aslt form")
    aslt_parser.add_argument("source_file")

    testbed_parser = subparsers.add_parser("testbed", help="generate the three-class testbed")
    testbed_parser.add_argument("directory")

    return parser.parse_args(argv)


def _cmd_run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    try:
        text = config_path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        kv = parse_properties(text)
        config = load_config(kv, base_dir=config_path.parent)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.debug_level is not None:
        config = dataclasses.replace(config, debug_level=args.debug_level)
    unknown = sorted(set(kv) - KNOWN_KEYS)
    if unknown and config.debug_level >= 1:
        print(f"notice: ignoring unknown configuration keys: {', '.join(unknown)}", file=sys.stderr)
    run = run_analysis(config, widening=args.widening)
    for diagnostic in run.diagnostics:
        severity = "fatal" if diagnostic.fatal else "warning"
        print(f"{severity}: {diagnostic.file}: {diagnostic.message}", file=sys.stderr)
    sys.stdout.write(render_json(run) if args.format == "json" else show_all_errors(run))
    return run.exit_code


def _cmd_aslt(args: argparse.Namespace) -> int:
    path = Path(args.source_file)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        tree = aslt.parse_source(source, file_name=path.name)
    except aslt.AsltError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(aslt.write_aslt(tree))
    return EXIT_OK


def _cmd_testbed(args: argparse.Namespace) -> int:
    try:
        written = gen_testbed(Path(args.directory))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in written:
        print(path)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_cli(sys.argv[1:] if argv is None else list(argv))
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "aslt":
        return _cmd_aslt(args)
    return _cmd_testbed(args)


def console_main() -> None:
    raise SystemExit(main())
