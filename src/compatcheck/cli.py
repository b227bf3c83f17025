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
from .analysis import CallSite, MismatchReport, class_info_from_tree
from .classfile import (
    ClassInfo,
    Diagnostic,
    emit_classfile,
    read_regular_file,
    scan_classfiles,
    walk_files,
)
from .config import (
    ConfigError,
    KNOWN_KEYS,
    SOURCE_EXTENSION,
    ProjectConfig,
    load_config,
    parse_properties,
    render_properties,
)

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

    Source files whose sibling ``.aslt`` the walk does not list are
    converted and the ``.aslt`` written next to them.  When the walk lists
    both a source file and its ``.aslt``, the source is parsed (so report
    locations always point at source and repeated runs stay byte-identical).

    The cyclic garbage collector is paused for the call and then restored
    to its previous state.  Everything a run builds is acyclic, so
    reference counting frees it, and a full collection would only re-scan
    every tree loaded so far.  When the collector was on, every tracked
    object is then moved to the oldest generation (``gc.freeze`` followed
    by ``gc.unfreeze``, which splice lists and walk nothing), so the first
    young-generation pass after the run does not walk what the run built.
    That step is skipped while anything else is frozen, so that it stays
    frozen.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _analyse(config, widening)
    finally:
        if collecting:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
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

    run.class_infos, class_diagnostics = scan_classfiles(root, config.class_file_extension)
    run.diagnostics.extend(class_diagnostics)
    # Class files keep a table of their own: a source's own class file is no duplicate.
    first_class_file: dict[str, str] = {}
    for info in run.class_infos:
        run.diagnostics.extend(
            analysis.duplicate_classes(info.source_file_name, (info.qualified_name,), first_class_file)
        )

    run.aslt_trees, load_diagnostics = _load_units(root, config.aslt_file_extension)
    # Load failures are recoverable while at least one tree survives;
    # when nothing survives they abort the analysis and count as fatal.
    unrecoverable = bool(load_diagnostics) and not run.aslt_trees
    if unrecoverable:
        load_diagnostics = [dataclasses.replace(d, fatal=True) for d in load_diagnostics]
    run.diagnostics.extend(load_diagnostics)

    # Each unit is bound and extracted on its own, so its names resolve within it.
    class_index = analysis.index_classes(run.class_infos)
    first_declared: dict[str, str] = {}
    for name, tree in run.aslt_trees.items():
        run.diagnostics.extend(analysis.duplicate_classes(name, analysis.class_names(tree), first_declared))
        bindings, binding_diagnostics = analysis.get_all_variables_types(tree)
        run.diagnostics.extend(binding_diagnostics)
        run.call_sites.extend(analysis.get_all_method_calls(tree, bindings, class_index))
    run.reports = analysis.method_called(run.call_sites, class_index, widening=widening)

    if unrecoverable:
        run.exit_code = EXIT_PARSE
    elif run.reports:
        run.exit_code = EXIT_MISMATCHES
    return run


def _load_units(root: Path, aslt_extension: str) -> tuple[dict[str, aslt.AsltNode], list[Diagnostic]]:
    """Every caller below ``root`` as a tree, by path in sorted order, and the
    files that failed to load: the sources first, then the ``.aslt`` files.

    A source is parsed, and its ``.aslt`` sibling written unless the walk
    lists one.  An ``.aslt`` file is read, and must pass
    :func:`aslt.check_names`, only when the walk lists no source beside it.
    """
    files = walk_files(root)
    present = set(files)
    trees: dict[str, aslt.AsltNode] = {}
    source_diagnostics: list[Diagnostic] = []
    tree_diagnostics: list[Diagnostic] = []
    for relative in files:
        if relative.endswith(SOURCE_EXTENSION):
            try:
                tree = aslt.parse_source(read_regular_file(root / relative, "utf-8"), file_name=relative)
            except (OSError, UnicodeDecodeError, aslt.AsltError) as exc:
                source_diagnostics.append(Diagnostic(relative, str(exc)))
                continue
            trees[relative] = tree
            sibling = relative[: -len(SOURCE_EXTENSION)] + aslt_extension
            if sibling not in present:
                try:
                    (root / sibling).write_text(aslt.write_aslt(tree), encoding="utf-8")
                except OSError as exc:
                    source_diagnostics.append(Diagnostic(sibling, f"cannot write: {exc}"))
        elif (
            relative.endswith(aslt_extension)
            and relative[: -len(aslt_extension)] + SOURCE_EXTENSION not in present
        ):
            try:
                tree = aslt.read_aslt(read_regular_file(root / relative, "utf-8"), file_name=relative)
                aslt.check_names(tree)
            except (OSError, UnicodeDecodeError, aslt.AsltError) as exc:
                tree_diagnostics.append(Diagnostic(relative, str(exc)))
                continue
            trees[relative] = tree
    return trees, source_diagnostics + tree_diagnostics


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
        for name, tree in run.aslt_trees.items():
            lines.append("")
            lines.append(f"aslt {name}:")
            lines.append(aslt.write_aslt(tree).rstrip("\n"))
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


def _read_error(path: Path, exc: OSError) -> str:
    """The error line for a file that could not be read.  An error that names
    no file, as the refusal of a named pipe does, is given ``path``."""
    return f"error: {exc}" if exc.filename is not None else f"error: {path}: {exc}"


def _cmd_run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    try:
        text = read_regular_file(config_path, "utf-8")
    except OSError as exc:
        print(_read_error(config_path, exc), file=sys.stderr)
        return EXIT_CONFIG
    except UnicodeDecodeError as exc:
        print(f"error: {config_path}: {exc}", file=sys.stderr)
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
        source = read_regular_file(path, "utf-8")
    except OSError as exc:
        print(_read_error(path, exc), file=sys.stderr)
        return EXIT_CONFIG
    except UnicodeDecodeError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
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


if __name__ == "__main__":
    console_main()
