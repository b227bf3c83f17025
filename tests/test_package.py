"""The package holds only code that a run, a command or library use executes.

Every top-level function and class in ``src/compatcheck`` must be used by
another top-level definition of the package, or be named in ``README.md`` or
``pyproject.toml`` as public API or an entry point.  A helper that only the
tests call belongs in ``tests/``, as the tree printer does.

The same holds for the fields of the package's records: every annotated
field of a class must be read as an attribute somewhere in the package, or
be named as one (``.field``) in those documents.  A field that is built and
never read is dropped, not kept for the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "compatcheck"


def _names_used(statement: ast.stmt) -> set[str]:
    """Every name and attribute name the statement reads, calls or annotates with."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(statement)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def uncalled_definitions(modules: dict[str, str], documents: str) -> list[str]:
    """``module.name`` of each top-level function or class in ``modules``, a
    module name to its source, that no other top-level statement of any
    module uses and ``documents`` does not name.  An import is not a use."""
    statements = [
        (module, node, _names_used(node))
        for module, source in modules.items()
        for node in ast.parse(source).body
    ]
    return [
        f"{module}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(node.name in used for _, other, used in statements if other is not node)
        and not re.search(rf"\b{re.escape(node.name)}\b", documents)
    ]


def unread_fields(modules: dict[str, str], documents: str) -> list[str]:
    """``module.Class.field`` of each annotated field in a class body of
    ``modules`` that no module reads as an attribute and ``documents`` does
    not name as one.  Building a record by keyword is not a read."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}.{node.name}.{field.target.id}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
        and not re.search(rf"\.{re.escape(field.target.id)}\b", documents)
    ]


def _package() -> tuple[dict[str, str], str]:
    """The package's modules but ``__init__``, by name, and the documents
    that name its public API."""
    modules = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    documents = "\n".join(
        (ROOT / name).read_text(encoding="utf-8") for name in ("README.md", "pyproject.toml")
    )
    assert len(modules) >= 5
    return modules, documents


def test_every_package_definition_has_a_caller():
    assert uncalled_definitions(*_package()) == []


def test_every_record_field_is_read():
    assert unread_fields(*_package()) == []


def test_a_helper_only_itself_or_the_tests_use_is_flagged():
    modules = {
        "a": "def used():\n    return 1\n\n\ndef lonely(n):\n    return lonely(n - 1)\n",
        "b": "from .a import used, lonely\n\n\nclass Caller:\n    value = used()\n\n\ndef documented():\n    pass\n",
    }
    documents = "call `documented()`, not lonely_helper"
    assert uncalled_definitions(modules, documents) == ["a.lonely", "b.Caller"]


def test_a_field_only_built_or_written_is_flagged():
    modules = {
        "a": (
            "class Record:\n    kept: int\n    built: str\n    written: int = 0\n"
            "    CONSTANT = 1\n\n    def total(self):\n        return self.kept\n"
        ),
        "b": (
            "class Error(Exception):\n    def __init__(self, expected):\n"
            "        self.expected = expected\n\n\n"
            "def make(record):\n    record.written = 1\n"
            "    return Record(kept=1, built='x', documented=2)\n\n\n"
            "class Other:\n    documented: int\n    prose: int\n"
        ),
    }
    documents = "read `other.documented`; prose is not a field name"
    assert unread_fields(modules, documents) == ["a.Record.built", "a.Record.written", "b.Other.prose"]
