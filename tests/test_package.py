"""The package holds only code that a run, a command or library use executes.

Every top-level function and class in ``src/compatcheck`` must be used by
another top-level definition of the package, or be named in ``README.md`` or
``pyproject.toml`` as public API or an entry point.  A helper that only the
tests call belongs in ``tests/``, as the tree printer does.
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


def test_every_package_definition_has_a_caller():
    modules = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    documents = "\n".join(
        (ROOT / name).read_text(encoding="utf-8") for name in ("README.md", "pyproject.toml")
    )
    assert len(modules) >= 5
    assert uncalled_definitions(modules, documents) == []


def test_a_helper_only_itself_or_the_tests_use_is_flagged():
    modules = {
        "a": "def used():\n    return 1\n\n\ndef lonely(n):\n    return lonely(n - 1)\n",
        "b": "from .a import used, lonely\n\n\nclass Caller:\n    value = used()\n\n\ndef documented():\n    pass\n",
    }
    documents = "call `documented()`, not lonely_helper"
    assert uncalled_definitions(modules, documents) == ["a.lonely", "b.Caller"]
