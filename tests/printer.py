"""Tree-to-source printer for the test suite.

The package turns source into trees and trees into ``.aslt`` text, and
never back into source.  The tests print trees back to source, so that
trees from :mod:`randgen` become caller files and parser round trips can be
checked: reparsing the output yields a structurally equal tree, positions
aside.
"""

from __future__ import annotations

from compatcheck.aslt import (
    ARGUMENT_LIST,
    BLOCK,
    CLASS_DECLARATION,
    COMPILATION_UNIT,
    EXPRESSION_STATEMENT,
    FIELD_DECLARATION,
    IDENTIFIER_EXPRESSION,
    LITERAL_TAG,
    METHOD_DECLARATION,
    METHOD_INVOKE_EXPRESSION,
    NEW_OBJECT_EXPRESSION,
    PACKAGE_DECLARATION,
    PARAMETER_DECLARATION,
    RETURN_STATEMENT,
    SIMPLE_ASSIGNMENT_EXPRESSION,
    TYPE_REFERENCE,
    VARIABLE_DECLARATION,
    VARIABLE_DECLARATOR,
    AsltError,
    AsltNode,
    _array_dims,
)


class MalformedTreeError(AsltError):
    """A tree violates the kind-specific shape invariants."""


_INDENT = "    "


def _shape_error(node: AsltNode, why: str) -> MalformedTreeError:
    return MalformedTreeError(f"{node.kind}: {why}")


def _type_source(node: AsltNode) -> str:
    if node.kind != TYPE_REFERENCE:
        raise _shape_error(node, "expected a TypeReference")
    name = node.attributes.get("name")
    if not name:
        raise _shape_error(node, "type reference without a name")
    try:
        dims = _array_dims(node)
    except ValueError as exc:
        raise _shape_error(node, str(exc)) from None
    return name + "[]" * dims


def _expression_source(node: AsltNode) -> str:
    if node.kind == IDENTIFIER_EXPRESSION:
        name = node.attributes.get("name")
        if not name:
            raise _shape_error(node, "identifier without a name")
        return name
    if node.kind == LITERAL_TAG:
        value = node.attributes.get("value")
        if value is None:
            raise _shape_error(node, "literal without a value")
        return value
    if node.kind == METHOD_INVOKE_EXPRESSION:
        name = node.attributes.get("name")
        if not name:
            raise _shape_error(node, "method invocation without a method name")
        if not node.children or node.children[-1].kind != ARGUMENT_LIST:
            raise _shape_error(node, "method invocation without an argument list")
        if len(node.children) > 2:
            raise _shape_error(node, "method invocation with extra children")
        arguments = ", ".join(_expression_source(a) for a in node.children[-1].children)
        if len(node.children) == 2:
            return f"{_expression_source(node.children[0])}.{name}({arguments})"
        return f"{name}({arguments})"
    if node.kind == NEW_OBJECT_EXPRESSION:
        if len(node.children) != 2 or node.children[1].kind != ARGUMENT_LIST:
            raise _shape_error(node, "object creation needs a type and an argument list")
        arguments = ", ".join(_expression_source(a) for a in node.children[1].children)
        return f"new {_type_source(node.children[0])}({arguments})"
    raise _shape_error(node, "not an expression kind")


def _statement_source(node: AsltNode, depth: int) -> str:
    pad = _INDENT * depth
    if node.kind == VARIABLE_DECLARATION:
        if len(node.children) < 2:
            raise _shape_error(node, "needs a type and at least one declarator")
        declared = _type_source(node.children[0])
        rendered = []
        for declarator in node.children[1:]:
            if declarator.kind != VARIABLE_DECLARATOR:
                raise _shape_error(declarator, "expected a declarator")
            name = declarator.attributes.get("name")
            if not name:
                raise _shape_error(declarator, "declarator without a name")
            if declarator.children:
                rendered.append(f"{name} = {_expression_source(declarator.children[0])}")
            else:
                rendered.append(name)
        return f"{pad}{declared} {', '.join(rendered)};"
    if node.kind == EXPRESSION_STATEMENT:
        if len(node.children) != 1:
            raise _shape_error(node, "needs exactly one expression child")
        inner = node.children[0]
        if inner.kind == SIMPLE_ASSIGNMENT_EXPRESSION:
            if len(inner.children) != 2:
                raise _shape_error(inner, "needs a target and a value")
            target = _expression_source(inner.children[0])
            value = _expression_source(inner.children[1])
            return f"{pad}{target} = {value};"
        return f"{pad}{_expression_source(inner)};"
    if node.kind == RETURN_STATEMENT:
        if len(node.children) > 1:
            raise _shape_error(node, "at most one return value")
        if node.children:
            return f"{pad}return {_expression_source(node.children[0])};"
        return f"{pad}return;"
    raise _shape_error(node, "not a statement kind")


def _member_source(node: AsltNode, depth: int) -> list[str]:
    pad = _INDENT * depth
    if node.kind == FIELD_DECLARATION:
        name = node.attributes.get("name")
        if not name or not node.children or node.children[0].kind != TYPE_REFERENCE:
            raise _shape_error(node, "field needs a name and a type")
        line = f"{pad}{_type_source(node.children[0])} {name}"
        if len(node.children) == 2:
            line += f" = {_expression_source(node.children[1])}"
        elif len(node.children) > 2:
            raise _shape_error(node, "field with extra children")
        return [line + ";"]
    if node.kind == METHOD_DECLARATION:
        name = node.attributes.get("name")
        if not name or not node.children or node.children[0].kind != TYPE_REFERENCE:
            raise _shape_error(node, "method needs a name and a return type")
        if node.children[-1].kind != BLOCK:
            raise _shape_error(node, "method needs a body block")
        parameters = []
        for parameter in node.children[1:-1]:
            if parameter.kind != PARAMETER_DECLARATION or not parameter.children:
                raise _shape_error(parameter, "expected a parameter declaration")
            parameters.append(
                f"{_type_source(parameter.children[0])} {parameter.attributes.get('name', '')}"
            )
        static = "static " if node.attributes.get("static") == "true" else ""
        header = f"{pad}{static}{_type_source(node.children[0])} {name}({', '.join(parameters)}) {{"
        lines = [header]
        for statement in node.children[-1].children:
            lines.append(_statement_source(statement, depth + 1))
        lines.append(pad + "}")
        return lines
    raise _shape_error(node, "not a class member kind")


def print_source(tree: AsltNode) -> str:
    """Render a tree back to deterministic source text.

    Reparsing the output yields a structurally equal tree (positions aside).
    """
    if tree.kind != COMPILATION_UNIT:
        raise _shape_error(tree, "printing starts at a CompilationUnit")
    chunks: list[str] = []
    for child in tree.children:
        if child.kind == PACKAGE_DECLARATION:
            name = child.attributes.get("name")
            if not name:
                raise _shape_error(child, "package without a name")
            chunks.append(f"package {name};")
        elif child.kind == CLASS_DECLARATION:
            name = child.attributes.get("name")
            if not name:
                raise _shape_error(child, "class without a name")
            header = f"class {name}"
            if child.attributes.get("extends"):
                header += f" extends {child.attributes['extends']}"
            if child.attributes.get("implements"):
                header += f" implements {', '.join(child.attributes['implements'].split(','))}"
            lines = [header + " {"]
            members = [_member_source(member, 1) for member in child.children]
            for index, member_lines in enumerate(members):
                if index:
                    lines.append("")
                lines.extend(member_lines)
            lines.append("}")
            chunks.append("\n".join(lines))
        else:
            raise _shape_error(child, "not valid at the top level")
    return "\n\n".join(chunks) + "\n"
