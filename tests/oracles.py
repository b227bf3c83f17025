"""Brute-force reference implementations the analyser is checked against.

Everything here re-derives expected results straight from the documented
comparison rules, independently of how the package computes them: plain
loops over every (call, same-name signature) pair, an explicit table of
widening pairs, no shared helpers with the implementation.
"""

from __future__ import annotations

from compatcheck.analysis import (
    CallSite,
    MismatchKind,
    MismatchReport,
    Scope,
    Unconstrained,
    Unresolved,
    VariableBinding,
)
from compatcheck.aslt import (
    BLOCK,
    CLASS_DECLARATION,
    FIELD_DECLARATION,
    MAX_DEPTH,
    METHOD_DECLARATION,
    PARAMETER_DECLARATION,
    TYPE_REFERENCE,
    VARIABLE_DECLARATION,
    AsltFormatError,
    AsltNode,
    Span,
    _parse_aslt_line,
)
from compatcheck.classfile import ClassInfo, Diagnostic, TypeName

# Every legal primitive widening, written out pairwise.
WIDENING_PAIRS = frozenset(
    {
        ("byte", "short"),
        ("byte", "int"),
        ("byte", "long"),
        ("byte", "float"),
        ("byte", "double"),
        ("short", "int"),
        ("short", "long"),
        ("short", "float"),
        ("short", "double"),
        ("char", "int"),
        ("char", "long"),
        ("char", "float"),
        ("char", "double"),
        ("int", "long"),
        ("int", "float"),
        ("int", "double"),
        ("long", "float"),
        ("long", "double"),
        ("float", "double"),
    }
)


def _argument_ok(arg, param: TypeName, widening: bool) -> bool:
    if isinstance(arg, Unresolved):
        return False
    if arg == param:
        return True
    if not widening:
        return False
    if arg.dims != 0 or param.dims != 0:
        return False
    return (arg.name, param.name) in WIDENING_PAIRS


def _call_matches(call: CallSite, signature, widening: bool) -> bool:
    if len(call.argument_types) != len(signature.parameter_types):
        return False
    for arg, param in zip(call.argument_types, signature.parameter_types):
        if not _argument_ok(arg, param, widening):
            return False
    if isinstance(call.expected_return, Unconstrained):
        return True
    return call.expected_return == signature.return_type


def oracle_reports(
    calls: list[CallSite], classes: list[ClassInfo], widening: bool
) -> list[MismatchReport]:
    """Expected report list, derived by enumerating every pair directly."""
    first_by_name: dict[str, ClassInfo] = {}
    for info in classes:
        if info.qualified_name not in first_by_name:
            first_by_name[info.qualified_name] = info

    collected: list[MismatchReport] = []
    for call in calls:
        receiver = call.receiver_class
        info = None
        if isinstance(receiver, TypeName) and receiver.dims == 0 and receiver.name in first_by_name:
            info = first_by_name[receiver.name]

        if info is None:
            if call.invoked_name == "<init>":
                continue
            collected.append(
                MismatchReport(
                    kind=MismatchKind.UNKNOWN_CLASS,
                    aslt_class_name=call.caller_class,
                    called_class_file=None,
                    called_method=call.invoked_name,
                    expected_parameters=None,
                    given_parameters=call.argument_types,
                    expected_return=None,
                    given_return=call.expected_return,
                    location=call.location,
                )
            )
            continue

        same_name = [m for m in info.methods if m.name == call.invoked_name]
        if not same_name:
            collected.append(
                MismatchReport(
                    kind=MismatchKind.UNKNOWN_METHOD,
                    aslt_class_name=call.caller_class,
                    called_class_file=info.source_file_name or info.qualified_name,
                    called_method=call.invoked_name,
                    expected_parameters=None,
                    given_parameters=call.argument_types,
                    expected_return=None,
                    given_return=call.expected_return,
                    location=call.location,
                )
            )
            continue

        matched = False
        for signature in same_name:
            if _call_matches(call, signature, widening):
                matched = True
                break
        if matched:
            continue

        nearest = None
        for signature in same_name:
            if len(signature.parameter_types) == len(call.argument_types):
                nearest = signature
                break
        if nearest is None:
            nearest = same_name[0]

        has_unresolved = any(isinstance(a, Unresolved) for a in call.argument_types)
        if has_unresolved:
            kind = MismatchKind.UNRESOLVED_ARGUMENT
        elif len(call.argument_types) != len(nearest.parameter_types):
            kind = MismatchKind.ARITY_MISMATCH
        else:
            params_ok = True
            for arg, param in zip(call.argument_types, nearest.parameter_types):
                if not _argument_ok(arg, param, widening):
                    params_ok = False
                    break
            kind = MismatchKind.PARAM_TYPE_MISMATCH if not params_ok else MismatchKind.RETURN_TYPE_MISMATCH

        collected.append(
            MismatchReport(
                kind=kind,
                aslt_class_name=call.caller_class,
                called_class_file=info.source_file_name or info.qualified_name,
                called_method=call.invoked_name,
                expected_parameters=nearest.parameter_types,
                given_parameters=call.argument_types,
                expected_return=nearest.return_type,
                given_return=call.expected_return,
                location=call.location,
            )
        )

    collected.sort(key=lambda r: (r.location.file, r.location.line, r.location.column))
    return collected


def oracle_lookup_binding(
    name: str, bindings: list[VariableBinding], scope: Scope
) -> VariableBinding | None:
    """Innermost binding by list scan over one unit's bindings: the method
    declaration first, then the fields of its class declaration; within a
    scope the first binding in source order wins."""
    if scope.position is not None:
        for binding in bindings:
            if binding.variable_name == name and binding.scope == scope:
                return binding
    fields = Scope(scope.class_name, class_position=scope.class_position)
    for binding in bindings:
        if binding.variable_name == name and binding.scope == fields:
            return binding
    return None


# The names the subset treats as implicitly imported.
IMPLICIT_IMPORTS = {"String": "java.lang.String", "Object": "java.lang.Object"}


def oracle_bindings(
    tree: AsltNode,
) -> tuple[dict[tuple[int, int | None, str], VariableBinding], list[Diagnostic]]:
    """A unit's bindings by the rule that walks every node of each method's
    block: a VariableDeclaration anywhere below the block binds the names of
    all its children after the first.  Fields and parameters bind their own
    name.  The type is the declaration's first TypeReference child; without
    one nothing is bound.  Keys are (class position, member position or None
    for fields, name); the first binding of a key stands and each repeat is
    a duplicate diagnostic."""
    file_name = tree.span.file if tree.span is not None else tree.attributes.get("file", "")
    bindings: dict[tuple[int, int | None, str], VariableBinding] = {}
    diagnostics: list[Diagnostic] = []

    def bind(declaration: AsltNode, names: list[str], scope: Scope) -> None:
        types = [child for child in declaration.children if child.kind == TYPE_REFERENCE]
        if not types:
            return
        attributes = types[0].attributes
        name = attributes.get("name", "")
        declared = TypeName(IMPLICIT_IMPORTS.get(name, name), int(attributes.get("dims", "0")))
        for name in names:
            key = (scope.class_position, scope.position, name)
            if key in bindings:
                diagnostics.append(
                    Diagnostic(file_name, f"duplicate variable {name!r} in scope {scope}")
                )
            else:
                bindings[key] = VariableBinding(name, declared, scope)

    def preorder(node: AsltNode):
        yield node
        for child in node.children:
            yield from preorder(child)

    classes = [node for node in tree.children if node.kind == CLASS_DECLARATION]
    position = 0
    for class_position, declaration in enumerate(classes):
        class_name = declaration.attributes.get("name", "")
        for member in declaration.children:
            if member.kind == FIELD_DECLARATION:
                fields = Scope(class_name, class_position=class_position)
                bind(member, [member.attributes.get("name", "")], fields)
            elif member.kind == METHOD_DECLARATION:
                method = member.attributes.get("name", "")
                scope = Scope(class_name, method, position, class_position)
                for child in member.children:
                    if child.kind == PARAMETER_DECLARATION:
                        bind(child, [child.attributes.get("name", "")], scope)
                    elif child.kind == BLOCK:
                        for node in preorder(child):
                            if node.kind == VARIABLE_DECLARATION:
                                names = [d.attributes.get("name", "") for d in node.children[1:]]
                                bind(node, names, scope)
            position += 1
    return bindings, diagnostics


def oracle_find_class(classes: list[ClassInfo], name: str) -> ClassInfo | None:
    """The first class with this qualified name, by list scan."""
    for info in classes:
        if info.qualified_name == name:
            return info
    return None


def oracle_read_aslt(text: str, file_name: str = "") -> AsltNode:
    """``.aslt`` text to a tree in two passes: every line is checked and
    parsed into a list first, and the tree is built from that list, so a bad
    line anywhere is reported ahead of a fault in the indentation structure.

    It shares ``_parse_aslt_line`` with the package, whose own fuzz test
    checks it; what this reference pins is the order of the checks, the
    structure and the spans."""
    parsed: dict[str, tuple[str, dict[str, str]]] = {}
    entries: list[tuple[int, str, dict[str, str], Span]] = []
    for line_number, raw in enumerate(text.split("\n"), start=1):
        rest = raw.lstrip(" ")
        if not rest or rest.isspace():
            continue
        indent = len(raw) - len(rest)
        if indent % 2:
            raise AsltFormatError(line_number, "indentation must be a multiple of two spaces")
        if indent // 2 > MAX_DEPTH:
            raise AsltFormatError(line_number, f"nesting deeper than {MAX_DEPTH} levels")
        seen = parsed.get(rest)
        if seen is None:
            kind, attributes = parsed[rest] = _parse_aslt_line(rest, line_number)
        else:
            kind, attributes = seen[0], seen[1].copy()
        span = Span(file_name, line_number, 1, line_number, len(raw) + 1)
        entries.append((indent // 2, kind, attributes, span))
    if not entries:
        raise AsltFormatError(1, "no nodes")
    if entries[0][0] != 0:
        raise AsltFormatError(entries[0][3].start_line, "the root node must not be indented")

    # The nodes still open, outermost first (the one at index i is at depth
    # i), each with the children read so far.
    open_nodes: list[tuple[str, dict[str, str], Span, list[AsltNode]]] = []

    def close_node() -> None:
        kind, attributes, span, children = open_nodes.pop()
        open_nodes[-1][3].append(AsltNode(kind, attributes, tuple(children), span))

    for depth, kind, attributes, span in entries:
        if open_nodes and depth == 0:
            raise AsltFormatError(span.start_line, "more than one root node")
        if depth > len(open_nodes):
            raise AsltFormatError(span.start_line, "indentation jumps more than one level")
        while len(open_nodes) > depth:
            close_node()
        open_nodes.append((kind, attributes, span, []))
    while len(open_nodes) > 1:
        close_node()
    kind, attributes, span, children = open_nodes[0]
    return AsltNode(kind, attributes, tuple(children), span)
