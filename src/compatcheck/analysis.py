"""Call-site extraction and caller/callee signature comparison.

The source side contributes variable types and method invocations pulled
out of parsed trees; the component side contributes the compiled class-file
surface.  ``method_called`` confronts the two and collects one mismatch
report per incompatible call.  What a tree declares is read here too: the
qualified names of its classes, and the compiled surface of its first class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

from . import aslt
from .aslt import AsltNode, Location
from .classfile import (
    CONSTRUCTOR_NAME,
    VOID,
    ClassInfo,
    Diagnostic,
    FieldMember,
    MethodSignature,
    TypeName,
)

# The subset has no import statements; these well-known names are treated
# as implicitly imported.  Everything else is taken verbatim.
DEFAULT_IMPORTS = {
    "String": "java.lang.String",
    "Object": "java.lang.Object",
}

# Standard primitive widening chains (byte -> ... -> double, char -> int -> ...).
WIDENING = {
    "byte": ("short", "int", "long", "float", "double"),
    "short": ("int", "long", "float", "double"),
    "char": ("int", "long", "float", "double"),
    "int": ("long", "float", "double"),
    "long": ("float", "double"),
    "float": ("double",),
}


@lru_cache(maxsize=4096)
def _type_name(name: str, dims: str) -> TypeName:
    """The one shared TypeName of a resolved name and a ``dims`` attribute.

    Every type the analysis builds from source text comes from here, so
    equal types are almost always the same object and the call shapes of
    :func:`method_called` compare by identity.  Both arguments are strings,
    always passed positionally, so one spelling is one cache key.  A bad
    ``dims`` raises ``ValueError`` on every call: exceptions are not cached.
    """
    return TypeName(name, int(dims))


_LITERAL_TYPES = {
    "string": _type_name("java.lang.String", "0"),
    "integer": _type_name("int", "0"),
    "floating": _type_name("double", "0"),
    "char": _type_name("char", "0"),
    "boolean": _type_name("boolean", "0"),
}


@dataclass(frozen=True, slots=True)
class Unresolved:
    """A type the analyser could not determine statically."""

    def __str__(self) -> str:
        return "Unresolved"


@dataclass(frozen=True, slots=True)
class Unconstrained:
    """A call context that imposes no expected return type."""

    def __str__(self) -> str:
        return "Unconstrained"


UNRESOLVED = Unresolved()
UNCONSTRAINED = Unconstrained()


@dataclass(frozen=True, slots=True)
class Scope:
    """Where a name is visible: a class declaration, told apart from a
    same-named one by its ``class_position`` among the unit's classes, or one
    method declaration in it, told apart from its overloads by its
    ``position`` among the unit's members."""

    class_name: str
    method_name: str | None = None
    position: int | None = None
    class_position: int = 0

    def __str__(self) -> str:
        if self.method_name:
            return f"{self.class_name}.{self.method_name}"
        return self.class_name


@dataclass(frozen=True, slots=True)
class VariableBinding:
    variable_name: str
    declared_type: TypeName
    scope: Scope


# One unit's (class's position, method's position or None for fields, variable
# name) -> binding.
BindingIndex = dict[tuple[int, int | None, str], VariableBinding]
# Qualified name -> the class, and its overloads by method name in declaration order.
ClassIndex = dict[str, tuple[ClassInfo, dict[str, list[MethodSignature]]]]
# An expression whose calls are still to be extracted, with its scope and
# expected return type.
_Pending = tuple[AsltNode, Scope, TypeName | Unconstrained]
# The node kinds that are calls, and so the only ones that can hold one.
_CALL_KINDS = (aslt.METHOD_INVOKE_EXPRESSION, aslt.NEW_OBJECT_EXPRESSION)
# The location of a call whose node has none, such as one built in code.
_NOWHERE = Location("", 0, 0)


@dataclass(slots=True, unsafe_hash=True)
class CallSite:
    """One method invocation with everything the comparison needs.

    Read-only by convention: no field is assigned once built.
    """

    caller_class: str
    caller_method: str | None
    receiver_class: TypeName | Unresolved
    invoked_name: str
    argument_types: tuple[TypeName | Unresolved, ...]
    expected_return: TypeName | Unconstrained
    location: Location

    def __str__(self) -> str:
        return f"{self.receiver_class}.{self.invoked_name}"


class MismatchKind(Enum):
    UNKNOWN_CLASS = "UnknownClass"
    UNKNOWN_METHOD = "UnknownMethod"
    ARITY_MISMATCH = "ArityMismatch"
    PARAM_TYPE_MISMATCH = "ParamTypeMismatch"
    RETURN_TYPE_MISMATCH = "ReturnTypeMismatch"
    UNRESOLVED_ARGUMENT = "UnresolvedArgument"


@dataclass(slots=True, unsafe_hash=True)
class MismatchReport:
    """One incompatibility between a call and the called component.

    The expected side comes from the compiled class file, the given side
    from the caller's tree.  Fields that cannot exist for UnknownClass or
    UnknownMethod reports are ``None`` (rendered "n/a").  Read-only by
    convention: no field is assigned once built.
    """

    kind: MismatchKind
    aslt_class_name: str
    called_class_file: str | None
    called_method: str
    expected_parameters: tuple[TypeName, ...] | None
    given_parameters: tuple[TypeName | Unresolved, ...] | None
    expected_return: TypeName | None
    given_return: TypeName | Unconstrained | None
    location: Location


def canonical_name(name: str) -> str:
    return DEFAULT_IMPORTS.get(name, name)


def source_type_name(node: AsltNode) -> TypeName:
    """TypeName for a TypeReference node, canonicalizing default imports."""
    name = canonical_name(node.attributes.get("name", ""))
    return _type_name(name, node.attributes.get("dims", "0"))


def _declared_type(node: AsltNode) -> TypeName | None:
    """Type named by a declaration's or ``new``'s TypeReference child, if any."""
    type_node = node.first(aslt.TYPE_REFERENCE)
    return source_type_name(type_node) if type_node is not None else None


def _supertype_name(name: str, prefix: str) -> str:
    """A supertype as the compiler names it: a default import through
    :func:`canonical_name`, a dotted name as written, and a simple name
    after ``prefix``, the package of the class that names it."""
    name = canonical_name(name)
    return name if "." in name else prefix + name


def class_names(unit: AsltNode) -> list[str]:
    """The package-qualified name of each class the unit declares, in source order."""
    package = unit.first(aslt.PACKAGE_DECLARATION)
    prefix = package.attributes.get("name", "") + "." if package is not None else ""
    return [
        prefix + node.attributes.get("name", "")
        for node in unit.children
        if node.kind == aslt.CLASS_DECLARATION
    ]


def duplicate_classes(
    file_name: str, names: Iterable[str], first_declared: dict[str, str]
) -> list[Diagnostic]:
    """A warning for each of ``names`` that ``first_declared``, from a qualified
    class name to the file that declared it first, already holds; each other
    name is entered as ``file_name``'s, so the first declaration stands."""
    diagnostics = []
    for name in names:
        if name in first_declared:
            first = first_declared[name]
            diagnostics.append(Diagnostic(file_name, f"duplicate class {name!r}, first declared in {first}"))
        else:
            first_declared[name] = file_name
    return diagnostics


def class_info_from_tree(unit: AsltNode, source_file_name: str = "") -> ClassInfo:
    """Derive the compiled surface a compiler would produce for a unit's
    first class, its types named as :func:`class_names` and :func:`_supertype_name`
    name them: declared members plus an implicit no-argument constructor."""
    class_node = unit.first(aslt.CLASS_DECLARATION)
    if class_node is None:
        raise ValueError("compilation unit contains no class declaration")
    qualified_name = class_names(unit)[0]
    prefix = qualified_name.removesuffix(class_node.attributes.get("name", ""))
    extends = class_node.attributes.get("extends")
    superclass = _supertype_name(extends, prefix) if extends else "java.lang.Object"
    implements = class_node.attributes.get("implements", "")
    interfaces = tuple(_supertype_name(n, prefix) for n in implements.split(",") if n)
    fields = []
    methods = [MethodSignature(CONSTRUCTOR_NAME, (), VOID)]
    for member in class_node.children:
        if member.kind == aslt.FIELD_DECLARATION:
            type_node = member.first(aslt.TYPE_REFERENCE)
            if type_node is not None:
                fields.append(FieldMember(member.attributes.get("name", ""), source_type_name(type_node)))
        elif member.kind == aslt.METHOD_DECLARATION:
            parameters = tuple(
                source_type_name(child.children[0])
                for child in member.children
                if child.kind == aslt.PARAMETER_DECLARATION and child.children
            )
            methods.append(
                MethodSignature(
                    member.attributes.get("name", ""),
                    parameters,
                    source_type_name(member.children[0]),
                    is_static=member.attributes.get("static") == "true",
                )
            )
    return ClassInfo(
        qualified_name=qualified_name,
        superclass_name=superclass,
        interface_names=interfaces,
        fields=tuple(fields),
        methods=tuple(methods),
        source_file_name=source_file_name,
    )


# ---------------------------------------------------------------------------
# Variable bindings
# ---------------------------------------------------------------------------

def _members(tree: AsltNode) -> Iterator[tuple[Scope, AsltNode]]:
    """Each field and method declaration in source order, with its names' scope."""
    classes = (node for node in tree.children if node.kind == aslt.CLASS_DECLARATION)
    position = 0
    for class_position, declaration in enumerate(classes):
        class_name = declaration.attributes.get("name", "")
        fields = Scope(class_name, class_position=class_position)
        for member in declaration.children:
            if member.kind == aslt.METHOD_DECLARATION:
                name = member.attributes.get("name", "")
                yield Scope(class_name, name, position, class_position), member
            elif member.kind == aslt.FIELD_DECLARATION:
                yield fields, member
            position += 1


def get_all_variables_types(tree: AsltNode) -> tuple[BindingIndex, list[Diagnostic]]:
    """The unit's field, parameter and local bindings, keyed for lookup, in source order.

    A duplicate name in the same scope yields a diagnostic; the first
    binding stands.
    """
    bindings: BindingIndex = {}
    diagnostics: list[Diagnostic] = []
    # The file that was read: a tree read from .aslt names its source in "file".
    file_name = tree.span.file if tree.span is not None else tree.attributes.get("file", "")

    def add(declaration: AsltNode, namers: Iterable[AsltNode], scope: Scope) -> None:
        """Bind the name of each of ``namers`` to the declaration's type, if any."""
        declared = _declared_type(declaration)
        if declared is None:
            return
        for namer in namers:
            name = namer.attributes.get("name", "")
            key = (scope.class_position, scope.position, name)
            if key in bindings:
                diagnostics.append(
                    Diagnostic(file_name, f"duplicate variable {name!r} in scope {scope}")
                )
            else:
                bindings[key] = VariableBinding(name, declared, scope)

    for scope, member in _members(tree):
        if member.kind == aslt.FIELD_DECLARATION:
            add(member, (member,), scope)
            continue
        for child in member.children:
            if child.kind == aslt.PARAMETER_DECLARATION:
                add(child, (child,), scope)
        # Locals are the declaration statements of the block that extraction reads.
        block = member.first(aslt.BLOCK)
        for statement in block.children if block is not None else ():
            if statement.kind == aslt.VARIABLE_DECLARATION:
                add(statement, statement.children[1:], scope)
    return bindings, diagnostics


def index_classes(classes: Iterable[ClassInfo]) -> ClassIndex:
    """The run's one class table: every class by qualified name, with its
    methods grouped by name.  The first class of a name stands, and only its
    methods are read."""
    index: ClassIndex = {}
    for info in classes:
        if info.qualified_name not in index:
            overloads: dict[str, list[MethodSignature]] = {}
            for signature in info.methods:
                overloads.setdefault(signature.name, []).append(signature)
            index[info.qualified_name] = info, overloads
    return index


def _lookup_binding(name: str, bindings: BindingIndex, scope: Scope) -> VariableBinding | None:
    """Innermost match: the method declaration first, then the class's fields."""
    binding = bindings.get((scope.class_position, scope.position, name))
    if binding is None and scope.position is not None:
        binding = bindings.get((scope.class_position, None, name))
    return binding


def _resolve_receiver(
    node: AsltNode, bindings: BindingIndex, classes: ClassIndex, scope: Scope
) -> TypeName | Unresolved:
    """Receiver of an invocation: a bound variable, a class (static call),
    or the enclosing class for bare calls."""
    if len(node.children) < 2:
        return _type_name(scope.class_name, "0")
    receiver = node.children[0]
    name = receiver.attributes.get("name", "")
    binding = _lookup_binding(name, bindings, scope)
    if binding is not None:
        return binding.declared_type
    class_name = canonical_name(name)
    if class_name in classes:
        return _type_name(class_name, "0")
    return UNRESOLVED


def resolve_argument_type(
    arg: AsltNode, bindings: BindingIndex, classes: ClassIndex, scope: Scope
) -> TypeName | Unresolved:
    """Static type of an argument expression, or Unresolved.

    ``bindings`` are the unit's :func:`get_all_variables_types` and ``classes``
    the project's :func:`index_classes`, so every name costs one or two dictionary
    lookups.  Identifiers use the innermost binding; literals map to their
    category's type; ``new T(...)`` is ``T``; a nested invocation resolves
    only when its target signature is unique.
    """
    if arg.kind == aslt.IDENTIFIER_EXPRESSION:
        binding = _lookup_binding(arg.attributes.get("name", ""), bindings, scope)
        return binding.declared_type if binding is not None else UNRESOLVED
    if arg.kind == aslt.LITERAL_TAG:
        return _LITERAL_TYPES.get(arg.attributes.get("category", ""), UNRESOLVED)
    if arg.kind == aslt.NEW_OBJECT_EXPRESSION:
        return _declared_type(arg) or UNRESOLVED
    if arg.kind == aslt.METHOD_INVOKE_EXPRESSION:
        receiver = _resolve_receiver(arg, bindings, classes, scope)
        if isinstance(receiver, Unresolved) or receiver.dims:
            return UNRESOLVED
        entry = classes.get(receiver.name)
        overloads = entry[1] if entry is not None else {}
        candidates = overloads.get(arg.attributes.get("name", ""), ())
        if len(candidates) == 1:
            return candidates[0].return_type
    return UNRESOLVED


# ---------------------------------------------------------------------------
# Call sites
# ---------------------------------------------------------------------------

def get_all_method_calls(
    tree: AsltNode, bindings: BindingIndex, classes: ClassIndex
) -> list[CallSite]:
    """Every invocation (and object creation, as ``<init>``) in source order.

    ``bindings`` are the unit's own :func:`get_all_variables_types`, and
    ``classes`` is built once per run by :func:`index_classes`.  Extraction
    only looks names up in them, so a name resolves within its compilation
    unit and the cost per call does not grow with the project.

    The expected return type is taken from context: the declared type of an
    initialized declarator or field, or the bound type of an assignment's
    left side; anywhere else it is unconstrained.
    """
    # Top-level expressions with their scope and expected return type, in
    # source order.
    roots: list[_Pending] = []
    for scope, member in _members(tree):
        if member.kind == aslt.METHOD_DECLARATION:
            block = member.first(aslt.BLOCK)
            for statement in block.children if block is not None else ():
                _add_statement_roots(statement, scope, bindings, roots)
        elif len(member.children) == 2:  # an initialized field
            roots.append((member.children[1], scope, _declared_type(member) or UNCONSTRAINED))

    # Preorder over the roots: a call comes before the calls in its arguments.
    # Only the two node kinds that can hold a call are ever pushed.
    calls: list[CallSite] = []
    stack = [root for root in reversed(roots) if root[0].kind in _CALL_KINDS]
    while stack:
        node, scope, expected = stack.pop()
        if node.kind == aslt.METHOD_INVOKE_EXPRESSION:
            receiver = _resolve_receiver(node, bindings, classes, scope)
            invoked_name = node.attributes.get("name", "")
            arguments = node.children[-1].children if node.children else ()
        elif len(node.children) == 2:  # a NewObjectExpression with its ArgumentList
            receiver = _declared_type(node) or UNRESOLVED
            invoked_name = CONSTRUCTOR_NAME
            arguments = node.children[1].children
            expected = UNCONSTRAINED
        else:
            continue
        argument_types = []
        nested = []
        for argument in arguments:
            if argument.kind == aslt.LITERAL_TAG:
                argument_types.append(
                    _LITERAL_TYPES.get(argument.attributes.get("category", ""), UNRESOLVED)
                )
                continue
            argument_types.append(resolve_argument_type(argument, bindings, classes, scope))
            if argument.kind in _CALL_KINDS:
                nested.append((argument, scope, UNCONSTRAINED))
        calls.append(
            CallSite(
                scope.class_name,
                scope.method_name,
                receiver,
                invoked_name,
                tuple(argument_types),
                expected,
                node.span or _NOWHERE,
            )
        )
        stack += nested[::-1]
    return calls


def _add_statement_roots(
    node: AsltNode, scope: Scope, bindings: BindingIndex, roots: list[_Pending]
) -> None:
    """Append the expressions of one statement that may hold calls."""
    if node.kind == aslt.VARIABLE_DECLARATION:
        declared = _declared_type(node) or UNCONSTRAINED
        for declarator in node.children[1:]:
            if declarator.children:
                roots.append((declarator.children[0], scope, declared))
    elif node.kind == aslt.EXPRESSION_STATEMENT and node.children:
        inner = node.children[0]
        if inner.kind == aslt.SIMPLE_ASSIGNMENT_EXPRESSION and len(inner.children) == 2:
            target, value = inner.children
            binding = _lookup_binding(target.attributes.get("name", ""), bindings, scope)
            expected = binding.declared_type if binding is not None else UNCONSTRAINED
            roots.append((value, scope, expected))
        else:
            roots.append((inner, scope, UNCONSTRAINED))
    elif node.kind == aslt.RETURN_STATEMENT and node.children:
        roots.append((node.children[0], scope, UNCONSTRAINED))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _assignable(arg: TypeName, param: TypeName, widening: bool) -> bool:
    if arg == param:
        return True
    if not widening or arg.dims or param.dims:
        return False
    return param.name in WIDENING.get(arg.name, ())


def _mismatch(call: CallSite, signature: MethodSignature, widening: bool) -> MismatchKind | None:
    """The first check the call fails against ``signature``, or None if it passes all."""
    arguments = call.argument_types
    if any(isinstance(arg, Unresolved) for arg in arguments):
        return MismatchKind.UNRESOLVED_ARGUMENT
    if len(arguments) != len(signature.parameter_types):
        return MismatchKind.ARITY_MISMATCH
    for arg, param in zip(arguments, signature.parameter_types):
        if not _assignable(arg, param, widening):
            return MismatchKind.PARAM_TYPE_MISMATCH
    expected = call.expected_return
    if isinstance(expected, Unconstrained) or expected == signature.return_type:
        return None
    return MismatchKind.RETURN_TYPE_MISMATCH


def _report(
    call: CallSite,
    kind: MismatchKind,
    info: ClassInfo | None,
    signature: MethodSignature | None,
) -> MismatchReport:
    called_class_file = None
    if info is not None:
        called_class_file = info.source_file_name or info.qualified_name
    return MismatchReport(
        kind=kind,
        aslt_class_name=call.caller_class,
        called_class_file=called_class_file,
        called_method=call.invoked_name,
        expected_parameters=signature.parameter_types if signature is not None else None,
        given_parameters=call.argument_types,
        expected_return=signature.return_type if signature is not None else None,
        given_return=call.expected_return,
        location=call.location,
    )


# What a call shape comes to: no report, or the kind, the called class and the
# nearest overload of its report.
_Verdict = tuple[MismatchKind, ClassInfo | None, MethodSignature | None] | None


def _verdict(call: CallSite, classes: ClassIndex, widening: bool) -> _Verdict:
    """Decide one call shape: everything of the call but its place and caller."""
    receiver = call.receiver_class
    entry = None
    if isinstance(receiver, TypeName) and receiver.dims == 0:
        entry = classes.get(receiver.name)
    if entry is None:
        if call.invoked_name == CONSTRUCTOR_NAME:
            return None  # partially available black-box component
        return MismatchKind.UNKNOWN_CLASS, None, None
    info, overloads = entry
    candidates = overloads.get(call.invoked_name)
    if not candidates:
        return MismatchKind.UNKNOWN_METHOD, info, None
    if any(_mismatch(call, signature, widening) is None for signature in candidates):
        return None
    nearest = next(
        (m for m in candidates if len(m.parameter_types) == len(call.argument_types)),
        candidates[0],
    )
    return _mismatch(call, nearest, widening), info, nearest


def method_called(
    calls: list[CallSite], classes: ClassIndex, widening: bool = False
) -> list[MismatchReport]:
    """Compare every call against the surfaces of the run's
    :func:`index_classes` table; collect all errors.

    A call matching any overload yields no report.  Otherwise the nearest
    candidate (same arity preferred, then declaration order) is blamed and
    the kind is the first check it fails, in the order unresolved argument,
    arity, parameter types, return type.  Constructor calls on classes that
    are not present are allowed silently.  Reports are ordered by location.

    Each distinct call shape (receiver, method name, argument types,
    expected return) is decided once per call of this function; every
    report still takes its location, caller and given types from its own
    call.
    """
    verdicts: dict[tuple, _Verdict] = {}
    reports: list[MismatchReport] = []
    for call in calls:
        shape = (call.receiver_class, call.invoked_name, call.argument_types, call.expected_return)
        try:
            verdict = verdicts[shape]
        except KeyError:
            verdict = verdicts[shape] = _verdict(call, classes, widening)
        if verdict is not None:
            reports.append(_report(call, *verdict))

    reports.sort(key=lambda r: (r.location.file, r.location.line, r.location.column))
    return reports
