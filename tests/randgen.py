"""Seeded random generators shared by the test modules.

Everything takes an explicit ``random.Random`` so each test pins its own
seed and stays reproducible.
"""

from __future__ import annotations

import random

from compatcheck.classfile import VOID, ClassInfo, FieldMember, MethodSignature, TypeName

PRIMITIVES = ("boolean", "byte", "char", "double", "float", "int", "long", "short")
REFERENCE_NAMES = (
    "java.lang.String",
    "java.lang.Object",
    "Widget",
    "SampleClassB",
    "util.Helper",
    "a.b.DeepName",
)
METHOD_NAMES = ("doSomething", "getNumber", "setNumber", "run", "apply", "f", "g")
FIELD_NAMES = ("number", "text", "flag", "buffer", "count")
CLASS_NAMES = ("TestBed", "SampleClassA", "SampleClassB", "Widget", "core.Engine")


def random_type(rng: random.Random, allow_array: bool = True) -> TypeName:
    name = rng.choice(PRIMITIVES + REFERENCE_NAMES)
    dims = rng.choice((0, 0, 0, 1, 2)) if allow_array else 0
    return TypeName(name, dims)


def random_return_type(rng: random.Random) -> TypeName:
    if rng.random() < 0.3:
        return VOID
    return random_type(rng)


def random_method(rng: random.Random, name: str | None = None) -> MethodSignature:
    params = tuple(random_type(rng) for _ in range(rng.randrange(0, 4)))
    return MethodSignature(
        name=name if name is not None else rng.choice(METHOD_NAMES),
        parameter_types=params,
        return_type=random_return_type(rng),
        is_static=rng.random() < 0.2,
    )


def random_class_info(rng: random.Random) -> ClassInfo:
    fields = []
    for field_name in rng.sample(FIELD_NAMES, rng.randrange(0, 4)):
        fields.append(FieldMember(field_name, random_type(rng), rng.random() < 0.2))
    methods: list[MethodSignature] = []
    seen: set[tuple[str, tuple[TypeName, ...]]] = set()
    if rng.random() < 0.5:
        methods.append(MethodSignature("<init>", (), VOID))
        seen.add(("<init>", ()))
    for _ in range(rng.randrange(0, 6)):
        method = random_method(rng)
        key = (method.name, method.parameter_types)
        if key in seen:
            continue
        seen.add(key)
        methods.append(method)
    return ClassInfo(
        qualified_name=rng.choice(CLASS_NAMES),
        superclass_name=rng.choice((None, "java.lang.Object", "Base")),
        interface_names=tuple(rng.sample(("Runnable", "api.Closeable"), rng.randrange(0, 3))),
        fields=tuple(fields),
        methods=tuple(methods),
    )


# ---------------------------------------------------------------------------
# Tree generators
# ---------------------------------------------------------------------------

from compatcheck import aslt  # noqa: E402

_IDENT_WORDS = (
    "str", "number", "value", "result", "sample", "helper", "box", "item",
    "copy", "text", "total", "flag", "data", "entry",
)
_TYPE_WORDS = ("Widget", "Box", "Sample", "util.Api", "java.lang.String", "core.deep.Thing")
_STRING_PIECES = ("a", "b", "z", "0", " ", "!", "\\\\", '\\"', "\\n", "\\t")


def random_ident(rng: random.Random) -> str:
    word = rng.choice(_IDENT_WORDS)
    if rng.random() < 0.4:
        word += str(rng.randrange(10))
    return word


def random_literal_node(rng: random.Random) -> aslt.AsltNode:
    kind = rng.choice(("integer", "floating", "string", "char", "boolean"))
    if kind == "integer":
        value = str(rng.randrange(0, 100000))
    elif kind == "floating":
        value = f"{rng.randrange(0, 100)}.{rng.randrange(0, 100)}"
    elif kind == "string":
        inner = "".join(rng.choice(_STRING_PIECES) for _ in range(rng.randrange(0, 8)))
        value = f'"{inner}"'
    elif kind == "char":
        value = rng.choice(("'x'", "'9'", "' '", "'\\n'", "'\\''", "'\\\\'"))
    else:
        value = rng.choice(("true", "false"))
    return aslt.AsltNode(aslt.LITERAL_TAG, {"value": value, "category": kind})


def random_type_node(rng: random.Random, allow_void: bool = False, allow_array: bool = True) -> aslt.AsltNode:
    if allow_void and rng.random() < 0.3:
        return aslt.AsltNode(aslt.TYPE_REFERENCE, {"name": "void"})
    name = rng.choice(PRIMITIVES + _TYPE_WORDS)
    attrs = {"name": name}
    if allow_array and rng.random() < 0.25:
        attrs["dims"] = str(rng.randrange(1, 3))
    return aslt.AsltNode(aslt.TYPE_REFERENCE, attrs)


def random_expression_node(rng: random.Random, depth: int = 0) -> aslt.AsltNode:
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        return random_literal_node(rng)
    if roll < 0.6:
        return aslt.AsltNode(aslt.IDENTIFIER_EXPRESSION, {"name": random_ident(rng)})
    arguments = aslt.AsltNode(
        aslt.ARGUMENT_LIST,
        {},
        tuple(random_expression_node(rng, depth + 1) for _ in range(rng.randrange(0, 3))),
    )
    if roll < 0.85:
        children: tuple = (arguments,)
        if rng.random() < 0.7:
            receiver = aslt.AsltNode(aslt.IDENTIFIER_EXPRESSION, {"name": random_ident(rng)})
            children = (receiver, arguments)
        return aslt.AsltNode(aslt.METHOD_INVOKE_EXPRESSION, {"name": random_ident(rng)}, children)
    type_node = aslt.AsltNode(aslt.TYPE_REFERENCE, {"name": rng.choice(_TYPE_WORDS)})
    return aslt.AsltNode(aslt.NEW_OBJECT_EXPRESSION, {}, (type_node, arguments))


def random_statement_node(rng: random.Random) -> aslt.AsltNode:
    roll = rng.random()
    if roll < 0.35:
        declarators = []
        for _ in range(rng.randrange(1, 3)):
            init = (random_expression_node(rng),) if rng.random() < 0.7 else ()
            declarators.append(
                aslt.AsltNode(aslt.VARIABLE_DECLARATOR, {"name": random_ident(rng)}, init)
            )
        return aslt.AsltNode(
            aslt.VARIABLE_DECLARATION, {}, (random_type_node(rng), *declarators)
        )
    if roll < 0.55:
        assignment = aslt.AsltNode(
            aslt.SIMPLE_ASSIGNMENT_EXPRESSION,
            {},
            (
                aslt.AsltNode(aslt.IDENTIFIER_EXPRESSION, {"name": random_ident(rng)}),
                random_expression_node(rng),
            ),
        )
        return aslt.AsltNode(aslt.EXPRESSION_STATEMENT, {}, (assignment,))
    if roll < 0.8:
        call = random_expression_node(rng)
        while call.kind not in (aslt.METHOD_INVOKE_EXPRESSION, aslt.NEW_OBJECT_EXPRESSION):
            call = random_expression_node(rng)
        return aslt.AsltNode(aslt.EXPRESSION_STATEMENT, {}, (call,))
    value = (random_expression_node(rng),) if rng.random() < 0.7 else ()
    return aslt.AsltNode(aslt.RETURN_STATEMENT, {}, value)


def random_member_node(rng: random.Random) -> aslt.AsltNode:
    if rng.random() < 0.35:
        init = (random_expression_node(rng),) if rng.random() < 0.5 else ()
        return aslt.AsltNode(
            aslt.FIELD_DECLARATION,
            {"name": random_ident(rng)},
            (random_type_node(rng), *init),
        )
    attrs = {"name": random_ident(rng)}
    if rng.random() < 0.3:
        attrs["static"] = "true"
    parameters = tuple(
        aslt.AsltNode(
            aslt.PARAMETER_DECLARATION, {"name": random_ident(rng)}, (random_type_node(rng),)
        )
        for _ in range(rng.randrange(0, 3))
    )
    body = aslt.AsltNode(
        aslt.BLOCK, {}, tuple(random_statement_node(rng) for _ in range(rng.randrange(0, 4)))
    )
    return aslt.AsltNode(
        aslt.METHOD_DECLARATION,
        attrs,
        (random_type_node(rng, allow_void=True), *parameters, body),
    )


def random_program_tree(rng: random.Random, file_name: str = "Random.java") -> aslt.AsltNode:
    children = []
    if rng.random() < 0.4:
        children.append(
            aslt.AsltNode(aslt.PACKAGE_DECLARATION, {"name": rng.choice(("demo", "a.b.c"))})
        )
    for index in range(rng.randrange(1, 3)):
        attrs = {"name": f"Gen{index}"}
        if rng.random() < 0.3:
            attrs["extends"] = rng.choice(("Base", "core.Base"))
        if rng.random() < 0.3:
            attrs["implements"] = ",".join(
                rng.sample(("Runnable", "api.Closeable", "Marker"), rng.randrange(1, 3))
            )
        members = tuple(random_member_node(rng) for _ in range(rng.randrange(0, 4)))
        children.append(aslt.AsltNode(aslt.CLASS_DECLARATION, attrs, members))
    return aslt.AsltNode(aslt.COMPILATION_UNIT, {"file": file_name}, tuple(children))


def random_callee_classes(rng: random.Random) -> list[ClassInfo]:
    """Classes for the names that :func:`random_program_tree` can call: the
    types its variables are declared with, its own classes (bare calls) and a
    few identifiers (static calls).  Method names are identifier words, some
    of them overloaded, so a nested call's type is sometimes unique, sometimes
    ambiguous and sometimes unknown."""
    classes = []
    for name in ("Widget", "Box", "util.Api", "java.lang.String", "Gen0", "Gen1", "helper", "box"):
        if rng.random() < 0.2:
            continue
        methods = [
            MethodSignature(
                rng.choice(_IDENT_WORDS),
                (random_type(rng),) * rng.randrange(0, 2),
                random_return_type(rng),
            )
            for _ in range(rng.randrange(0, 8))
        ]
        unique = {(m.name, m.parameter_types): m for m in methods}
        classes.append(ClassInfo(name, "java.lang.Object", methods=tuple(unique.values())))
    return classes


_ATTR_NAMES = ("name", "value", "file", "category", "extends", "dims")
_NASTY_VALUES = (
    "plain",
    "",
    'quote " inside',
    "back\\slash",
    "new\nline",
    "tab\there",
    "carriage\rreturn",
    "spaces   everywhere",
    'mix "\\" \n end',
    "равно=знак",
)


def random_serial_tree(rng: random.Random, depth: int = 0) -> aslt.AsltNode:
    """An arbitrary tree (any kinds, nasty attribute values) for the file format."""
    kind = rng.choice(sorted(aslt.NODE_KINDS))
    attributes = {
        name: rng.choice(_NASTY_VALUES)
        for name in rng.sample(_ATTR_NAMES, rng.randrange(0, 4))
    }
    children = ()
    if depth < 3:
        children = tuple(
            random_serial_tree(rng, depth + 1) for _ in range(rng.randrange(0, 3 if depth else 4))
        )
    return aslt.AsltNode(kind, attributes, children)


# ---------------------------------------------------------------------------
# Synthetic projects for the comparison oracle
# ---------------------------------------------------------------------------

from compatcheck.analysis import UNCONSTRAINED, UNRESOLVED, CallSite, Location  # noqa: E402

ORACLE_TYPES = (
    TypeName("int"),
    TypeName("long"),
    TypeName("double"),
    TypeName("char"),
    TypeName("byte"),
    TypeName("boolean"),
    TypeName("java.lang.String"),
    TypeName("int", 1),
    TypeName("java.lang.String", 1),
)
ORACLE_METHOD_NAMES = ("f", "g")


def oracle_classes(rng: random.Random) -> list[ClassInfo]:
    classes = []
    for index in range(rng.randrange(1, 7)):
        methods: list[MethodSignature] = []
        seen: set[tuple[str, tuple[TypeName, ...]]] = set()
        if rng.random() < 0.6:
            init_params = tuple(rng.choice(ORACLE_TYPES) for _ in range(rng.randrange(0, 2)))
            methods.append(MethodSignature("<init>", init_params, VOID))
            seen.add(("<init>", init_params))
        for _ in range(rng.randrange(0, 5)):
            name = rng.choice(ORACLE_METHOD_NAMES)
            params = tuple(rng.choice(ORACLE_TYPES) for _ in range(rng.randrange(0, 3)))
            if (name, params) in seen:
                continue
            seen.add((name, params))
            returns = rng.choice(ORACLE_TYPES + (VOID,))
            methods.append(MethodSignature(name, params, returns))
        classes.append(
            ClassInfo(
                qualified_name=f"Comp{index}",
                superclass_name="java.lang.Object",
                methods=tuple(methods),
                source_file_name=f"Comp{index}.class",
            )
        )
    return classes


def oracle_calls(rng: random.Random, classes: list[ClassInfo]) -> list[CallSite]:
    known = [info.qualified_name for info in classes]
    calls = []
    for _ in range(rng.randrange(0, 14)):
        roll = rng.random()
        if roll < 0.6:
            receiver = TypeName(rng.choice(known))
        elif roll < 0.75:
            receiver = TypeName("Ghost")
        elif roll < 0.85:
            receiver = TypeName(rng.choice(known), 1)  # array receiver
        else:
            receiver = UNRESOLVED
        arguments = tuple(
            UNRESOLVED if rng.random() < 0.15 else rng.choice(ORACLE_TYPES)
            for _ in range(rng.randrange(0, 3))
        )
        expected = UNCONSTRAINED if rng.random() < 0.5 else rng.choice(ORACLE_TYPES + (VOID,))
        calls.append(
            CallSite(
                caller_class="Caller",
                receiver_class=receiver,
                invoked_name=rng.choice(("f", "g", "h", "<init>")),
                argument_types=arguments,
                expected_return=expected,
                location=Location(
                    rng.choice(("A.java", "B.java")), rng.randrange(1, 40), rng.randrange(1, 30)
                ),
            )
        )
    return calls
