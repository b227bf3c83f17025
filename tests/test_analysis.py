import dataclasses
import random

import pytest

from compatcheck import analysis, aslt
from compatcheck.analysis import (
    UNCONSTRAINED,
    UNRESOLVED,
    CallSite,
    Location,
    MismatchKind,
    MismatchReport,
    Scope,
    Unresolved,
    get_all_method_calls,
    get_all_variables_types,
    index_classes,
    method_called,
    resolve_argument_type,
)
from compatcheck.aslt import parse_source, read_aslt, write_aslt
from compatcheck.classfile import (
    VOID,
    ClassInfo,
    MethodSignature,
    TypeName,
    emit_classfile,
    parse_classfile,
    scan_classfiles,
)
from compatcheck.cli import gen_testbed

from oracles import (
    Binding,
    oracle_bindings,
    oracle_find_class,
    oracle_lookup_binding,
    oracle_method_calls,
    oracle_preorder,
    oracle_reports,
)
from printer import print_source
from randgen import oracle_calls, oracle_classes, random_callee_classes, random_program_tree

STRING = TypeName("java.lang.String")
INT = TypeName("int")

SAMPLE_CALLER_SOURCE = """class SampleClassA {
    void m() {
        SampleClassB sampleClassB = new SampleClassB();
        String str = "hello";
        sampleClassB.doSomething(str);
    }
}
"""

CLASS_B_OK = ClassInfo(
    "SampleClassB",
    superclass_name="java.lang.Object",
    methods=(
        MethodSignature("<init>", (), VOID),
        MethodSignature("doSomething", (STRING,), VOID),
    ),
    source_file_name="SampleClassB.class",
)

CLASS_B_FAULTY = ClassInfo(
    "SampleClassB",
    superclass_name="java.lang.Object",
    methods=(
        MethodSignature("<init>", (), VOID),
        MethodSignature("doSomething", (INT,), VOID),
    ),
    source_file_name="SampleClassB.class",
)


def _calls_for(source, classes, file_name="SampleClassA.java"):
    tree = parse_source(source, file_name=file_name)
    bindings, diagnostics = get_all_variables_types(tree)
    assert diagnostics == []
    return get_all_method_calls(tree, bindings, index_classes(classes))


def _keyed(name, declared_type, scope):
    """One binding built by hand, keyed as get_all_variables_types keys it."""
    return {(scope.class_position, scope.position, name): declared_type}


def _declared_types(bindings):
    """The reference's bindings as the package keeps them: each key with its type."""
    return [(key, binding.declared_type) for key, binding in bindings.items()]


# ---------------------------------------------------------------------------
# Variable bindings
# ---------------------------------------------------------------------------

def test_string_variable_binding():
    tree = parse_source(SAMPLE_CALLER_SOURCE, file_name="SampleClassA.java")
    bindings, _ = get_all_variables_types(tree)
    assert bindings[(0, 0, "str")] == STRING


def test_no_declarations_no_bindings():
    tree = parse_source("class A { void m() { run(); } }")
    bindings, _ = get_all_variables_types(tree)
    assert bindings == {}


def test_field_parameter_and_local_bindings_in_source_order():
    tree = parse_source(
        "class A { int n; void m(long p) { char c; } }", file_name="A.java"
    )
    bindings, _ = get_all_variables_types(tree)
    assert list(bindings.items()) == [
        ((0, None, "n"), INT),
        ((0, 1, "p"), TypeName("long")),
        ((0, 1, "c"), TypeName("char")),
    ]


def test_parameter_shadows_field_inside_method():
    tree = parse_source("class A { int n; void m(String n) { f(n); } }")
    bindings, _ = get_all_variables_types(tree)
    assert len(bindings) == 2
    argument = aslt.AsltNode(aslt.IDENTIFIER_EXPRESSION, {"name": "n"})
    inside = resolve_argument_type(argument, bindings, {}, Scope("A", "m", 1))
    assert inside == STRING
    at_class_level = resolve_argument_type(argument, bindings, {}, Scope("A"))
    assert at_class_level == INT


def test_duplicate_binding_keeps_first_and_reports():
    tree = parse_source("class A { void m() { int x; long x; } }", file_name="A.java")
    bindings, diagnostics = get_all_variables_types(tree)
    assert list(bindings.items()) == [((0, 0, "x"), INT)]
    assert [d.message for d in diagnostics] == ["duplicate variable 'x' in scope A.m"]


def test_a_packaged_scope_names_its_class_qualified():
    tree = parse_source("package p.q; class A { void m() { int x; long x; n(); } }")
    bindings, diagnostics = get_all_variables_types(tree)
    assert [d.message for d in diagnostics] == ["duplicate variable 'x' in scope p.q.A.m"]
    calls = get_all_method_calls(tree, bindings, {})
    assert [(c.caller_class, c.receiver_class) for c in calls] == [("p.q.A", TypeName("p.q.A"))]


def test_same_named_classes_in_one_unit_keep_their_methods_apart():
    tree = parse_source("class A { void m() { int x; } } class A { void n() { long x; } }")
    bindings, diagnostics = get_all_variables_types(tree)
    assert diagnostics == []
    assert list(bindings.items()) == [((0, 0, "x"), INT), ((1, 1, "x"), TypeName("long"))]


def test_same_named_classes_in_one_unit_keep_their_fields_apart():
    source = "class A { int x; void m() { f(x); } } class A { long x; void m() { f(x); } }"
    tree = parse_source(source, file_name="A.java")
    bindings, diagnostics = get_all_variables_types(tree)
    assert diagnostics == []
    assert list(bindings.items()) == [
        ((0, None, "x"), INT),
        ((1, None, "x"), TypeName("long")),
    ]
    calls = get_all_method_calls(tree, bindings, {})
    assert [c.argument_types for c in calls] == [(INT,), (TypeName("long"),)]


TAKER = ClassInfo(
    "B",
    methods=(
        MethodSignature("<init>", (), VOID),
        MethodSignature("takeInt", (INT,), VOID),
        MethodSignature("takeStr", (STRING,), VOID),
        MethodSignature("pair", (INT, TypeName("long")), VOID),
    ),
)


def test_overloads_bind_their_own_parameters():
    source = """class A {
    void m(int a) {
        B b = new B();
        b.takeInt(a);
    }
    void m(String a) {
        B b = new B();
        b.takeStr(a);
    }
}
"""
    tree = parse_source(source, file_name="A.java")
    bindings, diagnostics = get_all_variables_types(tree)
    assert diagnostics == []
    assert list(bindings.items()) == [
        ((0, 0, "a"), INT),
        ((0, 0, "b"), TypeName("B")),
        ((0, 1, "a"), STRING),
        ((0, 1, "b"), TypeName("B")),
    ]
    calls = get_all_method_calls(tree, bindings, index_classes([TAKER]))
    assert [(str(c), c.argument_types) for c in calls if c.invoked_name != "<init>"] == [
        ("B.takeInt", (INT,)),
        ("B.takeStr", (STRING,)),
    ]
    assert method_called(calls, index_classes([TAKER])) == []


def test_overloads_of_different_arity_reuse_local_names():
    source = """class A {
    void m(int a) {
        long t;
        B b = new B();
        b.pair(a, t);
    }
    void m(int a, String s) {
        String t = s;
        B b = new B();
        b.takeStr(t);
        b.takeInt(a);
    }
}
"""
    calls = _calls_for(source, [TAKER], file_name="A.java")
    assert [(c.location.line, str(c), c.argument_types) for c in calls if c.invoked_name != "<init>"] == [
        (5, "B.pair", (INT, TypeName("long"))),
        (10, "B.takeStr", (STRING,)),
        (11, "B.takeInt", (INT,)),
    ]
    assert method_called(calls, index_classes([TAKER])) == []


def test_duplicate_in_one_overload_is_reported_once():
    tree = parse_source(
        "class A { void m(int a) { int x; long x; } void m(String a) { int x; } }",
        file_name="A.java",
    )
    bindings, diagnostics = get_all_variables_types(tree)
    assert [(d.file, d.message) for d in diagnostics] == [
        ("A.java", "duplicate variable 'x' in scope A.m")
    ]
    assert bindings[(0, 0, "x")] == INT
    assert bindings[(0, 1, "x")] == INT
    assert bindings[(0, 1, "a")] == STRING


def test_bindings_match_the_whole_block_walk_on_random_programs():
    rng = random.Random(0xB1D)
    for _ in range(300):
        tree = random_program_tree(rng)
        for unit in (tree, parse_source(print_source(tree), file_name="Random.java")):
            bindings, diagnostics = get_all_variables_types(unit)
            expected, expected_diagnostics = oracle_bindings(unit)
            assert list(bindings.items()) == _declared_types(expected)
            assert diagnostics == expected_diagnostics


def test_bindings_match_the_whole_block_walk_on_the_testbed(tmp_path):
    gen_testbed(tmp_path)
    sources = sorted(tmp_path.glob("*.java"))
    assert sources
    for path in sources:
        tree = parse_source(path.read_text(encoding="utf-8"), file_name=path.name)
        bindings, diagnostics = get_all_variables_types(tree)
        assert diagnostics == []
        assert list(bindings.items()) == _declared_types(oracle_bindings(tree)[0])


# A hand-edited tree that no source parses to.  In ``m`` one declaration is
# wrapped in an expression statement and one sits in a block inside a block;
# ``n`` has a second Block child.  A local is a declaration statement of the
# method's first block, the one extraction reads, so none of these binds a
# name, repeats ``x`` as a duplicate or yields a call: ``f(x, y)`` gets two
# unresolved arguments in ``m`` and only ``x`` resolves in ``n``.
NESTED_DECLARATIONS_ASLT = """CompilationUnit file="H.java"
  ClassDeclaration name="H"
    MethodDeclaration name="m"
      TypeReference name="void"
      Block
        ASLTJavaExpressionStatement
          ASLTJavaVariableDeclaration
            TypeReference name="B"
            ASLTJavaVariableDeclarator name="x"
              NewObjectExpression
                TypeReference name="B"
                ArgumentList
        Block
          Block
            ASLTJavaVariableDeclaration
              TypeReference name="C"
              ASLTJavaVariableDeclarator name="y"
                ASLTJavaMethodInvokeExpression name="make"
                  ArgumentList
        ASLTJavaExpressionStatement
          ASLTJavaMethodInvokeExpression name="f"
            ArgumentList
              ASLTJavaIdentifierExpression name="x"
              ASLTJavaIdentifierExpression name="y"
    MethodDeclaration name="n"
      TypeReference name="void"
      Block
        ASLTJavaVariableDeclaration
          TypeReference name="B"
          ASLTJavaVariableDeclarator name="x"
        ASLTJavaExpressionStatement
          ASLTJavaMethodInvokeExpression name="f"
            ArgumentList
              ASLTJavaIdentifierExpression name="x"
              ASLTJavaIdentifierExpression name="y"
      Block
        ASLTJavaVariableDeclaration
          TypeReference name="C"
          ASLTJavaVariableDeclarator name="x"
        ASLTJavaVariableDeclaration
          TypeReference name="C"
          ASLTJavaVariableDeclarator name="y"
        ASLTJavaExpressionStatement
          ASLTJavaMethodInvokeExpression name="g"
            ArgumentList
"""


def test_declarations_nested_below_a_statement_are_neither_bound_nor_extracted():
    tree = read_aslt(NESTED_DECLARATIONS_ASLT, file_name="H.aslt")
    bindings, diagnostics = get_all_variables_types(tree)
    assert bindings == {(0, 1, "x"): TypeName("B")}
    assert diagnostics == []
    calls = get_all_method_calls(tree, bindings, {})
    assert [(c.location.line, c.invoked_name, c.argument_types) for c in calls] == [
        (21, "f", (UNRESOLVED, UNRESOLVED)),  # in m
        (32, "f", (TypeName("B"), UNRESOLVED)),  # in n
    ]


def _type_reference(name, dims=None):
    attributes = {"name": name} if dims is None else {"name": name, "dims": dims}
    return aslt.AsltNode(aslt.TYPE_REFERENCE, attributes)


@pytest.mark.parametrize(
    "name, dims",
    [("String", None), ("String", "01"), ("Object", "2"), ("int", "0"), ("a.B", "3")],
)
def test_equal_spellings_share_one_type_name(name, dims):
    first = analysis.source_type_name(_type_reference(name, dims))
    again = analysis.source_type_name(_type_reference(name, dims))
    assert first is again
    assert first == TypeName(analysis.canonical_name(name), int(dims or "0"))


def test_string_spellings_share_the_literal_type():
    string = analysis.source_type_name(_type_reference("String"))
    assert string == STRING
    assert string is analysis.source_type_name(_type_reference("java.lang.String"))
    assert string is resolve_argument_type(_literal('"s"', "string"), {}, {}, Scope("A"))


@pytest.mark.parametrize("dims", ["x", "", "1.5"])
def test_a_malformed_dims_raises_on_every_call(dims):
    for _ in range(2):
        with pytest.raises(ValueError):
            analysis.source_type_name(_type_reference("int", dims))


# ---------------------------------------------------------------------------
# Argument resolution
# ---------------------------------------------------------------------------

def _ident(name):
    return aslt.AsltNode(aslt.IDENTIFIER_EXPRESSION, {"name": name})


def _literal(value, category):
    return aslt.AsltNode(aslt.LITERAL_TAG, {"value": value, "category": category})


def test_resolve_bound_identifier():
    bindings = _keyed("str", STRING, Scope("A", "m", 0))
    assert resolve_argument_type(_ident("str"), bindings, {}, Scope("A", "m", 0)) == STRING


def test_resolve_unbound_identifier():
    assert resolve_argument_type(_ident("ghost"), {}, {}, Scope("A", "m", 0)) is UNRESOLVED


def test_resolve_literal_categories():
    scope = Scope("A", "m", 0)
    assert resolve_argument_type(_literal("5", "integer"), {}, {}, scope) == INT
    assert resolve_argument_type(_literal("1.5", "floating"), {}, {}, scope) == TypeName("double")
    assert resolve_argument_type(_literal('"x"', "string"), {}, {}, scope) == STRING
    assert resolve_argument_type(_literal("'x'", "char"), {}, {}, scope) == TypeName("char")
    assert resolve_argument_type(_literal("true", "boolean"), {}, {}, scope) == TypeName("boolean")


def test_resolve_new_expression():
    node = aslt.AsltNode(
        aslt.NEW_OBJECT_EXPRESSION,
        {},
        (
            aslt.AsltNode(aslt.TYPE_REFERENCE, {"name": "SampleClassB"}),
            aslt.AsltNode(aslt.ARGUMENT_LIST),
        ),
    )
    assert resolve_argument_type(node, {}, {}, Scope("A", "m", 0)) == TypeName("SampleClassB")


def test_resolve_nested_invocation_unique_target():
    scope = Scope("A", "m", 0)
    bindings = _keyed("b", TypeName("SampleClassB"), scope)
    node = aslt.AsltNode(
        aslt.METHOD_INVOKE_EXPRESSION,
        {"name": "getNumber"},
        (_ident("b"), aslt.AsltNode(aslt.ARGUMENT_LIST)),
    )
    classes = [ClassInfo("SampleClassB", methods=(MethodSignature("getNumber", (), INT),))]
    assert resolve_argument_type(node, bindings, index_classes(classes), scope) == INT


def test_resolve_nested_invocation_ambiguous_overload():
    scope = Scope("A", "m", 0)
    bindings = _keyed("b", TypeName("B"), scope)
    node = aslt.AsltNode(
        aslt.METHOD_INVOKE_EXPRESSION,
        {"name": "f"},
        (_ident("b"), aslt.AsltNode(aslt.ARGUMENT_LIST)),
    )
    classes = [
        ClassInfo(
            "B",
            methods=(
                MethodSignature("f", (), INT),
                MethodSignature("f", (INT,), INT),
            ),
        )
    ]
    assert resolve_argument_type(node, bindings, index_classes(classes), scope) is UNRESOLVED


# ---------------------------------------------------------------------------
# Call-site extraction
# ---------------------------------------------------------------------------

def test_sample_caller_call_site():
    calls = _calls_for(SAMPLE_CALLER_SOURCE, [CLASS_B_OK])
    named = [c for c in calls if c.invoked_name == "doSomething"]
    assert len(named) == 1
    call = named[0]
    assert call.receiver_class == TypeName("SampleClassB")
    assert call.argument_types == (STRING,)
    assert call.expected_return is UNCONSTRAINED
    assert call.caller_class == "SampleClassA"
    assert call.location.column == 9
    assert str(call) == "SampleClassB.doSomething"
    assert call.location.file == "SampleClassA.java"
    assert call.location.line == 5


def test_no_invocations_no_calls():
    assert _calls_for("class A { void m() { int x = 5; } }", []) == []


def test_declarator_context_supplies_expected_return():
    calls = _calls_for(
        "class A { void m() { SampleClassB b = new SampleClassB(); int r = b.f(5); } }",
        [CLASS_B_OK],
    )
    call = [c for c in calls if c.invoked_name == "f"][0]
    assert call.expected_return == INT
    assert call.argument_types == (INT,)


def test_assignment_context_supplies_expected_return():
    calls = _calls_for(
        "class A { void m() { int r; SampleClassB b = new SampleClassB(); r = b.f(); } }",
        [CLASS_B_OK],
    )
    call = [c for c in calls if c.invoked_name == "f"][0]
    assert call.expected_return == INT


def test_statement_position_is_unconstrained():
    calls = _calls_for(
        "class A { void m() { SampleClassB b = new SampleClassB(); b.f(); } }", [CLASS_B_OK]
    )
    call = [c for c in calls if c.invoked_name == "f"][0]
    assert call.expected_return is UNCONSTRAINED


# A class's own name is not an implicit import: a bare call in a class
# named String targets that class, not java.lang.String.
@pytest.mark.parametrize("name", ["A", "String"])
def test_bare_call_targets_enclosing_class(name):
    calls = _calls_for(f"class {name} {{ void m() {{ run(); }} }}", [])
    assert calls[0].receiver_class == TypeName(name)


def test_static_receiver_names_known_class():
    calls = _calls_for(
        "class A { void m() { SampleClassB.doSomething(5); } }", [CLASS_B_OK]
    )
    assert calls[0].receiver_class == TypeName("SampleClassB")


def test_unknown_receiver_is_unresolved():
    calls = _calls_for("class A { void m() { mystery.f(); } }", [])
    assert isinstance(calls[0].receiver_class, Unresolved)


def test_constructor_sites_extracted_as_init():
    calls = _calls_for("class A { void m() { Widget w = new Widget(5); } }", [])
    assert [c.invoked_name for c in calls] == ["<init>"]
    assert calls[0].receiver_class == TypeName("Widget")
    assert calls[0].argument_types == (INT,)
    assert calls[0].expected_return is UNCONSTRAINED


def test_field_initializer_calls_are_extracted():
    calls = _calls_for("class A { int n = helper.get(); }", [])
    assert len(calls) == 1
    assert calls[0].location.column == 19
    assert calls[0].expected_return == INT


def test_nested_calls_in_source_order():
    calls = _calls_for(
        "class A { void m() { b.f(c.g(), d.h()); } }", []
    )
    assert [c.invoked_name for c in calls] == ["f", "g", "h"]


def _trees_with_calls():
    """Parsed units with calls, each followed by its tree read back from .aslt text."""
    rng = random.Random(0x10CA)
    sources = [SAMPLE_CALLER_SOURCE, "class A { B b = new B(); void m() { b.f(c.g(), new D(1)); } }"]
    sources += [print_source(random_program_tree(rng)) for _ in range(100)]
    for source in sources:
        tree = parse_source(source, file_name="A.java")
        yield tree
        yield read_aslt(write_aslt(tree), file_name="A.aslt")


def test_calls_and_reports_share_their_node_location():
    table = index_classes([])  # every method call is then an UnknownClass report
    calls_seen = reports_seen = 0
    for tree in _trees_with_calls():
        call_nodes = {
            id(node.span): node
            for node in oracle_preorder(tree)
            if node.kind in (aslt.METHOD_INVOKE_EXPRESSION, aslt.NEW_OBJECT_EXPRESSION)
        }
        bindings, _ = get_all_variables_types(tree)
        calls = get_all_method_calls(tree, bindings, table)
        for call in calls:
            node = call_nodes.get(id(call.location))
            assert node is not None and call.location is node.span
            if node.kind == aslt.METHOD_INVOKE_EXPRESSION:
                assert call.invoked_name == node.attributes["name"]
            for report in method_called([call], table):
                assert report.location is call.location
                reports_seen += 1
        assert len({id(call.location) for call in calls}) == len(calls)
        calls_seen += len(calls)
    assert calls_seen > 150 and reports_seen > 50


def _without_positions(node):
    return aslt.AsltNode(
        node.kind, node.attributes, tuple(_without_positions(child) for child in node.children)
    )


def test_calls_of_nodes_without_a_position_share_one_empty_location():
    calls = []
    for tree in _trees_with_calls():
        tree = _without_positions(tree)
        bindings, _ = get_all_variables_types(tree)
        calls += get_all_method_calls(tree, bindings, index_classes([]))
    assert len(calls) > 150
    assert {call.location for call in calls} == {Location("", 0, 0)}
    assert len({id(call.location) for call in calls}) == 1


def _assert_calls_match_the_oracle(unit, classes):
    bindings, _ = get_all_variables_types(unit)
    calls = get_all_method_calls(unit, bindings, index_classes(classes))
    expected = oracle_method_calls(unit, classes)
    for index, (call, want) in enumerate(zip(calls, expected)):
        assert call == want, index
    assert len(calls) == len(expected)
    return calls


def test_extraction_matches_the_recursive_reference_on_random_programs():
    rng = random.Random(0xCA11)
    calls = []
    nested = 0
    for _ in range(300):
        tree = random_program_tree(rng)
        classes = random_callee_classes(rng)
        parsed = parse_source(print_source(tree), file_name="Random.java")
        read = read_aslt(write_aslt(parsed), file_name="Random.aslt")
        results = [_assert_calls_match_the_oracle(unit, classes) for unit in (tree, parsed, read)]
        calls += [call for result in results for call in result]
        # A statement is one source line, so a call on its caller's line is nested.
        lines = [call.location.line for call in results[1]]
        nested += sum(a == b for a, b in zip(lines, lines[1:]))
    # Every rule is taken: nested calls, receivers that are bound, static,
    # enclosing or unresolved, and arguments of every kind.
    argument_types = [t for call in calls for t in call.argument_types]
    receivers = {call.receiver_class for call in calls}
    assert len(calls) > 1000 and nested > 50
    assert "<init>" in {call.invoked_name for call in calls}
    assert {TypeName("Widget"), TypeName("helper"), TypeName("Gen0"), UNRESOLVED} <= receivers
    assert UNRESOLVED in argument_types
    assert {"int", "double", "char", "boolean", "java.lang.String", "Widget"} <= {
        t.name for t in argument_types if t is not UNRESOLVED
    }
    assert any(call.expected_return is not UNCONSTRAINED for call in calls)


# Hand-written trees the grammar cannot produce, or rarely does.
NESTED_IN_NEW_ASLT = """CompilationUnit file="N.java"
  ClassDeclaration name="N"
    MethodDeclaration name="m"
      TypeReference name="void"
      Block
        ASLTJavaVariableDeclaration
          TypeReference name="Box"
          ASLTJavaVariableDeclarator name="b"
            NewObjectExpression
              TypeReference name="Box"
              ArgumentList
                ASLTJavaMethodInvokeExpression name="size"
                  ASLTJavaIdentifierExpression name="b"
                  ArgumentList
                    ASLTJavaLiteralTag category="integer" value="1"
                ASLTJavaLiteralTag category="string" value="\\"s\\""
                NewObjectExpression
                  TypeReference name="Box"
                  ArgumentList
"""

# A ``new`` without its two children is no call, and nothing below it is
# visited; an argument ``new`` without them is still typed.
SHORT_NEW_ASLT = """CompilationUnit file="S.java"
  ClassDeclaration name="S"
    MethodDeclaration name="m"
      TypeReference name="void"
      Block
        ASLTJavaExpressionStatement
          NewObjectExpression
            TypeReference name="Box"
        ASLTJavaExpressionStatement
          NewObjectExpression
            TypeReference name="Box"
            ArgumentList
              ASLTJavaMethodInvokeExpression name="hidden"
                ArgumentList
            ArgumentList
        ASLTJavaExpressionStatement
          ASLTJavaMethodInvokeExpression name="take"
            ArgumentList
              NewObjectExpression
                TypeReference name="Box"
              NewObjectExpression
"""

# Identifier and literal statement roots hold no call; the calls around
# them keep their order.  A literal of no known category is unresolved.
LEAF_ROOTS_ASLT = """CompilationUnit file="L.java"
  ClassDeclaration name="L"
    FieldDeclaration name="k"
      TypeReference name="int"
      ASLTJavaLiteralTag category="integer" value="3"
    MethodDeclaration name="m"
      TypeReference name="int"
      Block
        ASLTJavaExpressionStatement
          ASLTJavaIdentifierExpression name="k"
        ASLTJavaExpressionStatement
          ASLTJavaMethodInvokeExpression name="first"
            ArgumentList
              ASLTJavaIdentifierExpression name="k"
              ASLTJavaLiteralTag category="hex" value="0x1"
        ASLTJavaExpressionStatement
          ASLTJavaLiteralTag category="char" value="'c'"
        ASLTJavaVariableDeclaration
          TypeReference name="int"
          ASLTJavaVariableDeclarator name="v"
            ASLTJavaLiteralTag category="integer" value="4"
          ASLTJavaVariableDeclarator name="w"
            ASLTJavaMethodInvokeExpression name="second"
              ArgumentList
        ReturnStatement
          ASLTJavaLiteralTag category="boolean" value="true"
"""

BOX = TypeName("Box")


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            NESTED_IN_NEW_ASLT,
            [
                ("N", "<init>", BOX, (INT, STRING, BOX), UNCONSTRAINED, 9),
                ("N", "size", BOX, (INT,), UNCONSTRAINED, 12),
                ("N", "<init>", BOX, (), UNCONSTRAINED, 17),
            ],
        ),
        (
            SHORT_NEW_ASLT,
            [("S", "take", TypeName("S"), (BOX, UNRESOLVED), UNCONSTRAINED, 17)],
        ),
        (
            LEAF_ROOTS_ASLT,
            [
                ("L", "first", TypeName("L"), (INT, UNRESOLVED), UNCONSTRAINED, 12),
                ("L", "second", TypeName("L"), (), INT, 23),
            ],
        ),
    ],
    ids=["call-in-new", "new-without-two-children", "leaf-roots"],
)
def test_extraction_of_hand_written_trees(text, expected):
    classes = [ClassInfo("Box", methods=(MethodSignature("size", (INT,), INT),))]
    unit = read_aslt(text, file_name="T.aslt")
    calls = _assert_calls_match_the_oracle(unit, classes)
    assert [
        (
            call.caller_class,
            call.invoked_name,
            call.receiver_class,
            call.argument_types,
            call.expected_return,
            call.location.line,
        )
        for call in calls
    ] == expected
    assert all(c.location.file == "T.aslt" and c.location.column == 1 for c in calls)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def test_string_vs_int_parameter_mismatch_report():
    calls = _calls_for(SAMPLE_CALLER_SOURCE, [CLASS_B_FAULTY])
    reports = method_called(calls, index_classes([CLASS_B_FAULTY]))
    assert len(reports) == 1
    report = reports[0]
    assert report.kind is MismatchKind.PARAM_TYPE_MISMATCH
    assert report.aslt_class_name == "SampleClassA"
    assert report.called_class_file == "SampleClassB.class"
    assert report.called_method == "doSomething"
    assert report.expected_parameters == (INT,)
    assert report.given_parameters == (STRING,)
    assert report.expected_return == VOID
    assert report.given_return is UNCONSTRAINED


def test_compatible_cross_calls_produce_no_reports():
    source = """class SampleClassA {
    void m() {
        SampleClassB sampleClassB = new SampleClassB();
        SampleClassC sampleClassC = new SampleClassC();
        sampleClassB.doSomething("hi");
        int r = sampleClassC.calc(5);
    }
}
"""
    class_c = ClassInfo(
        "SampleClassC",
        methods=(MethodSignature("<init>", (), VOID), MethodSignature("calc", (INT,), INT)),
        source_file_name="SampleClassC.class",
    )
    calls = _calls_for(source, [CLASS_B_OK, class_c])
    assert method_called(calls, index_classes([CLASS_B_OK, class_c])) == []


def _call(receiver, name, args=(), expected=UNCONSTRAINED, line=1):
    return CallSite(
        caller_class="A",
        receiver_class=receiver,
        invoked_name=name,
        argument_types=args,
        expected_return=expected,
        location=Location("A.java", line, 1),
    )


def test_unknown_class_for_unresolved_and_absent_receivers():
    classes = [CLASS_B_OK]
    reports = method_called(
        [
            _call(UNRESOLVED, "f", line=1),
            _call(TypeName("Ghost"), "f", line=2),
            _call(TypeName("SampleClassB", 1), "f", line=3),  # array receiver
            _call(INT, "f", line=4),  # primitive receiver
        ],
        index_classes(classes),
    )
    assert [r.kind for r in reports] == [MismatchKind.UNKNOWN_CLASS] * 4
    assert all(r.called_class_file is None for r in reports)
    assert all(r.expected_parameters is None for r in reports)


def test_unknown_method():
    reports = method_called([_call(TypeName("SampleClassB"), "nope")], index_classes([CLASS_B_OK]))
    assert [r.kind for r in reports] == [MismatchKind.UNKNOWN_METHOD]
    assert reports[0].called_class_file == "SampleClassB.class"


def test_arity_and_return_mismatches():
    info = ClassInfo("B", methods=(MethodSignature("f", (INT,), INT),))
    arity = method_called([_call(TypeName("B"), "f", (INT, INT))], index_classes([info]))
    assert [r.kind for r in arity] == [MismatchKind.ARITY_MISMATCH]
    returns = method_called(
        [_call(TypeName("B"), "f", (INT,), expected=TypeName("long"))], index_classes([info])
    )
    assert [r.kind for r in returns] == [MismatchKind.RETURN_TYPE_MISMATCH]
    assert returns[0].expected_return == INT
    assert returns[0].given_return == TypeName("long")


def test_unresolved_argument_reported():
    info = ClassInfo("B", methods=(MethodSignature("f", (INT,), VOID),))
    reports = method_called([_call(TypeName("B"), "f", (UNRESOLVED,))], index_classes([info]))
    assert [r.kind for r in reports] == [MismatchKind.UNRESOLVED_ARGUMENT]


def test_matching_any_overload_suppresses_report():
    info = ClassInfo(
        "B",
        methods=(
            MethodSignature("f", (INT,), VOID),
            MethodSignature("f", (STRING,), VOID),
        ),
    )
    ok = method_called([_call(TypeName("B"), "f", (STRING,))], index_classes([info]))
    assert ok == []
    bad = method_called([_call(TypeName("B"), "f", (TypeName("char"),))], index_classes([info]))
    assert [r.kind for r in bad] == [MismatchKind.PARAM_TYPE_MISMATCH]
    # nearest candidate has the same arity; first in declaration order
    assert bad[0].expected_parameters == (INT,)


def test_constructor_checked_only_when_class_present():
    classes = index_classes([CLASS_B_OK])
    silent = method_called([_call(TypeName("Ghost"), "<init>", (INT,))], classes)
    assert silent == []
    checked = method_called([_call(TypeName("SampleClassB"), "<init>", (INT,))], classes)
    assert [r.kind for r in checked] == [MismatchKind.ARITY_MISMATCH]


def test_widening_brute_force_over_primitive_pairs():
    # Independent oracle: the full widening relation written out.
    chains = {
        "byte": {"short", "int", "long", "float", "double"},
        "short": {"int", "long", "float", "double"},
        "char": {"int", "long", "float", "double"},
        "int": {"long", "float", "double"},
        "long": {"float", "double"},
        "float": {"double"},
        "double": set(),
        "boolean": set(),
    }
    primitives = sorted(chains)
    for source_name in primitives:
        for target_name in primitives:
            info = ClassInfo("B", methods=(MethodSignature("f", (TypeName(target_name),), VOID),))
            call = _call(TypeName("B"), "f", (TypeName(source_name),))
            strict = method_called([call], index_classes([info]), widening=False)
            widened = method_called([call], index_classes([info]), widening=True)
            assert (strict == []) == (source_name == target_name)
            expect_ok = source_name == target_name or target_name in chains[source_name]
            assert (widened == []) == expect_ok


def test_widening_reports_are_subset_of_strict():
    rng = random.Random(99)
    for _ in range(100):
        classes = oracle_classes(rng)
        calls = oracle_calls(rng, classes)
        table = index_classes(classes)
        strict_keys = {
            (r.location, r.called_method) for r in method_called(calls, table, widening=False)
        }
        widened_keys = {
            (r.location, r.called_method) for r in method_called(calls, table, widening=True)
        }
        assert widened_keys <= strict_keys


def test_reports_sorted_by_location_and_input_order_irrelevant():
    info = ClassInfo("B", methods=(MethodSignature("f", (INT,), VOID),))
    calls = [
        _call(TypeName("B"), "f", (STRING,), line=9),
        _call(TypeName("B"), "f", (STRING,), line=2),
        _call(TypeName("Ghost"), "g", line=5),
    ]
    forward = method_called(calls, index_classes([info]))
    backward = method_called(list(reversed(calls)), index_classes([info]))
    assert [r.location.line for r in forward] == [2, 5, 9]
    assert forward == backward


def test_duplicate_class_names_first_wins():
    first = ClassInfo("B", methods=(MethodSignature("f", (), VOID),))
    second = ClassInfo("B", methods=())
    calls = [_call(TypeName("B"), "f", ())]
    assert method_called(calls, index_classes([first, second])) == []


def test_oracle_equivalence_random_projects():
    rng = random.Random(2024)
    for _ in range(120):
        classes = oracle_classes(rng)
        calls = oracle_calls(rng, classes)
        for widening in (False, True):
            assert method_called(
                calls, index_classes(classes), widening=widening
            ) == oracle_reports(calls, classes, widening)


def _shapes_repeated(rng, calls, copies):
    """Each call's shape again at ``copies`` other places, files and callers,
    every call at a line of its own."""
    repeated = []
    for call in calls:
        for _ in range(copies + 1):
            line = len(repeated) + 1
            repeated.append(
                dataclasses.replace(
                    call,
                    caller_class=f"Caller{line % 5}",
                    location=Location(f"F{line % 3}.java", line, rng.randrange(1, 30)),
                )
            )
    rng.shuffle(repeated)
    return repeated


def test_repeated_call_shapes_are_decided_alike_at_every_site():
    rng = random.Random(1414)
    seen_kinds = set()
    matched = array_receivers = unresolved_receivers = unresolved_arguments = missing_inits = 0
    for _ in range(60):
        classes = oracle_classes(rng)
        calls = _shapes_repeated(rng, oracle_calls(rng, classes), copies=3)
        by_line = {call.location.line: call for call in calls}
        known = {info.qualified_name for info in classes}
        for widening in (False, True):
            reports = method_called(calls, index_classes(classes), widening=widening)
            assert reports == oracle_reports(calls, classes, widening)
            for report in reports:
                call = by_line[report.location.line]
                assert report.location is call.location
                assert report.aslt_class_name == call.caller_class
                assert report.given_parameters is call.argument_types
                assert report.given_return is call.expected_return
            seen_kinds |= {report.kind for report in reports}
            matched += len(calls) - len(reports)
        for call in calls:
            receiver = call.receiver_class
            array_receivers += isinstance(receiver, TypeName) and receiver.dims > 0
            unresolved_receivers += isinstance(receiver, Unresolved)
            unresolved_arguments += any(isinstance(a, Unresolved) for a in call.argument_types)
            missing_inits += (
                call.invoked_name == "<init>"
                and isinstance(receiver, TypeName)
                and receiver.name not in known
            )
    assert seen_kinds == set(MismatchKind)
    assert min(matched, array_receivers, unresolved_receivers, unresolved_arguments, missing_inits) > 0


def test_an_equal_type_built_elsewhere_shares_the_cached_types_verdict(monkeypatch):
    decided = []
    original = analysis._verdict
    monkeypatch.setattr(
        analysis, "_verdict", lambda call, *rest: decided.append(call) or original(call, *rest)
    )
    cached = analysis._type_name("int", "0")
    built = TypeName("int")
    assert built is not cached and hash(built) == hash(cached)
    classes = [ClassInfo("B", methods=(MethodSignature("f", (STRING,), VOID),))]
    calls = [
        CallSite("A", TypeName("B"), "f", (argument,), UNCONSTRAINED, Location("A.java", line, 1))
        for line, argument in ((1, cached), (2, built), (3, TypeName("int", 0)))
    ]
    reports = method_called(calls, index_classes(classes))
    assert len(decided) == 1
    assert [(r.kind, r.location.line) for r in reports] == [
        (MismatchKind.PARAM_TYPE_MISMATCH, line) for line in (1, 2, 3)
    ]


class _CountedMethods(tuple):
    """A methods tuple that counts how often it is iterated."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_each_class_is_scanned_at_most_once_per_comparison():
    first_b = _CountedMethods(
        (
            MethodSignature("<init>", (), VOID),
            MethodSignature("f", (INT,), INT),
            MethodSignature("f", (STRING,), VOID),
            MethodSignature("g", (), STRING),
        )
    )
    second_b = _CountedMethods((MethodSignature("h", (), VOID), MethodSignature("f", (), VOID)))
    c_methods = _CountedMethods((MethodSignature("f", (INT, INT), VOID),))
    classes = [
        ClassInfo("B", methods=first_b),
        ClassInfo("C", methods=c_methods),
        ClassInfo("B", methods=second_b),  # a second class file of the same name
    ]
    shapes = [
        (TypeName("B"), "f", (INT,), INT),  # matched
        (TypeName("B"), "f", (STRING,), UNCONSTRAINED),  # matched
        (TypeName("B"), "f", (), UNCONSTRAINED),  # only the second B has f()
        (TypeName("B"), "h", (), UNCONSTRAINED),  # only the second B has h()
        (TypeName("B"), "f", (TypeName("boolean"),), UNCONSTRAINED),
        (TypeName("B"), "g", (), INT),
        (TypeName("B"), "f", (UNRESOLVED,), UNCONSTRAINED),
        (TypeName("C"), "f", (INT,), UNCONSTRAINED),
        (TypeName("C", 1), "f", (INT, INT), UNCONSTRAINED),
        (UNRESOLVED, "f", (), UNCONSTRAINED),
        (TypeName("Ghost"), "<init>", (INT,), UNCONSTRAINED),
        (TypeName("Ghost"), "f", (), UNCONSTRAINED),
    ]
    calls = [
        _call(receiver, name, args, expected, line=line)
        for line, (receiver, name, args, expected) in enumerate(shapes * 300, start=1)
    ]
    for widening in (False, True):
        for methods in (first_b, second_b, c_methods):
            methods.scans = 0
        reports = method_called(calls, index_classes(classes), widening=widening)
        assert all(methods.scans <= 1 for methods in (first_b, second_b, c_methods))
        assert reports == oracle_reports(calls, classes, widening)
        unknown = {r.called_method for r in reports if r.kind is MismatchKind.UNKNOWN_METHOD}
        assert unknown == {"h"}
        assert [r.kind for r in reports[:10]] == [
            MismatchKind.ARITY_MISMATCH,
            MismatchKind.UNKNOWN_METHOD,
            MismatchKind.PARAM_TYPE_MISMATCH,
            MismatchKind.RETURN_TYPE_MISMATCH,
            MismatchKind.UNRESOLVED_ARGUMENT,
            MismatchKind.ARITY_MISMATCH,
            MismatchKind.UNKNOWN_CLASS,
            MismatchKind.UNKNOWN_CLASS,
            MismatchKind.UNKNOWN_CLASS,
            MismatchKind.ARITY_MISMATCH,
        ]



def test_one_class_table_serves_extraction_and_comparison():
    """Nested calls resolve through the run's table, so neither extraction nor
    comparison reads a class's methods again once it is indexed."""
    methods = _CountedMethods(
        (
            MethodSignature("<init>", (), VOID),
            MethodSignature("f", (INT, INT), INT),
            MethodSignature("h", (), INT),
            MethodSignature("k", (), STRING),
            MethodSignature("k", (INT,), STRING),
        )
    )
    shadowed = _CountedMethods((MethodSignature("h", (), STRING),))
    source = """class A {
    void m(int p) {
        B b = new B();
        int r = b.f(b.h(), b.f(b.h(), p));
        b.f(b.k(), B.h());
    }
}
"""
    tree = parse_source(source, file_name="A.java")
    bindings, _ = get_all_variables_types(tree)
    table = index_classes([ClassInfo("B", methods=methods), ClassInfo("B", methods=shadowed)])
    calls = get_all_method_calls(tree, bindings, table)
    reports = method_called(calls, table)
    assert (methods.scans, shadowed.scans) == (1, 0)
    assert [c.argument_types for c in calls if c.invoked_name == "f"] == [
        (INT, INT),
        (INT, INT),
        (UNRESOLVED, INT),  # k has two overloads
    ]
    assert [(r.kind, r.location.line) for r in reports] == [(MismatchKind.UNRESOLVED_ARGUMENT, 5)]

def test_call_records_build_alike_positionally_and_by_keyword():
    location = Location("A.java", 3, 7)
    assert location == Location(file="A.java", line=3, column=7)
    assert hash(location) == hash(Location(file="A.java", line=3, column=7))
    call = CallSite("A", TypeName("B"), "f", (INT, UNRESOLVED), UNCONSTRAINED, location)
    by_keyword = CallSite(
        caller_class="A",
        receiver_class=TypeName("B"),
        invoked_name="f",
        argument_types=(INT, UNRESOLVED),
        expected_return=UNCONSTRAINED,
        location=Location("A.java", 3, 7),
    )
    assert call == by_keyword
    assert hash(call) == hash(by_keyword)
    assert call != dataclasses.replace(call, expected_return=INT)

    assert [f.name for f in dataclasses.fields(Location)] == ["file", "line", "column"]
    assert [f.name for f in dataclasses.fields(CallSite)] == [
        "caller_class",
        "receiver_class",
        "invoked_name",
        "argument_types",
        "expected_return",
        "location",
    ]
    moved = dataclasses.replace(call, location=dataclasses.replace(location, line=4))
    assert moved.location == Location("A.java", 4, 7)
    assert dataclasses.replace(moved, location=location) == call

    assert repr(location) == "Location(file='A.java', line=3, column=7)"
    assert repr(call) == (
        "CallSite(caller_class='A', receiver_class=TypeName(name='B', dims=0), "
        "invoked_name='f', argument_types=(TypeName(name='int', dims=0), Unresolved()), "
        "expected_return=Unconstrained(), location=" + repr(location) + ")"
    )
    assert str(call) == "B.f"
    assert str(location) == "A.java:3:7"
    assert not hasattr(call, "__dict__")
    assert not hasattr(location, "__dict__")

    report = MismatchReport(
        MismatchKind.PARAM_TYPE_MISMATCH,
        "A",
        "B.class",
        "f",
        (STRING,),
        (INT,),
        VOID,
        UNCONSTRAINED,
        location,
    )
    report_by_keyword = MismatchReport(
        kind=MismatchKind.PARAM_TYPE_MISMATCH,
        aslt_class_name="A",
        called_class_file="B.class",
        called_method="f",
        expected_parameters=(STRING,),
        given_parameters=(INT,),
        expected_return=VOID,
        given_return=UNCONSTRAINED,
        location=Location("A.java", 3, 7),
    )
    assert report == report_by_keyword
    assert hash(report) == hash(report_by_keyword)
    assert len({report, report_by_keyword}) == 1
    elsewhere = dataclasses.replace(report, location=moved.location)
    assert elsewhere.location == Location("A.java", 4, 7) and elsewhere != report
    assert dataclasses.replace(elsewhere, location=location) == report
    assert repr(report) == (
        "MismatchReport(kind=<MismatchKind.PARAM_TYPE_MISMATCH: 'ParamTypeMismatch'>, "
        "aslt_class_name='A', called_class_file='B.class', called_method='f', "
        "expected_parameters=(TypeName(name='java.lang.String', dims=0),), "
        "given_parameters=(TypeName(name='int', dims=0),), "
        "expected_return=TypeName(name='void', dims=0), given_return=Unconstrained(), "
        "location=" + repr(location) + ")"
    )


# ---------------------------------------------------------------------------
# Symbol index
# ---------------------------------------------------------------------------

LOOKUP_CLASSES = ("A", "B", "C")
LOOKUP_METHODS = ("m", "n")
LOOKUP_NAMES = ("x", "y", "z", "w")  # "w" is never bound
# Source spelling -> the type it binds.
LOOKUP_TYPES = {"int": INT, "String": STRING, "long": TypeName("long"), "int[]": TypeName("int", 1)}


def _random_unit(rng):
    """Source of one unit with fields, overloads and repeated names, and the
    bindings it declares in source order, duplicates included."""
    declared = []
    classes = []
    position = -1  # of each member in the unit
    names = rng.choices(LOOKUP_CLASSES, k=rng.randrange(1, 4))
    for class_position, class_name in enumerate(names):
        fields = Scope(class_name, class_position=class_position)
        members = []
        for _ in range(rng.randrange(1, 7)):
            position += 1
            if rng.random() < 0.4:
                spelled, name = rng.choice(list(LOOKUP_TYPES)), rng.choice(LOOKUP_NAMES[:3])
                members.append(f"{spelled} {name};")
                declared.append(Binding(name, LOOKUP_TYPES[spelled], fields))
                continue
            method = rng.choice(LOOKUP_METHODS)
            scope = Scope(class_name, method, position, class_position)
            pairs = [
                (rng.choice(list(LOOKUP_TYPES)), rng.choice(LOOKUP_NAMES[:3]))
                for _ in range(rng.randrange(0, 4))
            ]
            split = rng.randrange(len(pairs) + 1)
            parameters = ", ".join(f"{t} {n}" for t, n in pairs[:split])
            locals_ = " ".join(f"{t} {n};" for t, n in pairs[split:])
            members.append(f"void {method}({parameters}) {{ {locals_} }}")
            declared += [Binding(n, LOOKUP_TYPES[t], scope) for t, n in pairs]
        classes.append(f"class {class_name} {{ {' '.join(members)} }}")
    return "\n".join(classes), names, declared


def test_index_lookups_equal_the_list_scan_oracle():
    # How often each case the index must get right occurred, to show that
    # the random units cover them all.
    seen = dict.fromkeys(
        (
            "repeated key",
            "shadowed field",
            "overload",
            "field only",
            "miss",
            "repeated class",
            "same-named class",
        ),
        0,
    )
    rng = random.Random(4041)
    for _ in range(300):
        source, names, declared = _random_unit(rng)
        index, diagnostics = get_all_variables_types(parse_source(source, file_name="U.java"))
        keys = {(b.scope, b.name) for b in declared}
        assert len(index) == len(keys)
        assert len(diagnostics) == len(declared) - len(keys)
        seen["repeated key"] += len(diagnostics)
        method_scopes = {b.scope for b in declared if b.scope.position is not None}
        for scope in method_scopes:
            fields = Scope(scope.class_name, class_position=scope.class_position)
            seen["shadowed field"] += any((fields, name) in keys for s, name in keys if s == scope)
            seen["overload"] += any(
                other.method_name == scope.method_name and other != scope
                for other in method_scopes
                if other.class_position == scope.class_position
            )
        seen["same-named class"] += len(names) - len(set(names))
        # Each class declaration of the unit, and one past its last class.
        for class_position, class_name in enumerate(names + ["Z"]):
            # A method declaration that binds nothing sees the fields only.
            queried = [
                Scope(class_name, class_position=class_position),
                Scope(class_name, "m", 99, class_position),
            ]
            queried += [s for s in method_scopes if s.class_position == class_position]
            for scope in queried:
                for name in LOOKUP_NAMES:
                    expected = oracle_lookup_binding(name, declared, scope)
                    found = analysis._lookup_binding(name, index, scope)
                    if expected is None:
                        assert found is None
                        seen["miss"] += 1
                        continue
                    # The index holds the reference's binding under its scope's key.
                    key = (expected.scope.class_position, expected.scope.position, name)
                    assert found == index[key] == expected.declared_type
                    if scope.position is not None and expected.scope.position is None:
                        seen["field only"] += 1

        classes = [
            ClassInfo(rng.choice(LOOKUP_CLASSES + ("p.A",)), source_file_name=f"{i}.class")
            for i in range(rng.randrange(0, 6))
        ]
        class_index = index_classes(classes)
        seen["repeated class"] += len(classes) - len(class_index)
        for name in LOOKUP_CLASSES + ("p.A", "Z"):
            info, _overloads = class_index.get(name, (None, None))
            assert info is oracle_find_class(classes, name)
    assert all(seen.values()), seen


class _KeyedOnly(dict):
    """A mapping that answers keyed lookups and refuses to be scanned."""

    def _refuse(self, *args):
        raise AssertionError("the index was scanned")

    __iter__ = keys = values = items = _refuse


def test_extraction_does_keyed_lookups_only():
    source = """class A {
    int x;
    B b = new B();
    void m(int p) {
        B local = new B();
        int r = local.f(p, x);
        r = b.f(r, 5);
        B.g(local.h(), q);
    }
}
class C {
    String s;
    void n() { A a = new A(); a.m(s); run(s); }
}
"""
    tree = parse_source(source, file_name="A.java")
    bindings, _ = get_all_variables_types(tree)
    classes = [
        ClassInfo("B", methods=(MethodSignature("f", (INT, INT), INT), MethodSignature("h", (), INT))),
        ClassInfo("A"),
    ]
    expected = get_all_method_calls(tree, bindings, index_classes(classes))
    guarded = get_all_method_calls(tree, _KeyedOnly(bindings), _KeyedOnly(index_classes(classes)))
    assert guarded == expected
    assert [(str(c), c.argument_types) for c in guarded[2:5]] == [
        ("B.f", (INT, INT)),
        ("B.f", (INT, INT)),
        ("B.g", (INT, UNRESOLVED)),
    ]


def _type(name, dims=None):
    attributes = {"name": name} if dims is None else {"name": name, "dims": dims}
    return aslt.AsltNode(aslt.TYPE_REFERENCE, attributes)


def test_declarations_without_a_type_reference_are_skipped():
    invoke = aslt.AsltNode(
        aslt.METHOD_INVOKE_EXPRESSION,
        {"name": "f"},
        (_ident("b"), aslt.AsltNode(aslt.ARGUMENT_LIST, {}, (_ident("x"),))),
    )
    untyped_local = aslt.AsltNode(
        aslt.VARIABLE_DECLARATION,
        {},
        (_literal("1", "integer"), aslt.AsltNode(aslt.VARIABLE_DECLARATOR, {"name": "y"}, (invoke,))),
    )
    method = aslt.AsltNode(
        aslt.METHOD_DECLARATION,
        {"name": "m"},
        (_type("void"), aslt.AsltNode(aslt.BLOCK, {}, (untyped_local,))),
    )
    members = (
        aslt.AsltNode(aslt.FIELD_DECLARATION, {"name": "x"}, (_type("int"),)),
        aslt.AsltNode(aslt.FIELD_DECLARATION, {"name": "b"}, (_type("B"),)),
        aslt.AsltNode(aslt.FIELD_DECLARATION, {"name": "u"}, (_literal("1", "integer"), invoke)),
        aslt.AsltNode(
            aslt.FIELD_DECLARATION,
            {"name": "v"},
            (
                _type("B"),
                aslt.AsltNode(aslt.NEW_OBJECT_EXPRESSION, {}, (_ident("B"), aslt.AsltNode(aslt.ARGUMENT_LIST))),
            ),
        ),
        method,
    )
    tree = aslt.AsltNode(
        aslt.COMPILATION_UNIT,
        {"file": "A.aslt"},
        (aslt.AsltNode(aslt.CLASS_DECLARATION, {"name": "A"}, members),),
    )
    bindings, diagnostics = get_all_variables_types(tree)
    assert diagnostics == []
    assert [name for _, _, name in bindings] == ["x", "b", "v"]
    calls = get_all_method_calls(tree, bindings, {})
    assert [(c.invoked_name, c.receiver_class, c.expected_return) for c in calls] == [
        ("f", TypeName("B"), UNCONSTRAINED),
        ("<init>", UNRESOLVED, UNCONSTRAINED),
        ("f", TypeName("B"), UNCONSTRAINED),
    ]
    assert all(c.argument_types == (INT,) for c in calls if c.invoked_name == "f")


# ---------------------------------------------------------------------------
# scan_classfiles
# ---------------------------------------------------------------------------

def test_get_class_infos_scans_configured_extension(tmp_path):
    for info in (CLASS_B_OK, ClassInfo("TestBed"), ClassInfo("SampleClassA")):
        (tmp_path / f"{info.qualified_name}.class").write_bytes(emit_classfile(info))
    (tmp_path / "Ignored.klass").write_bytes(emit_classfile(ClassInfo("Ignored")))
    infos, diagnostics = scan_classfiles(tmp_path, ".class")
    assert [i.qualified_name for i in infos] == ["SampleClassA", "SampleClassB", "TestBed"]
    assert diagnostics == []


def test_get_class_infos_collects_diagnostics(tmp_path):
    (tmp_path / "Good.class").write_bytes(emit_classfile(ClassInfo("Good")))
    (tmp_path / "Bad.class").write_bytes(b"junk")
    infos, diagnostics = scan_classfiles(tmp_path, ".class")
    assert [i.qualified_name for i in infos] == ["Good"]
    assert [d.file for d in diagnostics] == ["Bad.class"]


# ---------------------------------------------------------------------------
# class_names and duplicate_classes
# ---------------------------------------------------------------------------

def test_the_first_declaration_of_a_qualified_class_name_stands():
    unit = parse_source("package p; class A { } class B { } class A { }", file_name="P.java")
    assert analysis.class_names(unit) == ["p.A", "p.B", "p.A"]
    first_declared = {"p.B": "Q.java"}
    diagnostics = analysis.duplicate_classes("P.java", analysis.class_names(unit), first_declared)
    assert [(d.file, d.message) for d in diagnostics] == [
        ("P.java", "duplicate class 'p.B', first declared in Q.java"),
        ("P.java", "duplicate class 'p.A', first declared in P.java"),
    ]
    assert first_declared == {"p.B": "Q.java", "p.A": "P.java"}


@pytest.mark.parametrize(
    "source, name", [("package p.q; class B { int get() { } }", "p.q.B"), ("class B { }", "B")]
)
def test_class_info_from_tree_names_the_class_as_class_names_does(source, name):
    unit = parse_source(source, file_name="B.java")
    info = analysis.class_info_from_tree(unit)
    assert info.qualified_name == name == analysis.class_names(unit)[0]
    assert parse_classfile(emit_classfile(info)).qualified_name == name


# javac 17 builds `package p.q; class B extends A implements I, x.J { }` as
# p.q.B extends p.q.A implements p.q.I, x.J (checked with javap).
@pytest.mark.parametrize(
    "source, superclass, interfaces",
    [
        ("package p.q; class B extends A implements I, x.J { }", "p.q.A", ("p.q.I", "x.J")),
        ("package p; class B extends Object implements y.K { }", "java.lang.Object", ("y.K",)),
        ("package p; class B extends a.b.C { }", "a.b.C", ()),
        ("class B extends A implements I { }", "A", ("I",)),
    ],
)
def test_class_info_from_tree_qualifies_simple_supertypes_by_the_package(source, superclass, interfaces):
    info = analysis.class_info_from_tree(parse_source(source, file_name="B.java"))
    assert (info.superclass_name, info.interface_names) == (superclass, interfaces)
    assert parse_classfile(emit_classfile(info)) == info


def test_class_info_from_tree_refuses_a_unit_without_a_class():
    unit = aslt.AsltNode(aslt.COMPILATION_UNIT, {"file": "P.java"})
    with pytest.raises(ValueError, match="^compilation unit contains no class declaration$"):
        analysis.class_info_from_tree(unit)
