import dataclasses
import random

import pytest

from compatcheck import aslt
from compatcheck.aslt import (
    AsltFormatError,
    AsltNode,
    LexicalError,
    Span,
    MalformedTreeError,
    ParseError,
    Token,
    iter_nodes,
    parse_source,
    print_source,
    read_aslt,
    tokenize,
    write_aslt,
)

from randgen import random_program_tree, random_serial_tree

SAMPLE_CALLER = """class SampleClassA {
    void m() {
        SampleClassB sampleClassB = new SampleClassB();
        String str = "hello";
        sampleClassB.doSomething(str);
    }
}
"""


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

def test_tokenize_declaration():
    tokens = tokenize("int x = 5;")
    assert [(t.category, t.lexeme) for t in tokens] == [
        ("keyword", "int"),
        ("identifier", "x"),
        ("operator", "="),
        ("integer-literal", "5"),
        ("punctuation", ";"),
        ("end-of-input", ""),
    ]


def test_tokenize_empty_source():
    tokens = tokenize("")
    assert [(t.category, t.lexeme) for t in tokens] == [("end-of-input", "")]


def test_tokenize_string_keeps_quotes():
    tokens = tokenize('String s = "hi";')
    literal = [t for t in tokens if t.category == "string-literal"]
    assert [t.lexeme for t in literal] == ['"hi"']


def test_tokenize_discards_comments():
    tokens = tokenize("// line\nint /* block\nstill */ x;")
    assert [t.lexeme for t in tokens[:-1]] == ["int", "x", ";"]


def test_tokenize_boolean_literals():
    tokens = tokenize("true false")
    assert [t.category for t in tokens[:-1]] == ["boolean-literal", "boolean-literal"]


def test_tokenize_char_literals():
    assert tokenize("'a'")[0].lexeme == "'a'"
    assert tokenize("'\\n'")[0].lexeme == "'\\n'"


def test_tokenize_positions_are_one_based_and_non_decreasing():
    tokens = tokenize("int x;\n  x = 5;\n")
    assert tokens[0].line == 1 and tokens[0].column == 1
    positions = [(t.line, t.column) for t in tokens]
    assert positions == sorted(positions)
    assert all(line >= 1 and column >= 1 for line, column in positions)


def test_tokenize_unterminated_string():
    with pytest.raises(LexicalError) as exc:
        tokenize('String s = "oops;\n')
    assert exc.value.line == 1


def test_tokenize_unterminated_block_comment():
    with pytest.raises(LexicalError):
        tokenize("/* never ends")


@pytest.mark.parametrize("comment", ["// open", "/* c */"])
def test_end_of_input_column_follows_a_trailing_comment(comment):
    source = "class A { " + comment
    assert tokenize(source)[-1].column == len(source) + 1
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    assert (exc.value.line, exc.value.column) == (1, 18)


def test_tokenize_illegal_character():
    with pytest.raises(LexicalError) as exc:
        tokenize("int x = 5 % 2;")
    assert exc.value.column == 11


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def test_parse_empty_class():
    tree = parse_source("class A {}", file_name="A.java")
    assert tree.kind == aslt.COMPILATION_UNIT
    assert tree.attributes["file"] == "A.java"
    assert len(tree.children) == 1
    cls = tree.children[0]
    assert cls.kind == aslt.CLASS_DECLARATION
    assert cls.attributes == {"name": "A"}
    assert cls.children == ()


def test_parse_sample_caller_invocation_shape():
    tree = parse_source(SAMPLE_CALLER, file_name="SampleClassA.java")
    method = tree.children[0].children[0]
    block = method.children[-1]
    statement = block.children[2]
    assert statement.kind == aslt.EXPRESSION_STATEMENT
    call = statement.children[0]
    assert call.kind == aslt.METHOD_INVOKE_EXPRESSION
    assert call.attributes["name"] == "doSomething"
    receiver, arguments = call.children
    assert receiver.kind == aslt.IDENTIFIER_EXPRESSION
    assert receiver.attributes["name"] == "sampleClassB"
    assert arguments.kind == aslt.ARGUMENT_LIST
    assert [a.kind for a in arguments.children] == [aslt.IDENTIFIER_EXPRESSION]
    assert arguments.children[0].attributes["name"] == "str"


def test_parse_int_declaration_statement():
    tree = parse_source("class A { void m() { int number = 5; } }")
    declaration = tree.children[0].children[0].children[-1].children[0]
    assert declaration.kind == aslt.VARIABLE_DECLARATION
    type_node, declarator = declaration.children
    assert type_node.kind == aslt.TYPE_REFERENCE
    assert type_node.attributes["name"] == "int"
    assert declarator.kind == aslt.VARIABLE_DECLARATOR
    assert declarator.attributes["name"] == "number"
    literal = declarator.children[0]
    assert literal.kind == aslt.LITERAL_TAG
    assert literal.attributes == {"value": "5", "category": "integer"}


def test_parse_package_extends_implements():
    tree = parse_source("package a.b;\nclass A extends Base implements X, y.Z {}")
    package, cls = tree.children
    assert package.kind == aslt.PACKAGE_DECLARATION
    assert package.attributes["name"] == "a.b"
    assert cls.attributes["extends"] == "Base"
    assert cls.attributes["implements"] == "X,y.Z"


def test_parse_static_method_and_array_param():
    tree = parse_source("class A { static void main(String[] args) {} }")
    method = tree.children[0].children[0]
    assert method.attributes["static"] == "true"
    parameter = method.children[1]
    assert parameter.kind == aslt.PARAMETER_DECLARATION
    assert parameter.children[0].attributes == {"name": "String", "dims": "1"}


def test_parse_assignment_statement():
    tree = parse_source("class A { void m() { count = 5; } }")
    statement = tree.children[0].children[0].children[-1].children[0]
    assert statement.kind == aslt.EXPRESSION_STATEMENT
    assignment = statement.children[0]
    assert assignment.kind == aslt.SIMPLE_ASSIGNMENT_EXPRESSION
    target, value = assignment.children
    assert target.attributes["name"] == "count"
    assert value.kind == aslt.LITERAL_TAG


def test_parse_multi_declarator():
    tree = parse_source("class A { void m() { int a = 1, b; } }")
    declaration = tree.children[0].children[0].children[-1].children[0]
    assert [c.kind for c in declaration.children] == [
        aslt.TYPE_REFERENCE,
        aslt.VARIABLE_DECLARATOR,
        aslt.VARIABLE_DECLARATOR,
    ]


def test_parse_qualified_type_declaration():
    tree = parse_source("class A { void m() { java.lang.String s = \"x\"; } }")
    declaration = tree.children[0].children[0].children[-1].children[0]
    assert declaration.children[0].attributes["name"] == "java.lang.String"


def test_parse_nested_call_argument():
    tree = parse_source("class A { void m() { box.f(helper.g(), 5); } }")
    call = tree.children[0].children[0].children[-1].children[0].children[0]
    arguments = call.children[-1]
    assert [a.kind for a in arguments.children] == [
        aslt.METHOD_INVOKE_EXPRESSION,
        aslt.LITERAL_TAG,
    ]


def test_parse_bare_call_and_new():
    tree = parse_source("class A { void m() { run(); Widget w = new Widget(1); } }")
    block = tree.children[0].children[0].children[-1]
    bare = block.children[0].children[0]
    assert bare.kind == aslt.METHOD_INVOKE_EXPRESSION
    assert len(bare.children) == 1  # no receiver, only the argument list
    new_node = block.children[1].children[1].children[0]
    assert new_node.kind == aslt.NEW_OBJECT_EXPRESSION
    assert new_node.children[0].attributes["name"] == "Widget"


def test_parse_errors_report_position_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse_source("class A { void m() { int ; } }")
    assert exc.value.line == 1
    assert exc.value.expected


def test_parse_rejects_empty_source():
    with pytest.raises(ParseError):
        parse_source("")


def test_parse_rejects_void_variable():
    with pytest.raises(ParseError):
        parse_source("class A { void m() { void x; } }")


def test_parse_rejects_void_parameter():
    with pytest.raises(ParseError):
        parse_source("class A { void m(void x) {} }")


def test_parse_rejects_static_field():
    with pytest.raises(ParseError):
        parse_source("class A { static int x; }")


def test_span_sanity_children_inside_parents():
    tree = parse_source(SAMPLE_CALLER, file_name="S.java")

    def check(node):
        assert node.span is not None
        for child in node.children:
            assert (child.span.start_line, child.span.start_column) >= (
                node.span.start_line,
                node.span.start_column,
            )
            assert (child.span.end_line, child.span.end_column) <= (
                node.span.end_line,
                node.span.end_column,
            )
            check(child)

    check(tree)


def test_expression_kinds_use_configured_vocabulary():
    source = """class A {
    int n = 1;
    void m(int p) {
        int a = 2, b;
        b = helper.get();
        run(a, "s");
        Widget w = new Widget();
        return;
    }
}
"""
    tree = parse_source(source)
    kinds = {node.kind for node in iter_nodes(tree)}
    assert kinds <= aslt.NODE_KINDS
    for expected in (
        aslt.EXPRESSION_STATEMENT,
        aslt.IDENTIFIER_EXPRESSION,
        aslt.LITERAL_TAG,
        aslt.METHOD_INVOKE_EXPRESSION,
        aslt.SIMPLE_ASSIGNMENT_EXPRESSION,
        aslt.VARIABLE_DECLARATOR,
        aslt.VARIABLE_DECLARATION,
    ):
        assert expected in kinds


# ---------------------------------------------------------------------------
# Pretty printer round trip
# ---------------------------------------------------------------------------

def test_print_parse_fixpoint_simple():
    tree = parse_source("class A { void m ( ) { } }", file_name="A.java")
    assert parse_source(print_source(tree), file_name="A.java") == tree


def test_print_parse_fixpoint_sample_caller():
    tree = parse_source(SAMPLE_CALLER, file_name="S.java")
    assert parse_source(print_source(tree), file_name="S.java") == tree


def test_print_parse_fixpoint_random_trees():
    rng = random.Random(31_337)
    for _ in range(150):
        tree = random_program_tree(rng)
        printed = print_source(tree)
        assert parse_source(printed, file_name=tree.attributes["file"]) == tree


def test_print_rejects_malformed_tree():
    bad = AsltNode(
        aslt.COMPILATION_UNIT,
        {"file": "x"},
        (
            AsltNode(
                aslt.CLASS_DECLARATION,
                {"name": "A"},
                (AsltNode(aslt.METHOD_INVOKE_EXPRESSION, {"name": "m"}),),
            ),
        ),
    )
    with pytest.raises(MalformedTreeError):
        print_source(bad)


def test_print_rejects_invocation_without_argument_list():
    bad = AsltNode(
        aslt.COMPILATION_UNIT,
        {"file": "x"},
        (
            AsltNode(
                aslt.CLASS_DECLARATION,
                {"name": "A"},
                (
                    AsltNode(
                        aslt.FIELD_DECLARATION,
                        {"name": "f"},
                        (
                            AsltNode(aslt.TYPE_REFERENCE, {"name": "int"}),
                            AsltNode(aslt.METHOD_INVOKE_EXPRESSION, {"name": "m"}),
                        ),
                    ),
                ),
            ),
        ),
    )
    with pytest.raises(MalformedTreeError):
        print_source(bad)


# ---------------------------------------------------------------------------
# .aslt format round trip
# ---------------------------------------------------------------------------

def test_write_single_node():
    assert write_aslt(AsltNode(aslt.COMPILATION_UNIT, {"file": "X"})) == 'CompilationUnit file="X"\n'


def test_write_contains_invoke_line_at_depth():
    tree = parse_source(SAMPLE_CALLER, file_name="S.java")
    text = write_aslt(tree)
    # unit > class > method > block > statement > invocation = depth 5
    assert '\n          ASLTJavaMethodInvokeExpression name="doSomething"\n' in text


def test_read_write_round_trip_parsed_source():
    tree = parse_source(SAMPLE_CALLER, file_name="S.java")
    assert read_aslt(write_aslt(tree)) == tree


def test_read_write_round_trip_random_trees():
    rng = random.Random(90_210)
    for _ in range(200):
        tree = random_serial_tree(rng)
        assert read_aslt(write_aslt(tree)) == tree


def test_write_is_deterministic():
    rng = random.Random(8)
    tree = random_serial_tree(rng)
    assert write_aslt(tree) == write_aslt(tree)


def test_read_sets_line_anchored_spans():
    tree = read_aslt('CompilationUnit file="X"\n  ClassDeclaration name="A"\n', file_name="x.aslt")
    assert tree.span.file == "x.aslt"
    assert tree.span.start_line == 1
    assert tree.children[0].span.start_line == 2


@pytest.mark.parametrize(
    "text, line_number, message",
    [
        ("", 1, "no nodes"),
        ("   \n\n", 1, "no nodes"),
        ("NotAKind\n", 1, "unknown node kind 'NotAKind'"),
        (" CompilationUnit\n", 1, "indentation must be a multiple of two spaces"),
        (
            'CompilationUnit\n    ClassDeclaration name="A"\n',
            2,
            "indentation jumps more than one level",
        ),
        ("  CompilationUnit\n", 1, "the root node must not be indented"),
        ("CompilationUnit\nCompilationUnit\n", 2, "more than one root node"),
        ("CompilationUnit file=X\n", 1, "attribute 'file' must be written name=\"value\""),
        ('CompilationUnit file="X\n', 1, "unterminated value for attribute 'file'"),
        ('CompilationUnit file="X" file="Y"\n', 1, "duplicate attribute 'file'"),
        ('CompilationUnit file="\\x"\n', 1, "bad escape in attribute 'file'"),
        ('CompilationUnit 1bad="x"\n', 1, "expected an attribute name"),
        # Structure errors below the root, and a bad line after a bad structure.
        (
            'CompilationUnit\n  ClassDeclaration name="A"\n      Block\n',
            3,
            "indentation jumps more than one level",
        ),
        (
            'CompilationUnit\n  ClassDeclaration name="A"\n    Block\n  Block\n      Block\n',
            5,
            "indentation jumps more than one level",
        ),
        (
            'CompilationUnit\n  ClassDeclaration name="A"\n    Block\nCompilationUnit\n      Block\n',
            4,
            "more than one root node",
        ),
        ("CompilationUnit\nCompilationUnit\nNotAKind\n", 3, "unknown node kind 'NotAKind'"),
    ],
)
def test_read_rejects_malformed_text(text, line_number, message):
    with pytest.raises(AsltFormatError) as exc:
        read_aslt(text)
    assert exc.value.line_number == line_number
    assert str(exc.value) == f"line {line_number}: {message}"


# Pieces of node lines: the writer's output, near misses, non-ASCII word
# characters that str.isalnum() accepts ('é', '²') and identifier characters
# that it rejects (the undertie and a combining accent).
_LINE_KINDS = ("Block", "TypeReference", "ASLTJavaLiteralTag", "CompilationUnit", "Bogus")
_LINE_NAMES = ("name", "dims", "value", "_x", "a1", "é", "x²", "1a", "²", "a\u203fb", "e\u0301")
_VALUE_PIECES = ("a", "Z", " ", "\t", "=", "é", "²", "7", "\\n", '\\"', "\\\\", "n", "_")
_NOISE = (" ", "\t", "=", '"', "\\", "n", "_", "0", "9", "é", "²", "name", "dims", "Block")


def _random_node_line(rng: random.Random) -> str:
    line = rng.choice(_LINE_KINDS)
    for _ in range(rng.randrange(4)):
        value = "".join(rng.choice(_VALUE_PIECES) for _ in range(rng.randrange(4)))
        line += f' {rng.choice(_LINE_NAMES)}="{value}"'
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randrange(len(line) + 1)
        cut = at + rng.randrange(2)
        line = line[:at] + rng.choice(_NOISE + ("",)) + line[cut:]
    return line


def _line_outcome(parse, line):
    try:
        return parse(line, 7)
    except AsltFormatError as exc:
        return str(exc), exc.line_number


def test_line_fast_path_agrees_with_the_checking_loop(monkeypatch):
    checked = []

    def counting_check(rest, line_number):
        checked.append(rest)
        return aslt_check(rest, line_number)

    aslt_check = aslt._check_aslt_line
    monkeypatch.setattr(aslt, "_check_aslt_line", counting_check)
    rng = random.Random(0xA517)
    lines = 100_000
    for _ in range(lines):
        line = _random_node_line(rng)
        assert _line_outcome(aslt._parse_aslt_line, line) == _line_outcome(aslt_check, line), line
    # Both paths ran often: the fast one on clean lines, the loop on the rest.
    assert lines // 10 < len(checked) < lines - lines // 10


def test_read_error_carries_line_number():
    with pytest.raises(AsltFormatError) as exc:
        read_aslt('CompilationUnit\n  Bogus\n')
    assert exc.value.line_number == 2


# ---------------------------------------------------------------------------
# Nesting bound
# ---------------------------------------------------------------------------

def nested_calls(levels: int) -> str:
    """A call statement whose deepest node is ``4 + 2 * levels`` levels down."""
    return "class A { void m() { " + "f(" * levels + ")" * levels + "; } }"


def deepest_level(tree: AsltNode) -> int:
    lines = write_aslt(tree).splitlines()
    return max((len(line) - len(line.lstrip(" "))) // 2 for line in lines)


def blocks(levels: int) -> str:
    return "".join("  " * depth + "Block\n" for depth in range(levels + 1))


def test_parse_accepts_nesting_at_the_bound():
    tree = parse_source(nested_calls((aslt.MAX_DEPTH - 4) // 2))
    assert deepest_level(tree) == aslt.MAX_DEPTH
    assert read_aslt(write_aslt(tree)) == tree


@pytest.mark.parametrize("levels", [(aslt.MAX_DEPTH - 4) // 2 + 1, 2000])
def test_parse_rejects_nesting_past_the_bound(levels):
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_source(nested_calls(levels))


def test_read_accepts_nesting_at_the_bound():
    assert deepest_level(read_aslt(blocks(aslt.MAX_DEPTH))) == aslt.MAX_DEPTH


@pytest.mark.parametrize("levels", [aslt.MAX_DEPTH + 1, 3000])
def test_read_rejects_nesting_past_the_bound(levels):
    with pytest.raises(AsltFormatError, match="nesting deeper than") as exc:
        read_aslt(blocks(levels))
    assert exc.value.line_number == aslt.MAX_DEPTH + 2


def _recursive_preorder(node: AsltNode) -> list[AsltNode]:
    nodes = [node]
    for child in node.children:
        nodes.extend(_recursive_preorder(child))
    return nodes


def test_iter_nodes_is_preorder_on_random_trees():
    rng = random.Random(0x17E5)
    for _ in range(200):
        tree = random_serial_tree(rng) if rng.random() < 0.5 else random_program_tree(rng)
        assert [id(n) for n in iter_nodes(tree)] == [id(n) for n in _recursive_preorder(tree)]


def test_iter_nodes_reaches_the_bound():
    tree = read_aslt(blocks(aslt.MAX_DEPTH))
    nodes = list(iter_nodes(tree))
    assert len(nodes) == aslt.MAX_DEPTH + 1
    assert [id(n) for n in nodes] == [id(n) for n in _recursive_preorder(tree)]
    assert nodes[-1].span.start_line == aslt.MAX_DEPTH + 1


def array_field(dims: str) -> str:
    return (
        'CompilationUnit\n  ClassDeclaration name="A"\n    FieldDeclaration name="a"\n'
        f'      TypeReference dims="{dims}" name="int"\n'
    )


@pytest.mark.parametrize("dims", ["0", "7", "007", str(aslt.MAX_ARRAY_DIMS)])
def test_check_names_accepts_array_dimensions_up_to_the_bound(dims):
    aslt.check_names(read_aslt(array_field(dims)))


# The longest ones would make int() raise ValueError if it were asked first.
@pytest.mark.parametrize("dims", ["256", "0001", "10000000000", "9" * 5000, "0" * 5000 + "1"])
def test_check_names_rejects_too_many_array_dimensions(dims):
    tree = read_aslt(array_field(dims))
    with pytest.raises(AsltFormatError) as exc:
        aslt.check_names(tree)
    assert str(exc.value) == "line 4: dims must be at most 255, in at most three digits"


def test_parse_accepts_the_most_array_dimensions():
    dims = aslt.MAX_ARRAY_DIMS
    tree = parse_source(f"class A {{ int{'[]' * dims} a; }}")
    type_node = tree.children[0].children[0].children[0]
    assert type_node.attributes == {"name": "int", "dims": str(dims)}
    aslt.check_names(read_aslt(write_aslt(tree)))


def test_parse_rejects_too_many_array_dimensions():
    with pytest.raises(ParseError) as exc:
        parse_source(f"class A {{ void m(int{'[]' * (aslt.MAX_ARRAY_DIMS + 1)} a) {{ }} }}")
    assert str(exc.value) == f"1:18: array type with more than {aslt.MAX_ARRAY_DIMS} dimensions"


def test_check_names_accepts_parsed_trees():
    aslt.check_names(read_aslt(write_aslt(parse_source("class A { int[][] a; void m(B b) { } }"))))
    rng = random.Random(0xC4EC)
    for _ in range(100):
        aslt.check_names(random_program_tree(rng))


def test_node_constructor_rejects_unknown_kind():
    with pytest.raises(ValueError):
        AsltNode("FreeFormKind")


def test_token_dataclass_shape():
    token = Token("identifier", "abc", 3, 7)
    assert token.end_column == 10


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def test_records_are_slotted_and_frozen():
    span = Span("A.java", 1, 1, 1, 2)
    node = AsltNode(aslt.BLOCK, {}, (), span)
    token = Token("identifier", "x", 1, 1)
    for record, field_name in ((span, "file"), (node, "kind"), (token, "lexeme")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field_name, "y")


def test_node_equality_ignores_span():
    a = AsltNode(aslt.BLOCK, {}, (), Span("A.java", 1, 1, 1, 2))
    b = AsltNode(aslt.BLOCK, {}, (), Span("B.aslt", 7, 3, 9, 4))
    assert a == b
    assert a == AsltNode(aslt.BLOCK)
    assert a != AsltNode(aslt.BLOCK, {"name": "x"}, (), a.span)


def test_node_attributes_default_to_a_fresh_dict():
    first, second = AsltNode(aslt.BLOCK), AsltNode(aslt.BLOCK)
    assert first.attributes == {} and second.attributes == {}
    assert first.attributes is not second.attributes


def test_records_support_dataclasses_replace():
    span = Span("A.java", 1, 2, 3, 4)
    assert dataclasses.replace(span, end_column=9) == Span("A.java", 1, 2, 3, 9)
    token = Token("identifier", "x", 1, 2)
    assert dataclasses.replace(token, lexeme="yz") == Token("identifier", "yz", 1, 2)
    node = AsltNode(aslt.BLOCK, {"name": "a"}, (AsltNode(aslt.BLOCK),), span)
    renamed = dataclasses.replace(node, attributes={"name": "b"})
    assert renamed.attributes == {"name": "b"}
    assert renamed.children == node.children and renamed.span is span
    with pytest.raises(ValueError, match="unknown node kind 'Bogus'"):
        dataclasses.replace(node, kind="Bogus")


def test_records_keep_their_dataclass_repr_fields_and_hash():
    span = Span("A.java", 1, 2, 3, 4)
    token = Token("identifier", "x", 1, 2)
    node = AsltNode(aslt.BLOCK)
    assert repr(span) == (
        "Span(file='A.java', start_line=1, start_column=2, end_line=3, end_column=4)"
    )
    assert repr(token) == "Token(category='identifier', lexeme='x', line=1, column=2)"
    assert repr(node) == "AsltNode(kind='Block', attributes={}, children=(), span=None)"

    def shape(record_type):
        return [
            (f.name, f.default, f.default_factory, f.compare, f.init)
            for f in dataclasses.fields(record_type)
        ]

    missing = dataclasses.MISSING
    assert shape(Span) == [
        (name, missing, missing, True, True)
        for name in ("file", "start_line", "start_column", "end_line", "end_column")
    ]
    assert shape(Token) == [
        (name, missing, missing, True, True) for name in ("category", "lexeme", "line", "column")
    ]
    assert shape(AsltNode) == [
        ("kind", missing, missing, True, True),
        ("attributes", missing, dict, True, True),
        ("children", (), missing, True, True),
        ("span", None, missing, False, True),
    ]
    assert hash(span) == hash(("A.java", 1, 2, 3, 4))
    assert hash(token) == hash(("identifier", "x", 1, 2))
    with pytest.raises(TypeError):
        hash(node)  # the attributes dict takes part in equality


def test_parsed_spans_are_unchanged():
    source = (
        'class A {\n    B b = new B();\n    int m(String s) {\n'
        '        b.put("a\\"b", 1.5);\n        return b.get(s);\n    }\n}\n'
    )
    spans = [
        (node.kind, node.span)
        for node in iter_nodes(parse_source(source, file_name="A.java"))
    ]
    assert spans == [
        (kind, Span("A.java", *position))
        for kind, *position in [
            (aslt.COMPILATION_UNIT, 1, 1, 7, 2),
            (aslt.CLASS_DECLARATION, 1, 1, 7, 2),
            (aslt.FIELD_DECLARATION, 2, 5, 2, 19),
            (aslt.TYPE_REFERENCE, 2, 5, 2, 6),
            (aslt.NEW_OBJECT_EXPRESSION, 2, 11, 2, 18),
            (aslt.TYPE_REFERENCE, 2, 15, 2, 16),
            (aslt.ARGUMENT_LIST, 2, 16, 2, 18),
            (aslt.METHOD_DECLARATION, 3, 5, 6, 6),
            (aslt.TYPE_REFERENCE, 3, 5, 3, 8),
            (aslt.PARAMETER_DECLARATION, 3, 11, 3, 19),
            (aslt.TYPE_REFERENCE, 3, 11, 3, 17),
            (aslt.BLOCK, 3, 21, 6, 6),
            (aslt.EXPRESSION_STATEMENT, 4, 9, 4, 28),
            (aslt.METHOD_INVOKE_EXPRESSION, 4, 9, 4, 27),
            (aslt.IDENTIFIER_EXPRESSION, 4, 9, 4, 10),
            (aslt.ARGUMENT_LIST, 4, 14, 4, 27),
            (aslt.LITERAL_TAG, 4, 15, 4, 21),  # "a\"b" ends after its closing quote
            (aslt.LITERAL_TAG, 4, 23, 4, 26),
            (aslt.RETURN_STATEMENT, 5, 9, 5, 25),
            (aslt.METHOD_INVOKE_EXPRESSION, 5, 16, 5, 24),
            (aslt.IDENTIFIER_EXPRESSION, 5, 16, 5, 17),
            (aslt.ARGUMENT_LIST, 5, 21, 5, 24),
            (aslt.IDENTIFIER_EXPRESSION, 5, 22, 5, 23),
        ]
    ]
