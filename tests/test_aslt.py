import dataclasses
import random

import pytest

from compatcheck import aslt, cli
from compatcheck.analysis import UNCONSTRAINED, CallSite, MismatchKind, MismatchReport
from compatcheck.aslt import (
    AsltFormatError,
    AsltNode,
    LexicalError,
    Location,
    ParseError,
    Token,
    parse_source,
    read_aslt,
    tokenize,
    write_aslt,
)
from compatcheck.classfile import TypeName

from oracles import oracle_preorder, oracle_read_aslt
from printer import MalformedTreeError, print_source
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
    # A void local, field or parameter gets one message, at the type.
    for source, column in (
        ("class A { void m() { void x; } }", 22),
        ("class A { void x; }", 11),
        ("class A { void m(void x) {} }", 18),
    ):
        with pytest.raises(ParseError) as caught:
            parse_source(source)
        assert str(caught.value) == (
            f"1:{column}: void is only valid as a method return type (expected type name)"
        )


def test_parse_rejects_void_parameter():
    with pytest.raises(ParseError):
        parse_source("class A { void m(void x) {} }")


def test_parse_rejects_static_field():
    with pytest.raises(ParseError):
        parse_source("class A { static int x; }")


SHARING_SOURCE = """class A extends B {
    Widget w;
    int[][] grid;

    static int twice(int a) {
        Widget.make(1, 'c');
        run(1, "s");
        return a;
    }

    void a() {
    }
}
"""


def test_parse_shares_one_attribute_dict_per_spelling():
    tree = parse_source(SHARING_SOURCE, file_name="A.java")
    (unit_class,) = tree.children
    field_w, field_grid, twice, method_a = unit_class.children
    returned, parameter, body = twice.children
    make_call, run_call, return_statement = body.children
    receiver, make_arguments = make_call.children[0].children
    (run_arguments,) = run_call.children[0].children
    # Two int type references share one dict.
    assert returned.attributes is parameter.children[0].attributes == {"name": "int"}
    # A type and an identifier spelled alike share one {"name": ...} dict, and
    # so do every other node whose only attribute is that name.
    assert field_w.children[0].attributes is receiver.attributes == {"name": "Widget"}
    assert parameter.attributes is method_a.attributes is return_statement.children[0].attributes
    # Attribute-less kinds share the parse's one empty dict.
    assert make_arguments.attributes is run_arguments.attributes is body.attributes == {}
    assert make_call.attributes is return_statement.attributes
    # Equal literals share one dict; dims, literals and a static method keep their content.
    assert make_arguments.children[0].attributes is run_arguments.children[0].attributes
    assert make_arguments.children[0].attributes == {"value": "1", "category": "integer"}
    assert make_arguments.children[1].attributes == {"value": "'c'", "category": "char"}
    assert run_arguments.children[1].attributes == {"value": '"s"', "category": "string"}
    assert field_grid.children[0].attributes == {"name": "int", "dims": "2"}
    assert twice.attributes == {"name": "twice", "static": "true"}
    assert unit_class.attributes == {"name": "A", "extends": "B"}
    assert parse_source(print_source(tree), file_name="A.java") == tree
    assert write_aslt(tree) == write_aslt(parse_source(SHARING_SOURCE, file_name="A.java"))


def test_two_parses_share_no_attribute_dict():
    first = parse_source(SHARING_SOURCE, file_name="A.java")
    second = parse_source(SHARING_SOURCE, file_name="A.java")
    assert first == second
    first_dicts = {id(node.attributes) for node in oracle_preorder(first)}
    assert not first_dicts & {id(node.attributes) for node in oracle_preorder(second)}


def test_span_sanity_children_inside_parents():
    tree = parse_source(SAMPLE_CALLER, file_name="S.java")

    def check(node):
        assert node.span is not None
        for child in node.children:
            assert (child.span.line, child.span.column) >= (node.span.line, node.span.column)
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
    kinds = {node.kind for node in oracle_preorder(tree)}
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
    assert tree.span == Location("x.aslt", 1, 1)
    assert tree.children[0].span == Location("x.aslt", 2, 1)


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


def test_random_node_lines_read_back_or_raise_a_format_error():
    rng = random.Random(0xA517)
    lines = 100_000
    rejected = 0
    for _ in range(lines):
        line = _random_node_line(rng)
        try:
            kind, attributes = aslt._parse_aslt_line(line, 7)
        except AsltFormatError as exc:
            assert exc.line_number == 7, line
            assert str(exc).startswith("line 7: "), line
            rejected += 1
            continue
        node = AsltNode(kind, attributes)
        assert read_aslt(write_aslt(node)) == node, line
    # Both outcomes are common: the writer's shapes parse, near misses do not.
    assert lines // 10 < rejected < lines - lines // 10


def test_read_error_carries_line_number():
    with pytest.raises(AsltFormatError) as exc:
        read_aslt('CompilationUnit\n  Bogus\n')
    assert exc.value.line_number == 2


def test_repeated_lines_give_equal_nodes_that_share_their_attributes():
    body = 'ClassDeclaration name="A"'
    text = f"CompilationUnit\n  {body}\n  {body}\n    {body}\n"
    tree = read_aslt(text, file_name="T.aslt")
    first, second = tree.children
    nested = second.children[0]
    assert first == nested == AsltNode(aslt.CLASS_DECLARATION, {"name": "A"})
    # A repeated raw line shares its dict; the deeper line is a line of its own.
    assert first.attributes is second.attributes
    assert nested.attributes is not first.attributes
    assert [n.span for n in (first, second, nested)] == [
        Location("T.aslt", 2, 1),
        Location("T.aslt", 3, 1),
        Location("T.aslt", 4, 1),
    ]
    # A second read of the same text gets dicts of its own.
    again = read_aslt(text, file_name="T.aslt")
    assert again == tree
    first_dicts = {id(node.attributes) for node in oracle_preorder(tree)}
    assert not first_dicts & {id(node.attributes) for node in oracle_preorder(again)}


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ('  ClassDeclaration name="A\n', "unterminated value for attribute 'name'"),
        ('  ClassDeclaration name="A" name="A"\n', "duplicate attribute 'name'"),
        ('   ClassDeclaration name="A"\n', "indentation must be a multiple of two spaces"),
        ('      ClassDeclaration name="A"\n', "indentation jumps more than one level"),
        ('ClassDeclaration name="A"\n', "more than one root node"),
    ],
)
def test_error_after_many_repeated_lines_keeps_its_line_and_message(bad_line, message):
    text = "CompilationUnit\n" + '  ClassDeclaration name="A"\n' * 1000 + bad_line
    with pytest.raises(AsltFormatError) as exc:
        read_aslt(text)
    assert exc.value.line_number == 1002
    assert str(exc.value) == f"line 1002: {message}"


def test_line_error_below_a_structure_error_is_reported_first():
    body = '  ClassDeclaration name="A"\n'
    text = "CompilationUnit\n" + body * 3 + "      Block\n" + body * 3 + "  Bogus\n" + body
    with pytest.raises(AsltFormatError) as exc:
        read_aslt(text)
    assert str(exc.value) == "line 9: unknown node kind 'Bogus'"


def _read_outcome(reader, text: str):
    """The tree and every node's span, or the error's line number and message."""
    try:
        tree = reader(text, file_name="M.aslt")
    except AsltFormatError as exc:
        return "error", exc.line_number, str(exc)
    return "tree", tree, [node.span for node in oracle_preorder(tree)]


def _assert_reads_as_the_oracle(text: str):
    outcome = _read_outcome(read_aslt, text)
    assert outcome == _read_outcome(oracle_read_aslt, text), text
    return outcome


_INSERTED_LINES = (
    "", "  ", "   ", "\t", " \t ", "  Bogus", "    Block", "Block", 'CompilationUnit file="Z"'
)


def _mutate(rng: random.Random, lines: list[str]) -> str:
    """Apply one to three random edits to a written tree's lines."""
    lines = list(lines)
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(lines))
        edit = rng.randrange(7)
        if edit == 0:  # one or two spaces more or fewer of indentation
            spaces = " " * rng.randrange(1, 3)
            if rng.random() < 0.5:
                lines[at] = spaces + lines[at]
            else:
                lines[at] = lines[at].removeprefix(spaces)
        elif edit == 1 and len(lines) > 1:
            del lines[at]
        elif edit == 2:
            lines.insert(at, lines[at])
        elif edit == 3:  # a second root
            lines.insert(at, lines[0])
        elif edit == 4:
            lines.insert(at, rng.choice(_INSERTED_LINES))
        elif edit == 5 and '"' in lines[at]:  # drop one quote
            quotes = [i for i, c in enumerate(lines[at]) if c == '"']
            cut = rng.choice(quotes)
            lines[at] = lines[at][:cut] + lines[at][cut + 1 :]
        else:  # repeat a line somewhere else, at its own indentation
            lines.insert(rng.randrange(len(lines) + 1), lines[at])
    return "\n".join(lines)


def test_mutated_trees_read_as_the_two_pass_oracle():
    rng = random.Random(0x0A51)
    texts = 4000
    messages = set()
    trees = 0
    for _ in range(texts):
        tree = random_serial_tree(rng) if rng.random() < 0.3 else random_program_tree(rng)
        outcome = _assert_reads_as_the_oracle(_mutate(rng, write_aslt(tree).split("\n")))
        if outcome[0] == "tree":
            trees += 1
        else:
            messages.add(outcome[2].split(": ", 1)[1].split(" '")[0])
    assert texts // 10 < trees < texts - texts // 10
    assert {
        "the root node must not be indented",
        "more than one root node",
        "indentation jumps more than one level",
        "indentation must be a multiple of two spaces",
        "unknown node kind",
        "no nodes",
    } <= messages


_UNIT = "CompilationUnit\n"
_CLASS_A = '  ClassDeclaration name="A"\n'


@pytest.mark.parametrize(
    "text, line_number, message",
    [
        # Line 2 is read at depth 1 before the second root is held as a fault.
        (_UNIT + _CLASS_A + _UNIT + _CLASS_A, 3, "more than one root node"),
        (_UNIT + _CLASS_A + _UNIT + _CLASS_A + "  Bogus\n" + _CLASS_A, 5, "unknown node kind 'Bogus'"),
        (
            _UNIT + _CLASS_A + "      Block\n" + _CLASS_A + "      Block\n",
            3,
            "indentation jumps more than one level",
        ),
        # A repeated line is checked against the open nodes where it repeats.
        (
            _UNIT + _CLASS_A + "    Block\n      Block\n" + _CLASS_A + "      Block\n",
            6,
            "indentation jumps more than one level",
        ),
        ("  Block\n" + _CLASS_A + _UNIT + _CLASS_A, 1, "the root node must not be indented"),
    ],
)
def test_a_read_line_that_repeats_after_a_structure_fault(text, line_number, message):
    expected = ("error", line_number, f"line {line_number}: {message}")
    assert _assert_reads_as_the_oracle(text) == expected


def test_a_whitespace_only_line_that_repeats():
    gap = " \t \n"
    text = "CompilationUnit\n" + gap + "  Block\n" + gap + "  Block\n" + gap + "   \n   \n"
    outcome = _assert_reads_as_the_oracle(text)
    assert outcome[1] == AsltNode(aslt.COMPILATION_UNIT, {}, (AsltNode(aslt.BLOCK),) * 2)
    assert [span.line for span in outcome[2]] == [1, 3, 5]
    assert _assert_reads_as_the_oracle(gap * 3 + "\t\n" * 2) == ("error", 1, "line 1: no nodes")
    assert _assert_reads_as_the_oracle(gap * 2 + " Block\n") == (
        "error", 3, "line 3: indentation must be a multiple of two spaces"
    )


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


def test_explicit_stack_walks_reach_the_bound():
    # MAX_DEPTH nested blocks around a nameless TypeReference on the last line.
    text = blocks(aslt.MAX_DEPTH - 1) + "  " * aslt.MAX_DEPTH + "TypeReference\n"
    tree = read_aslt(text)
    assert len(oracle_preorder(tree)) == aslt.MAX_DEPTH + 1
    assert write_aslt(tree) == text
    with pytest.raises(AsltFormatError, match=f"^line {aslt.MAX_DEPTH + 1}: a TypeReference needs"):
        aslt.check_names(tree)


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


# print_source applies the bound of check_names to a tree read from .aslt.
@pytest.mark.parametrize(
    "dims, reason",
    [
        ("x", "dims must be a non-negative integer, not 'x'"),
        ("-1", "dims must be a non-negative integer, not '-1'"),
        ("256", "dims must be at most 255, in at most three digits"),
    ],
)
def test_print_source_rejects_the_dims_that_check_names_rejects(dims, reason):
    tree = read_aslt(array_field(dims))
    with pytest.raises(AsltFormatError) as checked:
        aslt.check_names(tree)
    with pytest.raises(MalformedTreeError) as printed:
        print_source(tree)
    assert str(checked.value) == f"line 4: {reason}"
    assert str(printed.value) == f"TypeReference: {reason}"


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


# A local declaration is told from an expression by a look ahead over the
# tokens, so a type with too many dimensions fails there as it does elsewhere.
@pytest.mark.parametrize("type_name", ["A", "a.b.C", "int"])
def test_parse_rejects_too_many_array_dimensions_in_a_local_declaration(type_name):
    dims = "[]" * (aslt.MAX_ARRAY_DIMS + 1)
    with pytest.raises(ParseError) as exc:
        parse_source(f"class A {{ void m() {{ {type_name}{dims} x = y; }} }}")
    assert str(exc.value) == f"1:22: array type with more than {aslt.MAX_ARRAY_DIMS} dimensions"


def test_check_names_accepts_parsed_trees():
    aslt.check_names(read_aslt(write_aslt(parse_source("class A { int[][] a; void m(B b) { } }"))))
    rng = random.Random(0xC4EC)
    for _ in range(100):
        aslt.check_names(random_program_tree(rng))


def _first_name_error(tree):
    """The message of check_names on the first node, in recursive preorder,
    that fails on its own."""
    for node in oracle_preorder(tree):
        try:
            aslt.check_names(AsltNode(node.kind, node.attributes, (), node.span))
        except AsltFormatError as exc:
            return str(exc)
    return None


def test_check_names_raises_the_first_error_in_preorder():
    rng = random.Random(0xF125)
    several = 0
    for _ in range(400):
        tree = read_aslt(write_aslt(random_serial_tree(rng)))
        try:
            aslt.check_names(tree)
            raised = None
        except AsltFormatError as exc:
            raised = str(exc)
        assert raised == _first_name_error(tree)
        several += sum(_first_name_error(node) is not None for node in tree.children) > 1
    assert several > 20


def test_check_names_blames_a_deeper_node_that_comes_first_in_preorder():
    # Visited level by level, the nameless class on line 5 comes before the
    # type on line 4; in preorder the type comes first, and it is blamed.
    text = (
        'CompilationUnit\n  ClassDeclaration name="A"\n    FieldDeclaration name="a"\n'
        '      TypeReference dims="256" name="int"\n  ClassDeclaration name=""\n'
    )
    with pytest.raises(AsltFormatError) as exc:
        aslt.check_names(read_aslt(text))
    assert str(exc.value) == "line 4: dims must be at most 255, in at most three digits"
    with pytest.raises(AsltFormatError) as exc:
        aslt.check_names(read_aslt(text.replace(' dims="256"', "")))
    assert str(exc.value) == "line 5: a ClassDeclaration needs a non-empty name"


def test_node_constructor_rejects_unknown_kind():
    with pytest.raises(ValueError):
        AsltNode("FreeFormKind")


def test_token_dataclass_shape():
    token = Token("identifier", "abc", 3, 7)
    assert (token.category, token.lexeme, token.line, token.column) == ("identifier", "abc", 3, 7)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def test_records_are_slotted():
    location = Location("A.java", 1, 1)
    call = CallSite("A", TypeName("B"), "f", (), UNCONSTRAINED, location)
    report = MismatchReport(
        MismatchKind.UNKNOWN_CLASS, "A", None, "f", None, None, None, None, location
    )
    records = (
        location,
        AsltNode(aslt.BLOCK, {}, (), location),
        Token("identifier", "x", 1, 1),
        call,
        report,
    )
    for record in records:
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.undeclared = "y"


def test_node_equality_ignores_span():
    a = AsltNode(aslt.BLOCK, {}, (), Location("A.java", 1, 1))
    b = AsltNode(aslt.BLOCK, {}, (), Location("B.aslt", 7, 3))
    assert a == b
    assert a == AsltNode(aslt.BLOCK)
    assert a != AsltNode(aslt.BLOCK, {"name": "x"}, (), a.span)


def test_node_attributes_default_to_a_fresh_dict():
    first, second = AsltNode(aslt.BLOCK), AsltNode(aslt.BLOCK)
    assert first.attributes == {} and second.attributes == {}
    assert first.attributes is not second.attributes


def test_records_support_dataclasses_replace():
    span = Location("A.java", 1, 2)
    assert dataclasses.replace(span, column=9) == Location("A.java", 1, 9)
    token = Token("identifier", "x", 1, 2)
    assert dataclasses.replace(token, lexeme="yz") == Token("identifier", "yz", 1, 2)
    node = AsltNode(aslt.BLOCK, {"name": "a"}, (AsltNode(aslt.BLOCK),), span)
    renamed = dataclasses.replace(node, attributes={"name": "b"})
    assert renamed.attributes == {"name": "b"}
    assert renamed.children == node.children and renamed.span is span
    with pytest.raises(ValueError, match="unknown node kind 'Bogus'"):
        dataclasses.replace(node, kind="Bogus")


def test_nodes_built_without_attributes_get_a_dict_each():
    first, second = AsltNode(aslt.BLOCK), AsltNode(aslt.BLOCK)
    assert first.attributes == {} and first.attributes is not second.attributes


def test_records_keep_their_dataclass_repr_fields_and_hash():
    span = Location("A.java", 1, 2)
    token = Token("identifier", "x", 1, 2)
    node = AsltNode(aslt.BLOCK)
    assert repr(span) == "Location(file='A.java', line=1, column=2)"
    assert repr(token) == "Token(category='identifier', lexeme='x', line=1, column=2)"
    assert repr(node) == "AsltNode(kind='Block', attributes={}, children=(), span=None)"

    def shape(record_type):
        return [
            (f.name, f.default, f.default_factory, f.compare, f.init)
            for f in dataclasses.fields(record_type)
        ]

    missing = dataclasses.MISSING
    assert shape(Location) == [
        (name, missing, missing, True, True) for name in ("file", "line", "column")
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
    assert hash(span) == hash(("A.java", 1, 2))
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
        for node in oracle_preorder(parse_source(source, file_name="A.java"))
    ]
    assert spans == [
        (kind, Location("A.java", *position))
        for kind, *position in [
            (aslt.COMPILATION_UNIT, 1, 1),
            (aslt.CLASS_DECLARATION, 1, 1),
            (aslt.FIELD_DECLARATION, 2, 5),
            (aslt.TYPE_REFERENCE, 2, 5),
            (aslt.NEW_OBJECT_EXPRESSION, 2, 11),
            (aslt.TYPE_REFERENCE, 2, 15),
            (aslt.ARGUMENT_LIST, 2, 16),
            (aslt.METHOD_DECLARATION, 3, 5),
            (aslt.TYPE_REFERENCE, 3, 5),
            (aslt.PARAMETER_DECLARATION, 3, 11),
            (aslt.TYPE_REFERENCE, 3, 11),
            (aslt.BLOCK, 3, 21),
            (aslt.EXPRESSION_STATEMENT, 4, 9),
            (aslt.METHOD_INVOKE_EXPRESSION, 4, 9),
            (aslt.IDENTIFIER_EXPRESSION, 4, 9),
            (aslt.ARGUMENT_LIST, 4, 14),
            (aslt.LITERAL_TAG, 4, 15),
            (aslt.LITERAL_TAG, 4, 23),
            (aslt.RETURN_STATEMENT, 5, 9),
            (aslt.METHOD_INVOKE_EXPRESSION, 5, 16),
            (aslt.IDENTIFIER_EXPRESSION, 5, 16),
            (aslt.ARGUMENT_LIST, 5, 21),
            (aslt.IDENTIFIER_EXPRESSION, 5, 22),
        ]
    ]


# ---------------------------------------------------------------------------
# Parser invariants
# ---------------------------------------------------------------------------

def _sample_sources() -> list[str]:
    rng = random.Random(0x1E4E)
    sources = [print_source(random_program_tree(rng)) for _ in range(200)]
    return sources + list(cli._TESTBED_SOURCES.values())


def test_reserved_lexemes_have_one_category():
    # The parser matches keywords, punctuation and '=' by lexeme alone.
    reserved = {word: "keyword" for word in aslt.KEYWORDS}
    reserved.update((mark, "punctuation") for mark in ";,(){}[].")
    reserved["="] = "operator"
    seen = set()
    for source in _sample_sources():
        for token in tokenize(source):
            if token.lexeme in reserved:
                assert token.category == reserved[token.lexeme], token
                seen.add(token.lexeme)
            else:
                assert token.category not in ("keyword", "punctuation", "operator"), token
    assert seen == set(reserved)


def test_parse_builds_one_span_per_node(monkeypatch):
    # Parsing and reading each build one Location per node.  Each record
    # stores its file once, whether a constructor or slot stores build it.
    made = []

    class CountingLocation(Location):
        __slots__ = ()

        def __setattr__(self, name, value):
            if name == "file":
                made.append(None)
            super().__setattr__(name, value)

    monkeypatch.setattr(aslt, "Location", CountingLocation)
    for source in _sample_sources():
        made.clear()
        tree = parse_source(source, file_name="F.java")
        nodes = len(oracle_preorder(tree))
        assert len(made) == nodes
        text = write_aslt(tree)
        made.clear()
        read_aslt(text, file_name="F.aslt")
        assert len(made) == nodes


_MUTATION_LEXEMES = (
    sorted(aslt.KEYWORDS)
    + list(";,(){}[].=")
    + ["a", "b", "Foo", "util", "1", "2.5", '"s"', "'c'", "true"]
)


def test_token_mutations_parse_or_raise_a_parse_error():
    rng = random.Random(0x3A7E)
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(2000):
        lexemes = [t.lexeme for t in tokenize(print_source(random_program_tree(rng)))[:-1]]
        for _ in range(rng.randrange(1, 4)):
            index = rng.randrange(len(lexemes))
            roll = rng.randrange(4)
            if roll == 0:
                del lexemes[index]
            elif roll == 1:
                lexemes.insert(index, rng.choice(_MUTATION_LEXEMES))
            elif roll == 2:
                lexemes[index] = rng.choice(_MUTATION_LEXEMES)
            else:
                lexemes.insert(index, lexemes[index])
        source = "".join(lexeme + rng.choice((" ", "\n")) for lexeme in lexemes)
        try:
            tree = parse_source(source, file_name="M.java")
        except (ParseError, LexicalError):
            outcomes["rejected"] += 1
            continue
        assert parse_source(print_source(tree), file_name="M.java") == tree
        outcomes["parsed"] += 1
    assert outcomes["parsed"] > 0 and outcomes["rejected"] > 0
