"""The hierarchical source representation and its transforms.

Source text of the subject-language subset is lexed and parsed into a tree
of :class:`AsltNode`; the tree can be dumped to the line-oriented ``.aslt``
file format and re-read from it with its full structure (positions
excepted), so no information is lost in either direction.  Nothing here
prints a tree back to source; the tests do that with ``tests/printer.py``.

The supported grammar::

    unit        := package? class+
    package     := "package" qualified ";"
    class       := "class" IDENT ("extends" qualified)?
                   ("implements" qualified ("," qualified)*)? "{" member* "}"
    member      := field | method
    field       := type IDENT ("=" expr)? ";"
    method      := "static"? type IDENT "(" (param ("," param)*)? ")" block
    param       := type IDENT
    block       := "{" statement* "}"
    statement   := vardecl | assignment | exprstmt | return
    vardecl     := type declarator ("," declarator)* ";"
    declarator  := IDENT ("=" expr)?
    assignment  := IDENT "=" expr ";"
    exprstmt    := expr ";"
    return      := "return" expr? ";"
    expr        := literal | "new" type "(" args ")"
                 | (IDENT ".")? IDENT "(" args ")" | IDENT
    type        := (primitive | qualified) ("[" "]")*
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# --- node kinds (closed enumeration) ---------------------------------------

COMPILATION_UNIT = "CompilationUnit"
PACKAGE_DECLARATION = "PackageDeclaration"
CLASS_DECLARATION = "ClassDeclaration"
FIELD_DECLARATION = "FieldDeclaration"
METHOD_DECLARATION = "MethodDeclaration"
PARAMETER_DECLARATION = "ParameterDeclaration"
BLOCK = "Block"
EXPRESSION_STATEMENT = "ASLTJavaExpressionStatement"
IDENTIFIER_EXPRESSION = "ASLTJavaIdentifierExpression"
LITERAL_TAG = "ASLTJavaLiteralTag"
METHOD_INVOKE_EXPRESSION = "ASLTJavaMethodInvokeExpression"
SIMPLE_ASSIGNMENT_EXPRESSION = "ASLTJavaSimpleAssignmentOperatorExpression"
VARIABLE_DECLARATOR = "ASLTJavaVariableDeclarator"
VARIABLE_DECLARATION = "ASLTJavaVariableDeclaration"
NEW_OBJECT_EXPRESSION = "NewObjectExpression"
RETURN_STATEMENT = "ReturnStatement"
ARGUMENT_LIST = "ArgumentList"
TYPE_REFERENCE = "TypeReference"

NODE_KINDS = frozenset(
    {
        COMPILATION_UNIT,
        PACKAGE_DECLARATION,
        CLASS_DECLARATION,
        FIELD_DECLARATION,
        METHOD_DECLARATION,
        PARAMETER_DECLARATION,
        BLOCK,
        EXPRESSION_STATEMENT,
        IDENTIFIER_EXPRESSION,
        LITERAL_TAG,
        METHOD_INVOKE_EXPRESSION,
        SIMPLE_ASSIGNMENT_EXPRESSION,
        VARIABLE_DECLARATOR,
        VARIABLE_DECLARATION,
        NEW_OBJECT_EXPRESSION,
        RETURN_STATEMENT,
        ARGUMENT_LIST,
        TYPE_REFERENCE,
    }
)

PRIMITIVE_TYPE_KEYWORDS = frozenset(
    {"int", "long", "short", "byte", "char", "boolean", "float", "double", "void"}
)

KEYWORDS = frozenset(
    {"package", "class", "extends", "implements", "static", "return", "new"}
) | PRIMITIVE_TYPE_KEYWORDS

# Deepest node level (the root is level 0) that the parser and the .aslt
# reader accept.  Recursive walks over a tree, node equality and repr
# included, take at most four frames per level, so the bound keeps every one
# of them well under the interpreter's default recursion limit of 1000.
MAX_DEPTH = 100

# Most array dimensions a type may have: the JVM's limit on array types
# (JVMS 4.3.2, 4.4.1).  It also bounds the text a report prints for a type.
MAX_ARRAY_DIMS = 255

LITERAL_CATEGORIES = {
    "integer-literal": "integer",
    "floating-literal": "floating",
    "string-literal": "string",
    "char-literal": "char",
    "boolean-literal": "boolean",
}


class AsltError(Exception):
    """Base for everything this module raises."""


class LexicalError(AsltError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(AsltError):
    def __init__(self, message: str, line: int, column: int, expected: frozenset[str] = frozenset()):
        suffix = f" (expected {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{line}:{column}: {message}{suffix}")
        self.line = line
        self.column = column
        self.expected = expected


class AsltFormatError(AsltError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(slots=True, unsafe_hash=True)
class Location:
    """Where a node, call or report starts; read-only by convention, never assigned once built."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(slots=True)
class AsltNode:
    """One tree node: a kind, string attributes, and owned children.

    The ``span`` is where the node starts, in the source or ``.aslt`` file
    it was read from.  It is provenance and excluded from equality, so
    structural comparison ignores positions by construction.  Unhashable,
    since the attributes dict takes part in equality.  Read-only by
    convention: only :func:`read_aslt` assigns a field after construction,
    the ``children`` of a node it still holds open.  The attributes dict is
    read-only too: the nodes of one tree that have equal attributes may hold
    the same dict, so an edited copy is made with ``dataclasses.replace(node,
    attributes={**node.attributes, ...})``.
    """

    kind: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: tuple["AsltNode", ...] = ()
    span: Location | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")

    def first(self, kind: str) -> "AsltNode | None":
        for child in self.children:
            if child.kind == kind:
                return child
        return None


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

END_OF_INPUT = "end-of-input"

_PUNCTUATION = frozenset(";,(){}[].")

# The blanks that start a line, skipped in one match after each newline.
_INDENTATION = re.compile(r"[ \t\r]*")

# The literals, each matched whole from its first character.  A number is
# spelled in ASCII digits (JLS 3.10.1-2).  A string literal ends on the line
# where it starts.  A char literal holds one character or escape and no line
# break: an octal escape up to \377 (JLS 3.10.7), a Unicode escape (JLS
# 3.3), or any other character after the backslash, taken as a one-character
# escape.
_NUMBER = re.compile(r"[0-9]+(\.[0-9]+)?")
_STRING = re.compile(r'"(?:[^"\\\n]|\\.)*"')
_CHAR = re.compile(r"'(?:[^'\\\n]|\\(?:[0-3][0-7]{0,2}|[4-7][0-7]?|u+[0-9A-Fa-f]{4}|.))'")


def tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """Lex source text; comments and whitespace are discarded.

    Each token is a plain tuple ``(category, lexeme, line, column)``: the
    category (``"identifier"``, ``"keyword"``, ``"punctuation"``,
    ``"operator"``, a key of :data:`LITERAL_CATEGORIES` or
    :data:`END_OF_INPUT`), the lexeme, and the 1-based line and column where
    it starts.  String and char literals keep their quoted lexemes.  The
    stream always ends with an end-of-input token, whose lexeme is empty.
    """
    tokens: list[tuple[str, str, int, int]] = []
    indentation = _INDENTATION.match
    line, column = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            j = indentation(source, i + 1).end()
            column = j - i
            i = j
            continue
        if c in " \t\r":
            column += 1
            i += 1
            continue
        if c == "/" and source.startswith("//", i):
            j = source.find("\n", i)
            j = n if j < 0 else j
            column += j - i
            i = j
            continue
        if c == "/" and source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise LexicalError("unterminated block comment", line, column)
            j += 2
            newlines = source.count("\n", i, j)
            if newlines:
                line += newlines
                column = j - source.rfind("\n", i, j)
            else:
                column += j - i
            i = j
            continue

        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word in ("true", "false"):
                category = "boolean-literal"
            elif word in KEYWORDS:
                category = "keyword"
            else:
                category = "identifier"
            tokens.append((category, word, line, column))
            column += j - i
            i = j
            continue
        if c in "0123456789":
            literal = _NUMBER.match(source, i)
            category = "floating-literal" if literal[1] else "integer-literal"
        elif c == '"':
            literal = _STRING.match(source, i)
            if literal is None:
                raise LexicalError("unterminated string literal", line, column)
            category = "string-literal"
        elif c == "'":
            literal = _CHAR.match(source, i)
            if literal is None:
                raise LexicalError("malformed char literal", line, column)
            category = "char-literal"
        elif c in _PUNCTUATION:
            tokens.append(("punctuation", c, line, column))
            column += 1
            i += 1
            continue
        elif c == "=":
            tokens.append(("operator", "=", line, column))
            column += 1
            i += 1
            continue
        else:
            raise LexicalError(f"illegal character {c!r}", line, column)
        lexeme = literal.group()
        tokens.append((category, lexeme, line, column))
        column += len(lexeme)
        i += len(lexeme)
    tokens.append((END_OF_INPUT, "", line, column))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _SharedAttributes(dict):
    """One parse's attribute dicts, one per distinct spelling.

    A key is a name, for ``{"name": name}``; a ``(name, dims)`` pair, for an
    array type; or a ``(lexeme, category)`` pair, for a literal.  Dims are
    ints and categories strings, so no two kinds of key collide.
    """

    def __missing__(self, key: str | tuple[str, int] | tuple[str, str]) -> dict[str, str]:
        if isinstance(key, str):
            attributes = {"name": key}
        elif isinstance(key[1], int):
            attributes = {"name": key[0], "dims": str(key[1])}
        else:
            attributes = {"value": key[0], "category": key[1]}
        self[key] = attributes
        return attributes


class _Parser:
    """Recursive descent over the token tuples of :func:`tokenize`, one
    method per grammar rule.

    Tokens are matched by lexeme alone.  That is sound because no
    identifier, literal or end-of-input token can carry the lexeme of a
    keyword, a punctuation mark or ``=``: a keyword always lexes as a
    keyword, literals start with a digit or a quote or are ``true`` or
    ``false``, and end-of-input has the empty lexeme, which nothing matches.
    The position never passes end-of-input, so a token that is not the last
    one always has a successor, and the grammar reads it without a bounds
    check.

    Nodes with equal attributes share one dict, taken from ``shared`` (or
    ``empty``, for the kinds with no attributes); only the unit, a class
    and a static method get a dict of their own.  Both live as long as the
    parser, so no two parses share a dict.
    """

    def __init__(self, tokens: list[tuple[str, str, int, int]], file_name: str):
        self.tokens = tokens
        self.pos = 0
        self.file_name = file_name
        self.shared = _SharedAttributes()
        self.empty: dict[str, str] = {}

    # --- token plumbing ---

    def take(self, lexeme: str) -> bool:
        if self.tokens[self.pos][1] == lexeme:
            self.pos += 1
            return True
        return False

    def expect(self, lexeme: str) -> tuple[str, str, int, int]:
        token = self.tokens[self.pos]
        if token[1] != lexeme:
            self.fail({repr(lexeme)})
        self.pos += 1
        return token

    def identifier(self) -> tuple[str, str, int, int]:
        token = self.tokens[self.pos]
        if token[0] != "identifier":
            self.fail({"identifier"})
        self.pos += 1
        return token

    def fail(self, expected: set[str], message: str | None = None):
        category, lexeme, line, column = self.tokens[self.pos]
        got = lexeme if category != END_OF_INPUT else "end of input"
        raise ParseError(message or f"unexpected {got!r}", line, column, frozenset(expected))

    def node(
        self,
        kind: str,
        attributes: dict[str, str],
        children: tuple[AsltNode, ...],
        start: tuple[str, str, int, int],
    ) -> AsltNode:
        """A node whose span is where the token ``start`` begins.

        The node holds ``attributes`` itself, the same dict, not a copy.
        The node and its span are made with ``object.__new__`` and plain
        attribute stores, as :func:`read_aslt` makes them: the parser passes
        only this module's kind constants, so the constructor's kind check
        is skipped.
        """
        node = object.__new__(AsltNode)
        node.kind = kind
        node.attributes = attributes
        node.children = children
        node.span = span = object.__new__(Location)
        span.file = self.file_name
        _, _, span.line, span.column = start
        return node

    # --- grammar ---

    def compilation_unit(self) -> AsltNode:
        start = self.tokens[0]
        children: list[AsltNode] = []
        if start[1] == "package":
            children.append(self.package_declaration())
        children.append(self.class_declaration())
        end = len(self.tokens) - 1
        while self.pos < end:
            children.append(self.class_declaration())
        return self.node(COMPILATION_UNIT, {"file": self.file_name}, tuple(children), start)

    def package_declaration(self) -> AsltNode:
        start = self.expect("package")
        name = self.qualified_name()
        self.expect(";")
        return self.node(PACKAGE_DECLARATION, self.shared[name], (), start)

    def qualified_name(self) -> str:
        name = self.identifier()[1]
        tokens, pos = self.tokens, self.pos
        while tokens[pos][1] == "." and tokens[pos + 1][0] == "identifier":
            name += "." + tokens[pos + 1][1]
            pos += 2
        self.pos = pos
        return name

    def class_declaration(self) -> AsltNode:
        start = self.expect("class")
        attributes = {"name": self.identifier()[1]}
        if self.take("extends"):
            attributes["extends"] = self.qualified_name()
        if self.take("implements"):
            names = [self.qualified_name()]
            while self.take(","):
                names.append(self.qualified_name())
            attributes["implements"] = ",".join(names)
        self.expect("{")
        members: list[AsltNode] = []
        while not self.take("}"):
            members.append(self.member())
        return self.node(CLASS_DECLARATION, attributes, tuple(members), start)

    def member(self) -> AsltNode:
        start = self.tokens[self.pos]
        static = self.take("static")
        declared = self.type_reference()
        name = self.identifier()[1]
        if self.tokens[self.pos][1] == "(":
            return self.method_rest(start, static, declared, name)
        if static:
            self.fail({"'('"}, "only methods may be static")
        self.reject_void(declared, start)
        initializer: tuple[AsltNode, ...] = ()
        if self.take("="):
            initializer = (self.expression(3),)
        self.expect(";")
        return self.node(FIELD_DECLARATION, self.shared[name], (declared,) + initializer, start)

    def method_rest(
        self, start: tuple[str, str, int, int], static: bool, declared: AsltNode, name: str
    ) -> AsltNode:
        attributes = {"name": name, "static": "true"} if static else self.shared[name]
        self.pos += 1  # '(', seen by member()
        parameters: list[AsltNode] = []
        if not self.take(")"):
            parameters.append(self.parameter())
            while self.take(","):
                parameters.append(self.parameter())
            self.expect(")")
        body = self.block()
        children = (declared, *parameters, body)
        return self.node(METHOD_DECLARATION, attributes, children, start)

    def parameter(self) -> AsltNode:
        start = self.tokens[self.pos]
        declared = self.type_reference()
        self.reject_void(declared, start)
        name = self.identifier()[1]
        return self.node(PARAMETER_DECLARATION, self.shared[name], (declared,), start)

    def reject_void(self, declared: AsltNode, start: tuple[str, str, int, int]) -> None:
        if declared.attributes["name"] == "void":
            _, _, line, column = start
            raise ParseError(
                "void is only valid as a method return type", line, column, frozenset({"type name"})
            )

    def type_reference(self) -> AsltNode:
        start = self.tokens[self.pos]
        category, lexeme, line, column = start
        if category == "identifier":
            base = self.qualified_name()
        elif lexeme in PRIMITIVE_TYPE_KEYWORDS:
            base = lexeme
            self.pos += 1
        else:
            return self.fail({"type name"})
        tokens, pos, dims = self.tokens, self.pos, 0
        while tokens[pos][1] == "[" and tokens[pos + 1][1] == "]":
            pos += 2
            dims += 1
        self.pos = pos
        if base == "void" and dims:
            raise ParseError("array of void is not a type", line, column)
        if dims > MAX_ARRAY_DIMS:
            raise ParseError(f"array type with more than {MAX_ARRAY_DIMS} dimensions", line, column)
        attributes = self.shared[base, dims] if dims else self.shared[base]
        return self.node(TYPE_REFERENCE, attributes, (), start)

    def block(self) -> AsltNode:
        start = self.expect("{")
        statements: list[AsltNode] = []
        while not self.take("}"):
            statements.append(self.statement())
        return self.node(BLOCK, self.empty, tuple(statements), start)

    def statement(self) -> AsltNode:
        start = self.tokens[self.pos]
        category, lexeme, _, _ = start
        if category == "identifier":
            if self.declaration_follows():
                return self.variable_declaration()
            if self.tokens[self.pos + 1][1] == "=":
                return self.assignment_statement()
        elif lexeme == "return":
            return self.return_statement()
        elif lexeme in PRIMITIVE_TYPE_KEYWORDS:
            return self.variable_declaration()
        elif category == END_OF_INPUT:
            self.fail({"statement"})
        expression = self.expression(5)
        self.expect(";")
        return self.node(EXPRESSION_STATEMENT, self.empty, (expression,), start)

    def declaration_follows(self) -> bool:
        """Whether the tokens from the current one, an identifier, begin
        ``IDENT ("." IDENT)* ("[" "]")* IDENT``: a variable declaration."""
        tokens, pos = self.tokens, self.pos + 1
        while tokens[pos][1] == "." and tokens[pos + 1][0] == "identifier":
            pos += 2
        while tokens[pos][1] == "[" and tokens[pos + 1][1] == "]":
            pos += 2
        return tokens[pos][0] == "identifier"

    def variable_declaration(self) -> AsltNode:
        start = self.tokens[self.pos]
        declared = self.type_reference()
        self.reject_void(declared, start)
        declarators = [self.declarator()]
        while self.take(","):
            declarators.append(self.declarator())
        self.expect(";")
        return self.node(VARIABLE_DECLARATION, self.empty, (declared, *declarators), start)

    def declarator(self) -> AsltNode:
        start = self.identifier()
        initializer: tuple[AsltNode, ...] = ()
        if self.take("="):
            initializer = (self.expression(6),)
        return self.node(VARIABLE_DECLARATOR, self.shared[start[1]], initializer, start)

    def assignment_statement(self) -> AsltNode:
        start = self.tokens[self.pos]
        self.pos += 1  # the identifier, then '=', both seen by statement()
        target = self.node(IDENTIFIER_EXPRESSION, self.shared[start[1]], (), start)
        self.pos += 1
        value = self.expression(6)
        assignment = self.node(SIMPLE_ASSIGNMENT_EXPRESSION, self.empty, (target, value), start)
        self.expect(";")
        return self.node(EXPRESSION_STATEMENT, self.empty, (assignment,), start)

    def return_statement(self) -> AsltNode:
        start = self.tokens[self.pos]
        self.pos += 1  # 'return', seen by statement()
        value: tuple[AsltNode, ...] = ()
        if self.tokens[self.pos][1] != ";":
            value = (self.expression(5),)
        self.expect(";")
        return self.node(RETURN_STATEMENT, self.empty, value, start)

    def expression(self, depth: int) -> AsltNode:
        """An expression whose node sits ``depth`` levels below the root.

        Statements are at level 4 (unit, class, method, block), so their
        expressions start at level 5 or 6; a field initializer is at 3.
        """
        if depth > MAX_DEPTH:
            self.fail(set(), f"nesting deeper than {MAX_DEPTH} levels")
        tokens, pos = self.tokens, self.pos
        token = tokens[pos]
        category, lexeme, _, _ = token
        if category == "identifier":
            following = tokens[pos + 1][1]
            if following == "(":
                return self.invocation(depth, None, token)
            self.pos = pos + 1
            name = self.node(IDENTIFIER_EXPRESSION, self.shared[lexeme], (), token)
            if (
                following == "."
                and tokens[pos + 2][0] == "identifier"
                and tokens[pos + 3][1] == "("
            ):
                self.pos = pos + 2
                return self.invocation(depth, name, token)
            return name
        if category in LITERAL_CATEGORIES:
            self.pos = pos + 1
            attributes = self.shared[lexeme, LITERAL_CATEGORIES[category]]
            return self.node(LITERAL_TAG, attributes, (), token)
        if lexeme == "new":
            return self.new_expression(depth)
        return self.fail({"expression"})

    def invocation(
        self, depth: int, receiver: AsltNode | None, start: tuple[str, str, int, int]
    ) -> AsltNode:
        """A call whose name is the current token, an identifier followed by '('."""
        name = self.tokens[self.pos][1]
        self.pos += 1
        arguments = self.argument_list(depth + 1)
        children = (receiver, arguments) if receiver is not None else (arguments,)
        return self.node(METHOD_INVOKE_EXPRESSION, self.shared[name], children, start)

    def new_expression(self, depth: int) -> AsltNode:
        start = self.tokens[self.pos]
        self.pos += 1  # 'new', seen by expression()
        declared = self.type_reference()
        if declared.attributes["name"] == "void" or "dims" in declared.attributes:
            _, _, line, column = start
            raise ParseError("object creation needs a plain class type", line, column)
        arguments = self.argument_list(depth + 1)
        return self.node(NEW_OBJECT_EXPRESSION, self.empty, (declared, arguments), start)

    def argument_list(self, depth: int) -> AsltNode:
        if depth > MAX_DEPTH:
            self.fail(set(), f"nesting deeper than {MAX_DEPTH} levels")
        start = self.expect("(")
        arguments: list[AsltNode] = []
        if not self.take(")"):
            arguments.append(self.expression(depth + 1))
            while self.take(","):
                arguments.append(self.expression(depth + 1))
            self.expect(")")
        return self.node(ARGUMENT_LIST, self.empty, tuple(arguments), start)


def parse_source(source: str, file_name: str = "") -> AsltNode:
    """Parse subject-language source into a CompilationUnit tree.

    Every node's span is the line and column of its first token;
    expression-level nodes use exactly the configured kind vocabulary.
    """
    return _Parser(tokenize(source), file_name).compilation_unit()


# ---------------------------------------------------------------------------
# .aslt file format
# ---------------------------------------------------------------------------

def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n"}


def write_aslt(tree: AsltNode) -> str:
    """Serialize a tree to the line-oriented ``.aslt`` format.

    One node per line: two-space indentation by depth, the kind name, then
    sorted ``attr="value"`` pairs; children follow on deeper lines.
    """
    lines: list[str] = []
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        parts = ["  " * depth + node.kind]
        for name in sorted(node.attributes):
            parts.append(f'{name}="{_escape(node.attributes[name])}"')
        lines.append(" ".join(parts))
        for child in reversed(node.children):
            stack.append((child, depth + 1))
    return "\n".join(lines) + "\n"


# One attribute, from the space before it: its name, then ="value" without
# the closing quote.  The value stops at that quote, at a backslash not
# followed by a backslash, a quote or n, or at the end of the line.  Across
# all of Unicode, \w is exactly str.isalnum() or "_".
_ATTRIBUTE = re.compile(r' (\w*)(="((?:[^"\\]|\\[\\"n])*))?')
_ESCAPED = re.compile(r'\\([\\"n])')


def _parse_aslt_line(rest: str, line_number: int) -> tuple[str, dict[str, str]]:
    """The kind and attributes of one node line, without its indentation.

    Each attribute is one match of ``_ATTRIBUTE``, and where the match stops
    tells the first fault, which is raised as an :class:`AsltFormatError` on
    ``line_number``.
    """
    cut = rest.find(" ")
    kind = rest if cut < 0 else rest[:cut]
    if kind not in NODE_KINDS:
        raise AsltFormatError(line_number, f"unknown node kind {kind!r}")
    attributes: dict[str, str] = {}
    pos, end = len(kind), len(rest)
    while pos < end:
        attribute = _ATTRIBUTE.match(rest, pos)
        if attribute is None:
            raise AsltFormatError(line_number, "expected a space before the next attribute")
        name, written, value = attribute.groups()
        if not name or name[0].isdigit():
            raise AsltFormatError(line_number, "expected an attribute name")
        if written is None:
            raise AsltFormatError(line_number, f'attribute {name!r} must be written name="value"')
        pos = attribute.end()
        if pos == end:
            raise AsltFormatError(line_number, f"unterminated value for attribute {name!r}")
        if rest[pos] != '"':
            raise AsltFormatError(line_number, f"bad escape in attribute {name!r}")
        if name in attributes:
            raise AsltFormatError(line_number, f"duplicate attribute {name!r}")
        attributes[name] = _ESCAPED.sub(lambda escape: _UNESCAPE[escape[1]], value)
        pos += 1
    return kind, attributes


# What a blank line maps to in read_aslt's memo: a depth no node line has.
_BLANK = (-1, "", None)


def read_aslt(text: str, file_name: str = "") -> AsltNode:
    """Parse ``.aslt`` text back into a tree (inverse of :func:`write_aslt`).

    Each node's span is column 1 of the ``.aslt`` line it came from.  The
    lines are read in one pass, and each node is closed as soon as a line
    at its depth or shallower follows.  A bad line, one that
    :func:`_parse_aslt_line` refuses or whose indentation is odd or too
    deep, is raised at once.  A fault in the structure (an indented root,
    a second root, or an indentation that jumps more than one level) is
    held while the remaining lines are still checked, so a bad line further
    down is reported ahead of it; only the first such fault is kept.

    Each distinct raw line, indentation included, is read once per call: a
    line that repeats it reuses its depth, its kind and the same attributes
    dict, so the nodes of those lines share one dict, which no other call
    hands out.  A blank line is stored as the entry ``(-1, "", None)``, so
    a repeated line of any kind costs one dict lookup.  A line that fails
    is never stored, so each error keeps its own line number and message.

    Nodes and their spans are made with ``object.__new__`` and plain
    attribute stores: :func:`_parse_aslt_line` has already checked each
    kind, so the constructor's check is skipped.  A node's ``children`` are
    stored when it closes.
    """
    seen: dict[str, tuple[int, str, dict[str, str] | None]] = {}
    # The nodes still open, outermost first (the one at index i is at depth
    # i), their number, and beside each node the children read so far.
    nodes: list[AsltNode] = []
    open_nodes = 0
    children: list[list[AsltNode]] = []
    # The first fault in the structure, as a line number and a message: an
    # exception held in a local would make a reference cycle through its
    # traceback once raised.
    fault: tuple[int, str] | None = None
    new = object.__new__
    for line_number, raw in enumerate(text.split("\n"), start=1):
        known = seen.get(raw)
        if known is not None:
            depth, kind, attributes = known
            if depth < 0:
                continue
        else:
            rest = raw.lstrip(" ")
            if not rest or rest.isspace():
                seen[raw] = _BLANK
                continue
            indent = len(raw) - len(rest)
            if indent % 2:
                raise AsltFormatError(line_number, "indentation must be a multiple of two spaces")
            depth = indent // 2
            if depth > MAX_DEPTH:
                raise AsltFormatError(line_number, f"nesting deeper than {MAX_DEPTH} levels")
            kind, attributes = _parse_aslt_line(rest, line_number)
            seen[raw] = depth, kind, attributes
        if fault is not None:
            continue
        if depth > open_nodes or (depth == 0 and open_nodes):
            if not open_nodes:
                message = "the root node must not be indented"
            elif depth:
                message = "indentation jumps more than one level"
            else:
                message = "more than one root node"
            fault = line_number, message
            continue
        while open_nodes > depth:
            nodes.pop().children = tuple(children.pop())
            open_nodes -= 1
        node = new(AsltNode)
        node.kind = kind
        node.attributes = attributes
        node.span = span = new(Location)
        span.file = file_name
        span.line = line_number
        span.column = 1
        if depth:
            children[-1].append(node)
        nodes.append(node)
        children.append([])
        open_nodes += 1
    if fault is not None:
        raise AsltFormatError(*fault)
    if not nodes:
        raise AsltFormatError(1, "no nodes")
    while nodes:
        root = nodes.pop()
        root.children = tuple(children.pop())
    return root


def _array_dims(node: AsltNode) -> int:
    """The ``dims`` of a type reference, 0 when absent; ValueError, with the
    reason, unless it is at most ``MAX_ARRAY_DIMS`` in at most three digits."""
    dims = node.attributes.get("dims", "0")
    if not (dims.isascii() and dims.isdigit()):
        raise ValueError(f"dims must be a non-negative integer, not {dims!r}")
    # The length test comes first: int() refuses very long digit strings.
    if len(dims) > len(str(MAX_ARRAY_DIMS)) or int(dims) > MAX_ARRAY_DIMS:
        raise ValueError(f"dims must be at most {MAX_ARRAY_DIMS}, in at most three digits")
    return int(dims)


def _name_fault(node: AsltNode) -> str | None:
    """Why the analysis cannot name a ClassDeclaration or TypeReference, or None."""
    name = node.attributes.get("name")
    if not name:
        return f"a {node.kind} needs a non-empty name"
    if node.kind == TYPE_REFERENCE:
        try:
            dims = _array_dims(node)
        except ValueError as exc:
            return str(exc)
        if name == "void" and dims:
            return "void cannot be an array element type"
    return None


def check_names(tree: AsltNode) -> None:
    """Reject a tree with a class or type that the analysis cannot name.

    :func:`read_aslt` accepts any attribute values, so that every tree round
    trips; a tree read for analysis must pass this check as well.  The error
    gives the line of the offending node, taken from its span.

    Two loops: the first visits every node in no set order and returns when
    none fails, as for every valid tree.  Only when some node fails does the
    second walk in preorder, to blame the first failing node there.
    """
    named = (CLASS_DECLARATION, TYPE_REFERENCE)
    nodes = [tree]
    for node in nodes:
        nodes += node.children
        if node.kind in named and _name_fault(node) is not None:
            break
    else:
        return
    # Preorder with its own stack: no recursion, and no generator to resume per node.
    stack = [tree]
    while stack:
        node = stack.pop()
        stack += node.children[::-1]
        if node.kind in named:
            message = _name_fault(node)
            if message is not None:
                raise AsltFormatError(node.span.line if node.span is not None else 0, message)
