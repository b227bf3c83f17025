"""The hierarchical source representation and its transforms.

Source text of the subject-language subset is lexed and parsed into a tree
of :class:`AsltNode`; the tree can be pretty-printed back to source, dumped
to the line-oriented ``.aslt`` file format, and re-read from it.  Both
round trips preserve the full structure (spans excepted), so no information
is lost in either direction.

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

from dataclasses import dataclass, field
from typing import Iterator

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


class MalformedTreeError(AsltError):
    """A tree violates the kind-specific shape invariants."""


class AsltFormatError(AsltError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True, slots=True)
class Span:
    file: str
    start_line: int
    start_column: int
    end_line: int
    end_column: int

    # Slot setters: a generated frozen __init__ costs an object.__setattr__ per field.
    def __init__(
        self, file: str, start_line: int, start_column: int, end_line: int, end_column: int
    ):
        _set_span_file(self, file)
        _set_span_start_line(self, start_line)
        _set_span_start_column(self, start_column)
        _set_span_end_line(self, end_line)
        _set_span_end_column(self, end_column)


_set_span_file = Span.__dict__["file"].__set__
_set_span_start_line = Span.__dict__["start_line"].__set__
_set_span_start_column = Span.__dict__["start_column"].__set__
_set_span_end_line = Span.__dict__["end_line"].__set__
_set_span_end_column = Span.__dict__["end_column"].__set__


@dataclass(frozen=True, slots=True)
class AsltNode:
    """One tree node: a kind, string attributes, and owned children.

    Spans are provenance and excluded from equality, so structural
    comparison is "modulo spans" by construction.
    """

    kind: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: tuple["AsltNode", ...] = ()
    span: Span | None = field(default=None, compare=False)

    # Slot setters: a generated frozen __init__ costs an object.__setattr__ per field.
    def __init__(
        self,
        kind: str,
        attributes: dict[str, str] | None = None,
        children: tuple["AsltNode", ...] = (),
        span: Span | None = None,
    ):
        if kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        _set_node_kind(self, kind)
        _set_node_attributes(self, {} if attributes is None else attributes)
        _set_node_children(self, children)
        _set_node_span(self, span)

    def first(self, kind: str) -> "AsltNode | None":
        for child in self.children:
            if child.kind == kind:
                return child
        return None


_set_node_kind = AsltNode.__dict__["kind"].__set__
_set_node_attributes = AsltNode.__dict__["attributes"].__set__
_set_node_children = AsltNode.__dict__["children"].__set__
_set_node_span = AsltNode.__dict__["span"].__set__


def iter_nodes(tree: AsltNode) -> Iterator[AsltNode]:
    """Preorder traversal, with an explicit stack instead of recursion."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

END_OF_INPUT = "end-of-input"

_PUNCTUATION = frozenset(";,(){}[].")


@dataclass(frozen=True, slots=True)
class Token:
    category: str
    lexeme: str
    line: int
    column: int

    # Slot setters: a generated frozen __init__ costs an object.__setattr__ per field.
    def __init__(self, category: str, lexeme: str, line: int, column: int):
        _set_token_category(self, category)
        _set_token_lexeme(self, lexeme)
        _set_token_line(self, line)
        _set_token_column(self, column)

    @property
    def end_column(self) -> int:
        return self.column + len(self.lexeme)


_set_token_category = Token.__dict__["category"].__set__
_set_token_lexeme = Token.__dict__["lexeme"].__set__
_set_token_line = Token.__dict__["line"].__set__
_set_token_column = Token.__dict__["column"].__set__


def tokenize(source: str) -> list[Token]:
    """Lex source text; comments and whitespace are discarded.

    String and char literals keep their quoted lexemes.  The stream always
    ends with an end-of-input token.
    """
    tokens: list[Token] = []
    line, column = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if c in " \t\r":
            column += 1
            i += 1
            continue
        if c == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                column += 1
            continue
        if c == "/" and source.startswith("/*", i):
            start_line, start_column = line, column
            i += 2
            column += 2
            while True:
                if i >= n:
                    raise LexicalError("unterminated block comment", start_line, start_column)
                if source[i] == "\n":
                    line += 1
                    column = 1
                    i += 1
                elif source.startswith("*/", i):
                    i += 2
                    column += 2
                    break
                else:
                    column += 1
                    i += 1
            continue

        start_line, start_column = line, column
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
            tokens.append(Token(category, word, start_line, start_column))
            column += j - i
            i = j
        elif c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            category = "integer-literal"
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
                category = "floating-literal"
            tokens.append(Token(category, source[i:j], start_line, start_column))
            column += j - i
            i = j
        elif c == '"':
            j = i + 1
            while True:
                if j >= n or source[j] == "\n":
                    raise LexicalError("unterminated string literal", start_line, start_column)
                if source[j] == "\\":
                    if j + 1 >= n or source[j + 1] == "\n":
                        raise LexicalError("unterminated string literal", start_line, start_column)
                    j += 2
                    continue
                if source[j] == '"':
                    break
                j += 1
            lexeme = source[i : j + 1]
            tokens.append(Token("string-literal", lexeme, start_line, start_column))
            column += len(lexeme)
            i = j + 1
        elif c == "'":
            j = i + 1
            if j < n and source[j] == "\\":
                j += 2
            elif j < n and source[j] not in ("'", "\n"):
                j += 1
            if j >= n or source[j] != "'":
                raise LexicalError("malformed char literal", start_line, start_column)
            lexeme = source[i : j + 1]
            tokens.append(Token("char-literal", lexeme, start_line, start_column))
            column += len(lexeme)
            i = j + 1
        elif c in _PUNCTUATION:
            tokens.append(Token("punctuation", c, start_line, start_column))
            column += 1
            i += 1
        elif c == "=":
            tokens.append(Token("operator", "=", start_line, start_column))
            column += 1
            i += 1
        else:
            raise LexicalError(f"illegal character {c!r}", line, column)
    tokens.append(Token(END_OF_INPUT, "", line, column))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], file_name: str):
        self.tokens = tokens
        self.pos = 0
        self.file_name = file_name
        self.last = tokens[0]

    # --- token plumbing ---

    # The stream ends with an end-of-input token that advance() never moves
    # past, so only a look ahead of the current token needs clamping.
    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def at(self, category: str, lexeme: str | None = None) -> bool:
        token = self.tokens[self.pos]
        return token.category == category and (lexeme is None or token.lexeme == lexeme)

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.category != END_OF_INPUT:
            self.pos += 1
        self.last = token
        return token

    def accept(self, category: str, lexeme: str | None = None) -> Token | None:
        if self.at(category, lexeme):
            return self.advance()
        return None

    def expect(self, category: str, lexeme: str | None = None) -> Token:
        if self.at(category, lexeme):
            return self.advance()
        wanted = repr(lexeme) if lexeme is not None else category
        return self.fail({wanted})

    def fail(self, expected: set[str], message: str | None = None):
        token = self.peek()
        got = token.lexeme if token.category != END_OF_INPUT else "end of input"
        raise ParseError(
            message or f"unexpected {got!r}", token.line, token.column, frozenset(expected)
        )

    def check_depth(self, depth: int) -> None:
        if depth > MAX_DEPTH:
            token = self.peek()
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", token.line, token.column)

    def span_from(self, start: Token) -> Span:
        last = self.last
        return Span(
            self.file_name, start.line, start.column, last.line, last.column + len(last.lexeme)
        )

    # --- grammar ---

    def compilation_unit(self) -> AsltNode:
        start = self.peek()
        children: list[AsltNode] = []
        if self.at("keyword", "package"):
            children.append(self.package_declaration())
        children.append(self.class_declaration())
        while not self.at(END_OF_INPUT):
            children.append(self.class_declaration())
        return AsltNode(
            COMPILATION_UNIT,
            {"file": self.file_name},
            tuple(children),
            self.span_from(start),
        )

    def package_declaration(self) -> AsltNode:
        start = self.expect("keyword", "package")
        name = self.qualified_name()
        self.expect("punctuation", ";")
        return AsltNode(PACKAGE_DECLARATION, {"name": name}, (), self.span_from(start))

    def qualified_name(self) -> str:
        parts = [self.expect("identifier").lexeme]
        while self.at("punctuation", ".") and self.peek(1).category == "identifier":
            self.advance()
            parts.append(self.advance().lexeme)
        return ".".join(parts)

    def class_declaration(self) -> AsltNode:
        start = self.expect("keyword", "class")
        attributes = {"name": self.expect("identifier").lexeme}
        if self.accept("keyword", "extends"):
            attributes["extends"] = self.qualified_name()
        if self.accept("keyword", "implements"):
            names = [self.qualified_name()]
            while self.accept("punctuation", ","):
                names.append(self.qualified_name())
            attributes["implements"] = ",".join(names)
        self.expect("punctuation", "{")
        members: list[AsltNode] = []
        while not self.at("punctuation", "}"):
            members.append(self.member())
        self.expect("punctuation", "}")
        return AsltNode(CLASS_DECLARATION, attributes, tuple(members), self.span_from(start))

    def member(self) -> AsltNode:
        start = self.peek()
        static = self.accept("keyword", "static") is not None
        declared = self.type_reference()
        name = self.expect("identifier").lexeme
        if self.at("punctuation", "("):
            return self.method_rest(start, static, declared, name)
        if static:
            self.fail({"'('"}, "only methods may be static")
        self.reject_void(declared, start)
        initializer: tuple[AsltNode, ...] = ()
        if self.accept("operator", "="):
            initializer = (self.expression(3),)
        self.expect("punctuation", ";")
        return AsltNode(
            FIELD_DECLARATION, {"name": name}, (declared,) + initializer, self.span_from(start)
        )

    def method_rest(self, start: Token, static: bool, declared: AsltNode, name: str) -> AsltNode:
        attributes = {"name": name}
        if static:
            attributes["static"] = "true"
        self.expect("punctuation", "(")
        parameters: list[AsltNode] = []
        if not self.at("punctuation", ")"):
            parameters.append(self.parameter())
            while self.accept("punctuation", ","):
                parameters.append(self.parameter())
        self.expect("punctuation", ")")
        body = self.block()
        children = (declared, *parameters, body)
        return AsltNode(METHOD_DECLARATION, attributes, children, self.span_from(start))

    def parameter(self) -> AsltNode:
        start = self.peek()
        declared = self.type_reference()
        self.reject_void(declared, start)
        name = self.expect("identifier").lexeme
        return AsltNode(PARAMETER_DECLARATION, {"name": name}, (declared,), self.span_from(start))

    def reject_void(self, declared: AsltNode, start: Token) -> None:
        if declared.attributes["name"] == "void":
            raise ParseError(
                "void is only valid as a method return type",
                start.line,
                start.column,
                frozenset({"type name"}),
            )

    def type_reference(self) -> AsltNode:
        start = self.peek()
        if self.at("keyword") and self.peek().lexeme in PRIMITIVE_TYPE_KEYWORDS:
            base = self.advance().lexeme
        elif self.at("identifier"):
            base = self.qualified_name()
        else:
            return self.fail({"type name"})
        dims = 0
        while self.at("punctuation", "[") and self.peek(1).lexeme == "]":
            self.advance()
            self.advance()
            dims += 1
        if base == "void" and dims:
            raise ParseError("array of void is not a type", start.line, start.column)
        if dims > MAX_ARRAY_DIMS:
            raise ParseError(
                f"array type with more than {MAX_ARRAY_DIMS} dimensions", start.line, start.column
            )
        attributes = {"name": base}
        if dims:
            attributes["dims"] = str(dims)
        return AsltNode(TYPE_REFERENCE, attributes, (), self.span_from(start))

    def block(self) -> AsltNode:
        start = self.expect("punctuation", "{")
        statements: list[AsltNode] = []
        while not self.at("punctuation", "}"):
            statements.append(self.statement())
        self.expect("punctuation", "}")
        return AsltNode(BLOCK, {}, tuple(statements), self.span_from(start))

    def statement(self) -> AsltNode:
        if self.at("keyword", "return"):
            return self.return_statement()
        if self.at("keyword") and self.peek().lexeme in PRIMITIVE_TYPE_KEYWORDS:
            return self.variable_declaration()
        if self.at("identifier"):
            if self.looks_like_declaration():
                return self.variable_declaration()
            if self.peek(1).category == "operator" and self.peek(1).lexeme == "=":
                return self.assignment_statement()
        start = self.peek()
        if start.category == END_OF_INPUT or start.lexeme == "}":
            self.fail({"statement"})
        expression = self.expression(5)
        self.expect("punctuation", ";")
        return AsltNode(EXPRESSION_STATEMENT, {}, (expression,), self.span_from(start))

    def looks_like_declaration(self) -> bool:
        """A qualified name (with optional ``[]``) followed by an identifier."""
        saved = self.pos
        try:
            self.type_reference()
            return self.at("identifier")
        except ParseError:
            return False
        finally:
            self.pos = saved

    def variable_declaration(self) -> AsltNode:
        start = self.peek()
        declared = self.type_reference()
        if declared.attributes["name"] == "void":
            raise ParseError(
                "void is only valid as a method return type", start.line, start.column
            )
        declarators = [self.declarator()]
        while self.accept("punctuation", ","):
            declarators.append(self.declarator())
        self.expect("punctuation", ";")
        return AsltNode(
            VARIABLE_DECLARATION, {}, (declared, *declarators), self.span_from(start)
        )

    def declarator(self) -> AsltNode:
        start = self.peek()
        name = self.expect("identifier").lexeme
        initializer: tuple[AsltNode, ...] = ()
        if self.accept("operator", "="):
            initializer = (self.expression(6),)
        return AsltNode(VARIABLE_DECLARATOR, {"name": name}, initializer, self.span_from(start))

    def assignment_statement(self) -> AsltNode:
        start = self.peek()
        target_token = self.expect("identifier")
        target = AsltNode(
            IDENTIFIER_EXPRESSION, {"name": target_token.lexeme}, (), self.span_from(target_token)
        )
        self.expect("operator", "=")
        value = self.expression(6)
        assignment = AsltNode(
            SIMPLE_ASSIGNMENT_EXPRESSION, {}, (target, value), self.span_from(start)
        )
        self.expect("punctuation", ";")
        return AsltNode(EXPRESSION_STATEMENT, {}, (assignment,), self.span_from(start))

    def return_statement(self) -> AsltNode:
        start = self.expect("keyword", "return")
        value: tuple[AsltNode, ...] = ()
        if not self.at("punctuation", ";"):
            value = (self.expression(5),)
        self.expect("punctuation", ";")
        return AsltNode(RETURN_STATEMENT, {}, value, self.span_from(start))

    def expression(self, depth: int) -> AsltNode:
        """An expression whose node sits ``depth`` levels below the root.

        Statements are at level 4 (unit, class, method, block), so their
        expressions start at level 5 or 6; a field initializer is at 3.
        """
        self.check_depth(depth)
        token = self.peek()
        if token.category in LITERAL_CATEGORIES:
            self.advance()
            attributes = {"value": token.lexeme, "category": LITERAL_CATEGORIES[token.category]}
            return AsltNode(LITERAL_TAG, attributes, (), self.span_from(token))
        if self.at("keyword", "new"):
            return self.new_expression(depth)
        if self.at("identifier"):
            if self.peek(1).lexeme == "(":
                return self.invocation(depth, receiver=None)
            if (
                self.peek(1).lexeme == "."
                and self.peek(2).category == "identifier"
                and self.peek(3).lexeme == "("
            ):
                receiver_token = self.advance()
                receiver = AsltNode(
                    IDENTIFIER_EXPRESSION,
                    {"name": receiver_token.lexeme},
                    (),
                    self.span_from(receiver_token),
                )
                self.advance()  # '.'
                return self.invocation(depth, receiver=receiver, start=receiver_token)
            name_token = self.advance()
            return AsltNode(
                IDENTIFIER_EXPRESSION, {"name": name_token.lexeme}, (), self.span_from(name_token)
            )
        return self.fail({"expression"})

    def invocation(
        self, depth: int, receiver: AsltNode | None, start: Token | None = None
    ) -> AsltNode:
        name_token = self.expect("identifier")
        arguments = self.argument_list(depth + 1)
        children = (receiver, arguments) if receiver is not None else (arguments,)
        return AsltNode(
            METHOD_INVOKE_EXPRESSION,
            {"name": name_token.lexeme},
            children,
            self.span_from(start or name_token),
        )

    def new_expression(self, depth: int) -> AsltNode:
        start = self.expect("keyword", "new")
        declared = self.type_reference()
        if declared.attributes["name"] == "void" or "dims" in declared.attributes:
            raise ParseError(
                "object creation needs a plain class type", start.line, start.column
            )
        arguments = self.argument_list(depth + 1)
        return AsltNode(
            NEW_OBJECT_EXPRESSION, {}, (declared, arguments), self.span_from(start)
        )

    def argument_list(self, depth: int) -> AsltNode:
        self.check_depth(depth)
        start = self.expect("punctuation", "(")
        arguments: list[AsltNode] = []
        if not self.at("punctuation", ")"):
            arguments.append(self.expression(depth + 1))
            while self.accept("punctuation", ","):
                arguments.append(self.expression(depth + 1))
        self.expect("punctuation", ")")
        return AsltNode(ARGUMENT_LIST, {}, tuple(arguments), self.span_from(start))


def parse_source(source: str, file_name: str = "") -> AsltNode:
    """Parse subject-language source into a CompilationUnit tree.

    Every node carries a source span; expression-level nodes use exactly the
    configured kind vocabulary.
    """
    return _Parser(tokenize(source), file_name).compilation_unit()


# ---------------------------------------------------------------------------
# Pretty printer (tree -> source)
# ---------------------------------------------------------------------------

_INDENT = "    "


def _shape_error(node: AsltNode, why: str) -> MalformedTreeError:
    return MalformedTreeError(f"{node.kind}: {why}")


def _type_source(node: AsltNode) -> str:
    if node.kind != TYPE_REFERENCE:
        raise _shape_error(node, "expected a TypeReference")
    name = node.attributes.get("name")
    if not name:
        raise _shape_error(node, "type reference without a name")
    return name + "[]" * int(node.attributes.get("dims", "0"))


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

    Reparsing the output yields a structurally equal tree (spans aside).
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


def _parse_aslt_line(rest: str, line_number: int) -> tuple[str, dict[str, str]]:
    """The kind and attributes of one node line, without its indentation.

    A line with no escape in the shape :func:`write_aslt` gives is split at
    its quotes.  Any other line, every malformed one included, goes through
    :func:`_check_aslt_line`, which gives the error.
    """
    cut = rest.find(" ")
    if cut < 0:
        if rest in NODE_KINDS:
            return rest, {}
    elif "\\" not in rest and rest[:cut] in NODE_KINDS:
        # ' a="x" b="y"' splits into ' a=', 'x', ' b=', 'y', ''.
        parts = rest[cut:].split('"')
        if len(parts) % 2 and not parts[-1]:
            attributes: dict[str, str] = {}
            for index in range(0, len(parts) - 1, 2):
                separator = parts[index]
                name = separator[1:-1]
                if (
                    separator[:1] != " "
                    or separator[-1:] != "="
                    or not (name.isascii() and name.isidentifier())
                    or name in attributes
                ):
                    break
                attributes[name] = parts[index + 1]
            else:
                return rest[:cut], attributes
    return _check_aslt_line(rest, line_number)


def _check_aslt_line(rest: str, line_number: int) -> tuple[str, dict[str, str]]:
    """:func:`_parse_aslt_line` one character at a time, with every error."""
    cut = rest.find(" ")
    kind = rest if cut < 0 else rest[:cut]
    if kind not in NODE_KINDS:
        raise AsltFormatError(line_number, f"unknown node kind {kind!r}")
    attributes: dict[str, str] = {}
    pos = len(kind)
    while pos < len(rest):
        if rest[pos] != " ":
            raise AsltFormatError(line_number, "expected a space before the next attribute")
        pos += 1
        start = pos
        while pos < len(rest) and (rest[pos].isalnum() or rest[pos] == "_"):
            pos += 1
        name = rest[start:pos]
        if not name or name[0].isdigit():
            raise AsltFormatError(line_number, "expected an attribute name")
        if not rest.startswith('="', pos):
            raise AsltFormatError(line_number, f'attribute {name!r} must be written name="value"')
        pos += 2
        value: list[str] = []
        while True:
            if pos >= len(rest):
                raise AsltFormatError(line_number, f"unterminated value for attribute {name!r}")
            c = rest[pos]
            if c == '"':
                pos += 1
                break
            if c == "\\":
                if pos + 1 >= len(rest) or rest[pos + 1] not in _UNESCAPE:
                    raise AsltFormatError(line_number, f"bad escape in attribute {name!r}")
                value.append(_UNESCAPE[rest[pos + 1]])
                pos += 2
            else:
                value.append(c)
                pos += 1
        if name in attributes:
            raise AsltFormatError(line_number, f"duplicate attribute {name!r}")
        attributes[name] = "".join(value)
    return kind, attributes


def read_aslt(text: str, file_name: str = "") -> AsltNode:
    """Parse ``.aslt`` text back into a tree (inverse of :func:`write_aslt`).

    Node spans are anchored to the ``.aslt`` line each node came from.
    Every line is checked before the tree is built, so a bad line is
    reported ahead of a bad indentation structure further up.
    """
    entries: list[tuple[int, str, dict[str, str], Span]] = []
    for line_number, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2:
            raise AsltFormatError(line_number, "indentation must be a multiple of two spaces")
        if indent // 2 > MAX_DEPTH:
            raise AsltFormatError(line_number, f"nesting deeper than {MAX_DEPTH} levels")
        kind, attributes = _parse_aslt_line(raw[indent:], line_number)
        span = Span(file_name, line_number, 1, line_number, len(raw) + 1)
        entries.append((indent // 2, kind, attributes, span))
    if not entries:
        raise AsltFormatError(1, "no nodes")
    if entries[0][0] != 0:
        raise AsltFormatError(entries[0][3].start_line, "the root node must not be indented")

    # The nodes still open, outermost first (the one at index i is at depth
    # i), each with the children read so far.
    open_nodes: list[tuple[str, dict[str, str], Span, list[AsltNode]]] = []
    for depth, kind, attributes, span in entries:
        if open_nodes and depth == 0:
            raise AsltFormatError(span.start_line, "more than one root node")
        if depth > len(open_nodes):
            raise AsltFormatError(span.start_line, "indentation jumps more than one level")
        while len(open_nodes) > depth:
            _close_node(open_nodes)
        open_nodes.append((kind, attributes, span, []))
    while len(open_nodes) > 1:
        _close_node(open_nodes)
    kind, attributes, span, children = open_nodes[0]
    return AsltNode(kind, attributes, tuple(children), span)


def _close_node(open_nodes: list[tuple[str, dict[str, str], Span, list[AsltNode]]]) -> None:
    """Pop the innermost open node and add it to its parent's children."""
    kind, attributes, span, children = open_nodes.pop()
    open_nodes[-1][3].append(AsltNode(kind, attributes, tuple(children), span))


def check_names(tree: AsltNode) -> None:
    """Reject a tree with a class or type that the analysis cannot name.

    :func:`read_aslt` accepts any attribute values, so that every tree round
    trips; a tree read for analysis must pass this check as well.  The error
    gives the line of the offending node, taken from its span.
    """
    for node in iter_nodes(tree):
        if node.kind not in (CLASS_DECLARATION, TYPE_REFERENCE):
            continue
        line_number = node.span.start_line if node.span is not None else 0
        name = node.attributes.get("name", "")
        if not name:
            raise AsltFormatError(line_number, f"a {node.kind} needs a non-empty name")
        if node.kind == TYPE_REFERENCE:
            dims = node.attributes.get("dims", "0")
            if not (dims.isascii() and dims.isdigit()):
                raise AsltFormatError(
                    line_number, f"dims must be a non-negative integer, not {dims!r}"
                )
            # The length test comes first: int() refuses very long digit strings.
            if len(dims) > len(str(MAX_ARRAY_DIMS)) or int(dims) > MAX_ARRAY_DIMS:
                raise AsltFormatError(
                    line_number, f"dims must be at most {MAX_ARRAY_DIMS}, in at most three digits"
                )
            if name == "void" and int(dims):
                raise AsltFormatError(line_number, "void cannot be an array element type")
