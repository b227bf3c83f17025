"""Extraction of a compiled component's exposed surface from class files.

Instead of loading components into a runtime and reflecting over them, the
bytes of each class file are decoded directly: constant pool, class/super/
interface names, field and method signatures.  Attributes (code, debug
tables, annotations, ...) are skipped by length; nothing is ever executed.

A matching emitter produces minimal, attribute-free class files so that test
projects can be built without an external compiler.  ``parse_classfile`` and
``emit_classfile`` are exact inverses on valid :class:`ClassInfo` values.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass, field
from pathlib import Path

from .aslt import MAX_ARRAY_DIMS

MAGIC = 0xCAFEBABE
MIN_MAJOR_VERSION = 45

# Emitted files claim major version 52 (the oldest level every modern
# reader accepts); the version has no effect on the extracted surface.
EMIT_MAJOR_VERSION = 52

ACC_PUBLIC = 0x0001
ACC_STATIC = 0x0008
ACC_SUPER = 0x0020
# Methods a compiler generates, which no source names (JVMS §4.6).
ACC_BRIDGE = 0x0040
ACC_SYNTHETIC = 0x1000

CONSTRUCTOR_NAME = "<init>"

_PRIMITIVE_BY_CODE = {
    "B": "byte",
    "C": "char",
    "D": "double",
    "F": "float",
    "I": "int",
    "J": "long",
    "S": "short",
    "Z": "boolean",
}
_CODE_BY_PRIMITIVE = {name: code for code, name in _PRIMITIVE_BY_CODE.items()}

# Constant-pool tags of the supported subset.  Long and Double entries
# occupy two pool slots.
_TAG_UTF8 = 1
_TAG_INTEGER = 3
_TAG_FLOAT = 4
_TAG_LONG = 5
_TAG_DOUBLE = 6
_TAG_CLASS = 7
_TAG_STRING = 8
_TAG_FIELDREF = 9
_TAG_METHODREF = 10
_TAG_INTERFACE_METHODREF = 11
_TAG_NAME_AND_TYPE = 12
# Tags 15-20 (method handles, dynamic constants, modules) are read past by
# their fixed payload sizes; no surface refers to them.
_SKIPPED_TAG_SIZES = {15: 3, 16: 2, 17: 4, 18: 4, 19: 2, 20: 2}
# The pool's own mark for a Utf8 entry that holds an unpaired surrogate: legal
# in a string constant, but no name or descriptor can be printed from it.
_TAG_UTF8_UNPAIRED = -1


class ClassFileError(Exception):
    """Raised when class-file bytes cannot be decoded (or encoded)."""


class BadMagicError(ClassFileError):
    def __init__(self, magic: int):
        super().__init__(f"bad magic 0x{magic:08X}, expected 0x{MAGIC:08X}")
        self.magic = magic


class TruncatedFileError(ClassFileError):
    """Input ended before a structure it promised."""

    def __init__(self, expected: int, actual: int):
        super().__init__(f"truncated class file: need {expected} bytes, have {actual}")
        self.expected = expected
        self.actual = actual


class PoolReferenceError(ClassFileError):
    """A constant-pool index is out of range or resolves to the wrong tag."""


class DescriptorError(ClassFileError):
    """A field or method descriptor is malformed."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"descriptor error at offset {offset}: {message}")
        self.offset = offset


class InvalidClassInfoError(ClassFileError):
    """A ClassInfo handed to the emitter violates its invariants."""


@dataclass(frozen=True, slots=True)
class TypeName:
    """A scalar or array type.

    ``name`` is a primitive name, ``"void"``, or a dotted reference name;
    ``dims`` counts array dimensions (0 for scalars).  Void never appears
    as an array element.  The hash, ``hash((name, dims))``, is computed once
    at construction, since call shapes are hashed by their types.
    """

    name: str
    dims: int = 0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name:
            raise ValueError("type name must be non-empty")
        if self.dims < 0:
            raise ValueError("array dimension count must be >= 0")
        if self.name == "void" and self.dims:
            raise ValueError("void cannot be an array element type")
        object.__setattr__(self, "_hash", hash((self.name, self.dims)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # A copy or an unpickled value hashes anew: string hashes differ
        # between processes.
        return TypeName, (self.name, self.dims)

    def __str__(self) -> str:
        return self.name + "[]" * self.dims


VOID = TypeName("void")


@dataclass(frozen=True, slots=True)
class MethodSignature:
    """Name, ordered parameter types and return type of one method.

    Two signatures are equal iff name, parameter list and return type are
    all equal; the static flag is carried but not compared.
    """

    name: str
    parameter_types: tuple[TypeName, ...] = ()
    return_type: TypeName = VOID
    is_static: bool = field(default=False, compare=False)

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.parameter_types)
        return f"{self.name}({params}) -> {self.return_type}"


@dataclass(frozen=True, slots=True)
class FieldMember:
    name: str
    declared_type: TypeName
    is_static: bool = field(default=False, compare=False)


@dataclass(frozen=True, slots=True)
class ClassInfo:
    """The exposed surface of one compiled class.

    ``source_file_name`` records where the bytes came from; it is
    provenance only and excluded from equality.
    """

    qualified_name: str
    superclass_name: str | None = None
    interface_names: tuple[str, ...] = ()
    fields: tuple[FieldMember, ...] = ()
    methods: tuple[MethodSignature, ...] = ()
    source_file_name: str = field(default="", compare=False)


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """A non-fatal (unless flagged) per-file problem collected during a run."""

    file: str
    message: str
    fatal: bool = False


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

def _parse_type(text: str, pos: int, allow_void: bool) -> tuple[TypeName, int]:
    dims = 0
    i = pos
    while i < len(text) and text[i] == "[":
        dims += 1
        i += 1
    if dims > MAX_ARRAY_DIMS:
        raise DescriptorError(pos, f"array type with more than {MAX_ARRAY_DIMS} dimensions")
    if i >= len(text):
        raise DescriptorError(i, "type expected")
    code = text[i]
    if code in _PRIMITIVE_BY_CODE:
        return TypeName(_PRIMITIVE_BY_CODE[code], dims), i + 1
    if code == "V":
        if not allow_void or dims:
            raise DescriptorError(i, "void is only valid as a bare return type")
        return VOID, i + 1
    if code == "L":
        end = text.find(";", i)
        if end < 0:
            raise DescriptorError(i, "reference type missing terminating ';'")
        raw = text[i + 1 : end]
        if not raw:
            raise DescriptorError(i, "empty reference type name")
        if "." in raw:
            raise DescriptorError(i, "reference names use '/' separators")
        return TypeName(raw.replace("/", "."), dims), end + 1
    raise DescriptorError(i, f"unknown type code {code!r}")


def parse_descriptor(text: str) -> tuple[tuple[TypeName, ...], TypeName]:
    """Decode a method descriptor such as ``(ILjava/lang/String;)V``.

    Returns the ordered parameter types and the return type, with reference
    names converted from slash-separated to dotted form.
    """
    if not text:
        raise DescriptorError(0, "empty descriptor")
    if text[0] != "(":
        raise DescriptorError(0, "expected '('")
    i = 1
    params: list[TypeName] = []
    while True:
        if i >= len(text):
            raise DescriptorError(i, "unterminated parameter list")
        if text[i] == ")":
            i += 1
            break
        param, i = _parse_type(text, i, allow_void=False)
        params.append(param)
    return_type, i = _parse_type(text, i, allow_void=True)
    if i != len(text):
        raise DescriptorError(i, "trailing data after return type")
    return tuple(params), return_type


def _format_type(type_name: TypeName) -> str:
    prefix = "[" * type_name.dims
    if type_name.name == "void":
        return prefix + "V"
    code = _CODE_BY_PRIMITIVE.get(type_name.name)
    if code is not None:
        return prefix + code
    return prefix + "L" + type_name.name.replace(".", "/") + ";"


def format_descriptor(parameter_types: tuple[TypeName, ...], return_type: TypeName) -> str:
    """Encode a signature shape back into descriptor syntax (inverse of parse)."""
    return "(" + "".join(_format_type(t) for t in parameter_types) + ")" + _format_type(return_type)


def _parse_field_descriptor(text: str) -> TypeName:
    decoded, end = _parse_type(text, 0, allow_void=False)
    if end != len(text):
        raise DescriptorError(end, "trailing data after field type")
    return decoded


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise TruncatedFileError(expected=end, actual=len(self.data))
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u1(self) -> int:
        return self.take(1)[0]

    def u2(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u4(self) -> int:
        return int.from_bytes(self.take(4), "big")


def _read_constant_pool(reader: _Reader) -> dict[int, tuple[int, object]]:
    count = reader.u2()
    pool: dict[int, tuple[int, object]] = {}
    index = 1
    while index < count:
        tag = reader.u1()
        if tag == _TAG_UTF8:
            length = reader.u2()
            raw = reader.take(length)
            try:
                pool[index] = (tag, raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                pool[index] = _decode_modified_utf8(raw, index, exc)
        elif tag in (_TAG_INTEGER, _TAG_FLOAT):
            pool[index] = (tag, reader.take(4))
        elif tag in (_TAG_LONG, _TAG_DOUBLE):
            pool[index] = (tag, reader.take(8))
        elif tag in (_TAG_CLASS, _TAG_STRING):
            pool[index] = (tag, reader.u2())
        elif tag in (_TAG_FIELDREF, _TAG_METHODREF, _TAG_INTERFACE_METHODREF, _TAG_NAME_AND_TYPE):
            pool[index] = (tag, (reader.u2(), reader.u2()))
        elif tag in _SKIPPED_TAG_SIZES:
            reader.take(_SKIPPED_TAG_SIZES[tag])
        else:
            raise PoolReferenceError(f"constant #{index}: unsupported tag {tag}")
        index += 2 if tag in (_TAG_LONG, _TAG_DOUBLE) else 1
    return pool


def _decode_modified_utf8(raw: bytes, index: int, error: UnicodeDecodeError) -> tuple[int, object]:
    """The pool entry of a Utf8 constant in the modified UTF-8 of JVMS §4.4.7,
    which writes NUL as ``C0 80`` and a supplementary character as its two
    surrogates.  ``error`` is the plain decode's failure, reported when the
    bytes are malformed either way."""
    try:
        units = raw.replace(b"\xc0\x80", b"\x00").decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:
        raise ClassFileError(f"constant #{index}: invalid utf-8 ({error.reason})") from None
    try:
        return _TAG_UTF8, units.encode("utf-16-le", "surrogatepass").decode("utf-16-le")
    except UnicodeDecodeError:
        return _TAG_UTF8_UNPAIRED, None


def _pool_utf8(pool: dict[int, tuple[int, object]], index: int) -> str:
    entry = pool.get(index)
    if entry is None or entry[0] != _TAG_UTF8:
        if entry is not None and entry[0] == _TAG_UTF8_UNPAIRED:
            raise ClassFileError(f"constant #{index}: unpaired surrogate in a name")
        raise PoolReferenceError(f"constant #{index}: expected a Utf8 entry")
    return entry[1]  # type: ignore[return-value]


def _pool_class_name(pool: dict[int, tuple[int, object]], index: int) -> str:
    entry = pool.get(index)
    if entry is None or entry[0] != _TAG_CLASS:
        raise PoolReferenceError(f"constant #{index}: expected a Class entry")
    name = _pool_utf8(pool, entry[1])  # type: ignore[arg-type]
    if not name:
        raise PoolReferenceError(f"constant #{index}: empty class name")
    return name.replace("/", ".")


def _skip_attributes(reader: _Reader) -> None:
    for _ in range(reader.u2()):
        reader.u2()  # attribute name index, unused
        reader.take(reader.u4())


def parse_classfile(data: bytes, source_file_name: str = "") -> ClassInfo:
    """Decode class-file bytes into the surface they expose.

    Accepts constant-pool tags 1, 3-12 and 15-20, modified UTF-8 strings and
    any major version >= 45; attributes are skipped, and so are bridge and
    synthetic methods, which no source declares.  Any malformed input raises
    a :class:`ClassFileError` subclass; this function never crashes on
    arbitrary byte strings.
    """
    reader = _Reader(data)
    magic = reader.u4()
    if magic != MAGIC:
        raise BadMagicError(magic)
    reader.u2()  # minor version
    major = reader.u2()
    if major < MIN_MAJOR_VERSION:
        raise ClassFileError(f"unsupported major version {major}")
    pool = _read_constant_pool(reader)
    reader.u2()  # class access flags, not part of the extracted surface
    qualified_name = _pool_class_name(pool, reader.u2())
    super_index = reader.u2()
    superclass_name = _pool_class_name(pool, super_index) if super_index else None
    interface_count = reader.u2()
    interface_names = tuple(_pool_class_name(pool, reader.u2()) for _ in range(interface_count))

    fields: list[FieldMember] = []
    for _ in range(reader.u2()):
        flags = reader.u2()
        name = _pool_utf8(pool, reader.u2())
        descriptor = _pool_utf8(pool, reader.u2())
        _skip_attributes(reader)
        fields.append(FieldMember(name, _parse_field_descriptor(descriptor), bool(flags & ACC_STATIC)))

    methods: list[MethodSignature] = []
    seen: set[tuple[str, str]] = set()
    for _ in range(reader.u2()):
        flags = reader.u2()
        name = _pool_utf8(pool, reader.u2())
        descriptor = _pool_utf8(pool, reader.u2())
        _skip_attributes(reader)
        parameter_types, return_type = parse_descriptor(descriptor)
        key = (name, descriptor)
        if key in seen:
            raise ClassFileError(f"duplicate method {name}{descriptor}")
        seen.add(key)
        if not flags & (ACC_BRIDGE | ACC_SYNTHETIC):
            methods.append(MethodSignature(name, parameter_types, return_type, bool(flags & ACC_STATIC)))

    _skip_attributes(reader)
    if reader.pos != len(data):
        raise ClassFileError(f"{len(data) - reader.pos} bytes of trailing data")
    return ClassInfo(
        qualified_name,
        superclass_name,
        interface_names,
        tuple(fields),
        tuple(methods),
        source_file_name,
    )


# ---------------------------------------------------------------------------
# Emitting
# ---------------------------------------------------------------------------

class _PoolBuilder:
    """Deduplicating, insertion-ordered constant pool (Utf8 and Class only)."""

    def __init__(self):
        self.entries: list[tuple[int, object]] = []
        self._index: dict[tuple[int, object], int] = {}

    def _add(self, entry: tuple[int, object]) -> int:
        existing = self._index.get(entry)
        if existing is not None:
            return existing
        index = len(self.entries) + 1
        self.entries.append(entry)
        self._index[entry] = index
        return index

    def utf8(self, text: str) -> int:
        return self._add((_TAG_UTF8, text))

    def class_ref(self, dotted_name: str) -> int:
        name_index = self.utf8(dotted_name.replace(".", "/"))
        return self._add((_TAG_CLASS, name_index))

    def serialize(self) -> bytes:
        out = bytearray()
        out += (len(self.entries) + 1).to_bytes(2, "big")
        for tag, payload in self.entries:
            out.append(tag)
            if tag == _TAG_UTF8:
                if payload.isascii() and "\x00" not in payload:  # type: ignore[union-attr]
                    raw = payload.encode("utf-8")  # type: ignore[union-attr]
                else:
                    raw = _encode_modified_utf8(payload)  # type: ignore[arg-type]
                if len(raw) > 0xFFFF:
                    raise InvalidClassInfoError(f"a name of {len(raw)} bytes is longer than 65535")
                out += len(raw).to_bytes(2, "big")
                out += raw
            else:
                out += payload.to_bytes(2, "big")  # type: ignore[union-attr]
        return bytes(out)


def _encode_modified_utf8(text: str) -> bytes:
    """``text`` in the modified UTF-8 of JVMS §4.4.7, the inverse of
    :func:`_decode_modified_utf8`: NUL is ``C0 80``, and a supplementary
    character is its two UTF-16 surrogates, three bytes each."""
    if any("\ud800" <= c <= "\udfff" for c in text):
        raise InvalidClassInfoError("unpaired surrogate in a name")
    units = "".join(
        c if c <= "\uffff" else chr(0xD7C0 + (ord(c) >> 10)) + chr(0xDC00 + (ord(c) & 0x3FF))
        for c in text
    )
    return units.encode("utf-8", "surrogatepass").replace(b"\x00", b"\xc0\x80")


def _check_reference_name(name: str, what: str) -> None:
    if not name:
        raise InvalidClassInfoError(f"{what} must be non-empty")
    if any(c in name for c in "/;["):
        raise InvalidClassInfoError(f"{what} {name!r} contains a reserved character")


def _check_type(type_name: TypeName, what: str) -> None:
    if type_name.dims > MAX_ARRAY_DIMS:
        raise InvalidClassInfoError(f"{what} has more than {MAX_ARRAY_DIMS} array dimensions")
    if type_name.name not in _CODE_BY_PRIMITIVE and type_name.name != "void":
        _check_reference_name(type_name.name, what)


def _validate_class_info(info: ClassInfo) -> None:
    _check_reference_name(info.qualified_name, "class name")
    if info.superclass_name is not None:
        _check_reference_name(info.superclass_name, "superclass name")
    for interface in info.interface_names:
        _check_reference_name(interface, "interface name")
    for member in info.fields:
        if not member.name:
            raise InvalidClassInfoError("field name must be non-empty")
        if member.declared_type.name == "void":
            raise InvalidClassInfoError(f"field {member.name!r} cannot have type void")
        _check_type(member.declared_type, "field type")
    seen: set[tuple[str, tuple[TypeName, ...]]] = set()
    for method in info.methods:
        if not method.name:
            raise InvalidClassInfoError("method name must be non-empty")
        for param in method.parameter_types:
            if param.name == "void":
                raise InvalidClassInfoError(f"method {method.name!r} has a void parameter")
            _check_type(param, "parameter type")
        _check_type(method.return_type, "return type")
        key = (method.name, method.parameter_types)
        if key in seen:
            raise InvalidClassInfoError(
                f"duplicate method {method.name!r} with identical parameter list"
            )
        seen.add(key)


def emit_classfile(info: ClassInfo) -> bytes:
    """Encode a :class:`ClassInfo` as a minimal, attribute-free class file.

    The constant pool is built in a fixed order, so emission is
    deterministic; ``parse_classfile(emit_classfile(info)) == info``.
    """
    _validate_class_info(info)
    pool = _PoolBuilder()
    this_index = pool.class_ref(info.qualified_name)
    super_index = pool.class_ref(info.superclass_name) if info.superclass_name else 0
    interface_indexes = [pool.class_ref(name) for name in info.interface_names]
    field_entries = [
        (
            ACC_PUBLIC | (ACC_STATIC if member.is_static else 0),
            pool.utf8(member.name),
            pool.utf8(_format_type(member.declared_type)),
        )
        for member in info.fields
    ]
    method_entries = [
        (
            ACC_PUBLIC | (ACC_STATIC if method.is_static else 0),
            pool.utf8(method.name),
            pool.utf8(format_descriptor(method.parameter_types, method.return_type)),
        )
        for method in info.methods
    ]

    out = bytearray()
    out += MAGIC.to_bytes(4, "big")
    out += (0).to_bytes(2, "big")  # minor version
    out += EMIT_MAJOR_VERSION.to_bytes(2, "big")
    out += pool.serialize()
    out += (ACC_PUBLIC | ACC_SUPER).to_bytes(2, "big")
    out += this_index.to_bytes(2, "big")
    out += super_index.to_bytes(2, "big")
    out += len(interface_indexes).to_bytes(2, "big")
    for index in interface_indexes:
        out += index.to_bytes(2, "big")
    for entries in (field_entries, method_entries):
        out += len(entries).to_bytes(2, "big")
        for flags, name_index, descriptor_index in entries:
            out += flags.to_bytes(2, "big")
            out += name_index.to_bytes(2, "big")
            out += descriptor_index.to_bytes(2, "big")
            out += (0).to_bytes(2, "big")  # attributes_count
    out += (0).to_bytes(2, "big")  # class attributes_count
    return bytes(out)


# ---------------------------------------------------------------------------
# Directory scanning
# ---------------------------------------------------------------------------

def scan_classfiles(
    directory: Path | str, extension: str
) -> tuple[list[ClassInfo], list[Diagnostic]]:
    """Recursively parse every file below ``directory`` with ``extension``.

    The files are those :func:`walk_files` lists, in its sorted order; each
    ClassInfo carries that relative POSIX path as ``source_file_name``.
    Files that fail to read or parse, and files that are not regular files,
    become diagnostics instead of aborting or blocking the scan.
    """
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"not a readable directory: {root}")
    infos: list[ClassInfo] = []
    diagnostics: list[Diagnostic] = []
    for relative in walk_files(root):
        if relative.endswith(extension):
            try:
                infos.append(parse_classfile(read_regular_file(root / relative), source_file_name=relative))
            except (OSError, ClassFileError) as exc:
                diagnostics.append(Diagnostic(relative, str(exc)))
    return infos, diagnostics


def walk_files(root: Path | str) -> list[str]:
    """The sorted POSIX paths, relative to ``root``, of the names ``os.walk``
    lists as files below it: never a directory, but any other symbolic link,
    a dangling one included.  These paths name the files in diagnostics,
    trees and reports."""
    top = os.path.join(root, "")
    files: list[str] = []
    for dirpath, _dirnames, filenames in os.walk(top):
        prefix = os.path.join(dirpath, "")[len(top):].replace(os.sep, "/")
        files.extend(prefix + name for name in filenames)
    files.sort()
    return files


# Open without waiting for a writer (POSIX) and without newline translation
# (Windows).
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)


def read_regular_file(path: Path | str, encoding: str | None = None) -> bytes | str:
    """The bytes of the file at ``path``, or its text in universal-newline mode
    when ``encoding`` is given.  The file is opened without waiting for a
    writer and checked through its open descriptor, so a named pipe, device or
    directory raises ``OSError("not a regular file")`` instead of blocking."""
    descriptor = os.open(path, _READ_FLAGS)
    try:
        if not stat.S_ISREG(os.fstat(descriptor).st_mode):
            raise OSError("not a regular file")
        file = open(descriptor, "rb" if encoding is None else "r", encoding=encoding)
    except BaseException:
        os.close(descriptor)
        raise
    with file:
        return file.read()
