import dataclasses
import hashlib
import os
import pickle
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compatcheck
from compatcheck.classfile import (
    VOID,
    BadMagicError,
    ClassFileError,
    ClassInfo,
    DescriptorError,
    FieldMember,
    InvalidClassInfoError,
    MethodSignature,
    TruncatedFileError,
    TypeName,
    emit_classfile,
    format_descriptor,
    parse_classfile,
    parse_descriptor,
    read_regular_file,
    scan_classfiles,
)

from compatcheck.aslt import MAX_ARRAY_DIMS
from compatcheck.cli import gen_testbed
from randgen import random_class_info

SAMPLE_CLASS_B = ClassInfo(
    qualified_name="SampleClassB",
    superclass_name="java.lang.Object",
    methods=(MethodSignature("doSomething", (TypeName("int"),), VOID),),
)


# ---------------------------------------------------------------------------
# TypeName
# ---------------------------------------------------------------------------

def test_type_name_str():
    assert str(TypeName("int")) == "int"
    assert str(TypeName("double", 2)) == "double[][]"
    assert str(TypeName("java.lang.String", 1)) == "java.lang.String[]"


def test_type_name_rejects_void_array():
    with pytest.raises(ValueError):
        TypeName("void", 1)


@pytest.mark.parametrize(
    "arguments, message",
    [(("",), "type name must be non-empty"), (("int", -1), "array dimension count must be >= 0")],
)
def test_type_name_rejects_an_empty_name_and_negative_dims(arguments, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TypeName(*arguments)


def test_type_name_hash_is_the_hash_of_its_name_and_dims():
    for type_name in (TypeName("int"), TypeName("java.lang.String", 2), VOID):
        assert hash(type_name) == hash((type_name.name, type_name.dims))
    wider = dataclasses.replace(TypeName("int", 1), dims=3)
    assert hash(wider) == hash(("int", 3)) and wider == TypeName("int", 3)
    renamed = dataclasses.replace(TypeName("int", 1), name="long")
    assert hash(renamed) == hash(("long", 1)) and renamed == TypeName("long", 1)


def test_type_name_repr_and_equality_leave_the_stored_hash_out():
    assert repr(TypeName("int", 2)) == "TypeName(name='int', dims=2)"
    assert TypeName("int", 2) == TypeName("int", 2) != TypeName("int", 1)
    assert TypeName("int") != TypeName("long")
    assert TypeName.__match_args__ == ("name", "dims")


def test_an_unpickled_type_name_hashes_as_its_own_process_does():
    """String hashes differ between processes, so a pickled TypeName must
    not carry its hash into another one."""
    data = pickle.dumps(TypeName("java.lang.String", 1))
    check = (
        "import pickle, sys; t = pickle.loads(sys.stdin.buffer.read()); "
        "assert hash(t) == hash(('java.lang.String', 1)) and {t: 1}[TypeName('java.lang.String', 1)]"
    )
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", "from compatcheck.classfile import TypeName; " + check],
            input=data,
            capture_output=True,
            timeout=60,
            env={
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": str(Path(compatcheck.__file__).parent.parent),
            },
        )
        assert result.returncode == 0, result.stderr.decode()


def test_signature_equality_ignores_static_flag():
    a = MethodSignature("m", (TypeName("int"),), VOID, is_static=False)
    b = MethodSignature("m", (TypeName("int"),), VOID, is_static=True)
    assert a == b
    assert a != MethodSignature("m", (TypeName("long"),), VOID)


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

def test_descriptor_int_to_void():
    assert parse_descriptor("(I)V") == ((TypeName("int"),), VOID)


def test_descriptor_string_to_int():
    assert parse_descriptor("(Ljava/lang/String;)I") == (
        (TypeName("java.lang.String"),),
        TypeName("int"),
    )


def test_descriptor_double_array_to_object():
    assert parse_descriptor("([[D)Ljava/lang/Object;") == (
        (TypeName("double", 2),),
        TypeName("java.lang.Object"),
    )


def test_descriptor_every_primitive_code():
    # Brute force over the full primitive code table.
    by_code = {
        "B": "byte",
        "C": "char",
        "D": "double",
        "F": "float",
        "I": "int",
        "J": "long",
        "S": "short",
        "Z": "boolean",
    }
    for code, name in by_code.items():
        params, ret = parse_descriptor(f"({code})V")
        assert params == (TypeName(name),)
        assert ret == VOID


@pytest.mark.parametrize(
    "bad",
    ["", "I", "(", "(I", "()", "(V)V", "()Vx", "(L;)V", "(Lfoo)V", "()[", "()[V", "(I)V ", "(Q)V"],
)
def test_descriptor_rejects_malformed(bad):
    with pytest.raises(DescriptorError):
        parse_descriptor(bad)


def test_descriptor_error_carries_offset():
    with pytest.raises(DescriptorError) as exc:
        parse_descriptor("(IV)V")
    assert exc.value.offset == 2


def test_descriptor_accepts_the_most_array_dimensions():
    dims = "[" * MAX_ARRAY_DIMS
    assert parse_descriptor(f"({dims}I){dims}Ljava/lang/String;") == (
        (TypeName("int", MAX_ARRAY_DIMS),),
        TypeName("java.lang.String", MAX_ARRAY_DIMS),
    )


@pytest.mark.parametrize("descriptor", ["(" + "[" * 256 + "I)V", "()" + "[" * 256 + "I"])
def test_descriptor_rejects_too_many_array_dimensions(descriptor):
    with pytest.raises(DescriptorError) as exc:
        parse_descriptor(descriptor)
    assert exc.value.offset == descriptor.index("[")
    assert "more than 255 dimensions" in str(exc.value)


def test_descriptor_rejects_dotted_reference():
    with pytest.raises(DescriptorError):
        parse_descriptor("(Ljava.lang.String;)V")


def test_descriptor_round_trip_identity():
    cases = ["()V", "(I)V", "(Ljava/lang/String;)I", "([[D)Ljava/lang/Object;", "(BCDFIJSZ)J", "([Ljava/lang/String;)V"]
    for text in cases:
        params, ret = parse_descriptor(text)
        assert format_descriptor(params, ret) == text


def test_descriptor_round_trip_random():
    rng = random.Random(11)
    from randgen import random_return_type, random_type

    for _ in range(200):
        params = tuple(random_type(rng) for _ in range(rng.randrange(0, 5)))
        ret = random_return_type(rng)
        text = format_descriptor(params, ret)
        assert parse_descriptor(text) == (params, ret)


# ---------------------------------------------------------------------------
# parse_classfile / emit_classfile
# ---------------------------------------------------------------------------

def test_round_trip_empty_class():
    info = ClassInfo(qualified_name="Empty")
    assert parse_classfile(emit_classfile(info)) == info


def test_round_trip_sample_class_b_field_by_field():
    parsed = parse_classfile(emit_classfile(SAMPLE_CLASS_B))
    assert parsed.qualified_name == SAMPLE_CLASS_B.qualified_name
    assert parsed.superclass_name == SAMPLE_CLASS_B.superclass_name
    assert parsed.interface_names == SAMPLE_CLASS_B.interface_names
    assert parsed.fields == SAMPLE_CLASS_B.fields
    assert parsed.methods == SAMPLE_CLASS_B.methods
    assert parsed == SAMPLE_CLASS_B


def test_round_trip_preserves_static_flags():
    info = ClassInfo(
        qualified_name="Flags",
        fields=(FieldMember("counter", TypeName("int"), is_static=True),),
        methods=(MethodSignature("main", (TypeName("java.lang.String", 1),), VOID, is_static=True),),
    )
    parsed = parse_classfile(emit_classfile(info))
    assert parsed.fields[0].is_static
    assert parsed.methods[0].is_static


def test_round_trip_randomized():
    rng = random.Random(2209)
    for _ in range(60):
        info = random_class_info(rng)
        assert parse_classfile(emit_classfile(info)) == info


def test_emit_is_deterministic():
    rng = random.Random(5)
    info = random_class_info(rng)
    assert emit_classfile(info) == emit_classfile(info)


def test_bad_magic():
    with pytest.raises(BadMagicError):
        parse_classfile(b"\x00\x00\x00\x00")


def test_empty_input_is_truncated():
    with pytest.raises(TruncatedFileError):
        parse_classfile(b"")


def test_every_truncation_prefix_fails_cleanly():
    data = emit_classfile(SAMPLE_CLASS_B)
    for cut in range(len(data)):
        with pytest.raises(ClassFileError):
            parse_classfile(data[:cut])


def test_trailing_garbage_rejected():
    data = emit_classfile(SAMPLE_CLASS_B)
    with pytest.raises(ClassFileError):
        parse_classfile(data + b"\x00")


def test_old_version_rejected():
    data = bytearray(emit_classfile(SAMPLE_CLASS_B))
    data[6:8] = (44).to_bytes(2, "big")
    with pytest.raises(ClassFileError):
        parse_classfile(bytes(data))


def test_fuzz_random_bytes_never_crash():
    rng = random.Random(404)
    for _ in range(2000):
        blob = rng.randbytes(rng.randrange(0, 80))
        if rng.random() < 0.5:
            blob = b"\xca\xfe\xba\xbe" + blob
        try:
            parse_classfile(blob)
        except ClassFileError:
            pass


def test_emit_rejects_duplicate_overload():
    info = ClassInfo(
        qualified_name="Dup",
        methods=(
            MethodSignature("m", (TypeName("int"),), VOID),
            MethodSignature("m", (TypeName("int"),), TypeName("int")),
        ),
    )
    with pytest.raises(InvalidClassInfoError):
        emit_classfile(info)


def test_emit_allows_distinct_overloads():
    info = ClassInfo(
        qualified_name="Over",
        methods=(
            MethodSignature("m", (TypeName("int"),), VOID),
            MethodSignature("m", (TypeName("long"),), VOID),
        ),
    )
    assert parse_classfile(emit_classfile(info)) == info


def test_emit_rejects_void_field_and_parameter():
    with pytest.raises(InvalidClassInfoError):
        emit_classfile(ClassInfo("A", fields=(FieldMember("x", VOID),)))
    with pytest.raises(InvalidClassInfoError):
        emit_classfile(ClassInfo("A", methods=(MethodSignature("m", (VOID,), VOID),)))


def test_emit_rejects_too_many_array_dimensions():
    emit_classfile(ClassInfo("A", fields=(FieldMember("a", TypeName("int", MAX_ARRAY_DIMS)),)))
    too_many = TypeName("int", MAX_ARRAY_DIMS + 1)
    with pytest.raises(InvalidClassInfoError):
        emit_classfile(ClassInfo("A", fields=(FieldMember("a", too_many),)))
    with pytest.raises(InvalidClassInfoError):
        emit_classfile(ClassInfo("A", methods=(MethodSignature("m", (), too_many),)))


def test_emit_rejects_slash_in_name():
    with pytest.raises(InvalidClassInfoError):
        emit_classfile(ClassInfo("bad/name"))


@pytest.mark.parametrize(
    "info, message",
    [
        (ClassInfo(""), "class name must be non-empty"),
        (ClassInfo("A", fields=(FieldMember("", TypeName("int")),)), "field name must be non-empty"),
        (ClassInfo("A", methods=(MethodSignature(""),)), "method name must be non-empty"),
    ],
)
def test_emit_rejects_an_empty_name(info, message):
    with pytest.raises(InvalidClassInfoError, match=f"^{message}$"):
        emit_classfile(info)


# Names outside ASCII, or holding NUL, in every place a name is written: the
# class, a field, a method and a type in a descriptor.
@pytest.mark.parametrize(
    "name", ["n\x00ul", "x\U0001D49C", "caf\u00e9", "\u65e5\u672c", "\u03a9\U0001F600\x00"]
)
def test_emit_writes_modified_utf8_that_parses_back(name):
    info = ClassInfo(
        "p." + name,
        "java.lang.Object",
        fields=(FieldMember(name, TypeName(name, 1)),),
        methods=(MethodSignature(name, (TypeName(name),), TypeName("q." + name)),),
    )
    data = emit_classfile(info)
    assert parse_classfile(data) == info
    assert ("\x00" in name) == (b"\xc0\x80" in data)
    assert not any(c.encode("utf-8") in data for c in name if ord(c) > 0xFFFF)


def test_emit_encodes_nul_and_a_supplementary_character_as_jvms_4_4_7_does():
    data = emit_classfile(ClassInfo("A", methods=(MethodSignature("x\U0001D49C\x00"),)))
    # U+1D49C is the surrogates D835 DC9C, three bytes each; NUL is C0 80.
    assert b"\x01\x00\x09x\xed\xa0\xb5\xed\xb2\x9c\xc0\x80" in data
    assert "\U0001D49C".encode("utf-8") not in data


def test_emit_keeps_the_bytes_of_ascii_names():
    data = emit_classfile(ClassInfo("A", methods=(MethodSignature("run"),)))
    assert b"\x01\x00\x03run" in data and b"\x01\x00\x03()V" in data


@pytest.mark.parametrize("name", ["x\ud835", "\udc9cx", "\ud835\udc9c"])
def test_emit_rejects_a_surrogate_in_a_name(name):
    for info in (
        ClassInfo("A", methods=(MethodSignature(name),)),
        ClassInfo(name),
        ClassInfo("A", fields=(FieldMember("f", TypeName(name)),)),
    ):
        with pytest.raises(InvalidClassInfoError, match="^unpaired surrogate in a name$"):
            emit_classfile(info)


def test_emit_rejects_a_name_longer_than_a_pool_entry_holds():
    emit_classfile(ClassInfo("A", methods=(MethodSignature("m" * 0xFFFF),)))
    with pytest.raises(InvalidClassInfoError, match="^a name of 65536 bytes is longer than 65535$"):
        emit_classfile(ClassInfo("A", methods=(MethodSignature("m" * 0x10000),)))
    # Three bytes a character: 21,846 of them are 65,538 bytes.
    with pytest.raises(InvalidClassInfoError, match="^a name of 65538 bytes is longer than 65535$"):
        emit_classfile(ClassInfo("A", methods=(MethodSignature("\u65e5" * 21846),)))


def test_the_testbed_class_files_keep_their_bytes(tmp_path):
    gen_testbed(tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.class"))
    }
    assert digests == {
        "SampleClassA.class": "77be2a26f5290a3915aa489f8b57849c8edc8038dba0bad6e66985658ebfcc6c",
        "SampleClassB.class": "7dcd6122834d146bfa0fa7ce61cc29a1a1af488acd15befe5f34d384cd91ac65",
        "TestBed.class": "94d0f93860b4ecf26ce3e64a7ca2b3b0506705f968b216909ce6561848a2da4c",
    }


@pytest.mark.skipif(shutil.which("javap") is None, reason="javap is not installed")
def test_javap_reads_an_emitted_supplementary_character(tmp_path):
    info = ClassInfo("A", "java.lang.Object", methods=(MethodSignature("x\U0001D49C"),))
    (tmp_path / "A.class").write_bytes(emit_classfile(info))
    result = subprocess.run(
        ["javap", "-p", "-J-Dfile.encoding=UTF-8", "-J-Dstdout.encoding=UTF-8", "A.class"],
        cwd=tmp_path,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert "public void x\U0001D49C();" in result.stdout.decode("utf-8")


# ---------------------------------------------------------------------------
# Class files the emitter never writes
# ---------------------------------------------------------------------------

def _u2(value):
    return value.to_bytes(2, "big")


def _utf8(raw):
    return b"\x01" + _u2(len(raw)) + raw


def _members(members):
    return _u2(len(members)) + b"".join(_u2(f) + _u2(n) + _u2(d) + _u2(0) for f, n, d in members)


def _class_file(pool, methods=(), fields=(), this_class=2):
    """Class ``T`` with ``pool`` after its own entries #1 (Utf8 "T") and #2
    (its Class), and ``fields`` and ``methods`` as (flags, name index,
    descriptor index); ``this_class`` names the class's own entry."""
    out = b"\xca\xfe\xba\xbe" + _u2(0) + _u2(61) + _u2(3 + len(pool))
    out += _utf8(b"T") + b"\x07" + _u2(1) + b"".join(pool)
    out += _u2(0x21) + _u2(this_class) + _u2(0) + _u2(0)  # flags, this, super, interfaces
    return out + _members(fields) + _members(methods) + _u2(0)


def test_pool_tags_15_to_20_are_read_past():
    pool = [
        b"\x0f\x06" + _u2(2),  # #3 MethodHandle
        b"\x10" + _u2(10),  # #4 MethodType
        b"\x11" + _u2(0) + _u2(10),  # #5 Dynamic
        b"\x12" + _u2(0) + _u2(10),  # #6 InvokeDynamic
        b"\x13" + _u2(1),  # #7 Module
        b"\x14" + _u2(1),  # #8 Package
        _utf8(b"m"),  # #9
        _utf8(b"()V"),  # #10
    ]
    info = parse_classfile(_class_file(pool, [(0x0001, 9, 10)]))
    assert info == ClassInfo("T", methods=(MethodSignature("m"),))
    with pytest.raises(ClassFileError, match="constant #3: expected a Utf8 entry"):
        parse_classfile(_class_file(pool, [(0x0001, 3, 10)]))
    for tag in (2, 13, 14, 21):
        with pytest.raises(ClassFileError, match=f"constant #3: unsupported tag {tag}$"):
            parse_classfile(_class_file([bytes([tag]) + _u2(1)]))


@pytest.mark.parametrize(
    "pool, this_class, message",
    [
        ([], 1, "constant #1: expected a Class entry"),
        ([_utf8(b""), b"\x07" + _u2(3)], 4, "constant #4: empty class name"),
    ],
)
def test_the_class_entry_must_name_a_class(pool, this_class, message):
    with pytest.raises(ClassFileError, match=f"^{message}$"):
        parse_classfile(_class_file(pool, this_class=this_class))


def test_a_field_descriptor_with_trailing_data_is_rejected():
    # Field x: name #3, descriptor #4.
    info = parse_classfile(_class_file([_utf8(b"x"), _utf8(b"I")], fields=[(0, 3, 4)]))
    assert info.fields == (FieldMember("x", TypeName("int")),)
    message = "^descriptor error at offset 1: trailing data after field type$"
    with pytest.raises(DescriptorError, match=message):
        parse_classfile(_class_file([_utf8(b"x"), _utf8(b"II")], fields=[(0, 3, 4)]))


def test_modified_utf8_decodes_nul_and_surrogate_pairs():
    pool = [
        _utf8(b"smile\xed\xa0\xbd\xed\xb8\x80"),  # #3: U+1F600 as two surrogates
        _utf8(b"n\xc0\x80"),  # #4: NUL as C0 80
        _utf8(b"\xed\xa0\x80"),  # #5: an unpaired surrogate, legal in a string constant
        _utf8(b"()V"),  # #6
    ]
    info = parse_classfile(_class_file(pool, [(0x0001, 3, 6), (0x0001, 4, 6)]))
    assert [m.name for m in info.methods] == ["smile\U0001F600", "n\x00"]
    with pytest.raises(ClassFileError, match="constant #5: unpaired surrogate in a name"):
        parse_classfile(_class_file(pool, [(0x0001, 5, 6)]))


@pytest.mark.parametrize(
    "raw, reason",
    [
        (b"\xff", "invalid start byte"),
        (b"\xc0\x81", "invalid start byte"),
        (b"a\xed\xa0", "invalid continuation byte"),
        (b"\xe2\x82", "unexpected end of data"),
    ],
)
def test_malformed_utf8_keeps_the_plain_decode_message(raw, reason):
    with pytest.raises(ClassFileError) as caught:
        parse_classfile(_class_file([_utf8(raw)]))
    assert str(caught.value) == f"constant #3: invalid utf-8 ({reason})"


def test_bridge_and_synthetic_methods_are_not_surface():
    pool = [
        _utf8(b"get"),  # #3
        _utf8(b"()Ljava/lang/String;"),  # #4
        _utf8(b"()Ljava/lang/Object;"),  # #5
        _utf8(b"lambda$m$0"),  # #6
        _utf8(b"()V"),  # #7
    ]
    bridge, private_static_synthetic = 0x1041, 0x100A
    info = parse_classfile(
        _class_file(pool, [(0x0001, 3, 4), (bridge, 3, 5), (private_static_synthetic, 6, 7)])
    )
    assert info.methods == (MethodSignature("get", (), TypeName("java.lang.String")),)
    # Two methods may share a name and parameters; only name plus descriptor is unique.
    both = parse_classfile(_class_file(pool, [(0x0001, 3, 4), (0x0001, 3, 5)]))
    assert [str(m.return_type) for m in both.methods] == ["java.lang.String", "java.lang.Object"]
    with pytest.raises(ClassFileError, match=r"duplicate method get\(\)Ljava/lang/Object;"):
        parse_classfile(_class_file(pool, [(0x0001, 3, 5), (bridge, 3, 5)]))


# ---------------------------------------------------------------------------
# scan_classfiles
# ---------------------------------------------------------------------------

def _write_class(directory, info):
    path = directory / f"{info.qualified_name}.class"
    path.write_bytes(emit_classfile(info))
    return path


def test_scan_returns_sorted_infos(tmp_path):
    b = ClassInfo("SampleClassB", methods=(MethodSignature("doSomething", (TypeName("int"),), VOID),))
    a = ClassInfo("SampleClassA", methods=(MethodSignature("run", (), VOID),))
    _write_class(tmp_path, b)
    _write_class(tmp_path, a)
    infos, diagnostics = scan_classfiles(tmp_path, ".class")
    assert [i.qualified_name for i in infos] == ["SampleClassA", "SampleClassB"]
    assert [i.source_file_name for i in infos] == ["SampleClassA.class", "SampleClassB.class"]
    assert diagnostics == []


def test_scan_recurses_into_subdirectories(tmp_path):
    (tmp_path / "pkg").mkdir()
    _write_class(tmp_path / "pkg", ClassInfo("Inner"))
    infos, _ = scan_classfiles(tmp_path, ".class")
    assert [i.source_file_name for i in infos] == ["pkg/Inner.class"]


def test_scan_empty_directory(tmp_path):
    assert scan_classfiles(tmp_path, ".class") == ([], [])


def test_scan_collects_diagnostics_for_corrupt_files(tmp_path):
    _write_class(tmp_path, ClassInfo("Good"))
    (tmp_path / "Broken.class").write_bytes(b"\xca\xfe\xba\xbe garbage")
    infos, diagnostics = scan_classfiles(tmp_path, ".class")
    assert [i.qualified_name for i in infos] == ["Good"]
    assert len(diagnostics) == 1
    assert diagnostics[0].file == "Broken.class"


def class_file_with_array_field(dims: int) -> bytes:
    """A class file whose field ``a`` has ``dims`` dimensions, even past the
    bound that the emitter enforces."""
    data = emit_classfile(ClassInfo("Wide", fields=(FieldMember("a", TypeName("int", 1)),)))
    return data.replace(b"\x01\x00\x02[I", b"\x01" + (dims + 1).to_bytes(2, "big") + b"[" * dims + b"I")


def test_scan_turns_too_many_array_dimensions_into_a_diagnostic(tmp_path):
    _write_class(tmp_path, ClassInfo("Good"))
    (tmp_path / "Wide.class").write_bytes(class_file_with_array_field(MAX_ARRAY_DIMS + 1))
    infos, diagnostics = scan_classfiles(tmp_path, ".class")
    assert [i.qualified_name for i in infos] == ["Good"]
    assert [d.file for d in diagnostics] == ["Wide.class"]
    assert "more than 255 dimensions" in diagnostics[0].message
    wide = parse_classfile(class_file_with_array_field(MAX_ARRAY_DIMS))
    assert wide.fields == (FieldMember("a", TypeName("int", MAX_ARRAY_DIMS)),)


def test_scan_missing_directory_raises(tmp_path):
    with pytest.raises(OSError):
        scan_classfiles(tmp_path / "nope", ".class")


def test_read_regular_file_reads_as_path_reads_and_refuses_a_directory(tmp_path):
    path = tmp_path / "A.java"
    path.write_bytes(b"class A {\r\n}\r\n")
    assert read_regular_file(path) == path.read_bytes()
    assert read_regular_file(path, "utf-8") == path.read_text(encoding="utf-8") == "class A {\n}\n"
    path.write_bytes(b"class \xff")
    with pytest.raises(UnicodeDecodeError) as ours:
        read_regular_file(path, "utf-8")
    with pytest.raises(UnicodeDecodeError) as theirs:
        path.read_text(encoding="utf-8")
    assert str(ours.value) == str(theirs.value)
    missing = tmp_path / "no" / "B.java"
    with pytest.raises(OSError) as ours:
        read_regular_file(missing, "utf-8")
    with pytest.raises(OSError) as theirs:
        missing.read_text(encoding="utf-8")
    assert str(ours.value) == str(theirs.value)
    with pytest.raises(OSError, match="^not a regular file$"):
        read_regular_file(tmp_path)
