import dataclasses
import random
from pathlib import Path

import pytest

from compatcheck.config import (
    ConfigError,
    InvalidDebugLevelError,
    MalformedLineError,
    MissingKeyError,
    ProjectConfig,
    load_config,
    load_config_file,
    parse_properties,
    render_properties,
)

REFERENCE_PROPERTIES = """PathToApplication=E:/Eclipse/Analyser/DUT/test1
ASLTFileExtension=.aslt
ClassFileExtension=.class
ASLTJavaExpressionStatement=ASLTJavaExpressionStatement
ASLTJavaIdentifierExpression=ASLTJavaIdentifierExpression
ASLTJavaLiteralTag=ASLTJavaLiteralTag
ASLTJavaMethodInvokeExpression=ASLTJavaMethodInvokeExpression
ASLTJavaSimpleAssignmentOperatorExpression=ASLTJavaSimpleAssignmentOperatorExpression
ASLTJavaVariableDeclarator=ASLTJavaVariableDeclarator
ASLTJavaVariableDeclaration=ASLTJavaVariableDeclaration
DebugLevel=1
"""


def test_parse_single_pair():
    assert parse_properties("PathToApplication=E:/Eclipse/Analyser/DUT/test1") == {
        "PathToApplication": "E:/Eclipse/Analyser/DUT/test1"
    }


def test_parse_empty_text():
    assert parse_properties("") == {}


def test_parse_two_pairs_preserves_order():
    kv = parse_properties("DebugLevel=1\nASLTFileExtension=.aslt")
    assert kv == {"DebugLevel": "1", "ASLTFileExtension": ".aslt"}
    assert list(kv) == ["DebugLevel", "ASLTFileExtension"]


def test_parse_value_is_everything_after_first_equals():
    assert parse_properties("a=b=c") == {"a": "b=c"}


def test_parse_trims_key_and_value():
    assert parse_properties("  DebugLevel  =  2  ") == {"DebugLevel": "2"}


def test_parse_last_duplicate_wins():
    assert parse_properties("k=1\nk=2") == {"k": "2"}


def test_parse_skips_blanks_and_comments():
    text = "\n\n# a comment\n   # indented comment\nk=v\n\n"
    assert parse_properties(text) == {"k": "v"}


def test_parse_malformed_line_carries_line_number():
    with pytest.raises(MalformedLineError) as exc:
        parse_properties("k=v\nnot a pair\n")
    assert exc.value.line_number == 2


def test_load_reference_properties_contents():
    cfg = load_config(parse_properties(REFERENCE_PROPERTIES), base_dir="/tmp")
    assert cfg.debug_level == 1
    assert cfg.aslt_file_extension == ".aslt"
    assert cfg.class_file_extension == ".class"
    # The seven ASLTJava... node-kind keys are ignored.
    assert cfg == ProjectConfig(Path("/tmp") / "E:/Eclipse/Analyser/DUT/test1", debug_level=1)


def test_project_config_has_four_fields():
    names = [f.name for f in dataclasses.fields(ProjectConfig)]
    assert names == ["path_to_application", "aslt_file_extension", "class_file_extension", "debug_level"]


def test_loaded_configs_are_immutable_equal_and_hash_alike(tmp_path):
    path = tmp_path / "constants.properties"
    path.write_text(REFERENCE_PROPERTIES, encoding="utf-8")
    first, second = load_config_file(path), load_config_file(path)
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.debug_level = 2


def test_load_requires_path():
    with pytest.raises(MissingKeyError):
        load_config({"DebugLevel": "1"})


def test_load_rejects_out_of_range_debug_level():
    with pytest.raises(InvalidDebugLevelError):
        load_config({"PathToApplication": "/p", "DebugLevel": "7"})


def test_load_rejects_non_numeric_debug_level():
    for bad in ("x", "", "-1", "1.0"):
        with pytest.raises(InvalidDebugLevelError):
            load_config({"PathToApplication": "/p", "DebugLevel": bad})


# int() refuses strings of more than 4300 digits, so the longest values
# would raise ValueError if the level were converted before it was checked.
@pytest.mark.parametrize(
    "raw, level",
    [("0", 0), ("00", 0), ("01", 1), ("002", 2), ("0" * 5000, 0), ("0" * 5000 + "2", 2)],
    ids=["0", "00", "01", "002", "5000-zeros", "5000-zeros-then-2"],
)
def test_load_accepts_debug_levels_with_leading_zeros(raw, level):
    assert load_config({"PathToApplication": "/p", "DebugLevel": raw}).debug_level == level


@pytest.mark.parametrize(
    "raw",
    ["10", "0" * 5000 + "3", "1" + "0" * 5000, "9" * 5000, "\u0661"],
    ids=["10", "5000-zeros-then-3", "1-then-5000-zeros", "5000-nines", "arabic-one"],
)
def test_load_rejects_out_of_range_debug_levels_of_any_length(raw):
    with pytest.raises(InvalidDebugLevelError):
        load_config({"PathToApplication": "/p", "DebugLevel": raw})


@pytest.mark.parametrize(
    "raw, echoed",
    [
        ("7", "'7'"),
        ("3" * 20, repr("3" * 20)),
        ("3" * 21, f"{'3' * 20!r}... (21 characters)"),
        ("9" * 5000, f"{'9' * 20!r}... (5000 characters)"),
    ],
    ids=["one-digit", "at-the-bound", "over-the-bound", "5000-nines"],
)
def test_invalid_debug_level_message_echoes_a_bounded_prefix(raw, echoed):
    with pytest.raises(InvalidDebugLevelError) as caught:
        load_config({"PathToApplication": "/p", "DebugLevel": raw})
    assert str(caught.value) == f"DebugLevel must be one of 0, 1, 2; got {echoed}"
    assert caught.value.value == raw


def test_load_defaults():
    cfg = load_config({"PathToApplication": "/p"})
    assert cfg.aslt_file_extension == ".aslt"
    assert cfg.class_file_extension == ".class"
    assert cfg.debug_level == 0
    assert cfg == ProjectConfig(Path("/p"))


def test_load_rejects_bad_extension():
    with pytest.raises(ConfigError):
        load_config({"PathToApplication": "/p", "ASLTFileExtension": "aslt"})
    with pytest.raises(ConfigError):
        load_config({"PathToApplication": "/p", "ClassFileExtension": ""})


@pytest.mark.parametrize("key", ["ASLTFileExtension", "ClassFileExtension"])
@pytest.mark.parametrize("extension", [".", ".x/y", "./aslt", ".x\\y"])
def test_load_rejects_an_extension_that_is_not_a_file_suffix(key, extension):
    with pytest.raises(ConfigError, match=f"{key} must name a file suffix"):
        load_config({"PathToApplication": "/p", key: extension})


@pytest.mark.parametrize(
    "aslt_extension, class_extension",
    [(".class", None), (None, ".aslt"), (".bin", ".bin"), (".tree.aslt", ".tree.aslt")],
)
def test_load_rejects_equal_tree_and_class_extensions(aslt_extension, class_extension):
    kv = {"PathToApplication": "/p"}
    if aslt_extension is not None:
        kv["ASLTFileExtension"] = aslt_extension
    if class_extension is not None:
        kv["ClassFileExtension"] = class_extension
    same = aslt_extension or class_extension
    with pytest.raises(ConfigError) as exc:
        load_config(kv)
    assert str(exc.value) == (
        f"ASLTFileExtension and ClassFileExtension must differ, both are {same!r}"
    )


@pytest.mark.parametrize(
    "aslt_extension, class_extension, message",
    [
        (None, ".java", "ClassFileExtension '.java' ends with the source suffix '.java'"),
        (".java", None, "ASLTFileExtension '.java' ends with the source suffix '.java'"),
        (None, ".x.java", "ClassFileExtension '.x.java' ends with the source suffix '.java'"),
        (".tree.aslt", ".aslt", "ASLTFileExtension '.tree.aslt' ends with ClassFileExtension '.aslt'"),
        (None, ".x.aslt", "ClassFileExtension '.x.aslt' ends with ASLTFileExtension '.aslt'"),
    ],
)
def test_load_rejects_extensions_that_overlap(aslt_extension, class_extension, message):
    kv = {"PathToApplication": "/p"}
    if aslt_extension is not None:
        kv["ASLTFileExtension"] = aslt_extension
    if class_extension is not None:
        kv["ClassFileExtension"] = class_extension
    with pytest.raises(ConfigError) as exc:
        load_config(kv)
    assert str(exc.value) == f"{message}, so a file could be read as both"


def test_load_accepts_extensions_that_differ_only_in_part():
    cfg = load_config(
        {"PathToApplication": "/p", "ASLTFileExtension": ".class.aslt", "ClassFileExtension": ".class"}
    )
    assert (cfg.aslt_file_extension, cfg.class_file_extension) == (".class.aslt", ".class")


def test_load_accepts_a_multi_dot_extension():
    cfg = load_config({"PathToApplication": "/p", "ASLTFileExtension": ".tree.aslt"})
    assert cfg.aslt_file_extension == ".tree.aslt"


def test_load_ignores_unknown_keys():
    cfg = load_config({"PathToApplication": "/p", "SomethingElse": "whatever"})
    assert cfg.path_to_application == Path("/p")


def test_relative_path_resolved_against_base_dir(tmp_path):
    cfg = load_config({"PathToApplication": "sub/project"}, base_dir=tmp_path)
    assert cfg.path_to_application == tmp_path / "sub" / "project"


def test_absolute_path_kept(tmp_path):
    cfg = load_config({"PathToApplication": "/abs/project"}, base_dir=tmp_path)
    assert cfg.path_to_application == Path("/abs/project")


def test_load_config_file(tmp_path):
    path = tmp_path / "constants.properties"
    path.write_text("PathToApplication=.\nDebugLevel=2\n", encoding="utf-8")
    cfg = load_config_file(path)
    assert cfg.path_to_application == tmp_path / "."
    assert cfg.debug_level == 2


def _random_config(rng: random.Random) -> ProjectConfig:
    return ProjectConfig(
        path_to_application=Path("/proj") / f"p{rng.randrange(1000)}",
        aslt_file_extension="." + rng.choice(["aslt", "a", "tree"]),
        class_file_extension="." + rng.choice(["class", "bin"]),
        debug_level=rng.choice((0, 1, 2)),
    )


def test_render_load_round_trip_is_identity():
    rng = random.Random(20_260_809)
    for _ in range(50):
        cfg = _random_config(rng)
        again = load_config(parse_properties(render_properties(cfg)), base_dir="/elsewhere")
        assert again == cfg


def test_round_trip_survives_injected_comments_and_blanks():
    rng = random.Random(7)
    cfg = _random_config(rng)
    lines = render_properties(cfg).split("\n")
    noisy = []
    for line in lines:
        if rng.random() < 0.5:
            noisy.append(rng.choice(["", "# noise", "   "]))
        noisy.append(line)
    again = load_config(parse_properties("\n".join(noisy)), base_dir="/elsewhere")
    assert again == cfg
