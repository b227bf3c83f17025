"""Project configuration: parsing and validation of ``constants.properties``.

The analyser is driven by a small plain-text properties file.  One required
key names the project directory; the other three (the tree and class-file
extensions and the debug level) have defaults.  Any other key is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Mapping

from .classfile import read_regular_file

# The suffix of a source file.  The tree and class-file suffixes are set by
# the two extension keys.
SOURCE_EXTENSION = ".java"

KEY_PATH = "PathToApplication"
KEY_ASLT_EXTENSION = "ASLTFileExtension"
KEY_CLASS_EXTENSION = "ClassFileExtension"
KEY_DEBUG_LEVEL = "DebugLevel"

KNOWN_KEYS = frozenset((KEY_PATH, KEY_ASLT_EXTENSION, KEY_CLASS_EXTENSION, KEY_DEBUG_LEVEL))


class ConfigError(Exception):
    """Raised when the configuration cannot be parsed or validated."""


class MalformedLineError(ConfigError):
    """A non-blank, non-comment line without a ``=`` separator."""

    def __init__(self, line_number: int, line: str):
        super().__init__(f"line {line_number}: expected key=value, got {line.strip()!r}")
        self.line_number = line_number


class MissingKeyError(ConfigError):
    def __init__(self, key: str):
        super().__init__(f"required key {key!r} is missing")
        self.key = key


class InvalidDebugLevelError(ConfigError):
    def __init__(self, value: str):
        # A value longer than 20 characters is echoed as a prefix and its length.
        shown = repr(value[:20]) + (f"... ({len(value)} characters)" if len(value) > 20 else "")
        super().__init__(f"DebugLevel must be one of 0, 1, 2; got {shown}")
        self.value = value


@dataclass(frozen=True, slots=True)
class ProjectConfig:
    """Validated settings for one analyser run.

    Immutable after construction and safe to share between threads.
    """

    path_to_application: Path
    aslt_file_extension: str = ".aslt"
    class_file_extension: str = ".class"
    debug_level: int = 0


def parse_properties(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines into an ordered map.

    Blank lines and lines whose first non-blank character is ``#`` are
    ignored.  The value is everything after the first ``=``; keys and values
    are trimmed of surrounding whitespace.  Later duplicates overwrite
    earlier ones.
    """
    entries: dict[str, str] = {}
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedLineError(number, raw)
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def load_config(kv: Mapping[str, str], base_dir: Path | str | None = None) -> ProjectConfig:
    """Validate a parsed key/value map into a :class:`ProjectConfig`.

    A relative ``PathToApplication`` is resolved against ``base_dir``
    (normally the directory holding the properties file; the current
    directory when omitted).  Keys outside :data:`KNOWN_KEYS` are ignored,
    among them the original tool's seven ``ASLTJava…`` node-kind keys: the
    node kinds are fixed names in :mod:`compatcheck.aslt`.
    """
    if KEY_PATH not in kv:
        raise MissingKeyError(KEY_PATH)
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    path = Path(kv[KEY_PATH])
    if not path.is_absolute():
        path = base / path

    aslt_extension = kv.get(KEY_ASLT_EXTENSION, ".aslt")
    class_extension = kv.get(KEY_CLASS_EXTENSION, ".class")
    for label, extension in ((KEY_ASLT_EXTENSION, aslt_extension), (KEY_CLASS_EXTENSION, class_extension)):
        if not extension.startswith("."):
            raise ConfigError(f"{label} must be non-empty and begin with '.', got {extension!r}")
        if extension == "." or "/" in extension or "\\" in extension:
            raise ConfigError(f"{label} must name a file suffix, got {extension!r}")
    if aslt_extension == class_extension:
        # A sibling tree would be written over the class file of its source.
        raise ConfigError(
            f"{KEY_ASLT_EXTENSION} and {KEY_CLASS_EXTENSION} must differ, both are {aslt_extension!r}"
        )
    # A file name that ends with two of the suffixes would be read as both kinds.
    suffixes = (
        (KEY_ASLT_EXTENSION, aslt_extension),
        (KEY_CLASS_EXTENSION, class_extension),
        ("the source suffix", SOURCE_EXTENSION),
    )
    for (label, extension), (other_label, other) in permutations(suffixes, 2):
        if extension.endswith(other):
            raise ConfigError(
                f"{label} {extension!r} ends with {other_label} {other!r}, so a file could be read as both"
            )

    raw_level = kv.get(KEY_DEBUG_LEVEL, "0")
    # Compared as digit strings, since int() refuses more than 4300 digits.
    digits = raw_level.lstrip("0") or "0"
    if not raw_level or digits not in ("0", "1", "2"):
        raise InvalidDebugLevelError(raw_level)
    return ProjectConfig(path, aslt_extension, class_extension, int(digits))


def render_properties(config: ProjectConfig) -> str:
    """Write a config back out as ``key=value`` lines.

    ``load_config(parse_properties(render_properties(c)))`` gives back ``c``
    for any config whose path is absolute.
    """
    lines = [f"{KEY_PATH}={config.path_to_application}"]
    lines.append(f"{KEY_ASLT_EXTENSION}={config.aslt_file_extension}")
    lines.append(f"{KEY_CLASS_EXTENSION}={config.class_file_extension}")
    lines.append(f"{KEY_DEBUG_LEVEL}={config.debug_level}")
    return "\n".join(lines) + "\n"


def load_config_file(path: Path | str) -> ProjectConfig:
    """Read, parse and validate a properties file.  A named pipe or any other
    file that is not regular raises ``OSError("not a regular file")``."""
    path = Path(path)
    text = read_regular_file(path, "utf-8")
    return load_config(parse_properties(text), base_dir=path.parent)
