"""Project configuration: parsing and validation of ``constants.properties``.

The analyser is driven by a small plain-text properties file.  One required
key names the project directory; the remaining keys (file extensions, node
kind names, debug level) all have defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

# The seven node-kind configuration keys.  By default each key maps to
# itself, which is also the canonical vocabulary used in .aslt files.
NODE_KIND_KEYS = (
    "ASLTJavaExpressionStatement",
    "ASLTJavaIdentifierExpression",
    "ASLTJavaLiteralTag",
    "ASLTJavaMethodInvokeExpression",
    "ASLTJavaSimpleAssignmentOperatorExpression",
    "ASLTJavaVariableDeclarator",
    "ASLTJavaVariableDeclaration",
)

KEY_PATH = "PathToApplication"
KEY_ASLT_EXTENSION = "ASLTFileExtension"
KEY_CLASS_EXTENSION = "ClassFileExtension"
KEY_DEBUG_LEVEL = "DebugLevel"

KNOWN_KEYS = frozenset(
    (KEY_PATH, KEY_ASLT_EXTENSION, KEY_CLASS_EXTENSION, KEY_DEBUG_LEVEL) + NODE_KIND_KEYS
)

DEBUG_LEVELS = (0, 1, 2)


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
        super().__init__(f"DebugLevel must be one of 0, 1, 2; got {value!r}")
        self.value = value


def _default_node_kinds() -> dict[str, str]:
    return {key: key for key in NODE_KIND_KEYS}


@dataclass(frozen=True, slots=True)
class ProjectConfig:
    """Validated settings for one analyser run.

    Immutable after construction and safe to share between threads.
    """

    path_to_application: Path
    aslt_file_extension: str = ".aslt"
    class_file_extension: str = ".class"
    node_kind_names: dict[str, str] = field(default_factory=_default_node_kinds)
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
    directory when omitted).  Unknown keys are ignored.
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

    raw_level = kv.get(KEY_DEBUG_LEVEL, "0")
    if not raw_level or not all(c in "0123456789" for c in raw_level):
        raise InvalidDebugLevelError(raw_level)
    debug_level = int(raw_level, 10)
    if debug_level not in DEBUG_LEVELS:
        raise InvalidDebugLevelError(raw_level)

    node_kinds: dict[str, str] = {}
    for key in NODE_KIND_KEYS:
        name = kv.get(key, key)
        if not name:
            raise ConfigError(f"{key} must map to a non-empty node kind name")
        node_kinds[key] = name

    return ProjectConfig(path, aslt_extension, class_extension, node_kinds, debug_level)


def render_properties(config: ProjectConfig) -> str:
    """Write a config back out as ``key=value`` lines.

    ``load_config(parse_properties(render_properties(c)))`` gives back ``c``
    for any config whose path is absolute.
    """
    lines = [f"{KEY_PATH}={config.path_to_application}"]
    lines.append(f"{KEY_ASLT_EXTENSION}={config.aslt_file_extension}")
    lines.append(f"{KEY_CLASS_EXTENSION}={config.class_file_extension}")
    for key in NODE_KIND_KEYS:
        lines.append(f"{key}={config.node_kind_names[key]}")
    lines.append(f"{KEY_DEBUG_LEVEL}={config.debug_level}")
    return "\n".join(lines) + "\n"


def load_config_file(path: Path | str) -> ProjectConfig:
    """Read, parse and validate a properties file."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    return load_config(parse_properties(text), base_dir=path.parent)
