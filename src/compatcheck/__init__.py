"""Static compatibility analyser for black-box software components.

Parses subject-language source into a structured tree, extracts the surface
exposed by compiled class files, and reports every caller/callee interface
mismatch before the components are composed.
"""

from .analysis import (
    UNCONSTRAINED,
    UNRESOLVED,
    CallSite,
    MismatchKind,
    MismatchReport,
    Scope,
    Unconstrained,
    Unresolved,
    get_all_method_calls,
    get_all_variables_types,
    index_classes,
    method_called,
    resolve_argument_type,
)
from .aslt import (
    AsltError,
    AsltNode,
    Location,
    parse_source,
    read_aslt,
    tokenize,
    write_aslt,
)
from .classfile import (
    ClassFileError,
    ClassInfo,
    Diagnostic,
    FieldMember,
    MethodSignature,
    TypeName,
    emit_classfile,
    parse_classfile,
    parse_descriptor,
    scan_classfiles,
)
from .cli import AnalysisRun, gen_testbed, main, render_json, run_analysis, show_all_errors
from .config import (
    ConfigError,
    ProjectConfig,
    load_config,
    load_config_file,
    parse_properties,
    render_properties,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisRun",
    "AsltError",
    "AsltNode",
    "CallSite",
    "ClassFileError",
    "ClassInfo",
    "ConfigError",
    "Diagnostic",
    "FieldMember",
    "Location",
    "MethodSignature",
    "MismatchKind",
    "MismatchReport",
    "ProjectConfig",
    "Scope",
    "TypeName",
    "UNCONSTRAINED",
    "UNRESOLVED",
    "Unconstrained",
    "Unresolved",
    "emit_classfile",
    "gen_testbed",
    "get_all_method_calls",
    "get_all_variables_types",
    "index_classes",
    "load_config",
    "load_config_file",
    "main",
    "method_called",
    "parse_classfile",
    "parse_descriptor",
    "parse_properties",
    "parse_source",
    "read_aslt",
    "render_json",
    "render_properties",
    "resolve_argument_type",
    "run_analysis",
    "scan_classfiles",
    "show_all_errors",
    "tokenize",
    "write_aslt",
]
