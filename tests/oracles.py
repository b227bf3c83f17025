"""Brute-force reference implementations the analyser is checked against.

Everything here re-derives expected results straight from the documented
comparison rules, independently of how the package computes them: plain
loops over every (call, same-name signature) pair, an explicit table of
widening pairs, no shared helpers with the implementation.
"""

from __future__ import annotations

from compatcheck.analysis import (
    CallSite,
    MismatchKind,
    MismatchReport,
    Scope,
    Unconstrained,
    Unresolved,
    VariableBinding,
)
from compatcheck.classfile import ClassInfo, TypeName

# Every legal primitive widening, written out pairwise.
WIDENING_PAIRS = frozenset(
    {
        ("byte", "short"),
        ("byte", "int"),
        ("byte", "long"),
        ("byte", "float"),
        ("byte", "double"),
        ("short", "int"),
        ("short", "long"),
        ("short", "float"),
        ("short", "double"),
        ("char", "int"),
        ("char", "long"),
        ("char", "float"),
        ("char", "double"),
        ("int", "long"),
        ("int", "float"),
        ("int", "double"),
        ("long", "float"),
        ("long", "double"),
        ("float", "double"),
    }
)


def _argument_ok(arg, param: TypeName, widening: bool) -> bool:
    if isinstance(arg, Unresolved):
        return False
    if arg == param:
        return True
    if not widening:
        return False
    if arg.dims != 0 or param.dims != 0:
        return False
    return (arg.name, param.name) in WIDENING_PAIRS


def _call_matches(call: CallSite, signature, widening: bool) -> bool:
    if len(call.argument_types) != len(signature.parameter_types):
        return False
    for arg, param in zip(call.argument_types, signature.parameter_types):
        if not _argument_ok(arg, param, widening):
            return False
    if isinstance(call.expected_return, Unconstrained):
        return True
    return call.expected_return == signature.return_type


def oracle_reports(
    calls: list[CallSite], classes: list[ClassInfo], widening: bool
) -> list[MismatchReport]:
    """Expected report list, derived by enumerating every pair directly."""
    first_by_name: dict[str, ClassInfo] = {}
    for info in classes:
        if info.qualified_name not in first_by_name:
            first_by_name[info.qualified_name] = info

    collected: list[MismatchReport] = []
    for call in calls:
        receiver = call.receiver_class
        info = None
        if isinstance(receiver, TypeName) and receiver.dims == 0 and receiver.name in first_by_name:
            info = first_by_name[receiver.name]

        if info is None:
            if call.invoked_name == "<init>":
                continue
            collected.append(
                MismatchReport(
                    kind=MismatchKind.UNKNOWN_CLASS,
                    aslt_class_name=call.caller_class,
                    called_class_file=None,
                    called_method=call.invoked_name,
                    expected_parameters=None,
                    given_parameters=call.argument_types,
                    expected_return=None,
                    given_return=call.expected_return,
                    location=call.location,
                )
            )
            continue

        same_name = [m for m in info.methods if m.name == call.invoked_name]
        if not same_name:
            collected.append(
                MismatchReport(
                    kind=MismatchKind.UNKNOWN_METHOD,
                    aslt_class_name=call.caller_class,
                    called_class_file=info.source_file_name or info.qualified_name,
                    called_method=call.invoked_name,
                    expected_parameters=None,
                    given_parameters=call.argument_types,
                    expected_return=None,
                    given_return=call.expected_return,
                    location=call.location,
                )
            )
            continue

        matched = False
        for signature in same_name:
            if _call_matches(call, signature, widening):
                matched = True
                break
        if matched:
            continue

        nearest = None
        for signature in same_name:
            if len(signature.parameter_types) == len(call.argument_types):
                nearest = signature
                break
        if nearest is None:
            nearest = same_name[0]

        has_unresolved = any(isinstance(a, Unresolved) for a in call.argument_types)
        if has_unresolved:
            kind = MismatchKind.UNRESOLVED_ARGUMENT
        elif len(call.argument_types) != len(nearest.parameter_types):
            kind = MismatchKind.ARITY_MISMATCH
        else:
            params_ok = True
            for arg, param in zip(call.argument_types, nearest.parameter_types):
                if not _argument_ok(arg, param, widening):
                    params_ok = False
                    break
            kind = MismatchKind.PARAM_TYPE_MISMATCH if not params_ok else MismatchKind.RETURN_TYPE_MISMATCH

        collected.append(
            MismatchReport(
                kind=kind,
                aslt_class_name=call.caller_class,
                called_class_file=info.source_file_name or info.qualified_name,
                called_method=call.invoked_name,
                expected_parameters=nearest.parameter_types,
                given_parameters=call.argument_types,
                expected_return=nearest.return_type,
                given_return=call.expected_return,
                location=call.location,
            )
        )

    collected.sort(key=lambda r: (r.location.file, r.location.line, r.location.column))
    return collected


def oracle_lookup_binding(
    name: str, bindings: list[VariableBinding], scope: Scope
) -> VariableBinding | None:
    """Innermost binding by list scan over one unit's bindings: the method
    declaration first, then the class's fields; within a scope the first
    binding in source order wins."""
    if scope.position is not None:
        for binding in bindings:
            if binding.variable_name == name and binding.scope == scope:
                return binding
    for binding in bindings:
        if binding.variable_name == name and binding.scope == Scope(scope.class_name):
            return binding
    return None


def oracle_find_class(classes: list[ClassInfo], name: str) -> ClassInfo | None:
    """The first class with this qualified name, by list scan."""
    for info in classes:
        if info.qualified_name == name:
            return info
    return None
