"""Timed analyses of one generated project, in a process of their own.

``run.py`` starts this script once per benchmark run, so the process's peak
resident memory is that of the analyses alone:

    python3 bench/measure.py <answer.json> <seconds> <trace 0|1>

It repeats load config -> ``run_analysis`` -> render for ``seconds``, checks
every verdict against the answer file written by the generator, and prints
one JSON object.  With trace 1, every second analysis runs with timing
wrappers on the public module functions the analysis reaches (plus
``os.walk``), and the result carries per-layer numbers.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# The checkout's own sources, never an installed copy.
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import compatcheck  # noqa: E402
from compatcheck import aslt, analysis, classfile, cli, config  # noqa: E402
from probe import SpeedProbe  # noqa: E402

if Path(compatcheck.__file__).resolve().parent != (SRC / "compatcheck").resolve():
    raise SystemExit(f"compatcheck imported from {compatcheck.__file__}, not from {SRC}")

MODULES = (compatcheck, aslt, analysis, classfile, cli, config)

# Span name -> (module, function name) of each wrapped entry point.
TRACED = {
    "config.load_config_file": (config, "load_config_file"),
    "cli.run_analysis": (cli, "run_analysis"),
    "classfile.scan_classfiles": (classfile, "scan_classfiles"),
    "aslt.tokenize": (aslt, "tokenize"),
    "aslt.parse_source": (aslt, "parse_source"),
    "aslt.read_aslt": (aslt, "read_aslt"),
    "aslt.write_aslt": (aslt, "write_aslt"),
    "analysis.get_all_variables_types": (analysis, "get_all_variables_types"),
    "analysis.get_all_method_calls": (analysis, "get_all_method_calls"),
    "analysis.method_called": (analysis, "method_called"),
    "cli.show_all_errors": (cli, "show_all_errors"),
    "cli.render_json": (cli, "render_json"),
}

# Spans every traced analysis must record, per workload.  A refactor that
# routes around a wrapper fails the run instead of reporting zeros.
COMMON_SPANS = {
    "config.load_config_file",
    "cli.run_analysis",
    "os.walk",
    "classfile.scan_classfiles",
    "analysis.get_all_variables_types",
    "analysis.get_all_method_calls",
    "analysis.method_called",
    "cli.show_all_errors",
}
REQUIRED_SPANS = {
    "large_project": COMMON_SPANS | {"aslt.tokenize", "aslt.parse_source"},
    "aslt_trees": COMMON_SPANS | {"aslt.read_aslt"},
    "cold_faulted": COMMON_SPANS
    | {"aslt.tokenize", "aslt.parse_source", "aslt.write_aslt", "cli.render_json"},
}

# Counts summed from wrapped functions' results: span name -> (counter, size).
SIZES = {
    "aslt.tokenize": ("aslt.tokens", len),
    "aslt.write_aslt": ("aslt.bytes_written", len),
    "analysis.get_all_variables_types": ("analysis.bindings", lambda result: len(result[0])),
}


class Tracer:
    """In-memory spans (name, start, end, parent index) around wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.sizes: dict[str, int] = {}
        # The running analysis's speed probe; its samples are left out of spans.
        self.probe: SpeedProbe | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _now(self) -> float:
        return time.perf_counter() - (self.probe.spent if self.probe is not None else 0.0)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._now(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self._now()
        self._stack.pop()

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if name in SIZES:
                key, size = SIZES[name]
                self.sizes[key] = self.sizes.get(key, 0) + size(result)
            return result

        return wrapper

    def _wrap_walk(self, walk):
        @functools.wraps(walk)
        def wrapper(*args, **kwargs):
            index = self._open("os.walk")
            try:
                yield from walk(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def install(self) -> None:
        """Replace each traced function wherever a module binds it."""
        for name, (module, attribute) in TRACED.items():
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original)
            for holder in MODULES:
                if getattr(holder, attribute, None) is original:
                    self._undo.append((holder, attribute, original))
                    setattr(holder, attribute, wrapper)
        self._undo.append((os, "walk", os.walk))
        os.walk = self._wrap_walk(os.walk)

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._undo):
            setattr(holder, attribute, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.sizes.clear()
        self.probe = None


def _node_count(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, scale: float, run, outputs: list[str]) -> dict[str, float]:
    """Per-layer times and counts of one traced analysis.

    Times are span durations speed-adjusted by ``scale``.  They are
    inclusive, except ``aslt.parse_s`` (without its ``tokenize`` children)
    and ``cli.self_s`` (``run_analysis`` minus every child span but
    ``os.walk``, so it holds discovery, file I/O and sorting).  Counts not
    visible at a wrapper come from the finished run.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        total[name] = total.get(name, 0.0) + (end - start) * scale
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0 and name != "os.walk":
            child_time[parent] += (end - start) * scale
    self_time: dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(tracer.spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) * scale - child_time[index]

    parsed = [tree for name, tree in run.aslt_trees.items() if not name.endswith(".aslt")]
    read = [name for name in run.aslt_trees if name.endswith(".aslt")]
    root = Path(run.config.path_to_application)
    nodes_parsed = sum(_node_count(tree) for tree in parsed)
    nodes_read = sum(_node_count(run.aslt_trees[name]) for name in read)
    tokens = tracer.sizes.get("aslt.tokens", 0)
    unresolved = sum(
        1
        for call in run.call_sites
        if isinstance(call.receiver_class, analysis.Unresolved)
        or any(isinstance(arg, analysis.Unresolved) for arg in call.argument_types)
    )
    extract_s = total.get("analysis.get_all_method_calls", 0.0)
    lex_s = total.get("aslt.tokenize", 0.0)
    parse_s = self_time.get("aslt.parse_source", 0.0)
    read_s = total.get("aslt.read_aslt", 0.0)
    metrics = {
        "analysis.extract_s": extract_s,
        "analysis.extract_us_per_call": 1e6 * _ratio(extract_s, len(run.call_sites)),
        "analysis.call_sites": len(run.call_sites),
        "analysis.bind_s": total.get("analysis.get_all_variables_types", 0.0),
        "analysis.bindings": tracer.sizes.get("analysis.bindings", 0),
        "analysis.compare_s": total.get("analysis.method_called", 0.0),
        "analysis.reports": len(run.reports),
    }
    for kind in analysis.MismatchKind:
        metrics[f"analysis.reports.{kind.value}"] = sum(1 for r in run.reports if r.kind is kind)
    metrics.update({
        "analysis.unresolved_share": _ratio(unresolved, len(run.call_sites)),
        "aslt.lex_s": lex_s,
        "aslt.tokens": tokens,
        "aslt.tokens_per_s": _ratio(tokens, lex_s),
        "aslt.parse_s": parse_s,
        "aslt.nodes_parsed": nodes_parsed,
        "aslt.nodes_per_s": _ratio(nodes_parsed, parse_s),
        "aslt.read_s": read_s,
        "aslt.bytes_read": sum((root / name).stat().st_size for name in read),
        "aslt.nodes_read": nodes_read,
        "aslt.read_nodes_per_s": _ratio(nodes_read, read_s),
        "aslt.write_s": total.get("aslt.write_aslt", 0.0),
        "aslt.files_written": calls.get("aslt.write_aslt", 0),
        "aslt.bytes_written": tracer.sizes.get("aslt.bytes_written", 0),
        "classfile.scan_s": total.get("classfile.scan_classfiles", 0.0),
        "classfile.files": len(run.class_infos),
        "classfile.bytes": sum(
            (root / info.source_file_name).stat().st_size for info in run.class_infos
        ),
        "cli.self_s": self_time.get("cli.run_analysis", 0.0),
        "cli.dir_walks": calls.get("os.walk", 0),
        "cli.walk_s": total.get("os.walk", 0.0),
        "cli.render_s": total.get("cli.show_all_errors", 0.0) + total.get("cli.render_json", 0.0),
        "cli.output_bytes": sum(len(text.encode("utf-8")) for text in outputs),
        "config.load_s": total.get("config.load_config_file", 0.0),
    })
    metrics["_spans"] = sorted(calls)
    return metrics


# ---------------------------------------------------------------------------
# Verdict check
# ---------------------------------------------------------------------------

def _snapshot(paths: list[Path]) -> dict[Path, tuple[int, int] | None]:
    state = {}
    for path in paths:
        try:
            stat = path.stat()
        except FileNotFoundError:
            state[path] = None
        else:
            state[path] = (stat.st_mtime_ns, stat.st_size)
    return state


def check_verdict(answer: dict, run, text: str, json_text: str | None) -> str | None:
    """The first way this analysis differs from the expected verdict, if any.

    Compared: the exit code, the call-site count, each report's kind, file,
    line, column and called method, and the same reports in the rendered
    text and JSON.
    """
    expected = [tuple(report) for report in answer["expected_reports"]]
    got = [
        (r.kind.value, r.location.file, r.location.line, r.location.column, r.called_method)
        for r in run.reports
    ]
    if run.exit_code != answer["expected_exit_code"]:
        return f"exit code {run.exit_code}, expected {answer['expected_exit_code']}"
    if len(run.call_sites) != answer["expected_calls"]:
        return f"{len(run.call_sites)} call sites, expected {answer['expected_calls']}"
    if got != expected:
        diff = next((pair for pair in zip(got, expected) if pair[0] != pair[1]), None)
        return f"{len(got)} reports, expected {len(expected)}; first difference {diff}"
    headers = [line for line in text.splitlines() if line.startswith("error[")]
    if headers != [f"error[{k}] at {f}:{ln}:{col}" for k, f, ln, col, _m in expected]:
        return "text output does not list the expected reports"
    if json_text is not None:
        errors = json.loads(json_text)["errors"]
        rendered = [
            (e["kind"], e["location"]["file"], e["location"]["line"], e["location"]["column"],
             e["called_method"])
            for e in errors
        ]
        if rendered != expected:
            return "JSON output does not list the expected reports"
    return None


def analyse(answer: dict, tracer: Tracer | None) -> tuple[SpeedProbe, object, list[str]]:
    """One timed analysis, from loading the config to finished output."""
    with SpeedProbe() as probe:
        if tracer is not None:
            tracer.reset()
            tracer.probe = probe
        settings = config.load_config_file(answer["config_path"])
        run = cli.run_analysis(settings)
        outputs = [cli.show_all_errors(run)]
        if answer["render_json"]:
            outputs.append(cli.render_json(run))
    return probe, run, outputs


def measure(answer: dict, seconds: float, tracer: Tracer | None = None) -> dict:
    """Analyse repeatedly for ``seconds``; return wall and speed-adjusted
    times and failures.  With a tracer, every second analysis is traced, so
    that machine drift falls alike on traced and untraced ones, and the
    result also holds each traced analysis's layer metrics."""
    aslt_paths = [Path(p) for p in answer["aslt_paths"]]
    warm_state = _snapshot(aslt_paths) if answer["warm"] else None
    result: dict[str, list] = {"times": [], "adjusted": [], "traced": [], "failures": [], "layers": []}
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(result["times"]) % 2 == 1
        if not answer["warm"]:
            for path in aslt_paths:
                path.unlink(missing_ok=True)
        gc.collect()
        if traced:
            tracer.install()
        try:
            probe, run, outputs = analyse(answer, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        result["times"].append(probe.wall_s)
        result["adjusted"].append(probe.adjusted_s)
        result["traced"].append(traced)
        problem = check_verdict(answer, run, outputs[0], outputs[1] if len(outputs) > 1 else None)
        if problem is None and warm_state is not None and _snapshot(aslt_paths) != warm_state:
            problem = "an .aslt file was written during a warm analysis"
        if problem is None and warm_state is None and not all(p.exists() for p in aslt_paths):
            problem = "not every .aslt sibling was written"
        if problem is not None:
            result["failures"].append(problem)
        if traced:
            result["layers"].append(layer_metrics(tracer, probe.scale, run, outputs))
        del run, outputs
        # Start another analysis only if it is likely to end before the
        # deadline; a traced run needs one traced analysis at least.
        enough = tracer is None or len(result["times"]) >= 2
        if enough and deadline - time.perf_counter() < statistics.median(result["times"]):
            return result


def trace_summary(answer: dict, result: dict) -> tuple[dict, list[str]]:
    """Median layer metrics of the traced analyses, the tracing overhead,
    and the failures of a traced run."""
    layers = result["layers"]
    failures = list(result["failures"])
    missing = set()
    for layer in layers:
        missing |= REQUIRED_SPANS[answer["workload"]] - set(layer.pop("_spans"))
    if missing:
        failures.append(f"no span recorded for {', '.join(sorted(missing))}")
    if answer["warm"] and any(layer["aslt.files_written"] for layer in layers):
        failures.append("write_aslt ran during a warm analysis")
    metrics = {
        key: (statistics.median_low if isinstance(value, int) else statistics.median)(
            layer[key] for layer in layers
        )
        for key, value in layers[0].items()
    }
    untraced_s = statistics.median(
        t for t, traced in zip(result["adjusted"], result["traced"]) if not traced
    )
    traced_s = statistics.median(
        t for t, traced in zip(result["adjusted"], result["traced"]) if traced
    )
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return metrics, failures


def main(argv: list[str]) -> int:
    answer_path, seconds, trace = argv[0], float(argv[1]), argv[2] == "1"
    answer = json.loads(Path(answer_path).read_text(encoding="utf-8"))
    result = measure(answer, seconds, Tracer() if trace else None)
    if trace:
        result["layers"], result["failures"] = trace_summary(answer, result)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
