"""Benchmark: time to verdict of compatcheck on seeded synthetic projects.

Run from the root of a checkout:

    python3 bench/run.py --workload large_project --seed 1 --seconds 35 --trace 0

``--workload all`` runs the three workloads in turn.  Each run generates the
workload's project several times (``setup_s`` is the median), then starts
``bench/measure.py`` in a process of its own, which repeats the analysis for
``--seconds`` and checks every verdict against the generator's expected
answer.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a traced run.  The exit code is 0 only when every
verdict was right.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9
RUN_LIMIT_S = 175.0
END_TO_END = ("verdict_s", "calls_per_s", "peak_rss_mb", "setup_s")


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    import projects
    from probe import SpeedProbe

    started = time.perf_counter()
    setup_times = []
    setup_adjusted = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(WORK / workload, ignore_errors=True)  # untimed
        with SpeedProbe() as probe:
            project = projects.build(workload, seed, WORK / workload)
        setup_times.append(probe.wall_s)
        setup_adjusted.append(probe.adjusted_s)
    answer_path = WORK / f"{workload}.answer.json"
    answer_path.write_text(json.dumps(project.answer()), encoding="utf-8")

    command = [sys.executable, str(BENCH / "measure.py"), str(answer_path), str(seconds), str(int(trace))]
    try:
        worker = subprocess.run(
            command,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)),
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload}: the analyses did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"error: {workload}: measurement process exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])

    times = result["times"]
    failures = result["failures"]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    if trace:
        values = result["layers"]
    else:
        verdict_s = statistics.median(result["adjusted"])
        values = {
            "verdict_s": verdict_s,
            "calls_per_s": project.expected_calls / verdict_s,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setup_adjusted),
        }
        print(f"  {'analyses':<34} {len(times)}, {project.expected_calls} call sites and "
              f"{len(project.expected_reports)} reports each")
        print(f"  {'wall time per analysis':<34} median {statistics.median(times):.6g} s, "
              f"range {min(times):.6g}-{max(times):.6g} s")
        print(f"  {'wall time per set-up':<34} median {statistics.median(setup_times):.6g} s")
    for name, value in values.items():
        print(f"  {name:<34} {value:.6g} {unit(name)}")
    print(f"  {'wrong_verdicts':<34} {len(failures) / len(times):.6g} share "
          f"({len(failures)} of {len(times)} analyses)")
    for problem in sorted(set(failures)):
        print(f"error: {workload}: {problem}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in values.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("large_project", "aslt_trees", "cold_faulted", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "compatcheck" / "__init__.py").is_file():
        print(f"error: no compatcheck sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import projects

    workloads = projects.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status, run_workload(workload, args.seed, args.seconds, bool(args.trace)))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
