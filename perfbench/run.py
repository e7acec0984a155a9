"""photonam benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a photonam checkout; the program is imported from
./src. Each run is one client with one outstanding operation. With --trace 0
it prints the end-to-end metrics (set-up time, median operation time,
throughput, peak memory); with --trace 1 it prints the per-layer metrics and
writes every span to perfbench/out/. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--workload all` runs
every workload untraced and then traced, and ends with one JSON object keyed
by workload. README.md describes the workloads and what each metric shows.

This file imports only the standard library: photonam, numpy and scipy are
imported by the child processes it times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import clichecks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
CLI_CHILD = os.path.join(HERE, "cli_child.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("cli-cold", "radial-sweep", "decay-sweep", "operator-sweep")
#: Fresh interpreters timed for setup_s in each run; the median is reported.
SETUP_SAMPLES = 3
#: Every child is killed if the run has not finished by then.
RUN_DEADLINE_S = 170.0
#: The interpreters this benchmark starts use one BLAS thread: on a small
#: shared host a second thread adds CPU time and noise, not speed.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mib": "MiB"}
IMPORT_METRICS = {"import.photonam_ms": "ms", "import.scipy_integrate_ms": "ms", "import.modules_loaded": "count"}


def cli_metric(command: str) -> str:
    return f"cli.{command.replace('-', '_')}_ms"


CLI_METRICS = {cli_metric(command): "ms" for command in clichecks.COMMANDS}
PER_LAYER = {
    **IMPORT_METRICS,
    **{name: "ms" for name in spans.LAYERS},
    **{name: "count" for name in spans.COUNTED},
    **CLI_METRICS,
    "trace.overhead_pct": "%",
}


class RunError(Exception):
    """A child process failed in a way that leaves no result to report."""


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    start_ns: int
    end_ns: int
    ready_s: float | None
    maxrss_kib: int

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Runner:
    """Starts, times and reaps the child processes of one run."""

    def __init__(self) -> None:
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.env.update({var: "1" for var in THREAD_VARS})

    def child(self, argv: list[str], ready: bool = False) -> Child:
        """Run argv to completion; with `ready`, also time its first stdout line."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise RunError("run deadline passed")
        start_ns = time.perf_counter_ns()
        proc = subprocess.Popen(
            [sys.executable] + argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
        )
        killer = threading.Timer(timeout, proc.kill)
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        try:
            killer.start()
            reader.start()
            ready_s = None
            if ready:
                first = proc.stdout.readline()
                if first == b"ready\n":
                    ready_s = (time.perf_counter_ns() - start_ns) / 1e9
            out = proc.stdout.read()
            reader.join()
            # wait4 reaps the child and gives its own peak resident memory
            _, status, usage = os.wait4(proc.pid, 0)
            end_ns = time.perf_counter_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        return Child(proc.returncode, out, err[0] if err else b"", start_ns, end_ns,
                     ready_s, usage.ru_maxrss)

    def checked(self, argv: list[str], ready: bool = False) -> Child:
        child = self.child(argv, ready)
        if child.code != 0 or (ready and child.ready_s is None):
            tail = child.err.decode(errors="replace").strip().splitlines()[-3:]
            raise RunError(f"{' '.join(argv)} exited with {child.code}: {' | '.join(tail)}")
        return child

    def setup_samples(self, workload: str, seed: int, count: int) -> list[float]:
        argv = [WORKER, "--workload", workload, "--seed", str(seed), "--setup-only"]
        return [self.checked(argv, ready=True).ready_s for _ in range(count)]


class CliPasses:
    """Passes of the six default-flag commands, each in a fresh interpreter."""

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.reference: dict[str, bytes] = {}
        self.spans: list[list] = []

    def _check(self, command: str, code: int, stdout: bytes) -> list[str]:
        problems = clichecks.check_command(command, code, stdout.decode(errors="replace"))
        if self.reference.setdefault(command, stdout) != stdout:
            problems.append(f"{command} stdout differs from its first run")
        return problems

    def plain(self) -> tuple[float, int, list[str]]:
        """(summed wall seconds, largest child's peak KiB, failures)."""
        wall, rss, problems = 0.0, 0, []
        for command in clichecks.COMMANDS:
            child = self.runner.child(["-m", "photonam", command])
            wall += child.wall_s
            rss = max(rss, child.maxrss_kib)
            problems += self._check(command, child.code, child.out)
        return wall, rss, problems

    def traced(self) -> tuple[float, dict[str, float], list[str]]:
        """(summed wall seconds, per-layer row, failures) of one traced pass."""
        root = len(self.spans)
        self.spans.append(["pass", time.perf_counter_ns(), 0, -1])
        wall, row, problems, imports = 0.0, {}, [], []
        counts = dict.fromkeys(spans.COUNTED, 0)
        for command in clichecks.COMMANDS:
            child = self.runner.checked(["-X", "importtime", CLI_CHILD, command])
            report = json.loads(child.out.decode().splitlines()[-1])
            name = cli_metric(command)
            self.spans.append([name, child.start_ns, child.end_ns, root])
            spans.merge(self.spans, report["spans"], len(self.spans) - 1)
            problems += self._check(command, report["exit"], report["stdout"].encode())
            for key in counts:
                counts[key] += report["counts"][key]
            imports.append({**import_times(child.err), "import.modules_loaded": report["modules_loaded"]})
            row[name] = child.wall_s * 1e3
            wall += child.wall_s
        self.spans[root][2] = time.perf_counter_ns()
        row.update(spans.layer_times_ms(self.spans, root))
        row.update(counts)
        row.update(spans.median_by_key(imports))
        return wall, row, problems


def import_times(stderr: bytes) -> dict[str, float]:
    """Cumulative import times of photonam and scipy.integrate from -X importtime.

    scipy loads its subpackages through a module __getattr__, and the report
    then has no line for scipy.integrate itself, only for its submodules. Its
    time is the sum over the outermost scipy.integrate.* lines.
    """
    photonam_us, integrate = 0, {}
    for line in stderr.decode(errors="replace").splitlines():
        fields = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].strip()
        depth = len(fields[2]) - len(fields[2].lstrip())
        if name == "photonam":
            photonam_us = int(fields[1])
        elif name == "scipy.integrate" or name.startswith("scipy.integrate."):
            integrate.setdefault(depth, []).append(int(fields[1]))
    outermost = integrate[min(integrate)] if integrate else []
    return {"import.photonam_ms": photonam_us / 1e3, "import.scipy_integrate_ms": sum(outermost) / 1e3}


@dataclass
class Result:
    attempted: int
    failed: int
    check_failed: int
    failures: list[str]
    metrics: dict[str, float]
    notes: list[str]
    spans: list[list] | None = None


def run_cli_cold(runner: Runner, seed: int, seconds: float, trace: bool) -> Result:
    """cli-cold: every operation is one pass of the six commands, cold."""
    passes = CliPasses(runner)
    notes, failures, rows = [], [], []
    plain_s, traced_s, rss = [], [], 0
    setup = [] if trace else runner.setup_samples("cli-cold", seed, SETUP_SAMPLES)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (trace and not rows):
        if trace and len(plain_s) > len(traced_s):
            wall, row, problems = passes.traced()
            traced_s.append(wall)
            rows.append(row)
        else:
            wall, child_rss, problems = passes.plain()
            plain_s.append(wall)
            rss = max(rss, child_rss)
        if problems:
            failures.append("; ".join(problems))
    attempted = len(plain_s) + len(traced_s)
    if trace:
        metrics = spans.median_by_key(rows)
        metrics["trace.overhead_pct"] = overhead_pct(traced_s, plain_s)
        notes.append(f"{len(traced_s)} traced and {len(plain_s)} plain passes")
        return Result(attempted, len(failures), len(failures), failures, metrics, notes, passes.spans)
    metrics = end_to_end(setup, plain_s, rss, notes)
    return Result(attempted, len(failures), len(failures), failures, metrics, notes)


def run_sweep(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> Result:
    """A library sweep: one worker process runs, and a checker checks, every operation."""
    if trace:
        return run_traced_sweep(runner, workload, seed, seconds)
    notes: list[str] = []
    setup = runner.setup_samples(workload, seed, SETUP_SAMPLES - 1)
    worker = runner.checked(worker_argv(workload, seed, seconds, trace=False), ready=True)
    report = json.loads(worker.out.decode().splitlines()[-1])
    setup.append(worker.ready_s)
    metrics = end_to_end(setup, report["op_seconds"], worker.maxrss_kib, notes)
    return Result(report["attempted"], report["failed"], report["check_failed"],
                  report["failures"], metrics, notes)


def run_traced_sweep(runner: Runner, workload: str, seed: int, seconds: float) -> Result:
    """One traced cold CLI pass, then the sweep's own operations, traced and plain.

    The CLI pass gives the import and cli.* figures and the layers of the
    modules the sweep does not stress. Its time counts against --seconds.
    """
    start = time.perf_counter()
    passes = CliPasses(runner)
    _, metrics, problems = passes.traced()
    remaining = max(0.0, seconds - (time.perf_counter() - start))
    worker = runner.checked(worker_argv(workload, seed, remaining, trace=True), ready=True)
    report = json.loads(worker.out.decode().splitlines()[-1])
    attempted, failed, check_failed = report["attempted"] + 1, report["failed"], report["check_failed"]
    failures = report["failures"]
    if problems:
        failed += 1
        check_failed += 1
        failures.append("; ".join(problems))
    metrics.update(report["layers"])
    metrics.update(report["counts"])
    metrics["trace.overhead_pct"] = overhead_pct(report["traced_op_seconds"], report["op_seconds"])
    notes = [
        f"{len(report['traced_op_seconds'])} traced and {len(report['op_seconds'])} plain "
        f"operations; layers of {', '.join(sorted(set(report['layers'])))} from them, "
        "the rest from one traced cold CLI pass"
    ]
    spans.merge(passes.spans, report["spans"], -1)
    return Result(attempted, failed, check_failed, failures, metrics, notes, passes.spans)


def worker_argv(workload: str, seed: int, seconds: float, trace: bool) -> list[str]:
    return [WORKER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]


def overhead_pct(traced_s: list[float], plain_s: list[float]) -> float:
    if not traced_s or not plain_s:
        return float("nan")
    return (statistics.median(traced_s) / statistics.median(plain_s) - 1.0) * 100.0


def end_to_end(setup: list[float], op_s: list[float], rss_kib: int, notes: list[str]) -> dict:
    if not op_s:
        raise RunError("no operation completed")
    notes.append(f"setup_s is the median of {len(setup)} fresh interpreters: "
                 + ", ".join(f"{s:.4f}" for s in setup))
    notes.append(f"op_p50_ms is the median of {len(op_s)} operations")
    if len(op_s) >= 100:  # at least ten samples lie beyond the 90th percentile
        p90 = statistics.quantiles(op_s, n=10)[-1] * 1e3
        notes.append(f"op_p90_ms {p90:.3f} ms (for reference, not gated)")
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mib": rss_kib / 1024.0,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    runner = Runner()
    if workload == "cli-cold":
        result = run_cli_cold(runner, seed, seconds, trace)
    else:
        result = run_sweep(runner, workload, seed, seconds, trace)
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "seed": seed, "metrics": result.metrics,
                       "span_fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": result.spans}, handle)
        result.notes.append(f"spans written to {os.path.relpath(path)}")
    return result


def report(workload: str, result: Result, trace: bool) -> dict:
    """Print the human-readable lines and return the result object."""
    units = PER_LAYER if trace else END_TO_END
    print(f"workload {workload}: attempted {result.attempted}, failed {result.failed}")
    for name, unit in units.items():
        print(f"  {name:<38} {result.metrics[name]:>14.4f} {unit}")
    for note in result.notes:
        print(f"  ({note})")
    for failure in result.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return {
        "correct": result.check_failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="photonam benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "photonam", "__init__.py")):
        print("error: run from the root of a photonam checkout (no src/photonam here)",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(report(args.workload, result, bool(args.trace))))
            return 0
        summary = {}
        for workload in WORKLOADS:
            summary[workload] = {
                mode: report(workload, run_workload(workload, args.seed, args.seconds, trace), trace)
                for mode, trace in (("untraced", False), ("traced", True))
            }
        print(json.dumps(summary))
        return 0
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
