"""Worker for one sweep: a single process, one outstanding operation at a time.

    python perfbench/worker.py --workload W --seed N --setup-only
    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

run.py starts it from the root of the checkout with PYTHONPATH=src. It imports
photonam, finishes the sweep's one-off set-up (for cli-cold, the import alone)
and prints "ready"; run.py times a fresh interpreter up to that line as one
set-up sample. With --setup-only it stops there. Otherwise it runs operations
on the seeded input sequence until S seconds have passed, sends each
operation's input and outputs to checker.py after the operation's clock has
stopped, and prints one JSON object as its last line.

With --trace 1, operations alternate: even-numbered ones run plain, odd ones
with photonam's public functions wrapped (spans.py). The traced ones give the
per-layer figures; the ratio of the two medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import time

#: Counts are the median over this many traced operations, the first ones of
#: the seeded sequence, so they repeat exactly for a seed.
COUNTED_OPS = 5
#: A traced run keeps going past --seconds until COUNTED_OPS are traced, but
#: never past this, so a run ends in time even if operations become very slow.
MAX_LOOP_S = 120.0


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args()


def main() -> int:
    args = _parse()
    import photonam

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(photonam.__file__).startswith(src):
        print(f"photonam was imported from {photonam.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload == "cli-cold":
        print("ready", flush=True)
        return 0

    from workloads import SWEEPS

    sweep_class, modules = SWEEPS[args.workload]
    sweep = sweep_class(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import spans

    checker = subprocess.Popen(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "checker.py"),
         args.workload],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        pickle.load(checker.stdout)
        result = _loop(args, photonam, sweep, checker, spans, modules)
    finally:
        checker.stdin.close()
        checker.wait()
        checker.stdout.close()
    if checker.returncode != 0:
        print(f"checker exited with {checker.returncode}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def _loop(args, photonam, sweep, checker, spans, modules) -> dict:
    recorder = spans.Recorder() if args.trace else None
    plain_s: list[float] = []
    traced_s: list[float] = []
    layer_rows: list[dict] = []
    count_rows: list[dict] = []
    failures: list[str] = []
    attempted = failed = check_failed = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        need_counts = recorder is not None and len(count_rows) < COUNTED_OPS
        if elapsed >= MAX_LOOP_S or (elapsed >= args.seconds and not need_counts):
            break
        inp = sweep.next_input()
        traced = recorder is not None and attempted % 2 == 1
        attempted += 1
        if traced:
            recorder.install(photonam)
            counts_before = dict(recorder.counts)
            root = recorder.open("op")
        t0 = time.perf_counter()
        try:
            out = sweep.run(inp)
        except Exception as exc:  # an operation the program refuses is a failed one
            out, error = None, f"{type(exc).__name__}: {exc}"
        op_s = time.perf_counter() - t0
        if traced:
            recorder.close(root)
            recorder.uninstall()
        if out is None:
            failed += 1
            failures.append(error)
            continue
        (traced_s if traced else plain_s).append(op_s)
        if traced:
            layers = spans.layer_times_ms(recorder.spans, root)
            layer_rows.append({k: v for k, v in layers.items() if spans.layer_module(k) in modules})
            count_rows.append({
                k: recorder.counts[k] - counts_before[k]
                for k in recorder.counts
                if spans.layer_module(k) in modules
            })
        pickle.dump((inp, sweep.outputs(out)), checker.stdin)
        checker.stdin.flush()
        problems = pickle.load(checker.stdout)
        if problems:
            failed += 1
            check_failed += 1
            failures.append("; ".join(problems))
    result = {
        "attempted": attempted,
        "failed": failed,
        "check_failed": check_failed,
        "failures": failures[:5],
        "op_seconds": plain_s,
    }
    if recorder is not None:
        result.update(
            traced_op_seconds=traced_s,
            layers=spans.median_by_key(layer_rows) if layer_rows else {},
            counts=spans.median_by_key(count_rows[:COUNTED_OPS]) if count_rows else {},
            spans=recorder.spans,
        )
    return result


if __name__ == "__main__":
    sys.exit(main())
