"""The benchmark's view of photonam: every name perfbench/ calls still exists.

One operation of each sweep runs through its oracle check, the tracing
recorder wraps and restores photonam's functions, and one traced cold `decay`
command runs through the benchmark's CLI child. A change that renames or
removes something the benchmark uses fails here, not in every benchmark
operation. Nothing under perfbench/ is modified; it is only put on sys.path.
"""

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import photonam  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.SWEEPS))
def test_one_sweep_operation_passes_its_check(name):
    sweep_class, modules = workloads.SWEEPS[name]
    assert all(hasattr(photonam, module) for module in modules)
    sweep = sweep_class(seed=1)
    inp = sweep.next_input()
    assert oracles.CHECKS[name](inp, sweep.outputs(sweep.run(inp))) == []


def test_recorder_installs_and_restores():
    modules = [photonam] + [getattr(photonam, m) for m in spans.MODULES]
    before = [dict(vars(module)) for module in modules]
    recorder = spans.Recorder()
    recorder.install(photonam)
    try:
        photonam.angular.j_operators(photonam.angular.three_mode_space(1))
        assert recorder.spans
    finally:
        recorder.uninstall()
    for module, names in zip(modules, before):
        restored = vars(module)
        assert all(restored[attr] is value for attr, value in names.items()), module


def test_traced_cold_decay_command():
    # the traced hook reads photonam.decay.integrate, which decay.py only resolves lazily
    root = os.path.dirname(PERFBENCH)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), PERFBENCH])}
    result = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "cli_child.py"), "decay"],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["exit"] == 0
    assert "decay.quad_calls" in report["counts"]
