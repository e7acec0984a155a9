"""Load, before any test runs, every local module that a full tier-1 run loads.

Hypothesis draws some values from the literal constants of the loaded local
modules: every module outside the standard library and site-packages that is
not a test file, here `src/photonam` and the `perfbench/` modules the suite
imports. A full run has loaded all of them by the time its first test runs,
because collection imports every test module. Loading them here makes a test
run alone, or any selection of tests, draw the examples it draws in a full
run.
"""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

#: The local modules a full run has loaded once collection ends.
LOCAL_MODULES = (
    "photonam.angular", "photonam.cli", "photonam.decay", "photonam.fock", "photonam.output",
    "photonam.radial", "photonam.twins", "clichecks", "oracles", "spans", "workloads",
)

for name in LOCAL_MODULES:
    importlib.import_module(name)
