"""Shared unit-test configuration.

The on-disk sweep store (``repro.analysis.sweepcache``) is disabled
for the unit-test run: tests must exercise the simulators, not load a
previous run's slabs from ``~/.cache``.  Tests that cover the store
itself re-enable it explicitly against a temporary directory.
"""

import os

os.environ["REPRO_SWEEP_CACHE"] = "0"
os.environ.pop("REPRO_SWEEP_JOBS", None)
