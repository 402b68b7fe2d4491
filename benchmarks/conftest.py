"""Shared configuration for the paper-reproduction benches.

Every bench regenerates one paper artifact at full scale, saves the
rendered table under ``benchmarks/results/`` and asserts the paper's
qualitative shape.  The simulation benches share one memoized
granularity x pressure sweep, so the first of them pays the full
simulation cost (several minutes at scale 1.0) and the rest are nearly
free.

Environment knobs:

* ``REPRO_SCALE`` — population scale factor (default 1.0; e.g. 0.25
  for a quick pass on a slow machine).
* ``REPRO_TRACE_ACCESSES`` — override per-benchmark trace length.
* ``REPRO_TABLE2_BUDGET`` — guest-instruction budget per Table 2 run.
* ``REPRO_CALIBRATION_SAMPLES`` — samples for Figure 9 / Equations 2-4.
* ``REPRO_SWEEP_CACHE_DIR`` — where the sweep store keeps each
  benchmark's slab between runs (default ``~/.cache/repro-sweeps``).

The sweep engine's own knobs (``REPRO_SWEEP_JOBS``,
``REPRO_SWEEP_CACHE=0`` for a cold simulation, and the rest) reach the
shared sweep unparsed here: the drivers pass no options, so
:func:`repro.analysis.sweep.full_sweep` reads them through
:meth:`~repro.analysis.sweep.SweepOptions.from_env`.
"""

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))
_TRACE = os.environ.get("REPRO_TRACE_ACCESSES", "")
TRACE_ACCESSES = int(_TRACE) if _TRACE else None
PRESSURES = (2, 4, 6, 8, 10)
TABLE2_BUDGET = int(os.environ.get("REPRO_TABLE2_BUDGET", "4000000"))
CALIBRATION_SAMPLES = int(
    os.environ.get("REPRO_CALIBRATION_SAMPLES", "10000")
)


@pytest.fixture(scope="session")
def sweep_kwargs():
    """Keyword arguments shared by every sweep-backed experiment."""
    return dict(scale=SCALE, trace_accesses=TRACE_ACCESSES,
                pressures=PRESSURES)


@pytest.fixture(scope="session")
def save_result():
    """Persist a rendered experiment under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(result):
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(result.render() + "\n")
        print()
        print(result.render())
        return path

    return _save
