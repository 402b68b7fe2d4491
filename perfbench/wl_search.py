"""search-eval: the policy search's fitness evaluation.

One operation is what one generation of ``python -m repro.search``
spends nearly all its time on: scoring a population of policies over
the fitness set through ``run_sweep_parallel(policy_specs=...)``.  The
population is a fixed panel — the search's three hand-seeded priority
functions, three further priority functions (one of them the search's
committed winner), fine-grained FIFO and the 8-unit FIFO baseline — so
every seed costs about the same.  The fitness set is the search's
default benchmarks, their traces seeded from ``--seed``, at the search's
pressure factor.  Priority policies replay access by access and pick
each victim by scoring every resident block; none of the one-pass
kernel runs.

Traced runs split an operation into victim selection (the priority
policies' ``_choose_victim``: feature vectors and expression
evaluation) and the rest of the replay.  Set-up is what a search
pays before its first generation: a fresh interpreter importing the
search stack and building the fitness set's workloads.  Untraced runs
report reference times: every operation and set-up is scaled by the
calibration slices on either side of it.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import traceback
from pathlib import Path

from layers import layer_metrics
from timing import (Deadline, ReferenceClock, Spans, clock, median,
                    metric)

from repro.analysis.sweep import run_sweep_parallel
from repro.search.driver import DEFAULT_BENCHMARKS
from repro.search.expr import Binary, Const, Feature, Unary, to_dict
from repro.search.priority import PriorityFunctionPolicy
from repro.workloads.registry import benchmarks_by_names, build_workload

SCALE = 0.25
TRACE_ACCESSES = 2000
PRESSURE = 10.0
SETUP_SAMPLES = 5

_COLD_START = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import wl_search\n"
    "wl_search._build_fitness_set(wl_search._seeded_specs(int(sys.argv[2])))\n"
)

_PRIORITY_PANEL = {
    # The search's hand-seeded population (repro.search.driver).
    "seed-fifo": Unary("neg", Feature("age")),
    "seed-size": Unary("neg", Binary("mul", Feature("age"),
                                     Unary("log1p", Feature("size")))),
    "seed-link": Binary("sub",
                        Binary("add", Feature("in_degree"),
                               Feature("out_degree")),
                        Binary("mul", Const(0.05), Feature("age"))),
    # The winner the committed search report names.
    "winner": Unary("neg", Binary("mul", Feature("size"), Unary(
        "log1p", Binary("sub", Feature("out_degree"), Feature("size"))))),
    "lru": Feature("recency"),
    "hot": Binary("sub", Feature("hotness"),
                  Unary("log1p", Feature("age"))),
}


def _policy_specs() -> list[dict]:
    specs = [{"kind": "priority", "name": name, "expression": to_dict(tree)}
             for name, tree in _PRIORITY_PANEL.items()]
    specs.append({"kind": "fifo", "name": "fifo"})
    specs.append({"kind": "unit", "unit_count": 8, "name": "8-unit"})
    return specs


def _seeded_specs(seed: int) -> list:
    return [dataclasses.replace(spec, seed=spec.seed * 1009 + seed)
            for spec in benchmarks_by_names(DEFAULT_BENCHMARKS)]


def _evaluate(specs, policy_specs) -> dict:
    result = run_sweep_parallel(specs, scale=SCALE,
                                trace_accesses=TRACE_ACCESSES,
                                pressures=(PRESSURE,), jobs=1,
                                policy_specs=policy_specs)
    return {point: dataclasses.asdict(record)
            for point, record in result.stats.items()}


def _fifo_seed_agrees(grid: dict, specs) -> bool:
    """``neg(age)`` must replay exactly like fine-grained FIFO."""
    for spec in specs:
        seed = dict(grid[(spec.name, "seed-fifo", PRESSURE)])
        fifo = dict(grid[(spec.name, "fifo", PRESSURE)])
        seed.pop("policy_name")
        fifo.pop("policy_name")
        if seed != fifo:
            return False
    return True


def _well_formed(grid: dict, specs, policy_specs) -> bool:
    if len(grid) != len(specs) * len(policy_specs):
        return False
    return all(record["accesses"] == TRACE_ACCESSES
               and record["hits"] + record["misses"] == record["accesses"]
               and 0 < record["misses"] < record["accesses"]
               for record in grid.values())


def _build_fitness_set(specs) -> list:
    return [build_workload(spec, scale=SCALE, trace_accesses=TRACE_ACCESSES)
            for spec in specs]


def _cold_start(seed: int) -> tuple[float, bool]:
    started = clock()
    completed = subprocess.run(
        [sys.executable, "-c", _COLD_START,
         str(Path(__file__).resolve().parent), str(seed)],
        capture_output=True, timeout=120)
    return clock() - started, completed.returncode == 0


class _VictimHook:
    """Charge every priority victim choice to ``eval.victim``."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.original = PriorityFunctionPolicy._choose_victim

    def install(self) -> None:
        spans, original = self.spans, self.original

        def choose_victim(policy):
            started = clock()
            try:
                return original(policy)
            finally:
                spans.add("eval.victim", clock() - started)
                spans.add("eval.victims", 1)
        PriorityFunctionPolicy._choose_victim = choose_victim

    def remove(self) -> None:
        PriorityFunctionPolicy._choose_victim = self.original


def run(seed: int, seconds: float, trace: bool, scratch) -> dict:
    specs = _seeded_specs(seed)
    policy_specs = _policy_specs()
    checks: list[bool] = []
    errors = 0
    reference = ReferenceClock()

    # Warm-up operation, outside the window: it fills the workload memo
    # and yields the grid every timed operation must reproduce.
    expected = _evaluate(specs, policy_specs)
    checks.append(_well_formed(expected, specs, policy_specs))
    checks.append(_fifo_seed_agrees(expected, specs))

    spans = Spans()
    hook = _VictimHook(spans)
    if trace:
        hook.install()
    op_seconds: list[float] = []
    deadline = Deadline(seconds)
    reference.mark()
    try:
        while not deadline.expired() or not op_seconds:
            started = clock()
            try:
                with spans.op(), spans.span("eval.op"):
                    grid = _evaluate(specs, policy_specs)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                errors += 1
                op_seconds.append(clock() - started)
                reference.mark()
                continue
            op_seconds.append((clock() - started) * reference.factor())
            checks.append(grid == expected)
    finally:
        hook.remove()

    setups: list[float] = []
    reference.mark()
    for _ in range(SETUP_SAMPLES):
        elapsed, ok = _cold_start(seed)
        setups.append(elapsed * reference.factor())
        checks.append(ok)

    correct = errors == 0 and all(checks)
    cells = len(specs) * len(policy_specs)
    if trace:
        metrics = layer_metrics({
            "eval.victim_ms": spans.median_ms("eval.victim"),
            "eval.replay_ms": median(
                op - victim for op, victim in zip(
                    spans.per_op("eval.op"), spans.per_op("eval.victim"))
            ) * 1e3,
            "eval.victims": median(spans.per_op("eval.victims")),
        })
    else:
        metrics = {
            "op_ms": metric(median(op_seconds) * 1e3, "ms"),
            "accesses_per_s": metric(median(
                cells * TRACE_ACCESSES / op for op in op_seconds), "1/s"),
            "setup_s": metric(median(setups), "s"),
        }
    return {"correct": correct, "attempted": len(op_seconds),
            "failed": errors, "metrics": metrics}
