"""Process-parallel execution of the sweep grid, two attempts per task.

The (benchmark, policy, pressure) grid is embarrassingly parallel: every
grid point is an independent simulation.  The unit of fan-out here is
one benchmark's whole (policy x pressure) slab, because the dominant
shared cost per benchmark is materializing the workload — and because
workload construction is fully seeded, a worker can rebuild it from the
registry spec alone.  A :class:`SweepTask` therefore carries a few
hundred bytes (spec + grid parameters) across the process boundary
instead of a pickled multi-megabyte trace, and the rebuilt workload is
bit-identical to one built in the parent, making the parallel grid
field-for-field equal to the serial engine's.

A slab is a pure function of its task, so only a failure of the
process running it — a crashed worker (which breaks the whole pool), a
hang, a transient error — can heal on a second try.  :func:`imap_tasks`
therefore gives every task at most two attempts: the first where the
sweep runs (a pool worker or this process), and, if that one fails,
one re-run in this process.  What happened is recorded in a
:class:`SweepFailure` report, and completed slabs can stream into a
:class:`~repro.analysis.sweepcache.Store`, which later runs load them
from: a finished sweep is served from disk and a failed or interrupted
one resumes instead of restarting.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro import faults
from repro.analysis import sweepcache
from repro.analysis.sweepcache import Store
from repro.core.metrics import SimulationStats
from repro.core.overhead import PAPER_MODEL, OverheadModel
from repro.core.policies import PolicySpec, policy_spec
from repro.core.pressure import STANDARD_PRESSURE_FACTORS
from repro.workloads.registry import (
    BenchmarkSpec,
    build_workload,
    default_trace_accesses,
)

#: One simulated grid point: (benchmark, policy, pressure, stats).
GridRecord = tuple[str, str, float, SimulationStats]


@dataclass(frozen=True)
class SweepTask:
    """One worker's unit: a benchmark's (policy x pressure) slab.

    The whole slab is one task, so the one-pass kernel scores every
    cache geometry of the benchmark in one trace traversal.
    ``one_pass`` is an execution hint: it never changes the simulated
    statistics, so it does not participate in :func:`task_key` (a
    one-pass slab is stored interchangeably with a replayed one).
    """

    spec: BenchmarkSpec
    #: The slab's policies as canonical-JSON specs (see
    #: :func:`canonical_specs`).  Strings rather than dicts so the task
    #: stays frozen/hashable; workers rebuild each policy with the
    #: workload's superblocks bound.
    policy_specs: tuple[str, ...]
    scale: float = 1.0
    trace_accesses: int | None = None
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS
    overhead_model: OverheadModel = PAPER_MODEL
    track_links: bool = True
    #: Route eligible specs through the one-pass kernel.
    one_pass: bool = True


def canonical_specs(policy_specs: Sequence[PolicySpec]) -> tuple[str, ...]:
    """Policy specs (mappings or shorthand) as canonical JSON strings:
    the form a :class:`SweepTask` carries and :func:`task_key` hashes."""
    return tuple(
        json.dumps(dict(policy_spec(spec)), sort_keys=True,
                   separators=(",", ":"))
        for spec in policy_specs
    )


def task_key(task: SweepTask) -> str:
    """Content hash identifying one task's slab across processes/runs:
    its key in the sweep store.

    Every field that determines the slab's output (spec identity,
    scale, trace length, pressures, the canonical policy specs,
    overhead model, link tracking, simulator cache version) is hashed,
    so a slab stored by one run is only ever loaded by a run that would
    simulate the identical slab.
    """
    payload = {
        "version": sweepcache.CACHE_VERSION,
        "spec": list(task.spec.cache_token()),
        "scale": float(task.scale),
        "trace_accesses": task.trace_accesses,
        "pressures": [float(pressure) for pressure in task.pressures],
        "policy_specs": list(task.policy_specs),
        "overhead_model": sweepcache.model_token(task.overhead_model),
        "track_links": bool(task.track_links),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SweepError(RuntimeError):
    """A task failed both its attempts.

    Carries the :class:`SweepFailure` report accumulated so far, so the
    caller can see what had already timed out or been re-run before the
    sweep gave up.
    """

    def __init__(self, message: str, failure: "SweepFailure | None" = None):
        super().__init__(message)
        self.failure = failure


@dataclass
class SweepFailure:
    """What the executor had to do to finish a sweep.

    An all-empty report means every task succeeded on its first attempt
    (or was loaded from the store).  ``timeouts`` lists the tasks whose
    pooled attempt passed its timeout, ``degraded`` the tasks re-run in
    this process, ``errors`` keeps the last failure message per
    benchmark, and ``resumed``/``simulated`` split the task list by
    whether a stored slab satisfied it.
    """

    timeouts: list[str] = field(default_factory=list)
    degraded: list[str] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)
    resumed: list[str] = field(default_factory=list)
    simulated: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no task needed a second attempt."""
        return not (self.timeouts or self.degraded or self.errors)

    def summary(self) -> str:
        parts = [
            f"{len(self.simulated)} simulated",
            f"{len(self.resumed)} loaded from the store",
        ]
        if self.timeouts:
            parts.append(f"{len(self.timeouts)} timeouts")
        if self.degraded:
            parts.append(f"{len(self.degraded)} re-run in process")
        return ", ".join(parts)


def check_timeout(task_timeout: float | None) -> None:
    """``ValueError`` unless *task_timeout* is a valid per-attempt limit:
    positive seconds, or ``None`` for none."""
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(f"task_timeout must be positive (or None), "
                         f"got {task_timeout}")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which
    ``os.cpu_count()`` ignores (a process pinned to one CPU of a larger
    host still sees the host's count there).  Falls back to
    ``os.cpu_count()`` where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | None, task_count: int | None = None) -> int:
    """Normalize a worker count (:attr:`SweepOptions.jobs
    <repro.analysis.sweep.SweepOptions.jobs>`).

    ``None`` and ``1`` mean serial (in-process), ``0`` means one worker
    per usable CPU (:func:`usable_cpus`), any other positive value is
    taken literally.  When *task_count* is given the result is
    additionally capped at the number of tasks — the single place that
    cap lives.
    """
    if jobs is None:
        resolved = 1
    elif jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    elif jobs == 0:
        resolved = usable_cpus()
    else:
        resolved = jobs
    if task_count is not None:
        resolved = max(1, min(resolved, task_count))
    return resolved


#: Below this many simulated accesses per task, process fan-out costs
#: more than it saves (fork + import + pickle round trips), so the
#: planner degrades to the inline engine.
MIN_ACCESSES_PER_TASK = 100_000


def estimate_task_accesses(task: SweepTask) -> int:
    """Rough simulated-access count for one task: trace length times
    the number of (policy, pressure) cells its slab covers.

    Used only for planning (is this task worth shipping to a worker
    process?), so the trace-length estimate mirrors
    :func:`~repro.workloads.registry.default_trace_accesses` without
    materializing the workload.
    """
    if task.trace_accesses is not None:
        per_cell = task.trace_accesses
    else:
        blocks = max(1, round(task.spec.superblock_count * task.scale))
        per_cell = default_trace_accesses(blocks)
    return per_cell * len(task.pressures) * max(1, len(task.policy_specs))


def plan_jobs(
    jobs: int | None,
    task_count: int | None = None,
    per_task_accesses: int | None = None,
    cpus: int | None = None,
) -> int:
    """Pick the effective worker count for a sharded sweep.

    Starts from :func:`resolve_jobs` (same ``None``/``0``/N semantics,
    same task-count cap) and then *refuses* to fan out when the pool
    cannot win: on a single-CPU machine the workers just time-slice the
    one core while paying process startup and pickling, and below
    :data:`MIN_ACCESSES_PER_TASK` simulated accesses per task the
    fan-out overhead outweighs the simulation itself.  Both degrade to
    the inline engine (returns 1), keeping parallel speedup >= ~1.0
    instead of silently regressing.  Callers that explicitly want a
    pool regardless (fault-injection tests, for instance) should call
    :func:`resolve_jobs` directly.
    """
    resolved = resolve_jobs(jobs, task_count=task_count)
    if resolved <= 1:
        return resolved
    if (cpus if cpus is not None else usable_cpus()) <= 1:
        return 1
    if (per_task_accesses is not None
            and per_task_accesses < MIN_ACCESSES_PER_TASK):
        return 1
    return resolved


def plan_tasks(
    specs: Sequence[BenchmarkSpec],
    policy_specs: Sequence[PolicySpec],
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
    one_pass: bool = True,
) -> list[SweepTask]:
    """One task per benchmark in *specs*, each the benchmark's whole
    (policy x pressure) slab for *policy_specs*, in spec order."""
    policy_specs = canonical_specs(policy_specs)
    return [SweepTask(spec=spec, policy_specs=policy_specs, scale=scale,
                      trace_accesses=trace_accesses,
                      pressures=tuple(pressures),
                      overhead_model=overhead_model,
                      track_links=track_links, one_pass=one_pass)
            for spec in specs]


#: Process-local workload memo.  The policy search scores each
#: generation over the same fitness workloads, so back-to-back sweeps
#: over one spec would otherwise rebuild the same (seeded,
#: deterministic) workload every time.  Tiny and FIFO-bounded because
#: traces are the big allocation.
_WORKLOAD_MEMO: dict[tuple, object] = {}
_WORKLOAD_MEMO_MAX = 4


def _task_workload(task: SweepTask):
    key = (tuple(task.spec.cache_token()), float(task.scale),
           task.trace_accesses)
    workload = _WORKLOAD_MEMO.get(key)
    if workload is None:
        workload = build_workload(task.spec, scale=task.scale,
                                  trace_accesses=task.trace_accesses)
        while len(_WORKLOAD_MEMO) >= _WORKLOAD_MEMO_MAX:
            _WORKLOAD_MEMO.pop(next(iter(_WORKLOAD_MEMO)))
        _WORKLOAD_MEMO[key] = workload
    return workload


def simulate_task(task: SweepTask) -> list[GridRecord]:
    """Rebuild the task's workload and simulate its whole grid slab.

    Runs inside a worker process (or inline for the serial path)
    through :func:`repro.analysis.sweep.simulate_slab`, the code the
    serial engine runs per workload, so the records are identical.
    """
    from repro.analysis.sweep import simulate_slab  # sweep imports us

    return simulate_slab(_task_workload(task),
                         [json.loads(raw) for raw in task.policy_specs],
                         task.pressures,
                         overhead_model=task.overhead_model,
                         track_links=task.track_links,
                         one_pass=task.one_pass)


def _attempt_task(task: SweepTask, key: str, attempt: int) -> list[GridRecord]:
    """One attempt at a task's slab, reporting into the fault registry.

    Top-level (picklable) so it can be submitted to a process pool; the
    *attempt* index (1 or 2) lets a :class:`~repro.faults.FaultPlan`
    fail the first attempt and let the re-run through, whichever
    process runs each.
    """
    faults.fire("sweep.worker", key=key, attempt=attempt)
    return simulate_task(task)


def _check_slab(records) -> list[GridRecord]:
    """*records* if they are a slab, else ``TypeError``: a stored file
    that unpickles into something else must not reach a grid."""
    if not isinstance(records, list):
        raise TypeError(f"slab holds {type(records).__name__}, "
                        "expected list")
    for record in records:
        if not (isinstance(record, tuple) and len(record) == 4):
            raise TypeError("slab record is not a "
                            "(benchmark, policy, pressure, stats) tuple")
        benchmark, policy, pressure, stats = record
        if not (isinstance(benchmark, str) and isinstance(policy, str)
                and isinstance(pressure, (int, float))
                and isinstance(stats, SimulationStats)):
            raise TypeError("slab record fields have wrong types")
    return records


def imap_tasks(
    tasks: Sequence[SweepTask],
    jobs: int | None = 0,
    task_timeout: float | None = None,
    checkpoints: Store | None = None,
    failure: SweepFailure | None = None,
) -> Iterator[list[GridRecord]]:
    """Yield one record batch per task, in task order.

    With an effective worker count of one (or a single outstanding
    task) every first attempt runs inline; otherwise first attempts fan
    out over a process pool (:func:`_run_pooled`).  A first attempt
    that raises, dies with a broken pool or passes *task_timeout*
    seconds in a worker (``None``: never) is re-run once in this
    process with a ``RuntimeWarning``; a re-run that fails raises
    :class:`SweepError`.  When *checkpoints* is given, a task whose
    slab the store holds under its :func:`task_key` is loaded instead
    of simulated, and every freshly simulated slab is stored as soon as
    it completes.  *failure* (a :class:`SweepFailure`, created if
    omitted) accumulates what the executor had to recover from.
    """
    check_timeout(task_timeout)
    report = failure if failure is not None else SweepFailure()
    keys = [task_key(task) for task in tasks]
    names = [task.spec.name for task in tasks]
    results: dict[int, list[GridRecord]] = {}
    pending: list[int] = []
    for index, key in enumerate(keys):
        records = (checkpoints.load(key, parse=_check_slab)
                   if checkpoints is not None else None)
        if records is not None:
            results[index] = records
            report.resumed.append(names[index])
        else:
            pending.append(index)
            report.simulated.append(names[index])

    def finish(index: int, records: list[GridRecord]) -> None:
        if checkpoints is not None:
            checkpoints.store(keys[index], records)
        results[index] = records

    def rerun(index: int) -> None:
        name = names[index]
        report.degraded.append(name)
        warnings.warn(
            f"sweep task {name!r}: "
            f"{report.errors.get(name, 'its pool was shut down')}; "
            "re-running it in process",
            RuntimeWarning,
            stacklevel=3,
        )
        try:
            records = _attempt_task(tasks[index], keys[index], 2)
        except Exception as exc:
            report.errors[name] = repr(exc)
            raise SweepError(f"sweep task {name!r} failed both attempts: "
                             f"{exc!r}", failure=report) from exc
        finish(index, records)

    jobs = resolve_jobs(jobs, task_count=len(pending) or 1)
    if jobs <= 1:
        for index in pending:
            try:
                records = _attempt_task(tasks[index], keys[index], 1)
            except Exception as exc:
                report.errors[names[index]] = repr(exc)
                rerun(index)
            else:
                finish(index, records)
    elif pending:
        for index in _run_pooled(tasks, pending, keys, names, jobs,
                                 task_timeout, report, finish):
            rerun(index)
    for index in range(len(tasks)):
        yield results[index]


def _run_pooled(tasks, pending, keys, names, jobs, task_timeout,
                report: SweepFailure, finish) -> list[int]:
    """Run the first attempt of each *pending* task on a pool of *jobs*
    workers; return the tasks left for a re-run, in task order.

    At most *jobs* attempts are in flight, so an attempt's deadline
    starts when a worker is free to run it.  An attempt that raises is
    left for the re-run while the pool carries on; a timeout or a
    broken pool ends the pool, and every unfinished task is left too.
    """
    waiting = list(reversed(pending))
    #: future -> (task index, monotonic time it was submitted)
    inflight: dict = {}
    failed: list[int] = []
    healthy = True
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        while healthy and (waiting or inflight):
            try:
                while waiting and len(inflight) < jobs:
                    index = waiting[-1]
                    future = pool.submit(_attempt_task, tasks[index],
                                         keys[index], 1)
                    inflight[future] = (waiting.pop(), time.monotonic())
            except BrokenProcessPool:
                healthy = False
                break
            timeout = None
            if task_timeout is not None:
                oldest = min(started for _, started in inflight.values())
                timeout = max(0.0, oldest + task_timeout - time.monotonic())
            done, _ = wait(inflight, timeout=timeout,
                           return_when=FIRST_COMPLETED)
            for future in done:
                index, _ = inflight.pop(future)
                try:
                    records = future.result()
                except Exception as exc:
                    report.errors[names[index]] = repr(exc)
                    failed.append(index)
                    if isinstance(exc, BrokenProcessPool):
                        healthy = False
                else:
                    finish(index, records)
            now = time.monotonic()
            for future, (index, started) in inflight.items():
                if (task_timeout is not None and not future.done()
                        and now - started >= task_timeout):
                    report.timeouts.append(names[index])
                    report.errors[names[index]] = (
                        f"timed out after {task_timeout}s"
                    )
                    healthy = False
    finally:
        if not healthy:
            # Hung workers would block a waiting shutdown forever, and
            # a broken pool's are dead already: put the pool down.
            _terminate_workers(pool)
        pool.shutdown(wait=True, cancel_futures=True)
    return sorted(failed + [index for index, _ in inflight.values()]
                  + waiting)


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Forcibly kill the workers of a pool the sweep abandons.

    An abandoned (timed-out) attempt keeps running inside its worker;
    without this, shutdown would block joining it.  Reaches into the
    executor's process table because the public API offers no kill
    switch; best-effort by design.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass
