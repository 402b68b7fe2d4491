"""Fault-tolerant process-parallel execution of the sweep grid.

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

Long sweeps also have to survive the real world: a worker crashes (and
takes the whole :class:`~concurrent.futures.ProcessPoolExecutor` down
as a ``BrokenProcessPool``), a straggler hangs forever, a transient
error fails one slab.  :func:`imap_tasks` therefore submits per-task
futures instead of ``pool.map``: each task gets a configurable timeout,
failed or timed-out attempts are retried with exponential backoff and
deterministic jitter, a broken pool is rebuilt in place, and a task
that exhausts its retries degrades to in-process serial execution (with
a warning) rather than killing the sweep.  Everything that was retried,
timed out, or degraded is recorded in a :class:`SweepFailure` report,
and completed slabs can stream into a
:class:`~repro.analysis.sweepcache.Store`, which later runs load them
from: a finished sweep is served from disk and an interrupted one
resumes instead of restarting.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
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
    """A task failed even after retries *and* the serial fallback.

    Carries the :class:`SweepFailure` report accumulated so far, so the
    caller can see what had already been retried or degraded before the
    sweep gave up.
    """

    def __init__(self, message: str, failure: "SweepFailure | None" = None):
        super().__init__(message)
        self.failure = failure


@dataclass
class SweepFailure:
    """What the fault-tolerant executor had to do to finish a sweep.

    An all-empty report means every task succeeded first try (or was
    loaded from the store).  ``retried`` and ``timeouts`` count
    recovery events per benchmark, ``degraded`` lists tasks that
    exhausted their pool retries and ran in-process instead, ``errors``
    keeps the last failure message per benchmark, and
    ``resumed``/``simulated`` split the task list by whether a stored
    slab satisfied it.
    """

    retried: dict[str, int] = field(default_factory=dict)
    timeouts: dict[str, int] = field(default_factory=dict)
    degraded: list[str] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)
    resumed: list[str] = field(default_factory=list)
    simulated: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no fault-recovery machinery had to engage."""
        return not (self.retried or self.timeouts
                    or self.degraded or self.errors)

    def summary(self) -> str:
        parts = [
            f"{len(self.simulated)} simulated",
            f"{len(self.resumed)} loaded from the store",
        ]
        if self.retried:
            parts.append(f"{sum(self.retried.values())} retries")
        if self.timeouts:
            parts.append(f"{sum(self.timeouts.values())} timeouts")
        if self.degraded:
            parts.append(f"{len(self.degraded)} degraded to serial")
        return ", ".join(parts)


@dataclass(frozen=True)
class FaultTolerance:
    """Retry/timeout policy for one sweep run.

    ``task_timeout`` is wall-clock seconds one pooled attempt may take
    before being abandoned (``None`` = never).  ``max_retries`` bounds
    *additional* pooled attempts after the first; a task that fails
    ``1 + max_retries`` pooled attempts degrades to one in-process
    attempt.  Backoff before retry *n* is
    ``min(backoff_base * 2**(n-1), backoff_cap)`` plus up to 25 %
    deterministic jitter (seeded per task key, so schedules are
    reproducible but tasks don't retry in lockstep).
    """

    task_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive (or None), "
                             f"got {self.task_timeout}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    @classmethod
    def of(cls, task_timeout: float | None = None,
           max_retries: int | None = None) -> FaultTolerance:
        """The default policy with *task_timeout* and, unless ``None``,
        *max_retries* laid over it."""
        if max_retries is None:
            return cls(task_timeout)
        return cls(task_timeout, max_retries)

    def backoff_delay(self, key: str, retry_number: int) -> float:
        base = min(self.backoff_base * (2 ** (retry_number - 1)),
                   self.backoff_cap)
        jitter = random.Random(f"{key}:{retry_number}").uniform(0.0, 0.25)
        return base * (1.0 + jitter)


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
    1-based *attempt* index lets a :class:`~repro.faults.FaultPlan`
    schedule failures per attempt deterministically even when retries
    land on different worker processes.
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
    tolerance: FaultTolerance | None = None,
    checkpoints: Store | None = None,
    failure: SweepFailure | None = None,
) -> Iterator[list[GridRecord]]:
    """Yield one record batch per task, in task order.

    With an effective worker count of one (or a single outstanding
    task) everything runs inline; otherwise tasks fan out as individual
    futures over a process pool governed by *tolerance* (timeouts,
    retries with backoff, serial degradation, pool rebuild on
    ``BrokenProcessPool``).  When *checkpoints* is given, a task whose
    slab the store holds under its :func:`task_key` is loaded instead
    of simulated, and every freshly simulated slab is stored as soon as
    it completes.  *failure* (a :class:`SweepFailure`, created if
    omitted) accumulates what the executor had to recover from.
    """
    tolerance = tolerance if tolerance is not None else FaultTolerance()
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

    jobs = resolve_jobs(jobs, task_count=len(pending) or 1)
    if jobs <= 1:
        for index in pending:
            finish(index, _run_inline(tasks[index], keys[index],
                                      names[index], tolerance, report))
    elif pending:
        _run_pooled(tasks, pending, keys, names, jobs,
                    tolerance, report, finish)
    for index in range(len(tasks)):
        yield results[index]


def _run_inline(task: SweepTask, key: str, name: str,
                tolerance: FaultTolerance, report: SweepFailure,
                first_attempt: int = 1,
                max_retries: int | None = None) -> list[GridRecord]:
    """Run one task in-process, retrying failures up to the budget."""
    budget = tolerance.max_retries if max_retries is None else max_retries
    attempt = first_attempt
    while True:
        try:
            return _attempt_task(task, key, attempt)
        except Exception as exc:
            report.errors[name] = repr(exc)
            used = attempt - first_attempt
            if used >= budget:
                raise SweepError(
                    f"sweep task {name!r} failed after "
                    f"{used + 1} in-process attempt(s): {exc!r}",
                    failure=report,
                ) from exc
            report.retried[name] = report.retried.get(name, 0) + 1
            sweepcache.note_retry()
            time.sleep(tolerance.backoff_delay(key, used + 1))
            attempt += 1


def _run_pooled(tasks, pending, keys, names, jobs,
                tolerance: FaultTolerance, report: SweepFailure,
                finish) -> None:
    """Fan *pending* task indices out over a self-healing process pool."""
    pool = ProcessPoolExecutor(max_workers=jobs)
    #: future -> (task index, attempt, deadline or None)
    inflight: dict = {}
    #: min-heap of (ready_time, task index, next attempt)
    retry_queue: list[tuple[float, int, int]] = []
    #: (task index, next attempt) pairs that exhausted pool retries
    degraded: list[tuple[int, int]] = []
    saw_timeout = False

    def submit(index: int, attempt: int) -> None:
        nonlocal pool
        deadline = (time.monotonic() + tolerance.task_timeout
                    if tolerance.task_timeout is not None else None)
        try:
            future = pool.submit(_attempt_task, tasks[index],
                                 keys[index], attempt)
        except (BrokenProcessPool, RuntimeError):
            # The previous attempt's crash broke the executor; rebuild
            # it and resubmit on the fresh pool.
            pool.shutdown(wait=True, cancel_futures=True)
            pool = ProcessPoolExecutor(max_workers=jobs)
            future = pool.submit(_attempt_task, tasks[index],
                                 keys[index], attempt)
        inflight[future] = (index, attempt, deadline)

    def retry_or_degrade(index: int, attempt: int) -> None:
        # ``attempt`` is 1-based, so retries used so far = attempt - 1.
        if attempt - 1 < tolerance.max_retries:
            report.retried[names[index]] = (
                report.retried.get(names[index], 0) + 1
            )
            sweepcache.note_retry()
            delay = tolerance.backoff_delay(keys[index], attempt)
            heapq.heappush(retry_queue,
                           (time.monotonic() + delay, index, attempt + 1))
        else:
            degraded.append((index, attempt + 1))

    try:
        for index in pending:
            submit(index, 1)
        while inflight or retry_queue:
            now = time.monotonic()
            while retry_queue and retry_queue[0][0] <= now:
                _, index, attempt = heapq.heappop(retry_queue)
                submit(index, attempt)
            waits = []
            if retry_queue:
                waits.append(retry_queue[0][0] - now)
            deadlines = [deadline for (_, _, deadline) in inflight.values()
                         if deadline is not None]
            if deadlines:
                waits.append(min(deadlines) - now)
            if not inflight:
                # Nothing running; sleep until the next retry is due.
                time.sleep(max(0.0, min(waits)))
                continue
            timeout = max(0.01, min(waits)) if waits else None
            done, _ = wait(set(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            pool_broke = False
            for future in done:
                index, attempt, _ = inflight.pop(future)
                try:
                    records = future.result()
                except BrokenProcessPool as exc:
                    report.errors[names[index]] = repr(exc)
                    pool_broke = True
                    retry_or_degrade(index, attempt)
                except Exception as exc:
                    report.errors[names[index]] = repr(exc)
                    retry_or_degrade(index, attempt)
                else:
                    finish(index, records)
            if pool_broke:
                # Every sibling future on the broken pool will surface
                # its own BrokenProcessPool next iteration; replace the
                # executor now so retries land on a healthy pool.  The
                # broken pool's workers are already dead, so a waiting
                # shutdown returns promptly (and keeps interpreter exit
                # from tripping over its half-closed pipes).
                pool.shutdown(wait=True, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=jobs)
            now = time.monotonic()
            for future, (index, attempt, deadline) in list(inflight.items()):
                if deadline is None or deadline > now or future.done():
                    continue
                del inflight[future]
                future.cancel()  # no-op if already running; we abandon it
                saw_timeout = True
                report.timeouts[names[index]] = (
                    report.timeouts.get(names[index], 0) + 1
                )
                report.errors[names[index]] = (
                    f"timed out after {tolerance.task_timeout}s "
                    f"(attempt {attempt})"
                )
                retry_or_degrade(index, attempt)
    finally:
        if saw_timeout:
            # Hung workers would block a waiting shutdown forever:
            # abandon the pool and put the stragglers down.
            pool.shutdown(wait=False, cancel_futures=True)
            _terminate_workers(pool)
        else:
            pool.shutdown(wait=True, cancel_futures=True)
    for index, attempt in degraded:
        report.degraded.append(names[index])
        warnings.warn(
            f"sweep task {names[index]!r} exhausted "
            f"{tolerance.max_retries} pool retries; degrading to "
            f"in-process serial execution",
            RuntimeWarning,
            stacklevel=3,
        )
        # Last resort: one in-process attempt, no timeout.  If this
        # also fails the sweep legitimately cannot proceed.
        finish(index, _run_inline(tasks[index], keys[index], names[index],
                                  tolerance, report,
                                  first_attempt=attempt, max_retries=0))


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Forcibly kill workers left hung past their task timeout.

    An abandoned (timed-out) attempt keeps running inside its worker;
    without this, interpreter shutdown would block joining it.  Reaches
    into the executor's process table because the public API offers no
    kill switch; best-effort by design.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass
