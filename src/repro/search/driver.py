"""Generational search over priority-function eviction policies.

The loop is classic PolicySmith: hold a population of expression trees,
score each against the workload registry, keep the elites, refill with
seeded mutants, repeat.  Three properties matter more than cleverness:

* **The evaluation backend is the sweep engine.**  Candidates travel as
  JSON policy specs through ``run_sweep_parallel(policy_specs=...)``,
  so scoring inherits the engine's fan-out, its in-process re-run of a
  failed task and its stored slabs for free; a generation whose
  process died mid-evaluation re-simulates only its unfinished
  benchmark slabs.

* **Fitness is the paper's.**  A candidate's score is the unified
  Eq. 1 miss rate over the fitness set at one high pressure factor,
  tie-broken on eviction-overhead instructions (Eq. 2) — cheaper
  management wins between policies that miss equally often.  The
  fitness set is registry benchmarks plus (optionally) the hostile
  scenarios from :mod:`repro.workloads.multiprogram`.

* **Everything is deterministic and checkpointed.**  Workload
  construction is seeded, simulation is deterministic, mutation draws
  from one ``random.Random`` whose state is checkpointed with the
  population and all scores after every generation (a content-keyed
  value in a :class:`~repro.analysis.sweepcache.Store`).  A
  killed search therefore resumes *bit-identically*: same best policy,
  same per-generation fitness curves.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.analysis import sweepcache
from repro.analysis.parallel import plan_jobs
from repro.analysis.sweep import run_sweep, run_sweep_parallel
from repro.analysis.sweepcache import Store
from repro.core.metrics import SimulationStats, unified_miss_rate
from repro.core.policies import policy_from_spec
from repro.search import expr as expr_mod
from repro.search.expr import Binary, Const, Expr, Feature, Unary
from repro.workloads.multiprogram import build_scenario, scenario_names
from repro.workloads.registry import (
    benchmarks_by_names,
    build_workload,
    default_trace_accesses,
)

#: Bump when the checkpoint payload shape changes.  2: memoized
#: eviction overheads are derived from integer counters, so a format-1
#: memo would mix in the old float accumulations.
CHECKPOINT_FORMAT = 2

#: Default fitness benchmarks: a small, diverse registry slice (large
#: and small populations, loopy and flat link graphs).
DEFAULT_BENCHMARKS = ("gzip", "mcf", "bzip2", "vpr")


class SearchError(RuntimeError):
    """A search could not run (bad config, missing resume checkpoint)."""


def seed_expressions() -> tuple[tuple[str, Expr], ...]:
    """The hand-seeded starting population, named.

    ``seed-fifo`` scores ``-age`` — with the policy's insertion-order
    tie-break this is exactly fine-grained FIFO, the rung the paper
    found strongest, so the search starts from a known-good policy and
    must only not regress to beat coarse FIFO.  ``seed-size`` prefers
    evicting old *large* blocks; ``seed-link`` protects well-linked
    blocks (evicting them breaks the most chains) with an age decay.
    """
    return (
        ("seed-fifo", Unary("neg", Feature("age"))),
        ("seed-size",
         Unary("neg", Binary("mul", Feature("age"),
                             Unary("log1p", Feature("size"))))),
        ("seed-link",
         Binary("sub",
                Binary("add", Feature("in_degree"), Feature("out_degree")),
                Binary("mul", Const(0.05), Feature("age")))),
    )


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines a search run's results.

    ``generations`` is deliberately *not* part of the identity token: a
    2-generation run and a 10-generation run with the same config walk
    the same trajectory, so the shorter run's checkpoint resumes into
    the longer one bit-identically.
    """

    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS
    scenarios: tuple[str, ...] = ()
    scale: float = 0.5
    trace_accesses: int | None = 8000
    pressure: float = 10.0
    population: int = 12
    elites: int = 3
    seed: int = 2004
    baseline_units: int = 8

    def __post_init__(self) -> None:
        if self.population < 2:
            raise SearchError("population must be at least 2")
        if not 0 < self.elites < self.population:
            raise SearchError("elites must be in [1, population)")
        if self.pressure <= 1.0:
            raise SearchError("pressure factor must exceed 1")
        if self.baseline_units < 1:
            raise SearchError("baseline_units must be >= 1")
        benchmarks_by_names(self.benchmarks)  # validate early
        for name in self.scenarios:
            if name not in scenario_names():
                raise SearchError(
                    f"unknown scenario {name!r}; known: "
                    f"{', '.join(scenario_names())}"
                )

    def token(self) -> dict:
        """JSON-safe identity of this config (checkpoint keying)."""
        return {
            "format": CHECKPOINT_FORMAT,
            "benchmarks": list(self.benchmarks),
            "scenarios": list(self.scenarios),
            "scale": float(self.scale),
            "trace_accesses": self.trace_accesses,
            "pressure": float(self.pressure),
            "population": self.population,
            "elites": self.elites,
            "seed": self.seed,
            "baseline_units": self.baseline_units,
        }

    def key(self) -> str:
        blob = json.dumps(self.token(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Candidate:
    """One member of the population: a named expression with ancestry."""

    name: str
    expression: Expr
    parent: str | None = None
    op: str = "seed"

    @property
    def expr_key(self) -> str:
        return expr_mod.dumps(self.expression)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expression": expr_mod.to_dict(self.expression),
            "parent": self.parent,
            "op": self.op,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Candidate":
        return cls(
            name=str(payload["name"]),
            expression=expr_mod.from_dict(payload["expression"]),
            parent=payload.get("parent"),
            op=str(payload.get("op", "seed")),
        )


@dataclass
class SearchState:
    """The resumable whole of a search: what a checkpoint holds."""

    config: SearchConfig
    generation: int = 0
    population: list[Candidate] = field(default_factory=list)
    rng_state: tuple = ()
    #: expr_key -> (miss_rate, eviction_overhead); scores are memoized
    #: so elites (and duplicate mutants) are never re-simulated.
    scores: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: candidate name -> ancestry record, across all generations.
    lineage: dict[str, dict] = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)
    baseline: dict = field(default_factory=dict)


# -- Fitness evaluation -------------------------------------------------------


def _scenario_workloads(config: SearchConfig) -> list:
    """Build the configured hostile scenarios (seeded, so every call —
    in every process — yields bit-identical workloads)."""
    return [
        build_scenario(name,
                       scale=config.scale,
                       accesses=config.trace_accesses,
                       seed=config.seed)
        for name in config.scenarios
    ]


def _fitness_from_records(records: Sequence[SimulationStats],
                          ) -> tuple[float, float]:
    miss = unified_miss_rate(records)
    overhead = float(sum(r.eviction_overhead for r in records))
    return (miss, overhead)


def _evaluate_policies(
    policy_specs: Sequence[dict],
    config: SearchConfig,
    jobs: int | None,
    sweep_checkpoints: Store | None,
) -> dict[str, tuple[float, float]]:
    """Score named policy specs over the fitness set; returns name ->
    fitness.

    The specs ride ``run_sweep_parallel(policy_specs=...)`` across the
    registry benchmarks (fan-out, re-runs, stored slabs); the
    hostile scenarios are combined workloads without a registry spec,
    so they run through the serial engine.
    """
    if not policy_specs:
        return {}
    specs = benchmarks_by_names(config.benchmarks)
    per_task = ((config.trace_accesses
                 or default_trace_accesses(specs[0].superblock_count))
                * len(policy_specs))
    effective_jobs = plan_jobs(0 if jobs is None else jobs,
                               task_count=len(specs),
                               per_task_accesses=per_task)
    result = run_sweep_parallel(
        specs,
        policy_specs,
        scale=config.scale,
        trace_accesses=config.trace_accesses,
        pressures=(config.pressure,),
        jobs=effective_jobs,
        checkpoints=sweep_checkpoints,
    )
    records: dict[str, list[SimulationStats]] = {
        name: list(result.records(name, config.pressure))
        for name in result.policy_names
    }
    for workload in _scenario_workloads(config):
        scenario_result = run_sweep([workload], policy_specs,
                                    pressures=(config.pressure,))
        for name in result.policy_names:
            records[name].append(
                scenario_result.get(workload.name, name, config.pressure))
    return {name: _fitness_from_records(recs)
            for name, recs in records.items()}


def _evaluate_baseline(config: SearchConfig, jobs: int | None,
                       sweep_checkpoints: Store | None) -> dict:
    spec = {"kind": "unit", "unit_count": config.baseline_units}
    policy_name = policy_from_spec(spec).name
    name = f"{policy_name}-baseline"
    fitness = _evaluate_policies([{**spec, "name": name}], config, jobs,
                                 sweep_checkpoints)[name]
    return {
        "policy": policy_name,
        "miss_rate": fitness[0],
        "eviction_overhead": fitness[1],
    }


def _evaluate_generation(state: SearchState, jobs: int | None,
                         sweep_checkpoints: Store | None) -> None:
    """Fill ``state.scores`` for every unscored member of the current
    population (one sweep for all of them — deduplicated by expression,
    so carried-over elites cost nothing)."""
    pending: dict[str, Candidate] = {}
    for candidate in state.population:
        key = candidate.expr_key
        if key not in state.scores and key not in pending:
            pending[key] = candidate
    if not pending:
        return
    policy_specs = [
        {
            "kind": "priority",
            "name": candidate.name,
            "expression": expr_mod.to_dict(candidate.expression),
        }
        for candidate in pending.values()
    ]
    fitness = _evaluate_policies(policy_specs, state.config, jobs,
                                 sweep_checkpoints)
    for key, candidate in pending.items():
        state.scores[key] = fitness[candidate.name]


# -- Generation loop ----------------------------------------------------------


def _ranked(state: SearchState) -> list[Candidate]:
    """Population sorted best-first: miss rate, then eviction overhead
    (the Eq. 2 tie-break), then name for total determinism."""
    return sorted(
        state.population,
        key=lambda c: (*state.scores[c.expr_key], c.name),
    )


def _breed(state: SearchState, rng: random.Random) -> list[Candidate]:
    """Next generation: elites carried over, the rest seeded mutants."""
    config = state.config
    ranked = _ranked(state)
    elites = ranked[:config.elites]
    children: list[Candidate] = list(elites)
    index = 0
    while len(children) < config.population:
        parent = elites[index % len(elites)]
        mutant, op = expr_mod.mutate_named(parent.expression, rng)
        child = Candidate(
            name=f"g{state.generation + 1}c{index}",
            expression=mutant,
            parent=parent.name,
            op=op,
        )
        children.append(child)
        index += 1
    return children


def _init_state(config: SearchConfig, jobs: int | None,
                sweep_checkpoints: Store | None) -> SearchState:
    rng = random.Random(config.seed)
    population: list[Candidate] = [
        Candidate(name=name, expression=expression)
        for name, expression in seed_expressions()
    ]
    index = 0
    while len(population) < config.population:
        parent = population[index % len(seed_expressions())]
        mutant, op = expr_mod.mutate_named(parent.expression, rng)
        population.append(Candidate(
            name=f"g0c{index}", expression=mutant,
            parent=parent.name, op=op,
        ))
        index += 1
    population = population[:config.population]
    state = SearchState(
        config=config,
        population=population,
        rng_state=rng.getstate(),
        baseline=_evaluate_baseline(config, jobs, sweep_checkpoints),
    )
    for candidate in population:
        state.lineage[candidate.name] = candidate.to_dict()
    return state


def _record_generation(state: SearchState) -> None:
    ranked = _ranked(state)
    best = ranked[0]
    best_fitness = state.scores[best.expr_key]
    miss_rates = [state.scores[c.expr_key][0] for c in state.population]
    state.history.append({
        "generation": state.generation,
        "best": best.name,
        "best_expression": expr_mod.dumps(best.expression),
        "best_miss_rate": best_fitness[0],
        "best_eviction_overhead": best_fitness[1],
        "mean_miss_rate": sum(miss_rates) / len(miss_rates),
        "worst_miss_rate": max(miss_rates),
        "scores": {
            c.name: list(state.scores[c.expr_key])
            for c in ranked
        },
    })


# -- Checkpointing ------------------------------------------------------------


def default_search_root():
    """Search checkpoints live beside the sweep store, in a root of
    their own, so ``REPRO_SWEEP_CACHE_DIR`` relocates both together
    and ``cache-clear`` leaves them alone."""
    return sweepcache.cache_dir() / "search"


def _state_key(config: SearchConfig) -> str:
    return f"search-{config.key()}-latest"


def _checkpoint_state(store: Store, state: SearchState) -> None:
    store.store(_state_key(state.config), {
        "format": CHECKPOINT_FORMAT,
        "config_token": state.config.token(),
        "generation": state.generation,
        "population": [c.to_dict() for c in state.population],
        "rng_state": state.rng_state,
        "scores": dict(state.scores),
        "lineage": dict(state.lineage),
        "history": list(state.history),
        "baseline": dict(state.baseline),
    })


def load_state(store: Store, config: SearchConfig) -> SearchState | None:
    """The checkpointed state for *config*, or None.

    A value of the wrong shape (or for a different config token —
    possible only through hash collision or hand editing) is
    quarantined, exactly like a corrupt sweep slab.
    """
    def parse(data) -> SearchState:
        if not isinstance(data, dict):
            raise TypeError(f"checkpoint holds {type(data).__name__}")
        if data.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unknown format {data.get('format')!r}")
        if data.get("config_token") != config.token():
            raise ValueError("checkpoint belongs to a different config")
        return SearchState(
            config=config,
            generation=int(data["generation"]),
            population=[Candidate.from_dict(c) for c in data["population"]],
            rng_state=tuple(data["rng_state"]),
            scores={str(k): tuple(v) for k, v in data["scores"].items()},
            lineage=dict(data["lineage"]),
            history=list(data["history"]),
            baseline=dict(data["baseline"]),
        )

    return store.load(_state_key(config), parse=parse)


# -- Entry point --------------------------------------------------------------


def run_search(
    config: SearchConfig,
    generations: int,
    root=None,
    jobs: int | None = None,
    resume: bool = False,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run (or resume) a search to *generations* completed generations.

    With ``resume`` a checkpoint for this config must exist and the
    search continues from it — re-running a finished generation is
    impossible, and the continuation is bit-identical to a run that was
    never interrupted.  Without ``resume`` any existing checkpoint for
    the config is ignored and overwritten from generation zero.

    Returns the report payload (see :func:`build_report`).
    """
    if generations < 1:
        raise SearchError("need at least one generation")
    store = Store(root if root is not None else default_search_root())
    # Candidate slabs live beside the search state, so a kill *inside*
    # a generation also resumes at slab granularity.
    sweep_checkpoints = Store(store.root / "sweeps")
    state = load_state(store, config) if resume else None
    if resume and state is None:
        raise SearchError(
            f"no checkpoint for config {config.key()} under {store.root}; "
            "run `python -m repro.search run` first"
        )
    if state is None:
        state = _init_state(config, jobs, sweep_checkpoints)
        if progress is not None:
            progress(f"baseline {state.baseline['policy']}: "
                     f"miss rate {state.baseline['miss_rate']:.4f}")
    elif progress is not None:
        progress(f"resumed at generation {state.generation} "
                 f"({len(state.scores)} scored expressions)")
    started = time.perf_counter()
    while state.generation < generations:
        rng = random.Random()
        rng.setstate(state.rng_state)
        _evaluate_generation(state, jobs, sweep_checkpoints)
        _record_generation(state)
        next_population = _breed(state, rng)
        for candidate in next_population:
            state.lineage.setdefault(candidate.name, candidate.to_dict())
        state.population = next_population
        state.rng_state = rng.getstate()
        state.generation += 1
        _checkpoint_state(store, state)
        if progress is not None:
            last = state.history[-1]
            progress(
                f"generation {last['generation']}: best {last['best']} "
                f"miss rate {last['best_miss_rate']:.4f} "
                f"(baseline {state.baseline['miss_rate']:.4f})"
            )
    report = build_report(state)
    report["search"]["elapsed_seconds"] = time.perf_counter() - started
    return report


def best_lineage(state: SearchState, name: str) -> list[dict]:
    """Ancestry chain of *name*, seed-first."""
    chain: list[dict] = []
    seen: set[str] = set()
    current: str | None = name
    while current is not None and current not in seen:
        seen.add(current)
        record = state.lineage.get(current)
        if record is None:
            break
        chain.append({"name": record["name"], "op": record["op"],
                      "parent": record["parent"]})
        current = record["parent"]
    chain.reverse()
    return chain


def build_report(state: SearchState) -> dict:
    """The ``BENCH_search.json`` payload for a finished (or partial)
    search: config, baseline, per-generation fitness curves, the best
    policy with its full expression and lineage, and the
    ``beats_fifo8`` gate (strictly lower unified miss rate than the
    N-unit FIFO baseline at the search pressure)."""
    if not state.history:
        raise SearchError("no completed generations to report")
    last = state.history[-1]
    best_name = last["best"]
    best_expression = expr_mod.loads(last["best_expression"])
    beats = last["best_miss_rate"] < state.baseline["miss_rate"]
    return {
        "beats_fifo8": beats,
        "search": {
            "config": state.config.token(),
            "config_key": state.config.key(),
            "generations_completed": state.generation,
            "baseline": dict(state.baseline),
            "generations": list(state.history),
            "best": {
                "name": best_name,
                "expression": expr_mod.to_dict(best_expression),
                "expression_text": str(best_expression),
                "miss_rate": last["best_miss_rate"],
                "eviction_overhead": last["best_eviction_overhead"],
                "lineage": best_lineage(state, best_name),
            },
            "beats_fifo8": beats,
        },
    }


def replay_best(report: Mapping, check_level: str = "light",
                tolerance: float = 1e-12) -> dict:
    """Re-validate a report's winner through the ordinary replay
    simulator under the invariant checker.

    The search evaluates candidates through the sweep engine with
    whatever check level the environment selects (usually off, for
    speed); a discovered policy is never trusted on those numbers
    alone.  This rebuilds the winner from its serialized expression,
    replays the entire fitness set under *check_level*, and requires
    the unified miss rate to match the recorded one to *tolerance* —
    catching both a policy whose behaviour violates cache invariants
    and a report whose numbers do not reproduce.

    Returns a verdict dict; ``verdict["ok"]`` is the gate.
    """
    search = report["search"]
    token = search["config"]
    config = SearchConfig(
        benchmarks=tuple(token["benchmarks"]),
        scenarios=tuple(token["scenarios"]),
        scale=token["scale"],
        trace_accesses=token["trace_accesses"],
        pressure=token["pressure"],
        population=token["population"],
        elites=token["elites"],
        seed=token["seed"],
        baseline_units=token["baseline_units"],
    )
    best = search["best"]
    spec = {"kind": "priority", "name": best["name"],
            "expression": best["expression"]}
    workloads = [
        build_workload(spec, scale=config.scale,
                       trace_accesses=config.trace_accesses)
        for spec in benchmarks_by_names(config.benchmarks)
    ]
    workloads.extend(_scenario_workloads(config))
    records: list[SimulationStats] = []
    for workload in workloads:
        # one_pass=False: even at check level "off" the winner replays,
        # so the kernel that scored it never re-validates itself.
        result = run_sweep([workload], [spec],
                           pressures=(config.pressure,),
                           check_level=check_level, one_pass=False)
        records.append(result.get(workload.name, best["name"],
                                  config.pressure))
    miss = unified_miss_rate(records)
    overhead = float(sum(r.eviction_overhead for r in records))
    miss_delta = abs(miss - best["miss_rate"])
    beats = miss < search["baseline"]["miss_rate"]
    return {
        "policy": best["name"],
        "check_level": check_level,
        "miss_rate": miss,
        "eviction_overhead": overhead,
        "recorded_miss_rate": best["miss_rate"],
        "miss_rate_delta": miss_delta,
        "reproduced": miss_delta <= tolerance,
        "beats_baseline": beats,
        "ok": bool(miss_delta <= tolerance
                   and beats == search["beats_fifo8"]),
    }


__all__ = [
    "Candidate",
    "SearchConfig",
    "SearchError",
    "SearchState",
    "best_lineage",
    "build_report",
    "default_search_root",
    "load_state",
    "replay_best",
    "run_search",
    "seed_expressions",
]
