"""The search driver: checkpointed generational loop, bit-identical
resume, reporting, replay validation, and the policy-spec seam through
the sweep engine."""

import copy
import json

import pytest

from repro.analysis import ckernel
from repro.analysis.sweepcache import Store
from repro.analysis.sweep import run_sweep, run_sweep_parallel
from repro.core.cache import ConfigurationError
from repro.core.policies import (
    UnitFifoPolicy,
    policy_from_spec,
    registered_policy_kinds,
)
from repro.search import driver
from repro.search.driver import (
    Candidate,
    SearchConfig,
    SearchError,
    load_state,
    replay_best,
    run_search,
)
from repro.search.priority import PriorityFunctionPolicy
from repro.workloads.registry import benchmarks_by_names

TINY = dict(
    benchmarks=("gzip",),
    scale=0.1,
    trace_accesses=800,
    pressure=8.0,
    population=3,
    elites=1,
    seed=11,
)


def _strip_elapsed(report):
    report = copy.deepcopy(report)
    report["search"].pop("elapsed_seconds", None)
    return report


class TestConfig:
    def test_validation(self):
        with pytest.raises(SearchError):
            SearchConfig(population=1)
        with pytest.raises(SearchError):
            SearchConfig(elites=12, population=12)
        with pytest.raises(SearchError):
            SearchConfig(pressure=0.5)
        with pytest.raises(SearchError):
            SearchConfig(scenarios=("volcano",))
        with pytest.raises(KeyError):
            SearchConfig(benchmarks=("nope",))

    def test_key_excludes_generations_but_covers_everything_else(self):
        base = SearchConfig(**TINY)
        assert base.key() == SearchConfig(**TINY).key()
        assert base.key() != SearchConfig(**{**TINY, "seed": 12}).key()
        assert base.key() != SearchConfig(
            **{**TINY, "pressure": 9.0}).key()
        assert "generations" not in base.token()


class TestSearchLoop:
    def test_run_reports_and_checkpoints(self, tmp_path):
        config = SearchConfig(**TINY)
        report = run_search(config, generations=2, root=tmp_path)
        search = report["search"]
        assert search["generations_completed"] == 2
        assert len(search["generations"]) == 2
        assert search["baseline"]["policy"] == "8-unit"
        assert search["best"]["lineage"], "winner must carry ancestry"
        assert report["beats_fifo8"] == (
            search["best"]["miss_rate"]
            < search["baseline"]["miss_rate"])
        # Every generation's scores cover the whole population.
        for entry in search["generations"]:
            assert len(entry["scores"]) == config.population
        state = load_state(Store(tmp_path), config)
        assert state is not None
        assert state.generation == 2

    def test_resume_is_bit_identical(self, tmp_path):
        config = SearchConfig(**TINY)
        full = run_search(config, generations=3, root=tmp_path / "a")
        run_search(config, generations=1, root=tmp_path / "b")
        resumed = run_search(config, generations=3, root=tmp_path / "b",
                             resume=True)
        assert _strip_elapsed(full) == _strip_elapsed(resumed)

    def test_resume_without_checkpoint_refuses(self, tmp_path):
        with pytest.raises(SearchError, match="no checkpoint"):
            run_search(SearchConfig(**TINY), generations=1,
                       root=tmp_path, resume=True)

    def test_resume_to_reached_generation_recomputes_nothing(
            self, tmp_path, monkeypatch):
        config = SearchConfig(**TINY)
        first = run_search(config, generations=2, root=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("resume at target must not re-evaluate")

        monkeypatch.setattr(driver, "_evaluate_policies", boom)
        again = run_search(config, generations=2, root=tmp_path,
                           resume=True)
        assert _strip_elapsed(first) == _strip_elapsed(again)

    def test_fresh_run_ignores_existing_checkpoint(self, tmp_path):
        config = SearchConfig(**TINY)
        first = run_search(config, generations=1, root=tmp_path)
        second = run_search(config, generations=1, root=tmp_path)
        assert _strip_elapsed(first) == _strip_elapsed(second)

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        config = SearchConfig(**TINY)
        run_search(config, generations=1, root=tmp_path)
        store = Store(tmp_path)
        name = f"{driver._state_key(config)}.pkl"
        store.store_blob(name, b"not a pickle")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert load_state(store, config) is None
        assert not store.path(name).exists()

    def test_checkpoint_for_other_config_not_loaded(self, tmp_path):
        config = SearchConfig(**TINY)
        run_search(config, generations=1, root=tmp_path)
        other = SearchConfig(**{**TINY, "seed": 99})
        assert load_state(Store(tmp_path), other) is None


class TestReplayBest:
    def test_winner_reproduces_through_the_replay_simulator(
            self, tmp_path):
        config = SearchConfig(**TINY)
        report = run_search(config, generations=2, root=tmp_path)
        # JSON round-trip first: replay-best consumes the file form.
        report = json.loads(json.dumps(report))
        verdict = replay_best(report, check_level="light")
        assert verdict["reproduced"], verdict
        assert verdict["ok"], verdict

    def test_replays_even_with_checks_off(self, tmp_path, monkeypatch):
        # The kernel scored the search; its winner must be re-validated
        # by the replay simulator, not by the kernel again.
        report = run_search(SearchConfig(**TINY), generations=1,
                            root=tmp_path)
        report = json.loads(json.dumps(report))

        def no_kernel(*args, **kwargs):
            raise AssertionError("replay-best ran the kernel")

        monkeypatch.setattr(ckernel, "run_priority", no_kernel)
        assert replay_best(report, check_level="off")["reproduced"]

    def test_tampered_report_fails_replay(self, tmp_path):
        config = SearchConfig(**TINY)
        report = run_search(config, generations=1, root=tmp_path)
        report = json.loads(json.dumps(report))
        report["search"]["best"]["miss_rate"] += 0.01
        verdict = replay_best(report, check_level="off")
        assert not verdict["reproduced"]
        assert not verdict["ok"]


class TestPolicySpecSeam:
    """run_sweep_parallel(policy_specs=...) must score exactly what a
    serial replay of the same policies scores — the ladder kinds among
    them through the one-pass kernel."""

    def test_injected_specs_match_serial_replay(self):
        specs = benchmarks_by_names(("gzip",))
        expression = dict(driver.seed_expressions())["seed-link"]
        policy_specs = [
            {
                "kind": "priority",
                "name": "cand",
                "expression": driver.expr_mod.to_dict(expression),
            },
            {"kind": "unit", "unit_count": 8, "name": "8u"},
            {"kind": "fifo", "name": "fifo"},
            "flush",
        ]
        parallel = run_sweep_parallel(
            specs, scale=0.1, trace_accesses=800, pressures=(8.0,),
            jobs=1, checkpoints=None, policy_specs=policy_specs,
        )
        from repro.workloads.registry import build_workload
        workload = build_workload(specs[0], scale=0.1, trace_accesses=800)
        serial = run_sweep([workload], policy_specs, pressures=(8.0,),
                           one_pass=False)
        assert parallel.policy_names == ("cand", "8u", "fifo", "FLUSH")
        for name in parallel.policy_names:
            a = parallel.get("gzip", name, 8.0).to_dict()
            b = serial.get("gzip", name, 8.0).to_dict()
            assert a == b

    def test_duplicate_spec_names_rejected(self):
        specs = benchmarks_by_names(("gzip",))
        spec = {"kind": "unit", "unit_count": 4, "name": "same"}
        with pytest.raises(ValueError, match="unique names"):
            run_sweep_parallel(specs, scale=0.1, trace_accesses=100,
                               pressures=(2.0,), jobs=1,
                               checkpoints=None,
                               policy_specs=[spec, dict(spec)])


class TestPolicyRegistry:
    def test_builtin_kinds_registered(self):
        kinds = registered_policy_kinds()
        for kind in ("flush", "unit", "fifo", "preempt", "gen"):
            assert kind in kinds

    def test_unit_spec_builds_named_policy(self):
        policy = policy_from_spec(
            {"kind": "unit", "unit_count": 16, "name": "sixteen"})
        assert isinstance(policy, UnitFifoPolicy)
        assert policy.name == "sixteen"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            policy_from_spec({"kind": "quantum"})

    def test_bad_unit_count_rejected(self):
        with pytest.raises(ConfigurationError):
            policy_from_spec({"kind": "unit", "unit_count": 0})

    @pytest.mark.parametrize("count", (True, False, 8.0, "8"))
    def test_non_integer_unit_count_rejected(self, count):
        # Specs come back from checkpoints and reports on disk; a bool
        # is an int to isinstance but must not build FLUSH.
        with pytest.raises(ConfigurationError, match="unit_count"):
            policy_from_spec({"kind": "unit", "unit_count": count})

    def test_priority_kind_lazily_available(self):
        policy = policy_from_spec({
            "kind": "priority",
            "name": "p",
            "expression": {"kind": "feature", "name": "age"},
        })
        assert isinstance(policy, PriorityFunctionPolicy)


class TestLineage:
    def test_best_lineage_walks_to_a_seed(self, tmp_path):
        config = SearchConfig(**TINY)
        run_search(config, generations=2, root=tmp_path)
        state = load_state(Store(tmp_path), config)
        best = state.history[-1]["best"]
        chain = driver.best_lineage(state, best)
        assert chain[-1]["name"] == best
        assert chain[0]["parent"] is None  # a seed starts the chain
        assert chain[0]["op"] == "seed"

    def test_candidate_round_trip(self):
        candidate = Candidate(
            name="g1c0",
            expression=dict(driver.seed_expressions())["seed-size"],
            parent="seed-size", op="graft",
        )
        assert Candidate.from_dict(candidate.to_dict()) == candidate
