"""PriorityFunctionPolicy: determinism, the FIFO-equivalent seed,
targeted eviction, feature plumbing, spec round-trips, snapshot safety,
and access-for-access agreement with the reference model."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.diffcheck import diff_check
from repro.core.cache import ConfigurationError
from repro.core.metrics import SimulationStats
from repro.core.policies import FineGrainedFifoPolicy, policy_from_spec
from repro.core.pressure import pressured_capacity
from repro.core.simulator import CodeCacheSimulator
from repro.core.superblock import Superblock, SuperblockSet
from repro.search import expr as expr_mod
from repro.search.driver import seed_expressions
from repro.search.expr import Binary, Const, Feature, Unary
from repro.search.priority import PriorityFunctionPolicy
from repro.workloads.registry import all_benchmarks, build_workload
from tests.search.test_expr import _expressions

GZIP = next(spec for spec in all_benchmarks() if spec.name == "gzip")


@pytest.fixture()
def workload():
    return build_workload(GZIP, scale=0.2, trace_accesses=2000)


def _eviction_log(workload, policy, pressure=8.0):
    capacity = pressured_capacity(workload.superblocks, pressure)
    simulator = CodeCacheSimulator(workload.superblocks, policy, capacity)
    log = []
    stats = simulator.process(
        workload.trace, benchmark=workload.name,
        observer=lambda index, sid, hit, evictions, links_removed:
            log.append((index, sid, hit, evictions)),
    )
    return stats, log


class TestPolicyBehaviour:
    def test_fifo_seed_equals_fine_grained_fifo(self, workload):
        """``neg(age)`` with the insertion-order tie-break must replay
        exactly like the production fine-grained FIFO policy."""
        seed = dict(seed_expressions())["seed-fifo"]
        a, log_a = _eviction_log(
            workload, PriorityFunctionPolicy(seed, workload.superblocks))
        b, log_b = _eviction_log(workload, FineGrainedFifoPolicy())
        assert log_a == log_b
        a = a.to_dict()
        b = b.to_dict()
        a.pop("policy")
        b.pop("policy")
        assert a == b

    def test_same_trace_same_eviction_log(self, workload):
        expression = Binary("sub", Feature("hotness"),
                            Unary("log1p", Feature("age")))
        _, log_a = _eviction_log(
            workload,
            PriorityFunctionPolicy(expression, workload.superblocks))
        _, log_b = _eviction_log(
            workload,
            PriorityFunctionPolicy(expression, workload.superblocks))
        assert log_a == log_b

    def test_configure_rejects_impossible_geometry(self):
        policy = PriorityFunctionPolicy(Const(0.0))
        with pytest.raises(ConfigurationError):
            policy.configure(100, 200)

    def test_double_insert_rejected(self):
        policy = PriorityFunctionPolicy(Const(0.0))
        policy.configure(1000, 100)
        policy.insert(1, 100)
        with pytest.raises(ValueError):
            policy.insert(1, 100)

    def test_oversized_block_rejected(self):
        policy = PriorityFunctionPolicy(Const(0.0))
        policy.configure(1000, 100)
        with pytest.raises(ConfigurationError):
            policy.insert(1, 2000)

    def test_unit_of_is_per_block(self):
        policy = PriorityFunctionPolicy(Const(0.0))
        policy.configure(1000, 100)
        policy.insert(7, 60)
        assert policy.unit_of(7) == 7
        with pytest.raises(KeyError):
            policy.unit_of(8)

    def test_lowest_score_evicts_first(self):
        # Score = size, so the smallest resident block must go first.
        policy = PriorityFunctionPolicy(Feature("size"))
        policy.configure(300, 200)
        policy.insert(1, 100)
        policy.insert(2, 150)
        events = policy.insert(3, 120)
        assert [e.blocks for e in events] == [(1,)]

    def test_hotness_and_recency_update_on_hits(self):
        policy = PriorityFunctionPolicy(Const(0.0))
        policy.configure(1000, 100)
        policy.on_access(1, False)
        policy.insert(1, 50)
        policy.on_access(1, True)
        policy.on_access(2, False)
        policy.insert(2, 50)
        features = policy.features_of(1)
        assert features["hotness"] == 1.0
        assert features["recency"] == 1.0
        assert features["age"] == 2.0
        assert policy.features_of(2)["hotness"] == 0.0

    def test_degrees_read_from_the_link_graph(self):
        blocks = SuperblockSet([
            Superblock(0, 40, links=(1, 2)),
            Superblock(1, 40, links=(0,)),
            Superblock(2, 40),
        ])
        policy = PriorityFunctionPolicy(Const(0.0), blocks)
        policy.configure(1000, 40)
        policy.insert(0, 40)
        features = policy.features_of(0)
        assert features["out_degree"] == 2.0
        assert features["in_degree"] == 1.0
        # Degree-blind without a population.
        blind = PriorityFunctionPolicy(Const(0.0))
        blind.configure(1000, 40)
        blind.insert(0, 40)
        assert blind.features_of(0)["out_degree"] == 0.0


class TestTargetedEviction:
    def test_evicts_exactly_the_requested_blocks(self):
        policy = PriorityFunctionPolicy(Const(0.0))
        policy.configure(1000, 100)
        for sid in range(5):
            policy.insert(sid, 100)
        events = policy.evict_blocks([3, 1])
        assert [e.blocks for e in events] == [(1,), (3,)]
        assert policy.resident_ids() == {0, 2, 4}
        assert policy.used_bytes == 300

    def test_missing_blocks_rejected_atomically(self):
        policy = PriorityFunctionPolicy(Const(0.0))
        policy.configure(1000, 100)
        policy.insert(1, 100)
        with pytest.raises(KeyError):
            policy.evict_blocks([1, 99])
        # Nothing was evicted by the failed call.
        assert policy.resident_ids() == {1}

    def test_empty_request_is_a_no_op(self):
        policy = PriorityFunctionPolicy(Const(0.0))
        policy.configure(1000, 100)
        assert policy.evict_blocks([]) == []
        assert policy.supports_targeted_eviction


class TestSpecRoundTrip:
    def test_to_spec_from_spec_round_trip(self, workload):
        expression = Binary("mul", Feature("age"), Const(2.5))
        policy = PriorityFunctionPolicy(expression, workload.superblocks,
                                        name="candidate-7")
        spec = policy.to_spec()
        rebuilt = policy_from_spec(spec, workload.superblocks)
        assert isinstance(rebuilt, PriorityFunctionPolicy)
        assert rebuilt.name == "candidate-7"
        assert rebuilt.expression == expression

    def test_rebuilt_policy_replays_identically(self, workload):
        expression = Unary("neg", Binary("add", Feature("age"),
                                        Feature("size")))
        policy = PriorityFunctionPolicy(expression, workload.superblocks)
        _, log_a = _eviction_log(workload, policy)
        rebuilt = policy_from_spec(policy.to_spec(), workload.superblocks)
        _, log_b = _eviction_log(workload, rebuilt)
        assert log_a == log_b

    def test_spec_without_expression_rejected(self):
        with pytest.raises(ConfigurationError):
            policy_from_spec({"kind": "priority", "name": "x"})


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_mutants_simulate_deterministically(expr_seed, trace_seed):
    """Any mutant the search can produce must drive the simulator
    without raising, and identically on repeat runs."""
    rng = random.Random(expr_seed)
    expression = expr_mod.random_leaf(rng)
    for _ in range(rng.randrange(8)):
        expression = expr_mod.mutate(expression, rng)
    trace_rng = random.Random(trace_seed)
    count = 12
    blocks = SuperblockSet([
        Superblock(sid, trace_rng.randint(16, 128),
                   links=(trace_rng.randrange(count),))
        for sid in range(count)
    ])
    trace = [trace_rng.randrange(count) for _ in range(300)]
    capacity = max(blocks.max_block_bytes,
                   int(blocks.total_bytes * 0.4))

    def run():
        policy = PriorityFunctionPolicy(expression, blocks)
        simulator = CodeCacheSimulator(blocks, policy, capacity)
        log = []
        simulator.process(
            trace, benchmark="prop",
            observer=lambda index, sid, hit, evictions, links_removed:
                log.append((index, sid, hit, evictions)),
        )
        return log

    assert run() == run()


class TestSnapshotSafety:
    def test_pickled_mid_trace_policy_finishes_like_an_uninterrupted_one(
            self, workload):
        """A service arena snapshot pickles the configured policy after
        its chooser has compiled; the restored copy must carry on
        exactly where the original would have."""
        expression = dict(seed_expressions())["seed-size"]
        capacity = pressured_capacity(workload.superblocks, 10.0)
        trace = workload.trace.tolist()

        def start():
            policy = PriorityFunctionPolicy(expression,
                                            workload.superblocks)
            return (CodeCacheSimulator(workload.superblocks, policy,
                                       capacity),
                    SimulationStats(policy_name=policy.name))

        def run(simulator, stats, accesses):
            return [(sid, *simulator.step(sid, stats)) for sid in accesses]

        simulator, stats = start()
        want = run(simulator, stats, trace)
        half = len(trace) // 2
        first, first_stats = start()
        got = run(first, first_stats, trace[:half])
        # Victims were chosen before the snapshot, so the chooser had
        # compiled.
        assert first_stats.eviction_invocations > 0
        restored, restored_stats = pickle.loads(
            pickle.dumps((first, first_stats)))
        got += run(restored, restored_stats, trace[half:])
        assert got == want
        assert restored_stats == stats


@given(_expressions(), st.sampled_from(("gzip", "mcf")))
@settings(max_examples=20, deadline=None)
def test_random_trees_match_the_reference_access_for_access(tree, benchmark):
    """The compiled chooser against ``ReferenceSimulator.for_priority``
    (interpreter scores, from-scratch features, explicit tie-break key):
    same victims at every access and equal stats, links tracked."""
    report = diff_check(benchmarks=(benchmark,), scale=0.15,
                        trace_accesses=800, pressures=(2.0, 10.0),
                        unit_counts=(), include_fine=False,
                        priority_expressions=(("random", tree),))
    assert report.runs == 2
    assert report.ok, report.render()
