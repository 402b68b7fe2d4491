"""Property tests: the one-pass kernel IS replay, field for field.

The kernel's whole contract is that batching every (capacity, rung)
geometry into one trace traversal changes nothing observable.  These
tests drive randomized populations, link graphs, traces, capacity sets,
unit ladders and overhead models through both engines of
:func:`repro.analysis.kernel.one_pass_grid`, through
:class:`~repro.core.simulator.CodeCacheSimulator` replay — including
replay under the paranoid invariant checker — and through the
reference model, and require equal records everywhere.  Priority
cells, which only the C engine serves, are held to the same standard
over mutated expressions with edge-value constants.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ckernel
from repro.analysis.kernel import KernelConfig, one_pass_grid
from repro.core.overhead import LinearCost, OverheadModel
from repro.core.policies import granularity_ladder, ladder_specs
from repro.core.refmodel import ReferenceSimulator, reference_ladder
from repro.core.simulator import CodeCacheSimulator
from repro.core.superblock import Superblock, SuperblockSet
from repro.search.expr import FEATURES, Const, Feature
from repro.search.priority import PriorityFunctionPolicy
from tests.search.test_expr import _EDGE_VALUES, _expressions, _mutated


@st.composite
def _scenario(draw):
    """A random population + trace + geometry grid the kernel accepts."""
    count = draw(st.integers(3, 20))
    blocks = []
    for sid in range(count):
        degree = draw(st.integers(0, 3))
        links = tuple(
            dict.fromkeys(
                draw(st.integers(0, count - 1)) for _ in range(degree)
            )
        )
        blocks.append(Superblock(sid, draw(st.integers(16, 200)),
                                 links=links))
    population = SuperblockSet(blocks)
    trace = draw(
        st.lists(st.integers(0, count - 1), min_size=1, max_size=250)
    )
    # Any capacity >= the largest block is legal: one_pass_grid clamps
    # unit counts exactly like UnitFifoPolicy.configure does.
    low = population.max_block_bytes
    high = max(population.total_bytes, low + 1)
    capacities = sorted({
        draw(st.integers(low, high))
        for _ in range(draw(st.integers(1, 3)))
    })
    unit_counts = (1, draw(st.integers(2, 8)), 64)
    track_links = draw(st.booleans())
    return population, trace, capacities, unit_counts, track_links


def _ladder_configs(unit_counts):
    return [KernelConfig.from_spec(spec) for spec in ladder_specs(unit_counts)]


def _replay_grid(population, trace, capacities, unit_counts, track_links,
                 check_level=None):
    grid = []
    for capacity in capacities:
        cell = {}
        # Fresh ladder per capacity: policies are stateful once
        # configured.
        for policy in granularity_ladder(unit_counts=unit_counts):
            simulator = CodeCacheSimulator(
                population, policy, capacity,
                track_links=track_links, check_level=check_level,
            )
            record = simulator.process(trace)
            record.policy_name = policy.name
            cell[policy.name] = dataclasses.asdict(record)
        grid.append(cell)
    return grid


@given(_scenario())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_replay_bit_for_bit(scenario):
    population, trace, capacities, unit_counts, track_links = scenario
    configs = _ladder_configs(unit_counts)
    want = _replay_grid(population, trace, capacities, unit_counts,
                        track_links)
    engines = ["py"] + (["c"] if ckernel.available() else [])
    for engine in engines:
        grid = one_pass_grid(population, trace, capacities, configs,
                             track_links=track_links, engine=engine)
        for cell, want_cell in zip(grid, want):
            for name, want_record in want_cell.items():
                got = dataclasses.asdict(cell[name])
                assert got == want_record, (engine, name)


@given(_scenario())
@settings(max_examples=12, deadline=None)
def test_kernel_matches_paranoid_checked_replay(scenario):
    """The kernel agrees with replay even when replay runs under the
    paranoid invariant checker — so a checked run certifies the same
    numbers the fast path produces."""
    population, trace, capacities, unit_counts, track_links = scenario
    configs = _ladder_configs(unit_counts)
    grid = one_pass_grid(population, trace, capacities, configs,
                         track_links=track_links)
    want = _replay_grid(population, trace, capacities, unit_counts,
                        track_links, check_level="paranoid")
    for cell, want_cell in zip(grid, want):
        for name, want_record in want_cell.items():
            assert dataclasses.asdict(cell[name]) == want_record, name


_COEFFICIENT = st.floats(0.0, 5000.0, allow_nan=False)


@st.composite
def _model(draw):
    def cost():
        return LinearCost(draw(_COEFFICIENT), draw(_COEFFICIENT))
    return OverheadModel(miss=cost(), eviction=cost(), unlink=cost())


@given(_scenario(), _model(), _model())
@settings(max_examples=25, deadline=None)
def test_every_engine_prices_any_model_identically(scenario, model, other):
    """Under a random overhead model the C kernel, the Python kernel,
    replay and the reference simulator return equal records; re-pricing
    a finished record under a second model equals re-simulating."""
    population, trace, capacities, unit_counts, track_links = scenario
    configs = _ladder_configs(unit_counts)
    engines = ["py"] + (["c"] if ckernel.available() else [])
    grids = {
        engine: one_pass_grid(population, trace, capacities, configs,
                              overhead_model=model,
                              track_links=track_links, engine=engine)
        for engine in engines
    }
    references = dict(reference_ladder(unit_counts=unit_counts))

    def replay(policy, capacity, priced_under):
        simulator = CodeCacheSimulator(population, policy, capacity,
                                       overhead_model=priced_under,
                                       track_links=track_links)
        record = simulator.process(trace)
        record.policy_name = policy.name
        return record

    for index, capacity in enumerate(capacities):
        for policy, fresh in zip(granularity_ladder(unit_counts=unit_counts),
                                 granularity_ladder(unit_counts=unit_counts)):
            record = replay(policy, capacity, model)
            reference = references[policy.name](
                population, capacity, model=model, track_links=track_links)
            assert reference.run(trace).stats == record, policy.name
            for engine, grid in grids.items():
                assert grid[index][policy.name] == record, (engine,
                                                            policy.name)
            repriced = dataclasses.replace(record, overhead_model=other)
            assert repriced == replay(fresh, capacity, other), policy.name


def _trees():
    """Trees over every feature and edge-value constants (both sides of
    the protected-division threshold, products that overflow into the
    score clamp and so tie many blocks), after up to three seeded
    mutation steps."""
    leaves = st.one_of(st.sampled_from(FEATURES).map(Feature),
                       st.sampled_from(_EDGE_VALUES).map(Const))
    return st.tuples(_expressions(leaves), st.integers(0, 2**32 - 1),
                     st.integers(0, 3)).map(_mutated)


@st.composite
def _priority_scenario(draw):
    """A population whose links may repeat and self-loop (raw degrees
    then differ from the deduplicated adjacency), with sparse sids half
    the time, plus a trace, capacities and expressions."""
    count = draw(st.integers(3, 20))
    stride = draw(st.sampled_from((1, 3)))
    sids = [5 * (stride - 1) + index * stride for index in range(count)]
    blocks = [
        Superblock(sid, draw(st.integers(16, 200)), links=tuple(
            draw(st.lists(st.sampled_from(sids), max_size=4))))
        for sid in sids
    ]
    population = SuperblockSet(blocks)
    trace = draw(st.lists(st.sampled_from(sids), min_size=1, max_size=250))
    low = population.max_block_bytes
    high = max(population.total_bytes, low + 1)
    capacities = sorted({
        draw(st.integers(low, high))
        for _ in range(draw(st.integers(1, 3)))
    })
    trees = draw(st.lists(_trees(), min_size=1, max_size=3))
    return population, trace, capacities, trees


@given(_priority_scenario(), _model())
@settings(max_examples=40, deadline=None)
def test_priority_cells_match_replay_and_the_reference(scenario, model):
    """A kernel priority cell equals CodeCacheSimulator replay and the
    interpreter-scored reference model, in both link modes and under
    any overhead model."""
    population, trace, capacities, trees = scenario
    names = [f"p{index}" for index in range(len(trees))]
    configs = [KernelConfig(name, "priority", expression=tree)
               for name, tree in zip(names, trees)]
    for track_links in (True, False):
        grid = None
        if ckernel.available():
            grid = one_pass_grid(population, trace, capacities, configs,
                                 overhead_model=model,
                                 track_links=track_links, engine="c")
        for index, capacity in enumerate(capacities):
            for name, tree in zip(names, trees):
                policy = PriorityFunctionPolicy(tree, population, name=name)
                record = CodeCacheSimulator(
                    population, policy, capacity, overhead_model=model,
                    track_links=track_links).process(trace)
                reference = ReferenceSimulator.for_priority(
                    population, capacity, tree, name=name,
                    overhead_model=model, track_links=track_links)
                assert reference.run(trace).stats == record, name
                if grid is not None:
                    assert grid[index][name] == record, (name,
                                                         track_links)
