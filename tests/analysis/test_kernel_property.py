"""Property tests: the one-pass kernel IS replay, field for field.

The kernel's whole contract is that batching every (capacity, rung)
geometry into one trace traversal changes nothing observable.  These
tests drive randomized populations, link graphs, traces, capacity sets,
unit ladders and overhead models through the C kernel behind
:func:`repro.analysis.kernel.one_pass_grid`, through
:class:`~repro.core.simulator.CodeCacheSimulator` replay — including
replay under the paranoid invariant checker — and through the
reference model, and require equal records everywhere.  Priority
cells are held to the same standard over mutated expressions with
edge-value constants.  Without a C kernel the replay-vs-reference
halves still run.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ckernel
from repro.analysis.kernel import KernelConfig, one_pass_grid
from repro.core.overhead import PAPER_MODEL, LinearCost, OverheadModel
from repro.core.policies import granularity_ladder, ladder_specs
from repro.core.refmodel import ReferenceSimulator, reference_ladder
from repro.core.simulator import CodeCacheSimulator
from repro.core.superblock import Superblock, SuperblockSet
from repro.search.expr import BINARY_OPS, FEATURES, Binary, Const, Feature
from repro.search.priority import PriorityFunctionPolicy
from tests.search.test_expr import _EDGE_VALUES, _expressions, _mutated

_NEEDS_C = pytest.mark.skipif(not ckernel.available(),
                              reason="C kernel unavailable")


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


@_NEEDS_C
@given(_scenario())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_replay_bit_for_bit(scenario):
    population, trace, capacities, unit_counts, track_links = scenario
    configs = _ladder_configs(unit_counts)
    want = _replay_grid(population, trace, capacities, unit_counts,
                        track_links)
    grid = one_pass_grid(population, trace, capacities, configs,
                         track_links=track_links)
    for cell, want_cell in zip(grid, want):
        for name, want_record in want_cell.items():
            assert dataclasses.asdict(cell[name]) == want_record, name


@_NEEDS_C
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


@st.composite
def _wide_scenario(draw):
    """A grid of 33-64 distinct geometries, so one traversal sets and
    clears residency bits 32-63: FLUSH, 9-19 other unit counts and fine
    FIFO at 3 capacities over 48-64 small blocks.  Every capacity holds
    the largest unit count's worth of largest blocks, so no two rungs
    clamp to one geometry.  Blocks 2k and 2k+1 may link to each other
    either way or both, any block may link to itself or anywhere, and
    the trace runs through consecutive blocks, so partners often share
    a unit."""
    count = draw(st.integers(48, 64))
    blocks = []
    for sid in range(count):
        partner = sid ^ 1 if sid ^ 1 < count else sid
        links = draw(st.lists(
            st.one_of(st.sampled_from((sid, partner)),
                      st.integers(0, count - 1)), max_size=4))
        blocks.append(Superblock(sid, draw(st.integers(8, 20)),
                                 links=tuple(dict.fromkeys(links))))
    population = SuperblockSet(blocks)
    runs = draw(st.lists(st.tuples(st.integers(0, count - 1),
                                   st.integers(1, 12)),
                         min_size=1, max_size=40))
    trace = [(start + step) % count for start, length in runs
             for step in range(length)]
    low = 20 * population.max_block_bytes
    capacities = sorted(draw(st.lists(
        st.integers(low, max(population.total_bytes, low + 2)),
        min_size=3, max_size=3, unique=True)))
    others = draw(st.lists(st.integers(2, 20), min_size=9, max_size=19,
                           unique=True))
    return population, trace, capacities, (1, *sorted(others))


@_NEEDS_C
@given(_wide_scenario())
@settings(max_examples=15, deadline=None)
def test_one_traversal_of_up_to_64_geometries_matches_replay(scenario):
    population, trace, capacities, unit_counts = scenario
    geometries = len(capacities) * (len(unit_counts) + 1)
    assert 32 < geometries <= ckernel.MAX_GEOMETRIES
    configs = _ladder_configs(unit_counts)
    for track_links in (True, False):
        want = _replay_grid(population, trace, capacities, unit_counts,
                            track_links)
        grid = one_pass_grid(population, trace, capacities, configs,
                             track_links=track_links)
        for cell, want_cell in zip(grid, want):
            for name, want_record in want_cell.items():
                assert dataclasses.asdict(cell[name]) == want_record, (
                    name, track_links)


_COEFFICIENT = st.floats(0.0, 5000.0, allow_nan=False)


@st.composite
def _model(draw):
    def cost():
        return LinearCost(draw(_COEFFICIENT), draw(_COEFFICIENT))
    return OverheadModel(miss=cost(), eviction=cost(), unlink=cost())


@given(_scenario(), _model(), _model())
@settings(max_examples=25, deadline=None)
def test_every_engine_prices_any_model_identically(scenario, model, other):
    """Under a random overhead model the C kernel, replay and the
    reference simulator return equal records; re-pricing a finished
    record under a second model equals re-simulating."""
    population, trace, capacities, unit_counts, track_links = scenario
    grid = None
    if ckernel.available():
        grid = one_pass_grid(population, trace, capacities,
                             _ladder_configs(unit_counts),
                             overhead_model=model, track_links=track_links)
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
            if grid is not None:
                assert grid[index][policy.name] == record, policy.name
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


#: The features fixed per block, whose subtrees the kernel scores once
#: per block, and those a victim scan recomputes.
_FIXED = ("size", "in_degree", "out_degree")
_SCANNED = ("age", "hotness", "recency", "occupancy")

#: Edge values plus constants past the score limit: a hoisted ``max``,
#: ``min`` or constant carries those unclamped into its parent, and so
#: must the hoisted value.
_HOISTED_CONSTANTS = st.sampled_from(_EDGE_VALUES + (1e300, -1e300)).map(
    Const)


def _fixed_trees():
    """Trees the kernel hoists whole: fixed features and constants
    only."""
    return _expressions(st.one_of(st.sampled_from(_FIXED).map(Feature),
                                  _HOISTED_CONSTANTS))


@st.composite
def _mixed_tree(draw):
    """Hoisted subtrees under operators that read a feature the scan
    recomputes: ``op(fixed, op'(scanned, rest))`` in either operand
    order, where *rest* mixes fixed subtrees, scanned features and
    constants."""
    rest = draw(_expressions(st.one_of(
        _fixed_trees(), st.sampled_from(_SCANNED).map(Feature),
        _HOISTED_CONSTANTS)))
    scanned = Feature(draw(st.sampled_from(_SCANNED)))
    inner = draw(st.sampled_from(BINARY_OPS))
    outer = draw(st.sampled_from(BINARY_OPS))
    fixed = draw(_fixed_trees())
    if draw(st.booleans()):
        return Binary(outer, fixed, Binary(inner, scanned, rest))
    return Binary(outer, Binary(inner, rest, scanned), fixed)


@st.composite
def _priority_scenario(draw, trees=None, least_capacities=1):
    """A population whose links may repeat and self-loop (raw degrees
    then differ from the deduplicated adjacency), with sparse sids half
    the time, plus a trace, at least *least_capacities* distinct
    capacities and the expressions *trees* draws (by default one to
    three mutated trees over every feature)."""
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
    high = max(population.total_bytes, low + 2)
    capacities = sorted(draw(st.lists(
        st.integers(low, high), min_size=least_capacities, max_size=3,
        unique=True)))
    if trees is None:
        trees = st.lists(_trees(), min_size=1, max_size=3)
    return population, trace, capacities, draw(trees)


def _assert_priority_cells_match(population, trace, capacities, trees,
                                 model=PAPER_MODEL):
    """Every kernel priority cell of the grid, computed in one C call,
    equals CodeCacheSimulator replay and the interpreter-scored
    reference model, in both link modes."""
    names = [f"p{index}" for index in range(len(trees))]
    configs = [KernelConfig(name, "priority", expression=tree)
               for name, tree in zip(names, trees)]
    for track_links in (True, False):
        grid = None
        if ckernel.available():
            with mock.patch.object(ckernel, "run_priority",
                                   wraps=ckernel.run_priority) as calls:
                grid = one_pass_grid(population, trace, capacities,
                                     configs, overhead_model=model,
                                     track_links=track_links)
            assert calls.call_count == 1
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


@given(_priority_scenario(), _model())
@settings(max_examples=40, deadline=None)
def test_priority_cells_match_replay_and_the_reference(scenario, model):
    """A kernel priority cell equals CodeCacheSimulator replay and the
    interpreter-scored reference model, in both link modes and under
    any overhead model."""
    _assert_priority_cells_match(*scenario, model)


_HOISTING_CASES = {
    # The whole score is fixed per block: the scan only loads it.
    "fixed": _priority_scenario(
        st.lists(_fixed_trees(), min_size=1, max_size=3)),
    # Hoisted values feed operators over recomputed features.
    "mixed": _priority_scenario(
        st.lists(_mixed_tree(), min_size=1, max_size=3)),
    # One expression, one prelude, several capacities.
    "shared": _priority_scenario(
        st.one_of(_trees(), _fixed_trees(), _mixed_tree()).map(
            lambda tree: [tree]),
        least_capacities=2),
}


@given(st.sampled_from(sorted(_HOISTING_CASES)).flatmap(
    _HOISTING_CASES.__getitem__))
@settings(max_examples=60, deadline=None)
def test_hoisted_priority_cells_match_replay_and_the_reference(scenario):
    """The kernel scores subtrees over fixed features once per block and
    the rest per victim scan; neither split may show in any cell."""
    _assert_priority_cells_match(*scenario)
