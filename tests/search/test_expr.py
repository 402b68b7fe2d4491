"""The expression language: totality, JSON round-trip, the closure of
seeded mutation over the bounded language (the three properties the
search's correctness rests on), the priority policy's victim choice
under the interpreter, and the agreement of the C kernel's postfix VM
with the interpreter."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ckernel
from repro.core.pressure import pressured_capacity
from repro.core.simulator import CodeCacheSimulator
from repro.search import expr as expr_mod
from repro.search.expr import (
    BINARY_OPS,
    FEATURES,
    MAX_DEPTH,
    MAX_NODES,
    SCORE_LIMIT,
    UNARY_OPS,
    Binary,
    Const,
    ExpressionError,
    Feature,
    Unary,
    compile_program,
    count_nodes,
    depth,
    evaluate,
    mutate,
    mutate_named,
    replace_at,
)
from repro.search.priority import PriorityFunctionPolicy
from repro.workloads.registry import build_workload, get_benchmark


def _leaves():
    return st.one_of(
        st.sampled_from(FEATURES).map(Feature),
        st.floats(-1e6, 1e6, allow_nan=False,
                  allow_infinity=False).map(Const),
    )


def _expressions(leaves=None):
    return st.recursive(
        _leaves() if leaves is None else leaves,
        lambda children: st.one_of(
            st.tuples(st.sampled_from(UNARY_OPS), children).map(
                lambda t: Unary(*t)),
            st.tuples(st.sampled_from(BINARY_OPS), children,
                      children).map(lambda t: Binary(*t)),
        ),
        max_leaves=12,
    )


def _feature_vectors():
    value = st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e12, max_value=1e12)
    return st.fixed_dictionaries({name: value for name in FEATURES})


class TestStructure:
    def test_unknown_feature_rejected(self):
        with pytest.raises(ExpressionError):
            Feature("phase_of_moon")

    def test_unknown_ops_rejected(self):
        with pytest.raises(ExpressionError):
            Unary("sqrt", Const(1.0))
        with pytest.raises(ExpressionError):
            Binary("pow", Const(1.0), Const(2.0))

    def test_non_finite_constant_rejected(self):
        with pytest.raises(ExpressionError):
            Const(float("nan"))
        with pytest.raises(ExpressionError):
            Const(float("inf"))

    def test_replace_at_out_of_range(self):
        with pytest.raises(IndexError):
            replace_at(Const(1.0), 5, lambda old: old)

    def test_replace_at_rebuilds_the_addressed_node(self):
        tree = Binary("add", Feature("age"), Feature("size"))
        swapped = replace_at(tree, 2, lambda old: Feature("hotness"))
        assert swapped == Binary("add", Feature("age"), Feature("hotness"))
        # The original is untouched (trees are immutable values).
        assert tree.right == Feature("size")


class TestEvaluate:
    def test_protected_division(self):
        features = dict.fromkeys(FEATURES, 0.0)
        tree = Binary("div", Const(3.0), Feature("age"))
        assert evaluate(tree, features) == 3.0

    def test_log1p_of_negative_uses_magnitude(self):
        features = dict.fromkeys(FEATURES, -5.0)
        tree = Unary("log1p", Feature("age"))
        assert evaluate(tree, features) == pytest.approx(math.log1p(5.0))

    @given(_expressions(), _feature_vectors())
    @settings(max_examples=200, deadline=None)
    def test_total_and_finite_on_arbitrary_inputs(self, tree, features):
        value = evaluate(tree, features)
        assert isinstance(value, float)
        assert math.isfinite(value)
        assert -SCORE_LIMIT <= value <= SCORE_LIMIT


class TestRoundTrip:
    @given(_expressions())
    @settings(max_examples=200, deadline=None)
    def test_json_round_trip_is_identity(self, tree):
        assert expr_mod.loads(expr_mod.dumps(tree)) == tree

    @given(_expressions())
    @settings(max_examples=100, deadline=None)
    def test_dumps_is_canonical(self, tree):
        text = expr_mod.dumps(tree)
        # Re-serializing the parsed form reproduces the same string, so
        # the string is usable as a dedup/memoization key.
        assert expr_mod.dumps(expr_mod.loads(text)) == text
        assert json.loads(text) == expr_mod.to_dict(tree)

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ExpressionError):
            expr_mod.loads("not json at all [")
        with pytest.raises(ExpressionError):
            expr_mod.from_dict({"kind": "ternary"})
        with pytest.raises(ExpressionError):
            expr_mod.from_dict(["kind", "const"])


class TestMutation:
    @given(_expressions(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_mutation_closed_over_bounded_language(self, tree, seed):
        rng = random.Random(seed)
        mutant, op = mutate_named(tree, rng)
        assert op in {"perturb_constant", "swap_feature", "graft", "prune"}
        assert count_nodes(mutant) <= MAX_NODES
        assert depth(mutant) <= MAX_DEPTH
        # Closure: the mutant still evaluates (round-trips, too).
        features = dict.fromkeys(FEATURES, 1.5)
        assert math.isfinite(evaluate(mutant, features))
        assert expr_mod.loads(expr_mod.dumps(mutant)) == mutant

    @given(_expressions(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mutation_is_deterministic_in_the_seed(self, tree, seed):
        a = mutate(tree, random.Random(seed))
        b = mutate(tree, random.Random(seed))
        assert a == b

    def test_mutation_chain_survives_many_steps(self):
        rng = random.Random(7)
        tree = Unary("neg", Feature("age"))
        features = dict.fromkeys(FEATURES, 3.0)
        for _ in range(300):
            tree = mutate(tree, rng)
            assert count_nodes(tree) <= MAX_NODES
            assert depth(tree) <= MAX_DEPTH
            assert math.isfinite(evaluate(tree, features))


#: Feature values at the language's edges: signed zero-ish values on
#: both sides of the protected-division threshold, and magnitudes whose
#: products overflow into the score clamp.
_EDGE_VALUES = (0.0, 1e-10, -1e-10, 1e-9, -1e-9, 5e17, -5e17, 1e18, -1e18,
                1.0, -2.5)


def _edge_floats():
    return st.one_of(st.sampled_from(_EDGE_VALUES),
                     st.floats(-1e6, 1e6, allow_nan=False,
                               allow_infinity=False))


def _closure_trees():
    """Generated trees after up to three seeded mutation steps."""
    return st.tuples(_expressions(), st.integers(0, 2**32 - 1),
                     st.integers(0, 3)).map(_mutated)


def _mutated(drawn):
    tree, seed, steps = drawn
    rng = random.Random(seed)
    for _ in range(steps):
        tree = mutate(tree, rng)
    return tree


_BLOCK_FEATURES = tuple(name for name in FEATURES if name != "occupancy")


def _policy_holding(tree, rows, occupancy=0.0):
    """A priority policy under *tree* whose resident blocks, inserted in
    ``rows`` order, carry the feature values in each row (at clock 0,
    so age and recency are the negated insert and touch clocks)."""
    policy = PriorityFunctionPolicy(tree)
    # ``occupancy`` is ``used / capacity``, so this reads it back exactly.
    policy._capacity = 1.0
    policy._used = occupancy
    for sid, row in rows.items():
        policy._sizes[sid] = row["size"]
        policy._insert_clock[sid] = -row["age"]
        policy._last_touch[sid] = -row["recency"]
        policy._hits[sid] = row["hotness"]
        policy._in_degree[sid] = row["in_degree"]
        policy._out_degree[sid] = row["out_degree"]
    return policy


class TestCompiledChooser:
    """Replay's victim choice (``PriorityFunctionPolicy._choose_victim``,
    scored by ``evaluate``) and the C kernel's VM, against the
    interpreter."""

    @given(_closure_trees(),
           st.lists(st.integers(0, 10**6), min_size=1, max_size=8,
                    unique=True),
           st.data(), _edge_floats())
    @settings(max_examples=300, deadline=None)
    def test_chooser_matches_the_interpreter(self, tree, sids, data,
                                             occupancy):
        # ``sids`` are in insertion order and deliberately unsorted, so
        # a policy that broke ties on sid instead would be caught.
        rows = {sid: data.draw(st.fixed_dictionaries(
                    {name: _edge_floats() for name in _BLOCK_FEATURES}))
                for sid in sids}
        policy = _policy_holding(tree, rows, occupancy)
        vectors = {sid: {**rows[sid], "occupancy": occupancy}
                   for sid in sids}
        oracle = {sid: evaluate(tree, vectors[sid]) for sid in sids}
        seq = {sid: index for index, sid in enumerate(sids)}
        assert policy._choose_victim() == min(
            sids, key=lambda sid: (oracle[sid], seq[sid]))
        if ckernel.available():
            assert {sid: _vm_score(tree, vectors[sid])
                    for sid in sids} == oracle

    def test_every_operator_matches_the_interpreter_at_the_edges(self):
        pairs = [(a, b) for a in _EDGE_VALUES for b in _EDGE_VALUES]
        rows = {sid: {**dict.fromkeys(_BLOCK_FEATURES, 0.0),
                      "age": a, "recency": b}
                for sid, (a, b) in enumerate(pairs)}
        trees = [Binary(op, Feature("age"), Feature("recency"))
                 for op in BINARY_OPS]
        trees += [Unary(op, Feature("age")) for op in UNARY_OPS]
        for tree in trees:
            policy = _policy_holding(tree, rows)
            for sid, (a, b) in enumerate(pairs):
                features = dict.fromkeys(FEATURES, 0.0)
                features.update(age=a, recency=b)
                want = evaluate(tree, features)
                assert evaluate(tree, policy.features_of(sid)) == want, (
                    tree, a, b)
                if ckernel.available():
                    assert _vm_score(tree, features) == want, (tree, a, b)

    def test_compiled_once_per_expression(self):
        # A tree and its JSON round trip are one policy: the same
        # victims at every access of a pressured trace.
        tree = Binary("sub", Feature("hotness"),
                      Unary("log1p", Feature("age")))
        twin = expr_mod.loads(expr_mod.dumps(tree))
        workload = build_workload(get_benchmark("gzip"), scale=0.2,
                                  trace_accesses=2000)
        capacity = pressured_capacity(workload.superblocks, 8.0)

        def victims(expression):
            log = []
            simulator = CodeCacheSimulator(
                workload.superblocks,
                PriorityFunctionPolicy(expression, workload.superblocks),
                capacity)
            simulator.process(
                workload.trace,
                observer=lambda index, sid, hit, evictions, removed:
                    log.append(evictions))
            return log

        log = victims(tree)
        assert any(log)
        assert victims(twin) == log

    def test_reads_only_the_features_the_tree_uses(self):
        tree = Unary("neg", Feature("age"))
        ages = (3.0, 9.0, 1.0, 9.0, 4.0)
        rows = {sid: {**dict.fromkeys(_BLOCK_FEATURES, 1.0), "age": age}
                for sid, age in zip((40, 7, 22, 5, 31), ages)}
        victim = _policy_holding(tree, rows)._choose_victim()
        assert victim == 7  # the oldest, first inserted of the tie
        for sid in rows:
            for unused in _BLOCK_FEATURES:
                if unused == "age":
                    continue
                for value in (-1e18, -2.5, 0.0, 1e18):
                    changed = {key: dict(row) for key, row in rows.items()}
                    changed[sid][unused] = value
                    for occupancy in (0.0, 1.0):
                        policy = _policy_holding(tree, changed, occupancy)
                        assert policy._choose_victim() == victim, (
                            sid, unused, value, occupancy)

    def test_empty_cache_has_no_victim(self, monkeypatch):
        def no_victim(policy):
            raise AssertionError("a victim was chosen")

        monkeypatch.setattr(PriorityFunctionPolicy, "_choose_victim",
                            no_victim)
        policy = PriorityFunctionPolicy(Feature("age"))
        policy.configure(1000, 400)
        assert [policy.insert(sid, size) for sid, size in
                ((1, 400), (2, 300), (3, 300))] == [[], [], []]
        assert policy.used_bytes == 1000


def _vm_score(tree, features):
    """*tree*'s score under the C kernel's VM, from a feature mapping."""
    return ckernel.score(compile_program(tree),
                         [features[name] for name in FEATURES])


class TestPostfixProgram:
    def test_postfix_order_and_immediates(self):
        tree = Binary("sub", Feature("hotness"),
                      Binary("mul", Const(0.5), Unary("neg", Feature("age"))))
        program = compile_program(tree)
        ops = [expr_mod.OPCODES[code] for code in program.code]
        assert ops == ["hotness", "const", "age", "neg", "mul", "sub"]
        assert program.imm == (0.0, 0.5, 0.0, 0.0, 0.0, 0.0)
        assert program.stack_depth == 3

    def test_compiled_once_per_expression(self):
        tree = Binary("max", Feature("size"), Const(2.0))
        twin = expr_mod.loads(expr_mod.dumps(tree))
        assert compile_program(tree) is compile_program(twin)

    @pytest.mark.skipif(not ckernel.available(),
                        reason="C kernel unavailable")
    def test_values_past_the_score_limit(self):
        # Constants may exceed the score limit and pass through
        # unclamped until an operator that clamps in ``evaluate``;
        # feature reads are clamped, infinities and NaN included.
        trees = [Feature(name) for name in FEATURES]
        for value in (1e300, -1e300):
            trees += [Const(value)]
            trees += [Unary(op, Const(value)) for op in UNARY_OPS]
            trees += [Binary(op, Const(value), Feature("age"))
                      for op in BINARY_OPS]
            trees += [Binary(op, Feature("age"), Const(value))
                      for op in BINARY_OPS]
        for fill in (0.0, -2.5, 5e18, -math.inf, math.nan):
            features = dict.fromkeys(FEATURES, fill)
            for tree in trees:
                assert _vm_score(tree, features) == evaluate(
                    tree, features), (tree, fill)

    @pytest.mark.skipif(not ckernel.available(),
                        reason="C kernel unavailable")
    def test_stack_is_sized_from_the_program(self):
        # Deeper than mutation ever builds, as a spec file may hold: a
        # right-leaning chain keeps every left operand on the stack.
        tree = Feature("age")
        for index in range(200):
            tree = Binary(BINARY_OPS[index % len(BINARY_OPS)],
                          Feature(FEATURES[index % len(FEATURES)]), tree)
        program = compile_program(tree)
        assert program.stack_depth == 201
        features = {name: 1.5 + index
                    for index, name in enumerate(FEATURES)}
        assert _vm_score(tree, features) == evaluate(tree, features)
