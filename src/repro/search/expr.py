"""A tiny typed expression language for eviction priority functions.

An expression maps a resident superblock's *feature vector* (age, size,
link degrees, hotness, recency, cache occupancy) to a scalar score; the
policy evicts the lowest-scoring block.  The language is deliberately
small and closed: every operator is total (division is protected, and
results are clamped to a finite range with NaN mapped to zero), so any
tree that parses also evaluates — a mutated candidate can be wrong, but
it can never crash the simulator.

Trees are scored two ways that agree exactly: :func:`evaluate`, the
definition, which replay's priority policy calls per resident block,
and postfix programs (:func:`compile_program`) that the C sweep
kernel's stack VM runs.

Trees are immutable, hashable, JSON round-trippable (the wire format the
search driver ships to pool workers via policy specs), and mutated by
deterministic seeded operators: constant perturbation, feature swap,
subtree graft, and subtree prune.  Mutation is a pure function of
``(tree, random.Random state)``, which is what makes a checkpointed
search resume bit-identically.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Union

#: The feature vocabulary, in canonical order.  ``age`` is accesses
#: since insertion, ``hotness`` is hits while resident, ``recency`` is
#: accesses since the last touch, ``occupancy`` is the cache fill
#: fraction at scoring time; degrees come from the static link graph.
FEATURES = (
    "age",
    "size",
    "in_degree",
    "out_degree",
    "hotness",
    "recency",
    "occupancy",
)

UNARY_OPS = ("neg", "log1p")
BINARY_OPS = ("add", "sub", "mul", "div", "min", "max")

#: Scores are clamped into this range so downstream comparisons are
#: always between ordinary finite floats.
SCORE_LIMIT = 1e18

#: Mutation never grows a tree beyond these bounds.
MAX_DEPTH = 8
MAX_NODES = 48


class ExpressionError(ValueError):
    """A structurally invalid expression (bad op, unknown feature,
    malformed serialized form)."""


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, float)) or not math.isfinite(
                float(self.value)):
            raise ExpressionError(f"constant must be finite, got {self.value!r}")
        object.__setattr__(self, "value", float(self.value))

    def __str__(self) -> str:
        return f"{self.value:g}"


@dataclass(frozen=True)
class Feature:
    name: str

    def __post_init__(self) -> None:
        if self.name not in FEATURES:
            raise ExpressionError(f"unknown feature {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Expr"

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ExpressionError(f"unknown unary op {self.op!r}")

    def __str__(self) -> str:
        return f"{self.op}({self.child})"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ExpressionError(f"unknown binary op {self.op!r}")

    def __str__(self) -> str:
        return f"{self.op}({self.left}, {self.right})"


Expr = Union[Const, Feature, Unary, Binary]


# -- Evaluation ---------------------------------------------------------------


def _clamp(value: float) -> float:
    if value != value:  # NaN
        return 0.0
    if value > SCORE_LIMIT:
        return SCORE_LIMIT
    if value < -SCORE_LIMIT:
        return -SCORE_LIMIT
    return value


def evaluate(node: Expr, features: Mapping[str, float]) -> float:
    """Score one feature vector; always returns a finite float.

    Total by construction: protected division returns the numerator
    when the divisor is (near) zero, ``log1p`` operates on the
    magnitude, and every intermediate is clamped to ±``SCORE_LIMIT``
    with NaN collapsed to zero.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Feature):
        return _clamp(float(features[node.name]))
    if isinstance(node, Unary):
        value = evaluate(node.child, features)
        if node.op == "neg":
            return _clamp(-value)
        return _clamp(math.log1p(abs(value)))  # log1p
    left = evaluate(node.left, features)
    right = evaluate(node.right, features)
    op = node.op
    if op == "add":
        return _clamp(left + right)
    if op == "sub":
        return _clamp(left - right)
    if op == "mul":
        return _clamp(left * right)
    if op == "div":
        if abs(right) < 1e-9:
            return _clamp(left)
        return _clamp(left / right)
    if op == "min":
        return min(left, right)
    return max(left, right)  # max


# -- Postfix programs for the C kernel's expression VM ------------------------

#: The VM's opcodes, numbered by position: one load per feature in
#: ``FEATURES`` order, a constant, then the operators.  The C kernel
#: (``repro/analysis/_onepass.c``) numbers them the same way.
OPCODES = (*FEATURES, "const", *UNARY_OPS, *BINARY_OPS)
_OPCODE = {name: code for code, name in enumerate(OPCODES)}


@dataclass(frozen=True)
class Program:
    """An expression in postfix order, as the C kernel's stack VM runs
    it: ``code[i]`` indexes :data:`OPCODES`, ``imm[i]`` is the value a
    ``const`` pushes (0.0 for every other opcode), and ``stack_depth``
    is the most values the program ever holds at once."""

    code: tuple[int, ...]
    imm: tuple[float, ...]
    stack_depth: int


#: Compiled programs by canonical JSON: one entry per distinct
#: expression a process scores.
_PROGRAMS: dict[str, Program] = {}


def compile_program(node: Expr) -> Program:
    """*node* as a postfix :class:`Program`, compiled once per process.

    The stack depth is measured, not assumed: :func:`from_dict` does
    not bound a tree's depth, so a spec file may hold a deeper tree
    than :func:`mutate` ever builds.
    """
    key = dumps(node)
    program = _PROGRAMS.get(key)
    if program is None:
        code: list[int] = []
        imm: list[float] = []
        held = peak = 0

        def emit(current: Expr) -> None:
            nonlocal held, peak
            if isinstance(current, (Const, Feature)):
                constant = isinstance(current, Const)
                code.append(_OPCODE["const" if constant else current.name])
                imm.append(current.value if constant else 0.0)
                held += 1
                peak = max(peak, held)
                return
            if isinstance(current, Unary):
                emit(current.child)
            else:
                emit(current.left)
                emit(current.right)
                held -= 1
            code.append(_OPCODE[current.op])
            imm.append(0.0)

        emit(node)
        program = _PROGRAMS[key] = Program(tuple(code), tuple(imm), peak)
    return program


# -- Structure queries --------------------------------------------------------


def iter_nodes(node: Expr) -> list[Expr]:
    """All nodes in preorder; index into this list addresses a node for
    the rebuild helpers below."""
    out = [node]
    if isinstance(node, Unary):
        out.extend(iter_nodes(node.child))
    elif isinstance(node, Binary):
        out.extend(iter_nodes(node.left))
        out.extend(iter_nodes(node.right))
    return out


def count_nodes(node: Expr) -> int:
    return len(iter_nodes(node))


def depth(node: Expr) -> int:
    if isinstance(node, Unary):
        return 1 + depth(node.child)
    if isinstance(node, Binary):
        return 1 + max(depth(node.left), depth(node.right))
    return 1


def replace_at(node: Expr, index: int,
               make: Callable[[Expr], Expr]) -> Expr:
    """Rebuild the tree with the preorder-*index* node replaced by
    ``make(old_node)``; raises IndexError when *index* is out of range."""

    def walk(current: Expr, offset: int) -> tuple[Expr, int]:
        if offset == index:
            return make(current), offset + count_nodes(current)
        next_offset = offset + 1
        if isinstance(current, Unary):
            child, next_offset = walk(current.child, next_offset)
            return Unary(current.op, child), next_offset
        if isinstance(current, Binary):
            left, next_offset = walk(current.left, next_offset)
            right, next_offset = walk(current.right, next_offset)
            return Binary(current.op, left, right), next_offset
        return current, next_offset

    if not 0 <= index < count_nodes(node):
        raise IndexError(f"node index {index} out of range")
    rebuilt, _ = walk(node, 0)
    return rebuilt


# -- JSON round-trip ----------------------------------------------------------


def to_dict(node: Expr) -> dict:
    if isinstance(node, Const):
        return {"kind": "const", "value": node.value}
    if isinstance(node, Feature):
        return {"kind": "feature", "name": node.name}
    if isinstance(node, Unary):
        return {"kind": "unary", "op": node.op, "child": to_dict(node.child)}
    return {
        "kind": "binary",
        "op": node.op,
        "left": to_dict(node.left),
        "right": to_dict(node.right),
    }


def from_dict(payload: Mapping) -> Expr:
    if not isinstance(payload, Mapping):
        raise ExpressionError(f"expression node must be a mapping, "
                              f"got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind == "const":
        return Const(payload.get("value"))
    if kind == "feature":
        return Feature(payload.get("name"))
    if kind == "unary":
        return Unary(payload.get("op"), from_dict(payload.get("child")))
    if kind == "binary":
        return Binary(payload.get("op"), from_dict(payload.get("left")),
                      from_dict(payload.get("right")))
    raise ExpressionError(f"unknown expression kind {kind!r}")


def dumps(node: Expr) -> str:
    """Canonical JSON: sorted keys, no whitespace — equal trees always
    serialize to equal strings, so the string doubles as a dedup key."""
    return json.dumps(to_dict(node), sort_keys=True, separators=(",", ":"))


def loads(text: str) -> Expr:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExpressionError(f"not valid JSON: {exc}") from None
    return from_dict(payload)


# -- Seeded mutation ----------------------------------------------------------


def random_leaf(rng: random.Random) -> Expr:
    """A fresh leaf: a feature (usually) or a small constant."""
    if rng.random() < 0.7:
        return Feature(rng.choice(FEATURES))
    return Const(round(rng.uniform(-4.0, 4.0), 3))


def perturb_constant(node: Expr, rng: random.Random) -> Expr:
    """Nudge one constant; falls back to graft when the tree has none."""
    indices = [i for i, n in enumerate(iter_nodes(node))
               if isinstance(n, Const)]
    if not indices:
        return graft(node, rng)
    index = rng.choice(indices)

    def nudge(old: Expr) -> Expr:
        assert isinstance(old, Const)
        if abs(old.value) < 1e-9 or rng.random() < 0.25:
            return Const(round(old.value + rng.uniform(-2.0, 2.0), 3))
        return Const(round(old.value * rng.uniform(0.5, 2.0), 6))

    return replace_at(node, index, nudge)


def swap_feature(node: Expr, rng: random.Random) -> Expr:
    """Replace one feature leaf with a different feature; falls back to
    graft when the tree reads no features at all."""
    indices = [i for i, n in enumerate(iter_nodes(node))
               if isinstance(n, Feature)]
    if not indices:
        return graft(node, rng)
    index = rng.choice(indices)

    def swap(old: Expr) -> Expr:
        assert isinstance(old, Feature)
        other = rng.choice([f for f in FEATURES if f != old.name])
        return Feature(other)

    return replace_at(node, index, swap)


def graft(node: Expr, rng: random.Random) -> Expr:
    """Wrap a random subtree in a new operator with a fresh leaf (or a
    unary), growing the tree by one level."""
    nodes = iter_nodes(node)
    index = rng.randrange(len(nodes))

    def grow(old: Expr) -> Expr:
        if rng.random() < 0.2:
            return Unary(rng.choice(UNARY_OPS), old)
        op = rng.choice(BINARY_OPS)
        leaf = random_leaf(rng)
        if rng.random() < 0.5:
            return Binary(op, old, leaf)
        return Binary(op, leaf, old)

    return replace_at(node, index, grow)


def prune(node: Expr, rng: random.Random) -> Expr:
    """Collapse a random interior node to one of its children; falls
    back to graft when the tree is a single leaf."""
    indices = [i for i, n in enumerate(iter_nodes(node))
               if isinstance(n, (Unary, Binary))]
    if not indices:
        return graft(node, rng)
    index = rng.choice(indices)

    def collapse(old: Expr) -> Expr:
        if isinstance(old, Unary):
            return old.child
        assert isinstance(old, Binary)
        return old.left if rng.random() < 0.5 else old.right

    return replace_at(node, index, collapse)


#: (operator, weight) table the dispatcher draws from.
MUTATIONS: tuple[tuple[Callable[[Expr, random.Random], Expr], float], ...] = (
    (perturb_constant, 0.3),
    (swap_feature, 0.3),
    (graft, 0.25),
    (prune, 0.15),
)


def mutate_named(node: Expr, rng: random.Random) -> tuple[Expr, str]:
    """One seeded mutation step; returns ``(mutant, operator_name)``.

    A mutant that would exceed ``MAX_NODES``/``MAX_DEPTH`` is replaced
    by a prune of the original, so mutation is closed over the bounded
    language.  The operator name feeds the search's lineage records.
    """
    operators = [op for op, _ in MUTATIONS]
    weights = [weight for _, weight in MUTATIONS]
    operator = rng.choices(operators, weights=weights, k=1)[0]
    mutated = operator(node, rng)
    name = operator.__name__
    if count_nodes(mutated) > MAX_NODES or depth(mutated) > MAX_DEPTH:
        mutated = prune(node, rng)
        name = "prune"
    return mutated, name


def mutate(node: Expr, rng: random.Random) -> Expr:
    """One seeded mutation step, respecting the size bounds."""
    return mutate_named(node, rng)[0]
