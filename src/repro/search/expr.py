"""A tiny typed expression language for eviction priority functions.

An expression maps a resident superblock's *feature vector* (age, size,
link degrees, hotness, recency, cache occupancy) to a scalar score; the
policy evicts the lowest-scoring block.  The language is deliberately
small and closed: every operator is total (division is protected, and
results are clamped to a finite range with NaN mapped to zero), so any
tree that parses also evaluates — a mutated candidate can be wrong, but
it can never crash the simulator.

Trees are scored three ways that agree exactly: :func:`evaluate`, the
definition; generated Python victim choosers (:func:`compile_chooser`);
and postfix programs (:func:`compile_program`) that the C sweep kernel's
stack VM runs.

Trees are immutable, hashable, JSON round-trippable (the wire format the
search driver ships to pool workers via policy specs), and mutated by
deterministic seeded operators: constant perturbation, feature swap,
subtree graft, and subtree prune.  Mutation is a pure function of
``(tree, random.Random state)``, which is what makes a checkpointed
search resume bit-identically.
"""

from __future__ import annotations

import itertools
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


# -- Compiled victim choosers -------------------------------------------------

#: Where the chooser reads each per-block feature; ``occupancy`` is one
#: value per choice, read once before the scan.  The degree maps hold
#: floats already; every other source is an int counter.
_BLOCK_READS = {
    "age": "float(clock - insert_clock[sid])",
    "size": "float(size)",
    "in_degree": "in_degree[sid]",
    "out_degree": "out_degree[sid]",
    "hotness": "float(hits[sid])",
    "recency": "float(clock - last_touch[sid])",
}

_CHOOSER_PARAMS = ("sizes, insert_clock, last_touch, hits, clock, "
                   "occupancy, in_degree, out_degree")

#: Compiled chooser namespaces by canonical JSON: one entry per distinct
#: expression a process scores (a search adds at most its population
#: per generation).
_CHOOSERS: dict[str, dict] = {}


def _clamp_line(name: str) -> str:
    """``_clamp`` inlined: the chained test is False for NaN, which then
    takes the ``0.0`` arm, exactly as ``_clamp`` maps it."""
    high, low = repr(SCORE_LIMIT), repr(-SCORE_LIMIT)
    return (f"{name} = {name} if {low} <= {name} <= {high} else "
            f"(0.0 if {name} != {name} else {high} if {name} > 0.0 "
            f"else {low})")


def render_chooser_source(node: Expr) -> str:
    """Render straight-line Python that picks the victim under *node*.

    The source defines ``_choose(...)``, which returns the first block
    of ``sizes`` (in dict order) whose score is strictly lowest, and
    ``_scores(...)``, which returns every block's score; both take the
    arguments named by ``_CHOOSER_PARAMS``.  Each score is computed as
    :func:`evaluate` computes it — the same clamps, protected division,
    ``log1p`` of the magnitude and unclamped ``min``/``max`` — from only
    the features *node* reads, each read once per block.  Public for
    tests and debugging.
    """
    body: list[str] = []
    reads: list[str] = []
    temps = itertools.count()

    def emit(current: Expr) -> str:
        if isinstance(current, Const):
            return f"({current.value!r})"
        if isinstance(current, Feature):
            if current.name not in reads:
                reads.append(current.name)
            return f"f_{current.name}"
        name = f"t{next(temps)}"
        if isinstance(current, Unary):
            value = emit(current.child)
            if current.op == "neg":
                body.extend([f"{name} = -{value}", _clamp_line(name)])
            else:
                # log1p of a finite magnitude lies in [0, 710], where
                # _clamp is the identity, so no clamp is emitted.
                body.append(f"{name} = _log1p(abs({value}))")
            return name
        left = emit(current.left)
        right = emit(current.right)
        op = current.op
        if op == "min":
            body.append(f"{name} = {right} if {right} < {left} else {left}")
            return name
        if op == "max":
            body.append(f"{name} = {right} if {right} > {left} else {left}")
            return name
        if op == "div":
            body.append(f"{name} = {left} if -1e-09 < {right} < 1e-09 "
                        f"else {left} / {right}")
        else:
            symbol = {"add": "+", "sub": "-", "mul": "*"}[op]
            body.append(f"{name} = {left} {symbol} {right}")
        body.append(_clamp_line(name))
        return name

    score = emit(node)
    prelude: list[str] = []
    per_block: list[str] = []
    for feature in reads:
        name = f"f_{feature}"
        if feature == "occupancy":
            prelude += [f"    {name} = float(occupancy)",
                        f"    {_clamp_line(name)}"]
        else:
            per_block += [f"        {name} = {_BLOCK_READS[feature]}",
                          f"        {_clamp_line(name)}"]
    per_block += [f"        {line}" for line in body]
    loop = ("    for sid, size in sizes.items():" if "size" in reads
            else "    for sid in sizes:")
    return "\n".join([
        f"def _choose({_CHOOSER_PARAMS}):",
        *prelude,
        "    victim = None",
        "    lowest = _INF",
        loop,
        *per_block,
        f"        if {score} < lowest:",
        f"            lowest = {score}",
        "            victim = sid",
        "    return victim",
        "",
        "",
        f"def _scores({_CHOOSER_PARAMS}):",
        *prelude,
        "    scores = {}",
        loop,
        *per_block,
        f"        scores[sid] = {score}",
        "    return scores",
    ])


def _compiled(node: Expr) -> dict:
    key = dumps(node)
    namespace = _CHOOSERS.get(key)
    if namespace is None:
        namespace = {"_log1p": math.log1p, "_INF": math.inf}
        exec(compile(render_chooser_source(node), "<priority-chooser>",
                     "exec"), namespace)
        _CHOOSERS[key] = namespace
    return namespace


def compile_chooser(node: Expr) -> Callable[..., int | None]:
    """The victim chooser for *node*, compiled once per process.

    ``chooser(sizes, insert_clock, last_touch, hits, clock, occupancy,
    in_degree, out_degree)`` returns the first key of ``sizes`` whose
    score is strictly lowest (``None`` when ``sizes`` is empty).  With
    ``sizes`` in insertion order that is the ``(score, insertion order,
    sid)`` minimum, scored exactly as :func:`evaluate` scores the block's
    feature vector.
    """
    return _compiled(node)["_choose"]


def compile_scorer(node: Expr) -> Callable[..., dict[int, float]]:
    """``sid -> score`` for every block, from the same generated code
    :func:`compile_chooser` runs (same arguments)."""
    return _compiled(node)["_scores"]


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


#: Compiled programs by canonical JSON, like ``_CHOOSERS``.
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
