"""The benchmark-regression gate: fresh bench JSON vs committed baselines.

CI regenerates ``BENCH_sweep.json`` and ``BENCH_service.json`` on every
run; this module compares the key metrics in those fresh files against
the committed baselines in ``benchmarks/baselines.json`` and fails the
build when one regresses beyond its tolerance.  The contract per metric
is deliberately small:

``file`` / ``path``
    Which bench report to open and the dotted path of the value inside
    it (integer segments index into lists, negative ones from the end —
    ``scaling.rows.-1.speedup``).
``equals``
    An exact-match gate (booleans like ``grids_identical``); no
    tolerance applies.
``direction`` + ``baseline`` + ``rel_tolerance`` + ``floor``
    A numeric gate.  For ``higher`` metrics the pass threshold is
    ``max(floor, baseline * (1 - rel_tolerance))`` — the floor is the
    absolute never-regress-below line, the relative band absorbs
    machine-to-machine noise.  ``lower`` metrics mirror that with
    ``min(ceiling, baseline * (1 + rel_tolerance))``.

A missing file, unresolvable path or non-numeric value is a gate
*failure*, not a skip: a bench that silently stopped producing a metric
is exactly the regression the gate exists to catch.  ``--write-baselines``
refreshes the recorded ``baseline`` fields from the current reports
(tolerances and floors are preserved), which is how the gate is re-armed
after an intentional performance change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: Default location of the committed baselines, relative to the repo root.
DEFAULT_BASELINES = "benchmarks/baselines.json"

_SENTINEL = object()


class GateError(ValueError):
    """A malformed baselines file or metric specification."""


@dataclass
class MetricSpec:
    """One gated metric from the baselines file."""

    name: str
    file: str
    path: str
    direction: str = "higher"
    baseline: float | None = None
    rel_tolerance: float | None = None
    floor: float | None = None
    ceiling: float | None = None
    equals: object = _SENTINEL

    @property
    def exact(self) -> bool:
        return self.equals is not _SENTINEL


@dataclass
class GateResult:
    """One metric's verdict."""

    name: str
    ok: bool
    value: object = None
    threshold: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "value": self.value,
                "threshold": self.threshold, "detail": self.detail}


def _read_baselines(path: str | Path):
    """The baselines file's JSON; ``GateError`` if it is not JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as error:
            raise GateError(f"{path}: not JSON ({error})") from None


def load_baselines(path: str | Path) -> list[MetricSpec]:
    """Parse ``baselines.json`` into metric specs (schema-checked)."""
    data = _read_baselines(path)
    metrics = data.get("metrics") if isinstance(data, dict) else None
    if not isinstance(metrics, dict) or not metrics:
        raise GateError(f"{path}: expected a non-empty 'metrics' object")
    specs = []
    for name, raw in metrics.items():
        if not isinstance(raw, dict):
            raise GateError(f"{path}: metric {name!r} must be an object")
        for field in ("file", "path"):
            if not isinstance(raw.get(field), str) or not raw[field]:
                raise GateError(
                    f"{path}: metric {name!r} needs a string {field!r}"
                )
        direction = raw.get("direction", "higher")
        if direction not in ("higher", "lower"):
            raise GateError(
                f"{path}: metric {name!r} direction must be "
                f"'higher' or 'lower', got {direction!r}"
            )
        spec = MetricSpec(
            name=name, file=raw["file"], path=raw["path"],
            direction=direction,
            baseline=raw.get("baseline"),
            rel_tolerance=raw.get("rel_tolerance"),
            floor=raw.get("floor"),
            ceiling=raw.get("ceiling"),
            equals=raw["equals"] if "equals" in raw else _SENTINEL,
        )
        if not spec.exact and spec.baseline is None and (
                spec.floor is None and spec.ceiling is None):
            raise GateError(
                f"{path}: metric {name!r} gates nothing — give it "
                f"'equals', a 'baseline' or an absolute bound"
            )
        specs.append(spec)
    return specs


def resolve_path(data, path: str):
    """Walk a dotted path; integer segments index lists."""
    node = data
    for segment in path.split("."):
        if isinstance(node, list):
            try:
                node = node[int(segment)]
            except (ValueError, IndexError) as error:
                raise KeyError(
                    f"bad list index {segment!r} in {path!r}"
                ) from error
        elif isinstance(node, dict):
            if segment not in node:
                raise KeyError(f"no key {segment!r} in {path!r}")
            node = node[segment]
        else:
            raise KeyError(
                f"cannot descend into {type(node).__name__} "
                f"at {segment!r} in {path!r}"
            )
    return node


def threshold_for(spec: MetricSpec) -> float:
    """The numeric pass line for a non-exact metric."""
    relative = None
    if spec.baseline is not None and spec.rel_tolerance is not None:
        if spec.direction == "higher":
            relative = spec.baseline * (1.0 - spec.rel_tolerance)
        else:
            relative = spec.baseline * (1.0 + spec.rel_tolerance)
    if spec.direction == "higher":
        bounds = [b for b in (spec.floor, relative) if b is not None]
        return max(bounds)
    bounds = [b for b in (spec.ceiling, relative) if b is not None]
    return min(bounds)


def evaluate(spec: MetricSpec, reports: dict[str, dict]) -> GateResult:
    """Check one metric against its loaded report."""
    report = reports.get(spec.file)
    if report is None:
        return GateResult(spec.name, False,
                          detail=f"missing bench report {spec.file}")
    try:
        value = resolve_path(report, spec.path)
    except KeyError as error:
        return GateResult(spec.name, False,
                          detail=f"{spec.file}: {error.args[0]}")
    if spec.exact:
        ok = value == spec.equals
        detail = ("" if ok
                  else f"expected {spec.equals!r}, got {value!r}")
        return GateResult(spec.name, ok, value=value, detail=detail)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return GateResult(
            spec.name, False, value=value,
            detail=f"{spec.file}:{spec.path} is not numeric: {value!r}"
        )
    line = threshold_for(spec)
    ok = value >= line if spec.direction == "higher" else value <= line
    detail = ("" if ok else
              f"{value:g} is {'below' if spec.direction == 'higher' else 'above'} "
              f"the {line:g} threshold")
    return GateResult(spec.name, ok, value=value, threshold=line,
                      detail=detail)


def _load_report(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def run_gate(baselines: str | Path = DEFAULT_BASELINES,
             bench_dir: str | Path = ".") -> dict:
    """Evaluate every metric; return the machine-readable report."""
    specs = load_baselines(baselines)
    bench_dir = Path(bench_dir)
    reports: dict[str, dict] = {}
    for spec in specs:
        if spec.file not in reports:
            loaded = _load_report(bench_dir / spec.file)
            if loaded is not None:
                reports[spec.file] = loaded
    results = [evaluate(spec, reports) for spec in specs]
    return {
        "baselines": str(baselines),
        "bench_dir": str(bench_dir),
        "results": [result.to_dict() for result in results],
        "failed": [result.name for result in results if not result.ok],
        "ok": all(result.ok for result in results),
    }


def write_baselines(baselines: str | Path = DEFAULT_BASELINES,
                    bench_dir: str | Path = ".") -> dict:
    """Refresh each metric's ``baseline`` from the current reports.

    Tolerances, floors and exact-match expectations are left alone —
    only the recorded level moves.  Metrics whose value cannot be read
    are reported (and left untouched) rather than silently dropped.
    """
    data = _read_baselines(baselines)
    specs = load_baselines(baselines)
    bench_dir = Path(bench_dir)
    updated, missing = [], []
    for spec in specs:
        if spec.exact:
            continue
        report = _load_report(bench_dir / spec.file)
        if report is None:
            missing.append(spec.name)
            continue
        try:
            value = resolve_path(report, spec.path)
        except KeyError:
            missing.append(spec.name)
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            missing.append(spec.name)
            continue
        data["metrics"][spec.name]["baseline"] = round(float(value), 6)
        updated.append(spec.name)
    with open(baselines, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return {"updated": updated, "missing": missing}


def render(report: dict) -> str:
    """The human-readable verdict table."""
    lines = [f"bench gate vs {report['baselines']}:"]
    for row in report["results"]:
        mark = "ok  " if row["ok"] else "FAIL"
        value = row["value"]
        shown = (f"{value:g}" if isinstance(value, (int, float))
                 and not isinstance(value, bool) else repr(value))
        line = f"  {mark} {row['name']:<40} {shown}"
        if row["threshold"] is not None:
            line += f" (threshold {row['threshold']:g})"
        if row["detail"]:
            line += f" — {row['detail']}"
        lines.append(line)
    lines.append("gate PASSED" if report["ok"]
                 else f"gate FAILED: {', '.join(report['failed'])}")
    return "\n".join(lines)
