"""Plain-text rendering of experiment results.

The paper presents bar charts and tables; offline we render the same
data as aligned ASCII tables and horizontal bar charts so every figure
can be regenerated and eyeballed from a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence


def format_value(value: object, precision: int = 4) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rendered_rows = [
        [format_value(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(str(column)) for column in columns]
    for row in rendered_rows:
        if len(row) != len(columns):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(columns)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = " | ".join(str(c).ljust(widths[i]) for i, c in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_bar_chart(
    series: Mapping[str, float],
    title: str | None = None,
    width: int = 50,
    precision: int = 4,
) -> str:
    """Render a label -> value mapping as a horizontal ASCII bar chart."""
    if not series:
        raise ValueError("cannot chart an empty series")
    label_width = max(len(label) for label in series)
    peak = max(abs(value) for value in series.values()) or 1.0
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for label, value in series.items():
        bar = "#" * max(0, round(abs(value) / peak * width))
        lines.append(
            f"{label.rjust(label_width)} | {bar} {format_value(value, precision)}"
        )
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """A regenerated table or figure: data plus its rendering.

    Attributes
    ----------
    experiment_id:
        The paper artifact this reproduces (e.g. ``"figure6"``).
    title:
        Human-readable description.
    columns / rows:
        The tabular data, as the paper's table or the figure's series.
    series:
        Raw keyed data for programmatic checks (tests and benches assert
        against this rather than parsing the rendering).
    notes:
        Caveats: substitutions, normalizations, known deviations.
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: Sequence[Sequence[object]]
    series: dict = field(default_factory=dict)
    notes: str = ""

    def render(self, precision: int = 4) -> str:
        text = format_table(self.columns, self.rows,
                            title=f"[{self.experiment_id}] {self.title}",
                            precision=precision)
        if self.notes:
            text += f"\nNote: {self.notes}"
        return text


def render_service_report(report: Mapping) -> str:
    """Render a ``BENCH_service.json`` load report (the output of
    ``python -m repro.service load``) as a per-tenant table plus the
    unified Equation 1 line."""
    rows = [
        (
            row["tenant"],
            row["benchmark"],
            row["accesses"],
            row["miss_rate"],
            row["evicted_bytes"],
            row.get("retried_requests", 0),
        )
        for row in report["per_tenant"]
    ]
    text = format_table(
        ("tenant", "benchmark", "accesses", "miss rate",
         "evicted bytes", "retries"),
        rows,
        title=f"service load: {report['tenants']} tenants, "
              f"{report['total_accesses']} accesses in "
              f"{report['elapsed_seconds']:.2f}s "
              f"({report['accesses_per_second']:.0f}/s)",
    )
    unified = report["unified"]
    text += (
        f"\nunified (Eq. 1): miss rate {unified['miss_rate']:.4f} over "
        f"{unified['accesses']} accesses, "
        f"{unified['evicted_bytes']} bytes evicted"
    )
    scaling = report.get("scaling")
    if scaling:
        text += "\n" + format_table(
            ("shards", "tenants", "accesses/s", "speedup"),
            [(row["shards"], row["tenants"],
              f"{row['accesses_per_second']:.0f}",
              f"{row['speedup']:.2f}x")
             for row in scaling["rows"]],
            title=f"weak scaling ({scaling.get('cpu_count', '?')} "
                  f"core(s))",
        )
    chaos = report.get("chaos")
    if chaos:
        verdict = ("field-identical" if chaos["field_identical"]
                   else f"MISMATCH: {chaos['mismatched_tenants']}")
        text += (
            f"\ncrash drill: {chaos['shards']} shards, "
            f"{chaos['supervisor_restarts']} supervised restart(s), "
            f"standby "
            f"{'promoted' if chaos['standby_promoted'] else 'UNUSED'}, "
            f"{chaos['redirected_sessions']} session(s) redirected; "
            f"drill stats {verdict}"
        )
        if chaos.get("sharing"):
            text += " (cross-tenant sharing on)"
    dedup = report.get("dedup")
    if dedup:
        on, off = dedup["sharing_on"], dedup["sharing_off"]
        text += (
            f"\ndedup A/B: {dedup['tenants']} identical "
            f"{dedup['benchmark']} tenants, dedup ratio "
            f"{dedup['dedup_ratio']:.2f}x, "
            f"{dedup['bytes_saved']} peak bytes saved, miss rate "
            f"{off['unified_miss_rate']:.4f} -> "
            f"{on['unified_miss_rate']:.4f} "
            f"({dedup['miss_rate_delta']:+.4f})"
        )
    return text
