"""Plain-text rendering of experiment results.

Every experiment prints the rows/series the corresponding paper table or
figure reports; these helpers keep the formatting consistent.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

__all__ = [
    "render_table",
    "render_series",
    "render_fleet_latency",
    "format_ratio",
]


def render_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Fixed-width text table with a title rule."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(
    title: str, series: Iterable[Sequence[object]], headers: Sequence[str]
) -> str:
    """A (possibly long) series as a compact table."""
    return render_table(title, headers, series)


def render_fleet_latency(
    title: str, per_vm_records: Dict[str, Sequence[object]]
) -> str:
    """Per-VM latency rows plus a cross-VM merged rollup row.

    ``per_vm_records`` maps VM name → its invocation records.  The
    rollup's percentiles are computed over the *pooled* latencies (see
    :func:`repro.metrics.latency.merged_percentile_ms`), never by
    averaging per-VM percentiles.
    """
    from repro.metrics.latency import merged_percentile_ms

    rows: List[Sequence[object]] = []
    for name in sorted(per_vm_records):
        records = [r for r in per_vm_records[name] if r.ok]
        if not records:
            rows.append((name, 0, "-", "-"))
            continue
        rows.append(
            (
                name,
                len(records),
                merged_percentile_ms([records], 50),
                merged_percentile_ms([records], 99),
            )
        )
    pooled = [
        [r for r in records if r.ok] for records in per_vm_records.values()
    ]
    pooled = [group for group in pooled if group]
    if pooled:
        rows.append(
            (
                "fleet",
                sum(len(group) for group in pooled),
                merged_percentile_ms(pooled, 50),
                merged_percentile_ms(pooled, 99),
            )
        )
    return render_table(title, ("vm", "ok", "p50 ms", "p99 ms"), rows)


def format_ratio(numerator: float, denominator: float) -> str:
    """``"12.3x"``-style speedup string (``"inf"``-safe)."""
    if denominator == 0:
        return "inf"
    return f"{numerator / denominator:.1f}x"


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
