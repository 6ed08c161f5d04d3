"""Plain-text table formatting for experiment results.

Every harness runner returns a list of row objects exposing ``as_dict``;
:func:`format_table` renders them as an aligned text table so
``benchmarks/paper.py`` can print output comparable to the paper's tables
and figure series.  :func:`overhead_percent` is the one overhead figure
every throughput row reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def overhead_percent(baseline: float, measured: float) -> float:
    """Throughput lost against ``baseline``, in percent (0 without a baseline)."""
    return 100.0 * (1.0 - measured / baseline) if baseline > 0 else 0.0


def format_table(rows: Sequence, title: Optional[str] = None) -> str:
    """Render a sequence of row objects (or dicts) as an aligned text table."""
    dicts: List[Dict] = []
    for row in rows:
        if isinstance(row, dict):
            dicts.append(row)
        else:
            dicts.append(row.as_dict())
    if not dicts:
        return (title + "\n" if title else "") + "(no rows)"

    columns: List[str] = []
    for record in dicts:
        for key in record:
            if key not in columns:
                columns.append(key)
    widths = {column: len(str(column)) for column in columns}
    for record in dicts:
        for column in columns:
            widths[column] = max(widths[column], len(_cell(record.get(column))))

    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for record in dicts:
        lines.append(" | ".join(
            _cell(record.get(column)).ljust(widths[column]) for column in columns))
    return "\n".join(lines)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
