"""Plain-text reporting: tables and ASCII charts for experiment output.

The benchmark harness regenerates the paper's figures as text; this
module renders them — aligned tables, horizontal bar charts (Figure 2's
census, Figure 8's speedups) and normalised series — without any
plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, Mapping

_BAR = "█"
_HALF = "▌"


def format_table(headers: list[str], rows: list[list[object]],
                 align_right: Iterable[int] = ()) -> str:
    """Render an aligned text table."""
    right = set(align_right)
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells))
        if cells else len(headers[i])
        for i in range(len(headers))
    ]

    def render_row(row: list[str]) -> str:
        parts = []
        for i, cell in enumerate(row):
            parts.append(cell.rjust(widths[i]) if i in right
                         else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    out = [render_row(headers),
           render_row(["-" * width for width in widths])]
    out.extend(render_row(row) for row in cells)
    return "\n".join(out)


def bar_chart(values: Mapping[str, float], width: int = 40,
              unit: str = "") -> str:
    """Horizontal bar chart, labels left, magnitudes right."""
    if not values:
        raise ValueError("nothing to chart")
    peak = max(values.values())
    if peak <= 0:
        peak = 1.0
    label_width = max(len(label) for label in values)
    lines = []
    for label, value in values.items():
        filled = value / peak * width
        bar = _BAR * int(filled)
        if filled - int(filled) >= 0.5:
            bar += _HALF
        lines.append(f"{label.ljust(label_width)} |{bar.ljust(width)}| "
                     f"{value:g}{unit}")
    return "\n".join(lines)


def normalised_series(title: str, series: Mapping[str, float],
                      baseline_key: str) -> str:
    """Figure 10/12-style normalised runtime listing."""
    if baseline_key not in series:
        raise ValueError(f"baseline {baseline_key!r} missing from series")
    base = series[baseline_key]
    if base <= 0:
        raise ValueError("baseline must be positive")
    rows = [[name, f"{value / base:.3f}"] for name, value in series.items()]
    return f"{title}\n" + format_table(["candidate", "normalised"],
                                       rows, align_right=[1])
