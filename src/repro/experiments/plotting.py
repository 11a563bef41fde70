"""ASCII figure rendering — terminal-native versions of the paper's plots.

The experiment harness returns plain data; these helpers render it as
fixed-width character plots so the CLI can show figure *shapes* (speedup
curves, time-accuracy fronts) without any plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["ascii_plot", "ascii_speedup_plot"]

_MARKERS = "ox+*#@%&"


def ascii_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 64,
    height: int = 16,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Scatter/line plot of named (x, y) series on a character grid."""
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return title + "\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for marker, (name, pts) in zip(_MARKERS, series.items()):
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    y_hi_label = f"{y_hi:.3g}"
    y_lo_label = f"{y_lo:.3g}"
    pad = max(len(y_hi_label), len(y_lo_label))
    for i, row in enumerate(grid):
        label = y_hi_label if i == 0 else (y_lo_label if i == height - 1 else "")
        lines.append(f"{label:>{pad}} |" + "".join(row))
    lines.append(" " * pad + " +" + "-" * width)
    x_axis = f"{x_lo:.3g}".ljust(width - 8) + f"{x_hi:.3g}"
    lines.append(" " * (pad + 2) + x_axis + (f"  {xlabel}" if xlabel else ""))
    legend = "  ".join(
        f"{marker}={name}" for marker, name in zip(_MARKERS, series.keys())
    )
    lines.append(" " * (pad + 2) + legend)
    if ylabel:
        lines.append(f"(y: {ylabel})")
    return "\n".join(lines)


def ascii_speedup_plot(
    curves: Mapping[str, Mapping[int, float]],
    *,
    title: str = "speedup vs cores",
    width: int = 64,
    height: int = 16,
) -> str:
    """Speedup curves ({name: {cores: speedup}}) with the ideal diagonal."""
    series: dict[str, Sequence[tuple[float, float]]] = {
        name: sorted((float(c), s) for c, s in curve.items())
        for name, curve in curves.items()
    }
    all_cores = sorted({c for curve in curves.values() for c in curve})
    if all_cores:
        series = {"ideal": [(float(c), float(c)) for c in all_cores], **series}
    return ascii_plot(
        series, width=width, height=height, title=title, xlabel="cores",
        ylabel="speedup",
    )
