"""SVG 1.1 writers: sample grids, augmentation contact sheets, loss charts."""

from __future__ import annotations

import colorsys
import math

import numpy as np

from .geometry import DEFAULT_BOUNDARY

_MARGIN = 10.0  # around and between the cells of a grid
_CHART_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _fmt(v: float) -> str:
    return f"{v:g}"


def polyline_path_data(points: np.ndarray) -> str:
    parts = [f"M {_fmt(points[0][0])} {_fmt(points[0][1])}"]
    for x, y in points[1:]:
        parts.append(f"L {_fmt(x)} {_fmt(y)}")
    return " ".join(parts)


def _path_color(rng: np.random.Generator | None) -> str:
    if rng is None:
        return "#000000"
    hue = rng.random()
    r, g, b = colorsys.hsv_to_rgb(hue, 0.75, 0.65)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def _document(width: float, height: float) -> list[str]:
    """The head lines of an SVG document on a white page; close with </svg>."""
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
    ]


def render_svg(images, columns: int = 4, *, boundary=DEFAULT_BOUNDARY,
               color_seed: int | None = None) -> str:
    """Render images, each a list of Polyline, as a grid of square cells.

    Each image sits in its own nested <svg> cell of side ``boundary``, which
    also clips strokes that wander outside the canvas. ``color_seed``
    switches from black to a random color per path.
    """
    images = list(images)
    columns = max(1, min(columns, max(1, len(images))))
    rows = max(1, math.ceil(len(images) / columns)) if images else 1
    cell = boundary + _MARGIN
    width = columns * cell + _MARGIN
    height = rows * cell + _MARGIN
    rng = None if color_seed is None else np.random.default_rng(color_seed)

    out = _document(width, height)
    for idx, item in enumerate(images):
        col = idx % columns
        row = idx // columns
        x = _MARGIN + col * cell
        y = _MARGIN + row * cell
        out.append(
            f'<svg x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(boundary)}" '
            f'height="{_fmt(boundary)}" viewBox="0 0 {_fmt(boundary)} '
            f'{_fmt(boundary)}">'
        )
        out.append(
            f'<rect width="{_fmt(boundary)}" height="{_fmt(boundary)}" '
            f'fill="none" stroke="#cccccc" stroke-width="0.5"/>'
        )
        for poly in item:
            out.append(
                f'<path d="{polyline_path_data(poly.points)}" fill="none" '
                f'stroke="{_path_color(rng)}" stroke-width="1" '
                f'stroke-linecap="round" stroke-linejoin="round"/>'
            )
        out.append("</svg>")
    out.append("</svg>")
    return "\n".join(out)


def line_chart_svg(series: dict[str, list[float]], title: str = "") -> str:
    """Minimal line chart; one polyline per named series, epochs on x."""
    width, height = 640.0, 400.0
    pad = 50.0
    plot_w = width - 2 * pad
    plot_h = height - 2 * pad
    ys = [v for values in series.values() for v in values]
    if not ys:
        ys = [0.0, 1.0]
    y_min, y_max = min(ys), max(ys)
    if y_max == y_min:
        y_max = y_min + 1.0
    n = max(len(v) for v in series.values()) if series else 1

    def sx(i: int) -> float:
        return pad + (plot_w * i / max(1, n - 1))

    def sy(v: float) -> float:
        return pad + plot_h * (1.0 - (v - y_min) / (y_max - y_min))

    out = _document(width, height) + [
        f'<text x="{_fmt(width / 2)}" y="25" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{title}</text>',
        f'<line x1="{_fmt(pad)}" y1="{_fmt(pad)}" x2="{_fmt(pad)}" '
        f'y2="{_fmt(height - pad)}" stroke="black"/>',
        f'<line x1="{_fmt(pad)}" y1="{_fmt(height - pad)}" '
        f'x2="{_fmt(width - pad)}" y2="{_fmt(height - pad)}" stroke="black"/>',
        f'<text x="{_fmt(pad - 8)}" y="{_fmt(pad)}" text-anchor="end" '
        f'font-size="10" font-family="sans-serif">{y_max:.3g}</text>',
        f'<text x="{_fmt(pad - 8)}" y="{_fmt(height - pad)}" '
        f'text-anchor="end" font-size="10" '
        f'font-family="sans-serif">{y_min:.3g}</text>',
        f'<text x="{_fmt(width / 2)}" y="{_fmt(height - 12)}" '
        f'text-anchor="middle" font-size="11" '
        f'font-family="sans-serif">epoch</text>',
        f'<text x="15" y="{_fmt(height / 2)}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif" '
        f'transform="rotate(-90 15 {_fmt(height / 2)})">loss</text>',
    ]
    for si, (name, values) in enumerate(series.items()):
        color = _CHART_COLORS[si % len(_CHART_COLORS)]
        pts = " ".join(
            f"{_fmt(sx(i))},{_fmt(sy(v))}" for i, v in enumerate(values)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = pad + 16 * (si + 1)
        out.append(
            f'<line x1="{_fmt(width - pad - 110)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(width - pad - 90)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_fmt(width - pad - 84)}" y="{_fmt(ly)}" '
            f'font-size="10" font-family="sans-serif">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)
