"""Deterministic SVG rendering of layouts."""
from __future__ import annotations

import html
from typing import Optional, Sequence

import numpy as np

from .data import Layout, to_corner_form

DEFAULT_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#1b9e77", "#7570b3",
)


def label_color(label: int, palette: Sequence[str] = DEFAULT_PALETTE) -> str:
    return palette[label % len(palette)]


def render_svg(layout: Layout, canvas=(100.0, 100.0),
               label_names: Optional[Sequence[str]] = None,
               palette: Sequence[str] = DEFAULT_PALETTE) -> str:
    """One semi-transparent rectangle per element, clamped to the canvas.

    Geometry is the layout's normalized form; overshoot past the canvas is
    clipped so the document always renders inside its viewBox.
    """
    width, height = float(canvas[0]), float(canvas[1])
    unit = (layout.geometry + 1.0) / 2.0
    corners = to_corner_form(unit)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" '
        f'fill="white" stroke="#333333" stroke-width="0.5"/>',
    ]
    labels = None if layout.labels is None else layout.labels.tolist()
    for i in range(len(layout)):
        x0 = float(np.clip(corners[i, 0], 0.0, 1.0) * width)
        y0 = float(np.clip(corners[i, 1], 0.0, 1.0) * height)
        x1 = float(np.clip(corners[i, 4], 0.0, 1.0) * width)
        y1 = float(np.clip(corners[i, 5], 0.0, 1.0) * height)
        if labels is not None:
            color = label_color(labels[i], palette)
            name = label_names[labels[i]] if label_names else f"class_{labels[i]}"
        else:
            color = palette[i % len(palette)]
            name = f"element_{i}"
        lines.append(
            f'<rect x="{x0:.4f}" y="{y0:.4f}" width="{x1 - x0:.4f}" '
            f'height="{y1 - y0:.4f}" fill="{color}" fill-opacity="0.5" '
            f'stroke="{color}" stroke-width="0.5"/>'
        )
        lines.append(
            f'<text x="{x0 + 0.5:.4f}" y="{y0 + 3.0:.4f}" font-size="3" '
            f'font-family="sans-serif" fill="#222222">{html.escape(name)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
