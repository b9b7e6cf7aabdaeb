import numpy as np

from layoutdiffusion.data import Layout
from layoutdiffusion.render import DEFAULT_PALETTE, label_color, render_svg


def unit_layout(*boxes):
    geometry = 2.0 * np.array([b[:4] for b in boxes], dtype=float) - 1.0
    return Layout(geometry=geometry, labels=[b[4] if len(b) > 4 else 0 for b in boxes], id="r")


def test_one_rect_per_element_plus_background():
    svg = render_svg(unit_layout((0.5, 0.5, 0.2, 0.2), (0.2, 0.2, 0.1, 0.1, 1)))
    assert svg.count("<rect") == 3
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_rendering_is_deterministic():
    layout = unit_layout((0.5, 0.5, 0.2, 0.2), (0.2, 0.2, 0.1, 0.1, 3))
    assert render_svg(layout) == render_svg(layout)


def test_label_color_cycles_palette():
    assert label_color(0) == DEFAULT_PALETTE[0]
    assert label_color(len(DEFAULT_PALETTE) + 2) == DEFAULT_PALETTE[2]


def test_same_label_shares_color():
    svg = render_svg(unit_layout((0.3, 0.3, 0.2, 0.2, 2), (0.7, 0.7, 0.2, 0.2, 2)))
    assert svg.count(DEFAULT_PALETTE[2]) >= 4  # fill + stroke for both rects


def test_label_names_are_escaped():
    layout = unit_layout((0.5, 0.5, 0.2, 0.2))
    svg = render_svg(layout, label_names=["a<b&c"])
    assert "a&lt;b&amp;c" in svg
    assert "a<b" not in svg


def test_overshoot_is_clamped_to_canvas():
    # cx = 1.2 normalized is off-canvas to the right
    layout = unit_layout((1.1, 0.5, 0.2, 0.2))
    svg = render_svg(layout, canvas=(100, 100))
    assert 'x="100.0000"' in svg
