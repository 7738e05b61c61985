"""Minimal deterministic SVG heatmap text for 2-D scan artifacts."""

from __future__ import annotations

import numpy as np

# viridis-like anchor stops (position, r, g, b)
_STOPS = [
    (0.00, 68, 1, 84),
    (0.25, 59, 82, 139),
    (0.50, 33, 145, 140),
    (0.75, 94, 201, 98),
    (1.00, 253, 231, 37),
]


def _color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    for (p0, r0, g0, b0), (p1, r1, g1, b1) in zip(_STOPS, _STOPS[1:]):
        if v <= p1:
            f = 0.0 if p1 == p0 else (v - p0) / (p1 - p0)
            r = round(r0 + f * (r1 - r0))
            g = round(g0 + f * (g1 - g0))
            b = round(b0 + f * (b1 - b0))
            return f"#{r:02x}{g:02x}{b:02x}"
    return "#fde725"


def heatmap_svg(
    x_values,
    y_values,
    z,
    x_label: str = "",
    y_label: str = "",
    title: str = "",
) -> str:
    """SVG text of a cell-grid heatmap with axes and a colorbar.

    ``z`` is indexed [iy, ix]; output is deterministic for identical input.
    """
    x_values = np.asarray(x_values, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    z = np.asarray(z, dtype=float)
    ny, nx = z.shape
    if nx != x_values.size or ny != y_values.size:
        raise ValueError("heatmap shape does not match the axis lengths")

    zmin = float(np.nanmin(z))
    zmax = float(np.nanmax(z))
    span = zmax - zmin if zmax > zmin else 1.0

    margin_l, margin_b, margin_t, margin_r = 70, 50, 30, 90
    plot_w, plot_h = 560, 420
    width = margin_l + plot_w + margin_r
    height = margin_t + plot_h + margin_b
    cell_w = plot_w / nx
    cell_h = plot_h / ny

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_l + plot_w / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]
    for iy in range(ny):
        for ix in range(nx):
            val = (z[iy, ix] - zmin) / span
            x0 = margin_l + ix * cell_w
            # y axis increases upward
            y0 = margin_t + plot_h - (iy + 1) * cell_h
            parts.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{cell_w + 0.05:.2f}" '
                f'height="{cell_h + 0.05:.2f}" fill="{_color(val)}"/>'
            )

    # axes
    ax_y = margin_t + plot_h
    parts.append(
        f'<line x1="{margin_l}" y1="{ax_y}" x2="{margin_l + plot_w}" y2="{ax_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" y2="{ax_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        xv = x_values[0] + frac * (x_values[-1] - x_values[0])
        xpix = margin_l + frac * plot_w
        parts.append(
            f'<text x="{xpix:.1f}" y="{ax_y + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        yv = y_values[0] + frac * (y_values[-1] - y_values[0])
        ypix = ax_y - frac * plot_h
        parts.append(
            f'<text x="{margin_l - 6}" y="{ypix + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">{y_label}</text>'
    )

    # colorbar
    bar_x = margin_l + plot_w + 20
    bar_h = plot_h
    steps = 64
    for i in range(steps):
        frac = i / (steps - 1)
        y0 = margin_t + bar_h - (i + 1) * bar_h / steps
        parts.append(
            f'<rect x="{bar_x}" y="{y0:.2f}" width="18" height="{bar_h / steps + 0.05:.2f}" '
            f'fill="{_color(frac)}"/>'
        )
    parts.append(
        f'<text x="{bar_x + 24}" y="{margin_t + 10}" font-family="sans-serif" '
        f'font-size="10">{zmax:.4g}</text>'
    )
    parts.append(
        f'<text x="{bar_x + 24}" y="{margin_t + bar_h}" font-family="sans-serif" '
        f'font-size="10">{zmin:.4g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
