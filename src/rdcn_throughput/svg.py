"""Hand-emitted SVG grouped bar charts. Diagnostic output; the CSVs are the
artifact of record, and every bar carries its exact value in a data-theta
attribute."""

from __future__ import annotations

from html import escape

CLASS_COLORS = {
    "static": "#4878cf",
    "oblivious": "#b5342c",
    "da-static": "#e0a431",
    "da-periodic": "#3d9948",
}

Y_SCALE = 300.0  # pixels per unit of theta
GRIDLINES = (0.5, 2.0 / 3.0, 0.8)


def grouped_bar_chart(groups, series, title="") -> str:
    """Render one bar per (group, series) pair.

    groups: ordered group labels (matrices or degrees).
    series: ordered dict-like mapping network class (a CLASS_COLORS key) -> list
            of theta values, one per group; values may be NaN to leave a gap.
    """
    series = dict(series)
    n_series = max(len(series), 1)
    bar_w = 14
    gap = 6
    group_w = n_series * bar_w + 3 * gap
    margin_left, margin_top, margin_bottom = 60, 40, 110
    width = margin_left + group_w * len(groups) + 40
    height = margin_top + Y_SCALE + margin_bottom
    base_y = margin_top + Y_SCALE

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<text x="{margin_left}" y="20" font-size="14" font-family="sans-serif">{escape(title)}</text>',
        f'<line x1="{margin_left}" y1="{base_y}" x2="{width - 20}" y2="{base_y}" stroke="#000"/>',
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" y2="{base_y}" stroke="#000"/>',
    ]
    for level in (0.0, *GRIDLINES, 1.0):
        y = base_y - level * Y_SCALE
        if level not in (0.0,):
            parts.append(
                f'<line x1="{margin_left}" y1="{y:.3f}" x2="{width - 20}" y2="{y:.3f}" '
                f'stroke="#bbb" stroke-dasharray="4,3"/>'
            )
        parts.append(
            f'<text x="{margin_left - 6}" y="{y + 4:.3f}" font-size="10" text-anchor="end" '
            f'font-family="sans-serif">{level:.3g}</text>'
        )

    for g_idx, group in enumerate(groups):
        x0 = margin_left + g_idx * group_w + 2 * gap
        for s_idx, (name, values) in enumerate(series.items()):
            theta = values[g_idx]
            if theta != theta:  # NaN: leave a gap
                continue
            x = x0 + s_idx * bar_w
            h = theta * Y_SCALE
            parts.append(
                f'<rect x="{x:.3f}" y="{base_y - h:.17g}" width="{bar_w - 2}" height="{h:.17g}" '
                f'fill="{CLASS_COLORS[name]}" data-series="{escape(str(name))}" '
                f'data-group="{escape(str(group))}" data-theta="{theta:.17g}"/>'
            )
        label_x = x0 + (n_series * bar_w) / 2
        parts.append(
            f'<text x="{label_x:.3f}" y="{base_y + 12}" font-size="10" font-family="sans-serif" '
            f'text-anchor="end" transform="rotate(-45 {label_x:.3f} {base_y + 12})">'
            f"{escape(str(group))}</text>"
        )

    legend_y = height - 24
    lx = margin_left
    for name in series:
        parts.append(f'<rect x="{lx}" y="{legend_y}" width="12" height="12" '
                     f'fill="{CLASS_COLORS[name]}"/>')
        parts.append(
            f'<text x="{lx + 16}" y="{legend_y + 10}" font-size="11" font-family="sans-serif">'
            f"{escape(str(name))}</text>"
        )
        lx += 16 + 8 * len(str(name)) + 24
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
