"""Minimal static SVG line charts with percentile bands.

Hand-rolled rather than delegated to a plotting library so chart bytes are a
pure function of the aggregate rows (golden-file friendly).
"""

from __future__ import annotations

import math
import os

from .harness import CELL_KEY

PALETTE = ("#1c6bba", "#c23b22", "#2e8b57", "#8b5cb8", "#b8860b", "#444444")
WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 55
TICK_COUNT = 6      # tick intervals per axis, at most


def _pad(pad: float, *values: float) -> float:
    """pad, raised to four units in the last place of the largest value when
    it is smaller, so that widening those values by it does not round away."""
    return max(pad, *(4.0 * math.ulp(v) for v in values))


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + _pad(1.0, lo)
    span = hi - lo
    step = 10.0 ** round(math.log10(span / TICK_COUNT))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= TICK_COUNT:
            step *= mult
            break
    first = step * (lo // step)
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        if v >= lo - 1e-9 * span:
            ticks.append(round(v, 10))
        v += step
    return ticks or [lo, hi]


def _labels(ticks: list[float]) -> list[str]:
    """Tick texts with the fewest significant digits, six at least, that
    keep adjacent ticks apart; 17 digits tell any two floats apart."""
    for digits in range(6, 18):
        labels = [f"{v:.{digits}g}" for v in ticks]
        if all(a != b for a, b in zip(labels, labels[1:])):
            break
    return labels


def render_chart(aggregates: list[dict], x_key: str, y_stat: str = "sum_rate",
                 title: str = "") -> str:
    """SVG text for median lines with p10-p90 bands, one series per cell of
    the cell-key columns (harness.CELL_KEY) other than x_key that the rows
    carry. A series is coloured by its scheme, dashed by its values of the
    other columns that vary, and labelled by both."""
    if not aggregates:
        raise ValueError("render_chart: no aggregate rows")
    for col in ("scheme", x_key, f"{y_stat}_median", f"{y_stat}_p10", f"{y_stat}_p90"):
        if col not in aggregates[0]:
            raise ValueError(f"render_chart: aggregate rows lack column {col!r}")

    keys = [c for c in CELL_KEY if c != x_key and c in aggregates[0]]
    varying = [c for c in keys if c != "scheme" and len({r[c] for r in aggregates}) > 1]
    groups: dict[tuple, list[dict]] = {}
    for row in aggregates:
        groups.setdefault(tuple(row[c] for c in keys), []).append(row)
    for rows in groups.values():
        rows.sort(key=lambda r: r[x_key])
    schemes = sorted({str(r["scheme"]) for r in aggregates})
    variants = sorted({tuple(r[c] for c in varying) for r in aggregates})
    names = {key: ", ".join([str(rows[0]["scheme"])] + [f"{c}={rows[0][c]:g}" for c in varying])
             for key, rows in groups.items()}
    # the legend's margin grows to its longest label
    width = WIDTH - MARGIN_R + max(MARGIN_R, 48 + 7 * max(map(len, names.values())))

    xs = sorted({float(r[x_key]) for r in aggregates})
    ys = [float(r[f"{y_stat}_{s}"]) for r in aggregates for s in ("p10", "median", "p90")]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        pad = _pad(0.5, x_lo)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    y_lo, y_hi = min(ys), max(ys)
    pad = _pad(0.05 * (y_hi - y_lo or 1.0), y_lo, y_hi)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{HEIGHT}" '
        f'viewBox="0 0 {width} {HEIGHT}">',
        f'<rect width="{width}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="24" font-family="sans-serif" font-size="15">{title}</text>',
    ]
    x_ticks = _ticks(x_lo, x_hi)
    for tick, label in zip(x_ticks, _labels(x_ticks)):
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{MARGIN_T}" x2="{x:.1f}" '
                     f'y2="{MARGIN_T + plot_h}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    y_ticks = _ticks(y_lo, y_hi)
    for tick, label in zip(y_ticks, _labels(y_ticks)):
        y = py(tick)
        parts.append(f'<line x1="{MARGIN_L}" y1="{y:.1f}" x2="{MARGIN_L + plot_w}" '
                     f'y2="{y:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{MARGIN_L - 6}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{x_key}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{y_stat}</text>')

    dashes = ("", "6 3", "2 3", "8 3 2 3", "1 2")
    for i, (key, rows) in enumerate(sorted(groups.items())):
        color = PALETTE[schemes.index(str(rows[0]["scheme"])) % len(PALETTE)]
        dash = dashes[variants.index(tuple(rows[0][c] for c in varying)) % len(dashes)]
        stroke = f'stroke="{color}" stroke-width="2"'
        if dash:
            stroke += f' stroke-dasharray="{dash}"'
        band = [(px(r[x_key]), py(r[f"{y_stat}_p90"])) for r in rows]
        band += [(px(r[x_key]), py(r[f"{y_stat}_p10"])) for r in reversed(rows)]
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in band)
        parts.append(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        line = " ".join(f'{px(r[x_key]):.1f},{py(r[f"{y_stat}_median"]):.1f}' for r in rows)
        parts.append(f'<polyline points="{line}" fill="none" {stroke}/>')
        for r in rows:
            parts.append(f'<circle cx="{px(r[x_key]):.1f}" cy="{py(r[f"{y_stat}_median"]):.1f}" '
                         f'r="3" fill="{color}"/>')
        ly = MARGIN_T + 16 + 18 * i
        lx = MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" {stroke}/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{names[key]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_chart(aggregates: list[dict], x_key: str, path, y_stat: str = "sum_rate",
               title: str = "") -> None:
    svg = render_chart(aggregates, x_key, y_stat=y_stat, title=title)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(svg)
