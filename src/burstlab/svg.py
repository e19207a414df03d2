"""Minimal static SVG writer for (Ca, Na)-plane overlays.

No plotting dependency: fixed 800x600 canvas, linear axis maps, colors per
the figure legends (paths blue/purple/red by increasing parameter, SNIC
crossings green, AH crossings black).
"""
from __future__ import annotations

from dataclasses import dataclass, field

WIDTH = 800.0
HEIGHT = 600.0
MARGIN = 60.0

PATH_COLORS = ("#1f4fd8", "#8b2fc9", "#d82f2f")   # blue, purple, red
CURVE_COLOR = "#222222"
CONTOUR_COLOR = "#999999"
SNIC_MARK = "#1a9e3c"    # green circles at SNIC crossings
AH_MARK = "#000000"      # black circles at AH crossings
MARK_RADIUS = 4.0
LABEL_SIZE = 13         # font size of curve labels
X_LABEL = "Ca (uM)"
Y_LABEL = "Na (mM)"


@dataclass
class SvgCanvas:
    """Maps data coordinates to a fixed viewBox and collects elements."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    elements: list = field(default_factory=list)

    def x(self, vx: float) -> float:
        f = (vx - self.x_min) / (self.x_max - self.x_min)
        return MARGIN + f * (WIDTH - 2 * MARGIN)

    def y(self, vy: float) -> float:
        f = (vy - self.y_min) / (self.y_max - self.y_min)
        return HEIGHT - MARGIN - f * (HEIGHT - 2 * MARGIN)

    def polyline(self, xs, ys, color: str = CURVE_COLOR,
                 width: float = 1.5) -> None:
        pts = " ".join(f"{self.x(a):.2f},{self.y(b):.2f}"
                       for a, b in zip(xs, ys))
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')

    def circle(self, vx: float, vy: float, color: str) -> None:
        self.elements.append(
            f'<circle cx="{self.x(vx):.2f}" cy="{self.y(vy):.2f}" '
            f'r="{MARK_RADIUS}" fill="{color}"/>')

    def text(self, vx: float, vy: float, s: str) -> None:
        self.elements.append(
            f'<text x="{self.x(vx):.2f}" y="{self.y(vy):.2f}" '
            f'font-size="{LABEL_SIZE}" fill="#000000">{s}</text>')

    def render(self) -> str:
        frame = (f'<rect x="{MARGIN}" y="{MARGIN}" '
                 f'width="{WIDTH - 2 * MARGIN}" height="{HEIGHT - 2 * MARGIN}" '
                 f'fill="none" stroke="#000" stroke-width="1"/>')
        labels = [f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 15:.0f}" '
                  f'font-size="15" text-anchor="middle">{X_LABEL}</text>',
                  f'<text x="18" y="{HEIGHT / 2:.0f}" font-size="15" '
                  f'text-anchor="middle" transform="rotate(-90 18 '
                  f'{HEIGHT / 2:.0f})">{Y_LABEL}</text>']
        ticks = self._ticks()
        body = "\n".join([frame] + ticks + labels + self.elements)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">\n{body}\n</svg>\n')

    def _ticks(self):
        out = []
        for frac in (0.0, 0.5, 1.0):
            vx = self.x_min + frac * (self.x_max - self.x_min)
            vy = self.y_min + frac * (self.y_max - self.y_min)
            out.append(f'<text x="{self.x(vx):.1f}" y="{HEIGHT - MARGIN + 18:.1f}" '
                       f'font-size="11" text-anchor="middle">{vx:.4g}</text>')
            out.append(f'<text x="{MARGIN - 8:.1f}" y="{self.y(vy) + 4:.1f}" '
                       f'font-size="11" text-anchor="end">{vy:.4g}</text>')
        return out

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.render())
