"""Hand-emitted SVG bar charts and scatter plots.

Plots are run artifacts for quick inspection, not an interactive
surface, so the markup is generated directly with no plotting library.
"""

from __future__ import annotations

_FONT = 'font-family="sans-serif"'


def escape(text: str) -> str:
    """Escape &, < and > in character data, as xml.sax.saxutils.escape does.

    Inlined because importing xml.sax.saxutils also imports
    urllib.request, http.client and ssl.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def bar_chart(items, title: str = "", ylabel: str = "") -> str:
    """items: sequence of (label, value); returns SVG text."""
    items = list(items)
    if not items:
        raise ValueError("nothing to plot")
    ml, mr, mt, mb = 56, 16, 34, 52
    slot = max(18, 340 // max(1, len(items)))
    width = ml + mr + slot * len(items)
    height = 300
    plot_h = height - mt - mb
    vmax = max(max(v for _, v in items), 1e-9) * 1.08
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" {_FONT} font-size="13">'
        f"{escape(title)}</text>",
    ]
    for tick in _ticks(0.0, vmax):
        y = mt + plot_h * (1 - tick / vmax)
        out.append(
            f'<line x1="{ml}" y1="{y:.1f}" x2="{width - mr}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{y + 4:.1f}" text-anchor="end" {_FONT} '
            f'font-size="10">{tick:.2f}</text>'
        )
    for i, (label, value) in enumerate(items):
        x = ml + i * slot + slot * 0.15
        h = plot_h * value / vmax
        y = mt + plot_h - h
        out.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{slot * 0.7:.1f}" '
            f'height="{h:.1f}" fill="#4878a8"/>'
        )
        out.append(
            f'<text x="{ml + (i + 0.5) * slot:.1f}" y="{height - mb + 14}" '
            f'text-anchor="middle" {_FONT} font-size="10">{escape(str(label))}</text>'
        )
    out.append(
        f'<text x="14" y="{mt + plot_h / 2}" {_FONT} font-size="11" '
        f'transform="rotate(-90 14 {mt + plot_h / 2})" text-anchor="middle">'
        f"{escape(ylabel)}</text>"
    )
    out.append(
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{width - mr}" y2="{mt + plot_h}" '
        f'stroke="black" stroke-width="1"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def scatter_plot(points, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """points: sequence of (x, y, label); labels may be empty strings."""
    points = list(points)
    if not points:
        raise ValueError("nothing to plot")
    width, height = 420, 340
    ml, mr, mt, mb = 60, 18, 34, 48
    plot_w, plot_h = width - ml - mr, height - mt - mb
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    xpad = (xhi - xlo) * 0.08 or 1.0
    ypad = (yhi - ylo) * 0.08 or 1.0
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    def sx(v):
        return ml + plot_w * (v - xlo) / (xhi - xlo)

    def sy(v):
        return mt + plot_h * (1 - (v - ylo) / (yhi - ylo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" {_FONT} font-size="13">'
        f"{escape(title)}</text>",
    ]
    for tick in _ticks(xlo, xhi):
        out.append(
            f'<line x1="{sx(tick):.1f}" y1="{mt}" x2="{sx(tick):.1f}" '
            f'y2="{mt + plot_h}" stroke="#eee"/>'
        )
        out.append(
            f'<text x="{sx(tick):.1f}" y="{mt + plot_h + 14}" text-anchor="middle" '
            f'{_FONT} font-size="10">{tick:.2f}</text>'
        )
    for tick in _ticks(ylo, yhi):
        out.append(
            f'<line x1="{ml}" y1="{sy(tick):.1f}" x2="{ml + plot_w}" '
            f'y2="{sy(tick):.1f}" stroke="#eee"/>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{sy(tick) + 4:.1f}" text-anchor="end" {_FONT} '
            f'font-size="10">{tick:.2f}</text>'
        )
    for x, y, label in points:
        out.append(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3.5" fill="#b04030" '
            f'fill-opacity="0.8"/>'
        )
        if label:
            out.append(
                f'<text x="{sx(x) + 5:.1f}" y="{sy(y) - 4:.1f}" {_FONT} '
                f'font-size="9">{escape(str(label))}</text>'
            )
    out.append(
        f'<text x="{ml + plot_w / 2}" y="{height - 10}" text-anchor="middle" '
        f'{_FONT} font-size="11">{escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{mt + plot_h / 2}" {_FONT} font-size="11" '
        f'transform="rotate(-90 16 {mt + plot_h / 2})" text-anchor="middle">'
        f"{escape(ylabel)}</text>"
    )
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" fill="none" '
        f'stroke="black"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
