"""Minimal deterministic SVG plots (log-scale scatter and histograms).

These are inspection aids for experiment outputs, not publication
figures: fixed palette, text-only legend, byte-identical output for
identical data.
"""

from __future__ import annotations

import math

__all__ = ["scatter_svg", "histogram_svg"]

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
    "#9467bd", "#8c564b", "#17becf", "#7f7f7f",
]

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 34.0, 46.0
#: ticks per axis, and bins of a histogram
_TICKS = 5
_BINS = 24


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` written as XML entities (``&`` first)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _finite(values):
    return [v for v in values if v is not None and math.isfinite(v)]


def _axis_ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


class _Frame:
    """Maps data coordinates onto the pixel frame, optionally log-y."""

    def __init__(self, xs, ys, ylog):
        self.ylog = ylog
        xs = _finite(xs) or [0.0, 1.0]
        ys = _finite(ys) or [0.1, 1.0]
        if ylog:
            positive = [y for y in ys if y > 0.0]
            floor = min(positive) / 10.0 if positive else 1e-300
            ys = [math.log10(max(y, floor)) for y in ys]
        self.x_lo, self.x_hi = min(xs), max(xs)
        self.y_lo, self.y_hi = min(ys), max(ys)
        if self.x_hi == self.x_lo:
            self.x_lo -= 0.5
            self.x_hi += 0.5
        if self.y_hi == self.y_lo:
            self.y_lo -= 0.5
            self.y_hi += 0.5

    def y_value(self, y: float) -> float:
        if self.ylog:
            y = math.log10(y) if y > 0.0 else self.y_lo
        return y

    def px(self, x: float) -> float:
        span = self.x_hi - self.x_lo
        return _MARGIN_L + (x - self.x_lo) / span * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(self, y: float) -> float:
        span = self.y_hi - self.y_lo
        frac = (self.y_value(y) - self.y_lo) / span
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    def y_tick_label(self, tick: float) -> str:
        return f"1e{tick:.3g}" if self.ylog else _fmt(tick)


def _document_head(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]


def _axes(parts, frame, xlabel, ylabel):
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    parts.append(
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
        'stroke="black" stroke-width="1"/>'
    )
    for tx in _axis_ticks(frame.x_lo, frame.x_hi):
        px = frame.px(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _axis_ticks(frame.y_lo, frame.y_hi):
        frac = (ty - frame.y_lo) / (frame.y_hi - frame.y_lo)
        py = y0 - frac * (y0 - y1)
        parts.append(f'<line x1="{x0 - 4}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 7}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{escape(frame.y_tick_label(ty))}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{escape(ylabel)}</text>'
    )


def _legend(parts, names):
    for i, name in enumerate(names):
        color = PALETTE[i % len(PALETTE)]
        y = _MARGIN_T + 6 + 14 * i
        parts.append(
            f'<circle cx="{_WIDTH - _MARGIN_R - 130}" cy="{y - 4}" r="3.5" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 122}" y="{y}" font-family="sans-serif" '
            f'font-size="11">{escape(name)}</text>'
        )


def scatter_svg(series: dict, *, title="", xlabel="", ylabel="", ylog=False) -> str:
    """Scatter plot of ``{name: (xs, ys)}`` series."""
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in ys]
    frame = _Frame(all_x, all_y, ylog)
    parts = _document_head(title)
    _axes(parts, frame, xlabel, ylabel)
    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        for x, y in zip(xs, ys):
            if y is None or not math.isfinite(x):
                continue
            parts.append(
                f'<circle cx="{frame.px(x):.1f}" cy="{frame.py(y):.1f}" r="2.5" '
                f'fill="{color}" fill-opacity="0.7"/>'
            )
    _legend(parts, list(series))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram_svg(series: dict, *, title="", xlabel="") -> str:
    """Grouped histogram of ``{name: values}`` over a shared range of
    ``_BINS`` bins, with counts on the y axis."""
    pooled = _finite([v for vals in series.values() for v in vals])
    if not pooled:
        pooled = [0.0, 1.0]
    lo, hi = min(pooled), max(pooled)
    if hi == lo:
        lo -= 0.5
        hi += 0.5
    edges = [lo + (hi - lo) * i / _BINS for i in range(_BINS + 1)]
    counts = {}
    for name, vals in series.items():
        hist = [0] * _BINS
        for v in _finite(vals):
            idx = min(int((v - lo) / (hi - lo) * _BINS), _BINS - 1)
            hist[idx] += 1
        counts[name] = hist
    max_count = max(max(h) for h in counts.values()) or 1
    frame = _Frame([lo, hi], [0, max_count], ylog=False)
    parts = _document_head(title)
    _axes(parts, frame, xlabel, "count")
    n_series = len(counts)
    for i, (name, hist) in enumerate(counts.items()):
        color = PALETTE[i % len(PALETTE)]
        for b, count in enumerate(hist):
            if count == 0:
                continue
            x_left = frame.px(edges[b])
            x_right = frame.px(edges[b + 1])
            slot = (x_right - x_left) / n_series
            top = frame.py(count)
            bottom = frame.py(0)
            parts.append(
                f'<rect x="{x_left + i * slot:.1f}" y="{top:.1f}" '
                f'width="{max(slot - 1, 1):.1f}" height="{bottom - top:.1f}" '
                f'fill="{color}" fill-opacity="0.75"/>'
            )
    _legend(parts, list(counts))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
