"""Traffic-density heatmaps as standalone SVG documents.

Walk-graph nodes are drawn to scale and colored by traversal count on a
linear ramp from pale yellow (the minimum count) to red (the maximum),
with a legend showing both extremes and a label at every sublocation
center. Output is a pure function of the inputs, so identical runs give
byte-identical files.
"""

from __future__ import annotations

from .errors import InputError
from .store import StoreGraph, TrafficDensity

_SCALE = 18.0
_MARGIN = 40.0
_LOW = (255, 255, 204)
_HIGH = (255, 0, 0)


def _ramp(t: float) -> str:
    r = round(_LOW[0] + t * (_HIGH[0] - _LOW[0]))
    g = round(_LOW[1] + t * (_HIGH[1] - _LOW[1]))
    b = round(_LOW[2] + t * (_HIGH[2] - _LOW[2]))
    return f"#{r:02x}{g:02x}{b:02x}"


def _escape(text: str) -> str:
    """Text content for the SVG: store names and sublocation ids may hold
    any character, and an unescaped ``&`` or ``<`` breaks the document."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _num(v: float) -> str:
    return format(v, ".2f").rstrip("0").rstrip(".")


def render_heatmap(
    graph: StoreGraph,
    density: TrafficDensity,
    destination: str,
    title: str = "traffic density",
    annotation: str | None = None,
) -> None:
    """Write the heatmap SVG to ``destination``.

    Counts must cover every graph node. An all-zero density renders a
    uniform pale-yellow map; all-equal nonzero counts render mid-scale.
    """
    missing = [n.node_id for n in graph.nodes if n.node_id not in density.counts]
    if missing:
        raise InputError(f"density missing counts for {len(missing)} nodes, first: {missing[0]}")
    counts = {n.node_id: density.counts[n.node_id] for n in graph.nodes}
    lo = min(counts.values())
    hi = max(counts.values())

    def shade(value: int) -> float:
        if hi == lo:
            return 0.5 if hi > 0 else 0.0
        return (value - lo) / (hi - lo)

    xs = [n.x for n in graph.nodes]
    ys = [n.y for n in graph.nodes]
    x0, y0 = min(xs), min(ys)
    width = (max(xs) - x0) * _SCALE + 2 * _MARGIN + 150.0
    height = (max(ys) - y0) * _SCALE + 2 * _MARGIN + 30.0

    def px(x: float) -> float:
        return _MARGIN + (x - x0) * _SCALE

    # Flip y so larger store-y renders toward the top (plan view).
    def py(y: float) -> float:
        return height - 30.0 - _MARGIN - (y - y0) * _SCALE

    coord = {n.node_id: (px(n.x), py(n.y)) for n in graph.nodes}
    title = _escape(title)
    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(width)}" '
        f'height="{_num(height)}" viewBox="0 0 {_num(width)} {_num(height)}">'
    )
    if annotation:
        out.append(f"<!-- {annotation} -->")
    out.append(f'<title>{title}</title>')
    out.append(f'<rect width="{_num(width)}" height="{_num(height)}" fill="white"/>')
    out.append(
        f'<text x="{_num(_MARGIN)}" y="24" font-family="sans-serif" font-size="16">{title}</text>'
    )
    for edge in graph.edges:
        ax, ay = coord[edge.node_a]
        bx, by = coord[edge.node_b]
        out.append(
            f'<line x1="{_num(ax)}" y1="{_num(ay)}" x2="{_num(bx)}" y2="{_num(by)}" '
            'stroke="#bbbbbb" stroke-width="3"/>'
        )
    for node in graph.nodes:
        x, y = coord[node.node_id]
        color = _ramp(shade(counts[node.node_id]))
        out.append(
            f'<circle cx="{_num(x)}" cy="{_num(y)}" r="6" fill="{color}" '
            'stroke="#555555" stroke-width="0.75"/>'
        )

    # Sublocation labels, stacked when several share a center node.
    per_node: dict[str, list[str]] = {}
    for sub in graph.sublocations:
        per_node.setdefault(sub.center_node, []).append(sub.sublocation_id)
    for node_id in sorted(per_node):
        x, y = coord[node_id]
        for rank, label in enumerate(sorted(per_node[node_id])):
            out.append(
                f'<text x="{_num(x + 8)}" y="{_num(y - 8 - 9 * rank)}" '
                f'font-family="sans-serif" font-size="8" fill="#333333">{_escape(label)}</text>'
            )

    # Legend: discrete ramp swatches with the extreme counts labeled.
    lx = width - 130.0
    ly = _MARGIN + 10.0
    out.append(
        f'<text x="{_num(lx)}" y="{_num(ly - 8)}" font-family="sans-serif" '
        'font-size="10">traversals</text>'
    )
    steps = 10
    for s in range(steps):
        color = _ramp(s / (steps - 1))
        out.append(
            f'<rect x="{_num(lx)}" y="{_num(ly + 14 * s)}" width="22" height="14" '
            f'fill="{color}" stroke="none"/>'
        )
    out.append(
        f'<text x="{_num(lx + 28)}" y="{_num(ly + 11)}" font-family="sans-serif" '
        f'font-size="10">min = {lo}</text>'
    )
    out.append(
        f'<text x="{_num(lx + 28)}" y="{_num(ly + 14 * (steps - 1) + 11)}" '
        f'font-family="sans-serif" font-size="10">max = {hi}</text>'
    )
    out.append("</svg>")
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
