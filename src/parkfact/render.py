"""ASCII and SVG pictures of labelled paths and arch diagrams.

Output is deterministic: fixed element order, fixed formatting, inline
styles only, so renders are snapshot-testable and diffable.
"""

from __future__ import annotations

from .arch import ArchDiagram
from .parking import LabelledDyckPath
from .permutations import FullCycle

_CELL = 40  # svg pixels per lattice unit


# ------------------------------------------------------------------ paths


def render_path_ascii(path: LabelledDyckPath, contacts: tuple[int, ...] | None = None) -> str:
    """Grid of n rows: step labels sit on their squares, '#' shades the
    region between path and diagonal, 'b' marks the bounce path through
    the given contacts."""
    n = path.n
    if n == 0:
        return "(empty path)\n"
    grid = [[" ." for _ in range(n)] for _ in range(n)]

    def put(x: int, y: int, text: str) -> None:
        grid[n - 1 - y][x] = f"{text:>2}"

    for j in range(1, n + 1):
        h = path.heights[j - 1]
        if path.side == "below":
            for y in range(h, j - 1):
                put(j - 1, y, "#")
        else:
            for y in range(j, h):
                put(j - 1, y, "#")

    if contacts is not None:
        for lo, hi in zip(contacts, contacts[1:]):
            for x in range(lo, hi):
                put(x, lo, "b")
            for y in range(lo, hi):
                put(min(hi, n - 1), y, "b")

    for j in range(1, n + 1):
        h = path.heights[j - 1]
        label_y = h if path.side == "below" else h - 1
        put(j - 1, label_y, str(path.labels[j - 1]))

    lines = ["".join(row) for row in grid]
    lines.append("".join(f"{x:>2}" for x in range(n)))
    return "\n".join(lines) + "\n"


def render_path_svg(path: LabelledDyckPath, contacts: tuple[int, ...] | None = None) -> str:
    n = max(path.n, 1)
    size = n * _CELL + 2 * _CELL
    ox = oy = _CELL  # margins

    def px(x: float) -> float:
        return ox + x * _CELL

    def py(y: float) -> float:
        return oy + (n - y) * _CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i in range(n + 1):
        parts.append(
            f'<line x1="{px(0)}" y1="{py(i)}" x2="{px(n)}" y2="{py(i)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{px(i)}" y1="{py(0)}" x2="{px(i)}" y2="{py(n)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(n)}" y2="{py(n)}" '
        f'stroke="#888888" stroke-width="1" stroke-dasharray="4 3"/>'
    )

    if path.n > 0:
        points = " ".join(f"{px(x)},{py(y)}" for x, y in path.lattice_points())
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="black" '
            f'stroke-width="3" stroke-linejoin="round"/>'
        )
        for j in range(1, path.n + 1):
            h = path.heights[j - 1]
            cx = px(j - 0.5)
            cy = py(h + 0.5) if path.side == "below" else py(h - 0.5)
            parts.append(
                f'<text x="{cx}" y="{cy + 5}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="16">{path.labels[j - 1]}</text>'
            )

    if contacts is not None:
        bounce_pts = [(0, 0)]
        for lo, hi in zip(contacts, contacts[1:]):
            bounce_pts.append((hi, lo))
            bounce_pts.append((hi, hi))
        points = " ".join(f"{px(x)},{py(y)}" for x, y in bounce_pts)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#cc0000" '
            f'stroke-width="2"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ------------------------------------------------------------------- arch


def render_arch_ascii(diagram: ArchDiagram, sigma: FullCycle | None = None) -> str:
    """One bracket row per arc, outermost first; the base rows give the
    positions and, when sigma is supplied, the vertex labels."""
    width = 4
    span = (diagram.n_vertices - 1) * width + 1

    def depth(arc) -> int:
        return sum(
            1
            for other in diagram.arcs
            if other[2] != arc[2] and other[0] <= arc[0] and arc[1] <= other[1]
        )

    rows = []
    for arc in sorted(diagram.arcs, key=lambda a: (depth(a), a[0], a[1], a[2])):
        left, right, label = arc
        row = [" "] * span
        for x in range(left * width + 1, right * width):
            row[x] = "-"
        row[left * width] = "/"
        row[right * width] = "\\"
        text = str(label)
        mid = (left + right) * width // 2 - len(text) // 2
        for i, ch in enumerate(text):
            row[mid + i] = ch
        rows.append("".join(row).rstrip())

    axis = []
    for v in range(diagram.n_vertices):
        axis.append(f"{v:<{width}}")
    rows.append("".join(axis).rstrip())
    if sigma is not None:
        if sigma.n != diagram.n:
            raise ValueError(f"size mismatch: [{sigma.n}] vs [{diagram.n}]")
        rows.append("".join(f"{v:<{width}}" for v in sigma.word).rstrip())
    return "\n".join(rows) + "\n"


def render_arch_svg(diagram: ArchDiagram, sigma: FullCycle | None = None) -> str:
    unit = 60
    margin = 40
    max_radius = (diagram.n_vertices - 1) * unit / 2
    width = (diagram.n_vertices - 1) * unit + 2 * margin
    height = int(max_radius + 2 * margin)
    baseline = height - margin

    def vx(position: int) -> float:
        return margin + position * unit

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{baseline}" x2="{width - margin}" y2="{baseline}" '
        f'stroke="#888888" stroke-width="1"/>',
    ]
    for left, right, label in diagram.arcs:
        x1, x2 = vx(left), vx(right)
        r = (x2 - x1) / 2
        parts.append(
            f'<path d="M {x1} {baseline} A {r} {r} 0 0 1 {x2} {baseline}" '
            f'fill="none" stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{(x1 + x2) / 2}" y="{baseline - r - 6}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{label}</text>'
        )
    for v in range(diagram.n_vertices):
        parts.append(
            f'<circle cx="{vx(v)}" cy="{baseline}" r="4" fill="black"/>'
        )
        name = sigma.word[v] if sigma is not None else v
        parts.append(
            f'<text x="{vx(v)}" y="{baseline + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
