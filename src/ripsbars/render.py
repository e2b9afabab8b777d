"""Plain-text SVG emitter for barcodes. No plotting dependencies.

The layout is fixed so outputs are golden-file testable: an 800-unit-wide
viewport with one 40-unit horizontal band per homology dimension, bars
sorted by (dimension, birth) and spread evenly inside their band.  The
x axis spans [0, 1] for normalized barcodes (the usual case) and
[0, span_end] otherwise.  Open bars are drawn dashed up to the right edge.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from . import fileio
from .persistence import Barcode

WIDTH = 800
BAND_HEIGHT = 40
MARGIN_X = 40

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def barcode_svg(bc: Barcode, config: Optional[Dict[str, Any]] = None) -> str:
    """Render one barcode as a standalone SVG document string: a line per
    bar, so a run of ``count`` equal bars takes ``count`` slots of its
    band."""
    groups = max(bc.top_dim(), 0) + 1
    height = BAND_HEIGHT * groups
    domain = 1.0 if bc.normalized else max(bc.span_end, 1e-300)
    span = WIDTH - 2 * MARGIN_X

    lines: List[str] = ['<?xml version="1.0" encoding="UTF-8"?>']
    for meta in fileio.metadata_lines(config, comment=""):
        lines.append(f"<!--{meta} -->")
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{height}" viewBox="0 0 {WIDTH} {height}">'
    )
    lines.append(f'<rect width="{WIDTH}" height="{height}" fill="white"/>')
    for dim in range(groups):
        top = dim * BAND_HEIGHT
        color = _PALETTE[dim % len(_PALETTE)]
        if dim > 0:
            lines.append(
                f'<line x1="0" y1="{top}" x2="{WIDTH}" y2="{top}" '
                f'stroke="#dddddd" stroke-width="1"/>'
            )
        lines.append(
            f'<text x="6" y="{top + 24}" font-family="monospace" '
            f'font-size="13" fill="{color}">H{dim}</text>'
        )
        runs = np.flatnonzero(bc.dim[: bc.n_bars] == dim)
        rows = runs.repeat(bc.count[runs])  # a line per bar
        slot = BAND_HEIGHT / (len(rows) + 1)
        x1, x2, ys = fileio.fmt_array(np.stack((
            MARGIN_X + span * np.minimum(bc.birth[rows], domain) / domain,
            MARGIN_X + span * np.minimum(bc.death[rows], domain) / domain,
            top + slot * np.arange(1, len(rows) + 1),
        )), ".6g").tolist()
        for a, b, y, is_open in zip(x1, x2, ys, bc.open[rows].tolist()):
            dash = ' stroke-dasharray="6,3"' if is_open else ""
            lines.append(
                f'<line x1="{a}" y1="{y}" x2="{b}" y2="{y}" '
                f'stroke="{color}" stroke-width="3"{dash}/>'
            )
    axis_y = height - 2
    lines.append(
        f'<line x1="{MARGIN_X}" y1="{axis_y}" x2="{WIDTH - MARGIN_X}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        lines.append(
            f'<text x="{MARGIN_X + span * frac:.6g}" y="{axis_y - 4}" '
            f'font-family="monospace" font-size="10" fill="black" '
            f'text-anchor="middle">{domain * frac:.6g}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
