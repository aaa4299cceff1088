"""Flat-file emitters: CSV tables, JSON summaries, self-contained SVG plots.

Every file carries the config hash and master seed. CSV rows carry them as
ordinary trailing columns so the files stay plain RFC-4180 tables; floats are
written with shortest-round-trip repr so re-parsing reproduces the in-memory
values exactly. JSON files are strict JSON: non-finite floats are written as
null.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["write_csv", "read_csv", "write_json", "write_svg", "emit_outputs"]

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    provenance: dict | None = None,
) -> Path:
    """RFC-4180 CSV with a header row; provenance appended as extra columns."""
    path = Path(path)
    prov_keys = sorted(provenance) if provenance else []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(list(header) + prov_keys)
        prov_cells = [_cell(provenance[k]) for k in prov_keys] if provenance else []
        for row in rows:
            writer.writerow([_cell(v) for v in row] + prov_cells)
    return path


def read_csv(path: str | Path) -> tuple[list[str], list[list]]:
    """Parse a CSV written by :func:`write_csv` back into typed cells."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[_parse_cell(c) for c in row] for row in reader]
    return header, rows


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path: str | Path, doc: dict) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _plot_points(xs, ys, log_log: bool) -> tuple[np.ndarray, np.ndarray]:
    """Axis coordinates of one series; log axes leave out nonpositive points."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    keep = (x > 0) & (y > 0)
    return (np.log10(x[keep]), np.log10(y[keep])) if log_log else (x, y)


def write_svg(
    path: str | Path,
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    title: str,
    provenance: dict | None = None,
    log_log: bool = False,
) -> Path:
    """Minimal 640x480 line plot: one polyline per series, legend, corner ticks.

    With ``log_log`` a point with a nonpositive coordinate is left out; a
    plot with no point left keeps its frame, title and legend, and no ticks.
    """
    path = Path(path)
    width, height, margin = 640, 480, 60.0
    points = [_plot_points(xs, ys, log_log) for xs, ys in series.values()]
    tx_all = np.concatenate([x for x, _ in points])
    ty_all = np.concatenate([y for _, y in points])
    has_points = tx_all.size > 0
    x_lo, x_hi = (float(tx_all.min()), float(tx_all.max())) if has_points else (0.0, 0.0)
    y_lo, y_hi = (float(ty_all.min()), float(ty_all.max())) if has_points else (0.0, 0.0)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = margin + (x - x_lo) / x_span * (width - 2 * margin)
        py = height - margin - (y - y_lo) / y_span * (height - 2 * margin)
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<desc>{json.dumps(_jsonable(provenance or {}), sort_keys=True)}</desc>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for i, (name, (tx, tyv)) in enumerate(zip(series, points)):
        pts = " ".join(
            f"{px:.2f},{py:.2f}" for px, py in (to_px(a, b) for a, b in zip(tx, tyv))
        )
        color = _SVG_PALETTE[i % len(_SVG_PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i}" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    for corner, anchor in (((x_lo, y_lo), "start"), ((x_hi, y_lo), "end")) if has_points else ():
        px, py = to_px(*corner)
        label = f"{10 ** corner[0]:.4g}" if log_log else f"{corner[0]:.4g}"
        parts.append(
            f'<text x="{px}" y="{height - margin + 18}" text-anchor="{anchor}" '
            f'font-size="11">{label}</text>'
        )
    for yv in (y_lo, y_hi) if has_points else ():
        px, py = to_px(x_lo, yv)
        label = f"{10 ** yv:.4g}" if log_log else f"{yv:.4g}"
        parts.append(
            f'<text x="{margin - 6}" y="{py + 4}" text-anchor="end" font-size="11">'
            f"{label}</text>"
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="utf-8")
    return path


def emit_outputs(
    out_dir: str | Path,
    basename: str,
    header: Sequence[str],
    rows: Iterable[Sequence],
    summary: dict,
    provenance: dict,
    formats: Sequence[str] = ("csv", "json"),
    svg_series: dict | None = None,
    svg_title: str = "",
    svg_log_log: bool = False,
) -> list[Path]:
    """Write the selected flat-file outputs for one command run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "csv" in formats:
        written.append(write_csv(out_dir / f"{basename}.csv", header, rows, provenance))
    if "json" in formats:
        doc = {"summary": summary, "provenance": provenance}
        written.append(write_json(out_dir / f"{basename}.json", doc))
    if "svg" in formats and svg_series:
        written.append(
            write_svg(
                out_dir / f"{basename}.svg",
                svg_series,
                svg_title or basename,
                provenance,
                log_log=svg_log_log,
            )
        )
    return written
