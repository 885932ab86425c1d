"""Summary metrics and a run's files: records.csv, summary.csv, two SVG charts."""
from __future__ import annotations

import csv
import io
import os
from collections import Counter

from .ecology import ActivityClass, YearRecord
from .errors import SimulationError

SUMMARY_FIELDS = ("min_budget_final", "max_budget_final", "pct_both",
                  "pct_irrig_only", "pct_fish_only", "pct_none")
GRID_FIELDS = ("pipeline", "tau", "behaviour", "seed")
SWEEP_COLUMNS = GRID_FIELDS + SUMMARY_FIELDS + ("fallback_events", "error")


def summarize(artifacts) -> dict:
    """Final-year budget extremes and whole-run activity percentages."""
    records = artifacts.records
    final_year = max(r.year for r in records)
    finals = [r.budget for r in records if r.year == final_year]
    total = len(records)
    counts = Counter(r.activity for r in records)
    return {
        "min_budget_final": min(finals),
        "max_budget_final": max(finals),
        "pct_both": 100.0 * counts[ActivityClass.BOTH] / total,
        "pct_irrig_only": 100.0 * counts[ActivityClass.FARMING_ONLY] / total,
        "pct_fish_only": 100.0 * counts[ActivityClass.FISHING_ONLY] / total,
        "pct_none": 100.0 * counts[ActivityClass.NONE] / total,
    }


def summary_row(cell: dict, artifacts=None, error: str = "") -> dict:
    """A SWEEP_COLUMNS row: the cell's GRID_FIELDS values, then the run's
    summary and fallback count, or blank ones and the error of a failed cell."""
    row = dict(cell, error=error, fallback_events="", **dict.fromkeys(SUMMARY_FIELDS, ""))
    if artifacts is not None:
        row.update(summarize(artifacts), fallback_events=artifacts.fallback_events)
    return row


def write_rows(fh, rows, columns):
    """CSV header plus one line per row mapping; missing cells are blank. csv
    writes each float, a numpy float included, as float.__repr__, None as a
    blank cell and any other value as its str."""
    writer = csv.writer(fh)
    writer.writerow(columns)
    writer.writerows([row.get(col, "") for col in columns] for row in rows)


def _write_new(path, text):
    """Write text to path as a new file. An existing file there is removed
    first rather than truncated, so it keeps its bytes under any other name
    and closing the new file starts no writeback of the old one."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _write_files(out_dir, files) -> dict:
    """Make out_dir and write each (key, filename, text) of files in it with
    `_write_new`. Returns a key -> path map; an OSError is a SimulationError."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = {}
        for key, filename, text in files:
            paths[key] = os.path.join(out_dir, filename)
            _write_new(paths[key], text)
        return paths
    except OSError as err:
        raise SimulationError(f"cannot write outputs under {out_dir}: {err}") from err


def _summary_text(rows) -> str:
    buf = io.StringIO()
    write_rows(buf, rows, SWEEP_COLUMNS)
    return buf.getvalue()


def write_summary_csv(rows, path):
    """Write the SWEEP_COLUMNS rows to path as a new file, making its
    directory; an OSError is a SimulationError, as in `emit_outputs`."""
    out_dir, name = os.path.split(os.fspath(path))
    _write_files(out_dir or os.curdir, (("summary", name, _summary_text(rows)),))


# -- minimal hand-rolled SVG charts (CSV is canonical; SVG is derived) ------

_SVG_W, _SVG_H, _SVG_PAD = 720, 360, 45

_ACTIVITY_COLORS = {
    ActivityClass.FARMING_ONLY: "#3b6fb5",
    ActivityClass.FISHING_ONLY: "#c23b3b",
    ActivityClass.BOTH: "#7b4fb5",
    ActivityClass.NONE: "#9a9a9a",
}


def _svg_header(title):
    return [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_SVG_W}" height="{_SVG_H}">',
            f'<title>{title}</title>',
            f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>']


def budgets_svg(records) -> str:
    by_household = {}
    for r in records:
        by_household.setdefault(r.household, []).append((r.year, r.budget))
    years = sorted({r.year for r in records})
    budgets = [r.budget for r in records]
    lo, hi = min(budgets + [0.0]), max(budgets + [0.0])
    span = (hi - lo) or 1.0
    x0, x1 = _SVG_PAD, _SVG_W - _SVG_PAD
    y0, y1 = _SVG_H - _SVG_PAD, _SVG_PAD
    xmax = max(years) or 1

    def sx(year):
        return x0 + (x1 - x0) * (year - years[0]) / max(xmax - years[0], 1)

    dy = y0 - y1

    def sy(v):
        return y0 - dy * (v - lo) / span

    parts = _svg_header("household budgets over time")
    zero_y = sy(0.0)
    parts.append(f'<line x1="{x0}" y1="{zero_y:.1f}" x2="{x1}" y2="{zero_y:.1f}" '
                 'stroke="#cccccc" stroke-dasharray="4 3"/>')
    xs = {year: f"{sx(year):.1f}" for year in years}  # each year's x, formatted once
    n = len(by_household)
    for idx, (household, points) in enumerate(sorted(by_household.items())):
        hue = int(210 * idx / max(n - 1, 1))
        points.sort()
        # Each point's y is sy(b) written out: a call per point costs more.
        pts = " ".join(f"{xs[y]},{y0 - dy * (b - lo) / span:.1f}" for y, b in points)
        parts.append(f'<polyline fill="none" stroke="hsl({hue},70%,45%)" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{x1 + 4}" y="{sy(points[-1][1]):.1f}" '
                     f'font-size="9">{household}</text>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    parts.append(f'<text x="{x0}" y="{_SVG_H - 8}" font-size="10">year</text>')
    parts.append(f'<text x="4" y="{y1}" font-size="10">budget</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def activity_svg(records) -> str:
    by_year = {}
    for r in records:
        by_year.setdefault(r.year, []).append(r.activity)
    years = sorted(by_year)
    x0, x1 = _SVG_PAD, _SVG_W - _SVG_PAD
    y0, y1 = _SVG_H - _SVG_PAD, _SVG_PAD
    bar_w = (x1 - x0) / len(years)
    parts = _svg_header("activity shares per year")
    order = (ActivityClass.BOTH, ActivityClass.FARMING_ONLY,
             ActivityClass.FISHING_ONLY, ActivityClass.NONE)
    for i, year in enumerate(years):
        classes = by_year[year]
        total = len(classes)
        x = x0 + i * bar_w
        y = y0
        for cls in order:
            share = classes.count(cls) / total
            if share <= 0:
                continue
            h = (y0 - y1) * share
            y -= h
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                         f'height="{h:.2f}" fill="{_ACTIVITY_COLORS[cls]}"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<text x="{x0}" y="{_SVG_H - 8}" font-size="10">year</text>')
    legend_x = x0
    for cls in order:
        parts.append(f'<rect x="{legend_x}" y="{y1 - 24}" width="10" height="10" '
                     f'fill="{_ACTIVITY_COLORS[cls]}"/>')
        parts.append(f'<text x="{legend_x + 14}" y="{y1 - 15}" font-size="9">'
                     f'{cls.value}</text>')
        legend_x += 120
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# What csv writes for a value of exactly each of these types: an int as str,
# which is its repr (a bool is not an int here: csv writes True), a float as
# float.__repr__, and the str-enum activity as its value. None of these texts
# holds a comma, a quote or a line break, so csv would not quote them. The
# builtin repr reaches the same int and float methods with less call overhead.
_COLUMN_TEXT = {int: repr, float: repr, ActivityClass: str.__str__}
_RECORDS_HEADER = ",".join(YearRecord._fields) + "\r\n"
_CHUNK_ROWS = 256


def _columns_text(records):
    """records.csv rendered a column at a time, chunks of `_CHUNK_ROWS` rows
    each, or None when some column of a chunk is not all of one exact type
    of `_COLUMN_TEXT`. The text equals `csv.writer`'s for the same rows."""
    parts = [_RECORDS_HEADER]
    for start in range(0, len(records), _CHUNK_ROWS):
        columns = []
        for column in zip(*records[start:start + _CHUNK_ROWS]):
            kinds = set(map(type, column))
            text = _COLUMN_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
            if text is None:
                return None
            columns.append(map(text, column))
        parts.append("\r\n".join(map(",".join, zip(*columns))))
        parts.append("\r\n")
    return "".join(parts)


def _records_text(records) -> str:
    text = _columns_text(records)
    if text is not None:
        return text
    # Any other type (a numpy scalar, None, a plain str that may need quoting):
    # csv writes the whole table, so one rule decides every quoted byte.
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(YearRecord._fields)
    writer.writerows(records)
    return buf.getvalue()


def emit_outputs(artifacts, out_dir: str) -> dict:
    """Write records.csv, summary.csv and the two derived SVG charts, each as
    a new file (see `_write_new`).

    Returns a name -> path map. Re-emission of identical artifacts produces
    identical bytes.
    """
    records = artifacts.records
    cell = {name: getattr(artifacts.config, name) for name in GRID_FIELDS}
    return _write_files(out_dir, (
        ("records", "records.csv", _records_text(records)),
        ("summary", "summary.csv", _summary_text([summary_row(cell, artifacts)])),
        ("budgets", "budgets.svg", budgets_svg(records)),
        ("activity", "activity.svg", activity_svg(records))))
