#!/usr/bin/env python
"""Render the perf trajectory (``BENCH_history.jsonl``) as ASCII figures.

``scripts/bench_perf.py`` appends one summary line per run to the
history log; this script turns that log into a human-readable trend
table plus bar charts for the two headline ratios (calibration-
normalized execution rate and sampling wall overhead), appended to
``bench_figures.txt`` alongside the paper figures.

Usage::

    python scripts/plot_bench_history.py                # append to bench_figures.txt
    python scripts/plot_bench_history.py --stdout       # print only
    python scripts/plot_bench_history.py --history H --out F
    python scripts/plot_bench_history.py --check-trend  # alert mode

``--check-trend`` is the creeping-regression alert for CI: it exits
non-zero (and prints a GitHub ``::warning::`` annotation) when the last
``--window`` history entries show a strictly monotonic climb in
``sampling_wall_overhead`` — each run a little worse than the previous
one, the shape a per-PR regression gate with a fixed tolerance never
catches.  Rendering mode has no dependencies and never fails the
build: a missing or partially corrupt history renders whatever lines
are usable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BAR_WIDTH = 40


def load_history(path: str) -> list:
    entries = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict):
                    entries.append(entry)
    except OSError:
        pass
    return entries


def _fmt(value, spec: str) -> str:
    if value is None:
        return "-"
    try:
        return format(value, spec)
    except (TypeError, ValueError):
        return "-"


def _sha7(entry: dict) -> str:
    sha = entry.get("git_sha")
    return sha[:7] if isinstance(sha, str) and sha else "-" * 7


def render_table(entries: list) -> str:
    columns = [
        ("date", lambda e: str(e.get("timestamp", "-"))[:10]),
        ("sha", _sha7),
        ("schema", lambda e: _fmt(e.get("schema"), "d")),
        ("quick", lambda e: "y" if e.get("quick") else "n"),
        ("vcyc/s", lambda e: _fmt(e.get("vcycles_per_sec"), ",.0f")),
        ("norm", lambda e: _fmt(e.get("normalized_interp_rate"), ".3f")),
        ("blockjit", lambda e: _fmt(e.get("blockjit_speedup"), ".2f")),
        ("sampling", lambda e: _fmt(e.get("sampling_wall_overhead"), ".2f")),
        ("foldcov", lambda e: _fmt(e.get("fold_coverage"), ".3f")),
        ("memo", lambda e: _fmt(e.get("memo_speedup"), ".1f")),
        ("par", lambda e: _fmt(e.get("parallel_speedup"), ".2f")),
    ]
    rows = [[render(entry) for _, render in columns] for entry in entries]
    widths = [
        max(len(name), *(len(row[i]) for row in rows))
        for i, (name, _) in enumerate(columns)
    ]
    header = " | ".join(
        name.ljust(widths[i]) for i, (name, _) in enumerate(columns)
    )
    rule = "-+-".join("-" * width for width in widths)
    body = [
        " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    ]
    return "\n".join([header, rule] + body)


def render_bars(entries: list, key: str, title: str, spec: str) -> str:
    points = [
        (entry, entry.get(key))
        for entry in entries
        if isinstance(entry.get(key), (int, float))
    ]
    if not points:
        return f"{title}: no data"
    peak = max(value for _, value in points)
    lines = [f"{title} (each bar scaled to the max, {_fmt(peak, spec)}):"]
    for entry, value in points:
        bar = "#" * max(1, round(BAR_WIDTH * value / peak)) if peak else ""
        lines.append(f"  {_sha7(entry)} {_fmt(value, spec).rjust(8)} {bar}")
    return "\n".join(lines)


def render(entries: list) -> str:
    title = "Performance trajectory (BENCH_history.jsonl)"
    parts = ["=" * len(title), title, "=" * len(title), ""]
    if not entries:
        parts.append("(history log empty or unreadable)")
        return "\n".join(parts)
    parts.append(render_table(entries))
    parts.append("")
    parts.append(
        render_bars(
            entries,
            "normalized_interp_rate",
            "normalized execution rate (higher is better)",
            ".3f",
        )
    )
    parts.append("")
    parts.append(
        render_bars(
            entries,
            "sampling_wall_overhead",
            "sampling wall overhead (lower is better)",
            ".2f",
        )
    )
    return "\n".join(parts)


DEFAULT_TREND_WINDOW = 4


def _check_series(entries: list, key: str, window: int) -> int:
    """Alert when ``key`` climbs strictly monotonically.

    Needs at least three usable points to call a trend (two points is
    a delta, not a slope).  Returns 0 quiet, 1 alert.
    """
    usable = [
        (entry, entry[key])
        for entry in entries
        if isinstance(entry.get(key), (int, float))
    ]
    recent = usable[-window:]
    if len(recent) < 3:
        print(
            f"plot_bench_history: {key} trend check skipped — only "
            f"{len(recent)} usable entries (needs >= 3)"
        )
        return 0
    values = [value for _, value in recent]
    regressing = all(b > a for a, b in zip(values, values[1:]))
    trail = " -> ".join(f"{value:.3f}" for value in values)
    if not regressing:
        print(
            f"plot_bench_history: {key} trend OK over the "
            f"last {len(recent)} runs ({trail})"
        )
        return 0
    shas = ", ".join(_sha7(entry) for entry, _ in recent)
    message = (
        f"{key} climbed monotonically over the last "
        f"{len(recent)} bench runs ({trail}; commits {shas}) — each step "
        "may pass the per-PR gate, but the trend is a creeping regression"
    )
    # GitHub Actions annotation; harmless noise anywhere else.
    print(f"::warning file=BENCH_history.jsonl::{message}")
    print(f"plot_bench_history: TREND ALERT — {message}")
    return 1


def check_trend(entries: list, window: int = DEFAULT_TREND_WINDOW) -> int:
    """Alert on creeping regressions across recent bench runs.

    The monitored series is ``sampling_wall_overhead`` climbing: every
    recent PR made sampling a little slower.
    """
    return _check_series(entries, "sampling_wall_overhead", window)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history",
        default=os.path.join(_ROOT, "BENCH_history.jsonl"),
        help="history log to render (default: BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(_ROOT, "bench_figures.txt"),
        help="figures file to append to (default: bench_figures.txt)",
    )
    parser.add_argument(
        "--stdout",
        action="store_true",
        help="print only; do not touch the figures file",
    )
    parser.add_argument(
        "--check-trend",
        action="store_true",
        help="exit nonzero when recent sampling overheads climb "
        "monotonically (no rendering)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_TREND_WINDOW,
        help="entries the trend check looks back over "
        f"(default: {DEFAULT_TREND_WINDOW})",
    )
    args = parser.parse_args(argv)

    if args.check_trend:
        return check_trend(load_history(args.history), max(args.window, 1))

    text = render(load_history(args.history))
    print(text)
    sys.stdout.flush()
    if not args.stdout:
        with open(args.out, "a") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"plot_bench_history: appended to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
