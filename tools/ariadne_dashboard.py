#!/usr/bin/env python3
"""Render ariadne_sim observability artifacts as one HTML page.

Reads any subset of the three JSON artifacts —

    ariadne_sim --config scenarios/daily.cfg \
                --metrics m.json --timeline t.json --journeys j.json
    tools/ariadne_dashboard.py --metrics m.json --timeline t.json \
                               --journeys j.json -o dashboard.html

— and writes a single self-contained HTML file: gauge time-series as
inline SVG line charts (one per registered gauge, colored per
session), metric histograms as log2-bucket bar charts, and sampled
page journeys as swimlanes (one lane per page, one dot per lifecycle
step). No external assets, no JavaScript dependencies, stdlib only.
"""

import argparse
import html
import json
import sys

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]

STEP_COLORS = {
    "alloc": "#59a14f", "hot": "#e15759", "warm": "#f28e2b",
    "cold": "#4e79a7", "zram": "#b07aa1", "writeback": "#9c755f",
    "flash": "#76b7b2", "staged": "#edc948", "swapin": "#ff9da7",
    "resident": "#59a14f", "recreate": "#e15759", "lost": "#000000",
}

CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif;
       margin: 24px; color: #222; background: #fafafa; }
h1 { font-size: 20px; }
h2 { font-size: 16px; border-bottom: 1px solid #ddd;
     padding-bottom: 4px; margin-top: 28px; }
.chart { display: inline-block; margin: 8px; padding: 8px;
         background: #fff; border: 1px solid #e0e0e0;
         border-radius: 4px; vertical-align: top; }
.chart .title { font-size: 12px; font-weight: 600; margin: 0 0 4px; }
.meta { font-size: 12px; color: #666; }
.legend { font-size: 11px; color: #444; }
table.summary { border-collapse: collapse; font-size: 12px; }
table.summary td, table.summary th { border: 1px solid #ddd;
    padding: 3px 8px; text-align: right; }
table.summary th { background: #f0f0f0; }
table.summary td:first-child, table.summary th:first-child {
    text-align: left; }
"""


def load(path, root_key):
    """Load one artifact; exit 2 with a one-line diagnostic on
    missing/malformed input so CI failures are self-explaining."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"ariadne_dashboard: cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(f"ariadne_dashboard: {path} is not valid JSON: {e}")
    if root_key not in doc:
        sys.exit(f"ariadne_dashboard: {path} lacks the '{root_key}' "
                 "marker; is it the right artifact?")
    return doc


def fmt(v):
    if isinstance(v, float):
        return f"{v:,.2f}".rstrip("0").rstrip(".")
    return f"{v:,}"


def svg_line_chart(name, points, width=360, height=120):
    """One gauge series as an SVG polyline per session."""
    pad = 6
    ts = [p["tMs"] for p in points]
    vs = [p["v"] for p in points]
    t0, t1 = min(ts), max(ts)
    v0, v1 = min(vs), max(vs)
    tspan = (t1 - t0) or 1.0
    vspan = (v1 - v0) or 1.0

    def x(t):
        return pad + (t - t0) / tspan * (width - 2 * pad)

    def y(v):
        return height - pad - (v - v0) / vspan * (height - 2 * pad)

    sessions = {}
    for p in points:
        sessions.setdefault(p["session"], []).append(p)
    polys = []
    for i, (sess, pts) in enumerate(sorted(sessions.items())):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{x(p['tMs']):.1f},{y(p['v']):.1f}"
                          for p in pts)
        if len(pts) > 1:
            polys.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.2"/>')
        else:
            polys.append(f'<circle cx="{x(pts[0]["tMs"]):.1f}" '
                         f'cy="{y(pts[0]["v"]):.1f}" r="2" '
                         f'fill="{color}"/>')
    return (
        f'<div class="chart"><p class="title">{html.escape(name)}</p>'
        f'<svg width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="#fff"/>'
        + "".join(polys) +
        f'</svg><p class="legend">[{fmt(v0)}, {fmt(v1)}] over '
        f'[{fmt(t0)}, {fmt(t1)}] ms · {len(sessions)} session(s)</p>'
        '</div>')


def svg_histogram(name, hist, width=360, height=120):
    """Log2-bucket histogram as an SVG bar chart."""
    pad = 6
    buckets = hist.get("buckets", [])
    if not buckets:
        return ""
    peak = max(buckets) or 1
    n = len(buckets)
    bar_w = (width - 2 * pad) / n
    bars = []
    for i, count in enumerate(buckets):
        if not count:
            continue
        h = count / peak * (height - 2 * pad)
        bars.append(
            f'<rect x="{pad + i * bar_w:.1f}" '
            f'y="{height - pad - h:.1f}" width="{bar_w * 0.85:.1f}" '
            f'height="{h:.1f}" fill="#4e79a7">'
            f'<title>bucket {i} (&lt; 2^{i}): {fmt(count)}</title>'
            '</rect>')
    mean = hist.get("mean", 0)
    return (
        f'<div class="chart"><p class="title">{html.escape(name)}</p>'
        f'<svg width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="#fff"/>'
        + "".join(bars) +
        f'</svg><p class="legend">n {fmt(hist.get("count", 0))} · '
        f'mean {fmt(mean)} · log2 buckets 0..{n - 1}</p></div>')


def journey_swimlanes(pages, max_pages, width=840):
    """Sampled page journeys: one lane per page, a dot per step."""
    lane_h = 16
    pad_left = 150
    pad = 6
    shown = pages[:max_pages]
    t1 = max((s["tMs"] for p in shown for s in p["steps"]),
             default=1.0) or 1.0
    height = pad + lane_h * len(shown) + pad
    rows = []
    for i, page in enumerate(shown):
        yy = pad + i * lane_h + lane_h // 2
        label = (f's{page["session"]} u{page["uid"]} '
                 f'p{page["pfn"]}')
        rows.append(
            f'<text x="4" y="{yy + 4}" font-size="10" '
            f'fill="#444">{html.escape(label)}</text>')
        rows.append(
            f'<line x1="{pad_left}" y1="{yy}" x2="{width - pad}" '
            f'y2="{yy}" stroke="#eee"/>')
        for step in page["steps"]:
            xx = pad_left + step["tMs"] / t1 * (width - pad_left - pad)
            color = STEP_COLORS.get(step["step"], "#888")
            title = f'{step["step"]} @ {fmt(step["tMs"])} ms'
            if "detail" in step:
                title += f' ({fmt(step["detail"])})'
            rows.append(
                f'<circle cx="{xx:.1f}" cy="{yy}" r="3" '
                f'fill="{color}"><title>{html.escape(title)}</title>'
                '</circle>')
    legend = " ".join(
        f'<span style="color:{c}">●</span>&nbsp;{s}'
        for s, c in STEP_COLORS.items())
    note = ""
    if len(pages) > len(shown):
        note = (f" · showing {len(shown)} of {len(pages)} sampled "
                "pages (raise --max-pages for more)")
    return (
        f'<div class="chart"><svg width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="#fff"/>'
        + "".join(rows) +
        f'</svg><p class="legend">{legend}{note}</p></div>')


def meta_block(doc):
    meta = doc.get("meta", {})
    parts = [f"{k}: {meta[k]}" for k in
             ("scenario", "threads", "gitDescribe", "buildType")
             if meta.get(k) not in (None, "", 0)]
    return f'<p class="meta">{html.escape(" · ".join(parts))}</p>'


def main():
    ap = argparse.ArgumentParser(
        description="Render ariadne_sim --metrics/--timeline/"
                    "--journeys JSON as one self-contained HTML page.")
    ap.add_argument("--metrics", help="--metrics JSON artifact")
    ap.add_argument("--timeline", help="--timeline JSON artifact")
    ap.add_argument("--journeys", help="--journeys JSON artifact")
    ap.add_argument("--max-pages", type=int, default=40,
                    help="journey lanes to draw (default 40)")
    ap.add_argument("-o", "--output", required=True,
                    help="output HTML file ('-' = stdout)")
    args = ap.parse_args()
    if not (args.metrics or args.timeline or args.journeys):
        ap.error("give at least one of --metrics/--timeline/--journeys")

    body = ["<h1>ariadne flight recorder</h1>"]

    if args.timeline:
        doc = load(args.timeline, "ariadneTimeline")
        body.append("<h2>Gauge timelines</h2>")
        body.append(meta_block(doc))
        dropped = doc.get("droppedPoints", 0)
        body.append('<p class="meta">sampled every '
                    f'{doc.get("intervalMs")} ms of simulated time'
                    + (f" · {fmt(dropped)} points dropped to ring caps"
                       if dropped else "") + "</p>")
        series = doc.get("series", {})
        for name in sorted(series):
            if series[name]:
                body.append(svg_line_chart(name, series[name]))
        if not series:
            body.append('<p class="meta">no series recorded</p>')

    if args.metrics:
        doc = load(args.metrics, "ariadneMetrics")
        body.append("<h2>Gauges (run summary)</h2>")
        body.append(meta_block(doc))
        gauges = doc.get("gauges", {})
        if gauges:
            head = ("<tr><th>gauge</th><th>samples</th><th>mean</th>"
                    "<th>min</th><th>max</th></tr>")
            rows = "".join(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{fmt(g['count'])}</td><td>{fmt(g['mean'])}</td>"
                f"<td>{fmt(g['min'])}</td><td>{fmt(g['max'])}</td></tr>"
                for name, g in sorted(gauges.items()))
            body.append(f'<table class="summary">{head}{rows}</table>')
        else:
            body.append('<p class="meta">no gauges recorded</p>')
        body.append("<h2>Histograms</h2>")
        hists = doc.get("histograms", {})
        for name in sorted(hists):
            chart = svg_histogram(name, hists[name])
            if chart:
                body.append(chart)
        if not hists:
            body.append('<p class="meta">no histograms recorded</p>')

    if args.journeys:
        doc = load(args.journeys, "ariadneJourneys")
        body.append("<h2>Page journeys</h2>")
        body.append(meta_block(doc))
        pages = doc.get("pages", [])
        stride = doc.get("sampleEvery", 0)
        dropped = doc.get("droppedEvents", 0)
        body.append(
            f'<p class="meta">{fmt(len(pages))} sampled pages '
            f"(every {stride}th page)"
            + (f" · {fmt(dropped)} events dropped to ring caps"
               if dropped else "") + "</p>")
        if pages:
            body.append(journey_swimlanes(pages, args.max_pages))

    page = ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            "<title>ariadne flight recorder</title>"
            f"<style>{CSS}</style></head><body>"
            + "".join(body) + "</body></html>\n")
    if args.output == "-":
        sys.stdout.write(page)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(page)
        print(f"dashboard written to {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
