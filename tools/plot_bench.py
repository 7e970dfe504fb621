#!/usr/bin/env python3
"""Plot BENCH_*.json trajectories across PRs / commits.

Each input file is one benchmark emission (the ``XQJG_BENCH_JSON``
schema, see docs/BENCH.md). Files are grouped into *runs* by their
parent directory (override the run labels with --labels); within a run,
files are distinguished by their top-level ``"bench"`` discriminator.
For every bench kind present, the script renders one panel with the
bench's headline metrics as lines across the runs — the perf
trajectory.

Rendering backends, in order of preference:
  * matplotlib (PNG or SVG, whatever --out's extension says);
  * a self-contained SVG writer (no third-party packages) — what CI
    uses, so the docs job never needs pip.

Usage:
  python3 tools/plot_bench.py --out trajectory.svg \
      pr4/BENCH_table09.json pr4/BENCH_prepared.json \
      pr5/BENCH_table09.json pr5/BENCH_prepared.json
"""

import argparse
import json
import os
import sys

# ---------------------------------------------------------------------------
# Metric extraction: bench kind -> {series name: value} (seconds-ish,
# lower is better, except *_speedup which is higher-is-better).


def _cell_seconds(cell):
    if not isinstance(cell, dict) or cell.get("na") or cell.get("dnf"):
        return None
    return cell.get("seconds")


def extract_table09(doc):
    series = {}
    for q in doc.get("queries", []):
        qid = q.get("id", "?")
        for mode in ("joingraph_columnar", "joingraph_row"):
            value = _cell_seconds(q.get(mode))
            if value is not None:
                series[f"{qid} {mode}"] = value
    return series


def extract_prepared(doc):
    series = {}
    for q in doc.get("queries", []):
        if q.get("failed"):
            continue
        qid = q.get("id", "?")
        if q.get("cached_execute_seconds") is not None:
            series[f"{qid} cached exec"] = q["cached_execute_seconds"]
    param = doc.get("parameterized")
    if param and not param.get("failed"):
        total = param.get("param_total_seconds")
        literal = param.get("literal_total_seconds")
        if total and literal:
            series["parameterized_speedup"] = literal / total
    return series


def extract_storage(doc):
    scan = doc.get("scan", {})
    iters = scan.get("iters") or 1
    series = {}
    for lane in ("row", "columnar", "dict"):
        value = scan.get(f"{lane}_seconds")
        if value is not None:
            series[f"scan {lane}"] = value / iters
    if doc.get("build_seconds") is not None:
        series["db build"] = doc["build_seconds"]
    if doc.get("index_seconds") is not None:
        series["index build"] = doc["index_seconds"]
    for name, seconds in doc.get("index_build_seconds", {}).items():
        series[f"index build {name}"] = seconds
    return series


def extract_storage_footprint(doc):
    # Bytes and counts, not seconds: a panel of their own.
    return {
        key.replace("_", " "): doc[key]
        for key in ("index_bytes_per_node", "index_permutations",
                    "index_sorts")
        if doc.get(key) is not None
    }


def extract_scaling(doc):
    series = {}
    for point in doc.get("points", []):
        scale = point.get("scale", "?")
        for key in ("joingraph_columnar_seconds", "native_whole_seconds"):
            value = point.get(key)
            if value is not None:
                short = key.replace("_seconds", "")
                series[f"scale {scale} {short}"] = value
    return series


def extract_plan_shapes(doc):
    return {
        f"{q.get('id', '?')} ops_after": q["ops_after"]
        for q in doc.get("queries", [])
        if q.get("ops_after") is not None
    }


def extract_flat_queries(*keys):
    def extract(doc):
        series = {}
        for q in doc.get("queries", []):
            qid = q.get("id", "?")
            for key in keys:
                if q.get(key) is not None:
                    series[f"{qid} {key}"] = q[key]
        return series

    return extract


EXTRACTORS = {
    "table09": extract_table09,
    "prepared_throughput": extract_prepared,
    "storage_layout": extract_storage,
    "scaling_docsize": extract_scaling,
    "plan_shapes": extract_plan_shapes,
    "ablation_indexes": extract_flat_queries("indexed_seconds"),
    "ablation_joinorder": extract_flat_queries("costbased_seconds"),
    "ablation_rules": extract_flat_queries("full_ops"),
}

# Benches with numbers in another unit, each set plotted in its own panel.
EXTRA_PANELS = {
    "storage_layout": [("storage_layout index footprint",
                        extract_storage_footprint)],
}

# ---------------------------------------------------------------------------
# Fallback SVG renderer (no dependencies).

PALETTE = [
    "#4878cf", "#d65f5f", "#59a14f", "#b07aa1", "#e49444",
    "#76b7b2", "#9c755f", "#bab0ac", "#222222", "#edc948",
]


def _svg_escape(text):
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_svg(panels, labels, out_path):
    """panels: [(title, {series: [v0, v1, ... per run]})]."""
    width, panel_h, pad = 760, 260, 56
    legend_w = 240
    height = panel_h * max(1, len(panels))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for p, (title, series) in enumerate(panels):
        top = p * panel_h
        plot_w = width - legend_w - 2 * pad
        plot_h = panel_h - 2 * pad
        values = [v for vs in series.values() for v in vs if v is not None]
        vmax = max(values) if values else 1.0
        vmax = vmax if vmax > 0 else 1.0
        parts.append(
            f'<text x="{pad}" y="{top + 18}" font-size="14" '
            f'font-weight="bold">{_svg_escape(title)}</text>'
        )
        # Axes.
        x0, y0 = pad, top + pad
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="#999"/>'
        )
        nruns = max(2, len(labels))
        for i, label in enumerate(labels):
            x = x0 + plot_w * i / (nruns - 1)
            parts.append(
                f'<text x="{x:.1f}" y="{y0 + plot_h + 16}" '
                f'text-anchor="middle">{_svg_escape(label)}</text>'
            )
        parts.append(
            f'<text x="{x0 - 6}" y="{y0 + 10}" text-anchor="end">'
            f"{vmax:.3g}</text>"
        )
        parts.append(
            f'<text x="{x0 - 6}" y="{y0 + plot_h}" text-anchor="end">0</text>'
        )
        for s, (name, vs) in enumerate(sorted(series.items())):
            color = PALETTE[s % len(PALETTE)]
            points = []
            for i, v in enumerate(vs):
                if v is None:
                    continue
                x = x0 + plot_w * i / (nruns - 1)
                y = y0 + plot_h * (1.0 - v / vmax)
                points.append(f"{x:.1f},{y:.1f}")
            if points:
                parts.append(
                    f'<polyline points="{" ".join(points)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"/>'
                )
                for pt in points:
                    x, y = pt.split(",")
                    parts.append(
                        f'<circle cx="{x}" cy="{y}" r="2.4" fill="{color}"/>'
                    )
            ly = y0 + 12 * s
            lx = x0 + plot_w + 14
            parts.append(
                f'<line x1="{lx}" y1="{ly}" x2="{lx + 16}" y2="{ly}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx + 20}" y="{ly + 4}">{_svg_escape(name)}</text>'
            )
    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts))


def render_matplotlib(panels, labels, out_path):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(
        len(panels), 1, figsize=(9, 3.2 * len(panels)), squeeze=False
    )
    xs = range(len(labels))
    for ax, (title, series) in zip(axes[:, 0], panels):
        for name, vs in sorted(series.items()):
            ax.plot(xs, vs, marker="o", label=name, linewidth=1.4)
        ax.set_title(title)
        ax.set_xticks(list(xs))
        ax.set_xticklabels(labels)
        ax.set_ylim(bottom=0)
        ax.legend(fontsize=7, loc="center left", bbox_to_anchor=(1.01, 0.5))
        ax.grid(True, alpha=0.3)
    fig.tight_layout()
    fig.savefig(out_path, bbox_inches="tight")


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="BENCH_*.json files")
    ap.add_argument("--out", default="bench_trajectory.svg")
    ap.add_argument(
        "--labels",
        help="comma-separated run labels (default: parent directory names, "
        "in first-appearance order)",
    )
    args = ap.parse_args()

    # Group files into runs by parent directory, preserving order.
    runs = []  # [(label, {bench: doc})]
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"skipping {path}: {e}", file=sys.stderr)
            continue
        label = os.path.basename(os.path.dirname(os.path.abspath(path)))
        bench = doc.get("bench", os.path.basename(path))
        for run_label, docs in runs:
            if run_label == label and bench not in docs:
                docs[bench] = doc
                break
        else:
            runs.append((label, {bench: doc}))
    if not runs:
        print("no readable input files", file=sys.stderr)
        return 1
    labels = [label for label, _ in runs]
    if args.labels:
        custom = args.labels.split(",")
        labels = custom + labels[len(custom):]

    benches = []
    for _, docs in runs:
        for bench in docs:
            if bench not in benches:
                benches.append(bench)
    panels = []
    for bench in benches:
        extract = EXTRACTORS.get(bench)
        if not extract:
            print(f"no extractor for bench '{bench}', skipping", file=sys.stderr)
            continue
        for title, fn in [(bench, extract)] + EXTRA_PANELS.get(bench, []):
            per_run = [fn(docs[bench]) if bench in docs else {}
                       for _, docs in runs]
            names = sorted({name for series in per_run for name in series})
            series = {n: [series.get(n) for series in per_run] for n in names}
            if series:
                panels.append((title, series))
    if not panels:
        print("nothing to plot", file=sys.stderr)
        return 1

    try:
        render_matplotlib(panels, labels, args.out)
        backend = "matplotlib"
    except ImportError:
        if not args.out.endswith(".svg"):
            args.out = os.path.splitext(args.out)[0] + ".svg"
        render_svg(panels, labels, args.out)
        backend = "builtin svg"
    print(f"wrote {args.out} ({backend}; {len(panels)} panel(s), "
          f"{len(labels)} run(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
