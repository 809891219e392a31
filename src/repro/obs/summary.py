"""Trace summarization + structural validation (backs ``python -m repro.obs``).

Works on the normalized event schema from :func:`repro.obs.trace.load_trace`
so JSONL and Chrome exports summarize identically.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["summarize", "validate", "format_summary", "top_spans", "format_top"]

#: slack (seconds) tolerated when checking child-inside-parent intervals —
#: clock reads on the two span edges are not simultaneous
CONTAINMENT_EPS = 1e-6


def validate(events: Iterable[dict]) -> list[str]:
    """Structural checks; returns a list of problem strings (empty = ok).

    * every ``parent`` id refers to a span present in the trace;
    * span durations are non-negative;
    * a child span emitted by the same process as its parent lies inside
      the parent's ``[ts, ts+dur]`` interval (small epsilon; cross-pid
      children are exempt — their clocks have different epochs).
    """
    events = list(events)
    spans = {ev["id"]: ev for ev in events if ev.get("ph") == "X" and ev.get("id")}
    problems: list[str] = []
    for ev in events:
        name = ev.get("name", "?")
        if ev.get("ph") == "X" and (ev.get("dur") or 0.0) < 0:
            problems.append(f"span {name!r} ({ev.get('id')}): negative duration {ev['dur']}")
        parent_id = ev.get("parent")
        if not parent_id:
            continue
        parent = spans.get(parent_id)
        if parent is None:
            problems.append(f"event {name!r}: parent {parent_id!r} not in trace")
            continue
        if ev.get("pid") != parent.get("pid"):
            continue  # child ran in another process: epochs differ
        t0 = ev.get("ts", 0.0)
        t1 = t0 + (ev.get("dur") or 0.0)
        p0 = parent.get("ts", 0.0)
        p1 = p0 + (parent.get("dur") or 0.0)
        if t0 < p0 - CONTAINMENT_EPS or t1 > p1 + CONTAINMENT_EPS:
            problems.append(
                f"event {name!r}: interval [{t0:.6f}, {t1:.6f}] escapes parent "
                f"{parent.get('name', '?')!r} [{p0:.6f}, {p1:.6f}]"
            )
    return problems


def summarize(events: Iterable[dict]) -> dict:
    """Aggregate a trace: totals, per-category and per-name statistics."""
    events = list(events)
    by_cat: dict[str, dict] = {}
    by_name: dict[str, dict] = {}
    n_spans = n_instants = 0
    pids, tids = set(), set()
    t_lo, t_hi = float("inf"), float("-inf")

    for ev in events:
        ph = ev.get("ph")
        dur = ev.get("dur") or 0.0
        ts = ev.get("ts", 0.0)
        t_lo = min(t_lo, ts)
        t_hi = max(t_hi, ts + dur)
        pids.add(ev.get("pid"))
        tids.add((ev.get("pid"), ev.get("tid")))
        if ph == "X":
            n_spans += 1
        else:
            n_instants += 1
        for table, key in ((by_cat, ev.get("cat", "app")), (by_name, ev.get("name", "?"))):
            row = table.get(key)
            if row is None:
                row = table[key] = {
                    "events": 0, "spans": 0, "instants": 0,
                    "total_dur": 0.0, "max_dur": 0.0,
                }
            row["events"] += 1
            if ph == "X":
                row["spans"] += 1
                row["total_dur"] += dur
                row["max_dur"] = max(row["max_dur"], dur)
            else:
                row["instants"] += 1

    for table in (by_cat, by_name):
        for row in table.values():
            row["avg_dur"] = row["total_dur"] / row["spans"] if row["spans"] else 0.0

    return {
        "events": len(events),
        "spans": n_spans,
        "instants": n_instants,
        "processes": len(pids),
        "threads": len(tids),
        "wall_span_s": (t_hi - t_lo) if events else 0.0,
        "categories": {k: by_cat[k] for k in sorted(by_cat)},
        "names": {k: by_name[k] for k in sorted(by_name)},
    }


def _percentile(sorted_vals: list, q: float) -> float:
    """Linear-interpolated percentile on a pre-sorted list (numpy-free so
    a dump is readable even where the sim stack is not installed)."""
    if not sorted_vals:
        return 0.0
    if len(sorted_vals) == 1:
        return float(sorted_vals[0])
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return float(sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac)


def top_spans(events: Iterable[dict], n: int = 10) -> dict:
    """The ``n`` slowest span names per category.

    Returns ``{category: [{name, count, total_dur, p95_dur, max_dur},
    ...]}`` with rows ordered by total duration descending — the
    "where did the time go" view (``python -m repro.obs summary --top N``).
    """
    by_cat: dict[str, dict[str, list]] = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        cat = ev.get("cat", "app")
        name = ev.get("name", "?")
        by_cat.setdefault(cat, {}).setdefault(name, []).append(ev.get("dur") or 0.0)
    out: dict[str, list] = {}
    for cat, names in sorted(by_cat.items()):
        rows = []
        for name, durs in names.items():
            durs.sort()
            rows.append({
                "name": name,
                "count": len(durs),
                "total_dur": sum(durs),
                "p95_dur": _percentile(durs, 95),
                "max_dur": durs[-1],
            })
        rows.sort(key=lambda r: (-r["total_dur"], r["name"]))
        out[cat] = rows[: max(1, int(n))]
    return out


def format_top(top: dict) -> str:
    """Human-readable rendering of :func:`top_spans`."""
    lines: list[str] = []
    for cat, rows in top.items():
        lines.append(f"slowest spans — {cat}")
        lines.append(
            f"  {'name':<28} {'count':>7} {'total':>10} {'p95':>10} {'max':>10}"
        )
        for row in rows:
            lines.append(
                f"  {row['name']:<28} {row['count']:>7} "
                f"{_fmt_dur(row['total_dur'])} {_fmt_dur(row['p95_dur'])} "
                f"{_fmt_dur(row['max_dur'])}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def _fmt_dur(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f}ms"
    return f"{seconds * 1e6:8.1f}µs"


def format_summary(summary: dict, problems: Optional[list[str]] = None) -> str:
    """Human-readable rendering of :func:`summarize` (+ validation)."""
    lines = [
        f"events {summary['events']}  (spans {summary['spans']}, "
        f"instants {summary['instants']})  "
        f"procs {summary['processes']}  threads {summary['threads']}  "
        f"wall {summary['wall_span_s'] * 1e3:.2f} ms",
        "",
        f"{'category':<12} {'events':>7} {'spans':>7} {'total':>10} {'avg':>10} {'max':>10}",
    ]
    for cat, row in summary["categories"].items():
        lines.append(
            f"{cat:<12} {row['events']:>7} {row['spans']:>7} "
            f"{_fmt_dur(row['total_dur'])} {_fmt_dur(row['avg_dur'])} {_fmt_dur(row['max_dur'])}"
        )
    lines.append("")
    lines.append(
        f"{'event name':<28} {'events':>7} {'total':>10} {'avg':>10} {'max':>10}"
    )
    for name, row in summary["names"].items():
        lines.append(
            f"{name:<28} {row['events']:>7} "
            f"{_fmt_dur(row['total_dur'])} {_fmt_dur(row['avg_dur'])} {_fmt_dur(row['max_dur'])}"
        )
    if problems is not None:
        lines.append("")
        if problems:
            lines.append(f"VALIDATION: {len(problems)} problem(s)")
            lines.extend(f"  - {p}" for p in problems)
        else:
            lines.append("validation: ok")
    return "\n".join(lines)
