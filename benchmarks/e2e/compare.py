"""``compare A.json B.json``: is B no worse than A, metric by metric?

Each file holds one result record or ``{"runs": [...]}`` (what ``all``
writes).  Runs are grouped by workload; with several runs per side the
medians are compared and the quartile spread decides whether a metric is
resolved at all.  Only end-to-end metrics carry a bound, so only they get
a verdict; per-layer values are shown when both sides have them.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Optional, Tuple

Row = Tuple[str, str, float, float, float, Optional[float], str]


def load_runs(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced and traced runs of ``path``, keyed ``workload/trace``."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for run in data["runs"] if "runs" in data else [data]:
        grouped.setdefault(f"{run['workload']}/{run['trace']}", []).append(run)
    return grouped


def _pins(runs: List[Dict[str, Any]]) -> List[Tuple[Any, ...]]:
    return sorted((run["env"]["seed"], run["input_digest"], run["ops"]) for run in runs)


def spread(values: List[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (needs 4+ values)."""
    if len(values) < 4:
        return None
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else None


def verdict(
    base: List[float], new: List[float], better: str, bound: float
) -> Tuple[float, str]:
    """``(new median ÷ base median, ok | worse | unresolved)``."""
    base_mid, new_mid = statistics.median(base), statistics.median(new)
    change = new_mid / base_mid if base_mid else float("inf") if new_mid else 1.0
    worse = change > 1 + bound if better == "lower" else change < 1 - bound
    if worse:
        return change, "worse"
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if any(s > bound for s in spreads):
        return change, "unresolved"  # run-to-run noise is wider than the bound
    return change, "ok"


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> List[Row]:
    """One row per (workload, metric): ``(workload, metric, a, b, b/a, bound, verdict)``.

    Raises :class:`ValueError` when the two files did not measure the same
    inputs (seed, ``input_digest`` or op count differ) or share no workload.
    """
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rows: List[Row] = []
    for group in sorted(set(runs_a) & set(runs_b)):
        side_a, side_b = runs_a[group], runs_b[group]
        if _pins(side_a) != _pins(side_b):
            raise ValueError(
                f"{group}: seeds, input digests or op counts differ "
                f"({_pins(side_a)} vs {_pins(side_b)})"
            )
        workload = side_a[0]["workload"]
        for name in side_a[0]["metrics"]:
            base = [run["metrics"][name]["value"] for run in side_a]
            new = [run["metrics"][name]["value"] for run in side_b]
            if name in bounds:
                better, bound = bounds[name]
                change, state = verdict(base, new, better, bound)
                rows.append((workload, name, statistics.median(base),
                             statistics.median(new), change, bound, state))
            else:
                base_mid, new_mid = statistics.median(base), statistics.median(new)
                rows.append((workload, name, base_mid, new_mid,
                             new_mid / base_mid if base_mid else 0.0, None, "-"))
        failed = sum(run["failed"] for run in side_b)
        rows.append((workload, "fail_ratio",
                     sum(r["failed"] for r in side_a) / sum(r["attempted"] for r in side_a),
                     failed / sum(r["attempted"] for r in side_b),
                     1.0, 0.0, "worse" if failed else "ok"))
    if not rows:
        raise ValueError("the two files share no (workload, trace) pair")
    return rows


def render(rows: List[Row], path_a: str) -> str:
    lines = [
        f"{'workload':<15} {'metric':<44} {'A':>12} {'B':>12} {'B/A':>8} {'bound':>6}  verdict",
    ]
    for workload, metric, a, b, change, bound, state in rows:
        shown = f"{bound:.2f}" if bound is not None else "-"
        lines.append(
            f"{workload:<15} {metric:<44} {a:>12.5g} {b:>12.5g} {change:>8.3f} {shown:>6}  {state}"
        )
    lines.append(f"(B/A: base is A = {path_a})")
    return "\n".join(lines)
