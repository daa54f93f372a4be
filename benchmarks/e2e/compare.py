"""``--compare A.json B.json``: did B move an end-to-end metric past its bound?

Both files are what ``--json`` appends to: ``{"runs": [...]}``, one entry per
invocation.  Per workload and end-to-end metric the medians over each file's
runs are compared against the bound ``BENCHMARK.json`` fixes (a share of A's
median):

``better`` / ``worse``  B's median differs from A's by more than the bound;
``same``               it does not;
``unresolved``         the runs of A or of B spread (quartile distance over
                       median) wider than the bound, so no verdict holds.

``failed_share`` has no slack: any increase is ``worse``.  Exits non-zero
when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any


def _values(path: Path, workload: str, metric: str) -> list[float]:
    runs = json.loads(path.read_text())["runs"]
    return [
        run["workloads"][workload]["end_to_end"][metric]["value"]
        for run in runs
        if "end_to_end" in run["workloads"].get(workload, {})
    ]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool) -> str:
    median_a, median_b = statistics.median(a), statistics.median(b)
    worsening = (median_b - median_a) if lower_is_better else (median_a - median_b)
    if bound == 0:
        return "worse" if worsening > 0 else "better" if worsening < 0 else "same"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    limit = bound * abs(median_a)
    return "worse" if worsening > limit else "better" if worsening < -limit else "same"


def main(path_a: Path, path_b: Path, spec: dict[str, Any]) -> int:
    metrics = spec["end_to_end"] + [
        {"name": "failed_share", "unit": "share", "better": "lower", "bound": 0}
    ]
    worse = 0
    print(f"{'workload':<17}{'metric':<16}{'A median':>12}{'B median':>12}"
          f"{'delta':>9}{'bound':>8}  verdict")  # fmt: skip
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in metrics:
            a = _values(path_a, workload, metric["name"])
            b = _values(path_b, workload, metric["name"])
            if not a or not b:
                continue
            label = verdict(a, b, metric["bound"], metric["better"] == "lower")
            worse += label == "worse"
            median_a, median_b = statistics.median(a), statistics.median(b)
            delta = (median_b - median_a) / abs(median_a) if median_a else 0.0
            print(
                f"{workload:<17}{metric['name']:<16}{median_a:>12.5g}{median_b:>12.5g}"
                f"{delta:>+9.1%}{metric['bound']:>8.1%}  {label}"
                f"  (n={len(a)}/{len(b)}, spread {spread(a):.1%}/{spread(b):.1%})"
            )
    return 1 if worse else 0
