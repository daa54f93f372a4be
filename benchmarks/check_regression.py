"""CI perf-regression gate: compare benchmark metrics against a baseline.

Both files are the ``--json`` payloads of the benchmark scripts
(``{"benchmark": ..., "metrics": {name: value}}``).  Every metric in the
**baseline** must be present in the current run and must not have
degraded by more than the tolerance; all gate metrics are
higher-is-better ratios (speedups, hit rates) chosen to be portable
across runner hardware.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py --json BENCH_cluster.json
    python benchmarks/check_regression.py \
        --baseline benchmarks/baselines/BENCH_cluster.json \
        --current BENCH_cluster.json --tolerance 0.30

Exit status 0 when every metric clears ``baseline * (1 - tolerance)``,
1 otherwise (the failing metrics are listed).  Baselines are committed
in ``benchmarks/baselines/``; a baseline file may pin its own
``tolerance``, and re-baselining is just re-running the benchmark with
``--json`` and copying the ``metrics`` block (see README “Benchmarks in
CI”).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.30


def load_metrics(path: Path) -> tuple[str, dict[str, float]]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise SystemExit(f"error: {path} has no 'metrics' block")
    return str(payload.get("benchmark", path.stem)), {
        str(k): float(v) for k, v in metrics.items()
    }


def check_regression(
    baseline: dict[str, float],
    current: dict[str, float],
    tolerance: float,
) -> list[str]:
    """Return the failure messages (empty when the gate passes)."""
    failures: list[str] = []
    for name, base_value in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from the current run")
            continue
        floor = base_value * (1.0 - tolerance)
        value = current[name]
        status = "ok" if value >= floor else "REGRESSION"
        print(
            f"  {name}: current={value:.3f} baseline={base_value:.3f} "
            f"floor={floor:.3f} [{status}]"
        )
        if value < floor:
            failures.append(
                f"{name}: {value:.3f} is below {floor:.3f} "
                f"(baseline {base_value:.3f} - {tolerance:.0%})"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=f"allowed fractional degradation (default: the baseline file's "
        f"'tolerance', else {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args()
    baseline_payload = json.loads(args.baseline.read_text(encoding="utf-8"))
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(baseline_payload.get("tolerance", DEFAULT_TOLERANCE))
    if not 0.0 <= tolerance < 1.0:
        raise SystemExit(f"error: tolerance must lie in [0, 1), got {tolerance}")
    name, baseline = load_metrics(args.baseline)
    _, current = load_metrics(args.current)
    print(f"{name}: gate at {tolerance:.0%} tolerance")
    failures = check_regression(baseline, current, tolerance)
    if failures:
        print(f"FAIL: {len(failures)} metric(s) regressed beyond {tolerance:.0%}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"PASS: all {len(baseline)} metric(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
