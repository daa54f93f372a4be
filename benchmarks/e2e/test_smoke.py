"""Smoke test: the whole benchmark at ``--smoke`` scale, through its one command.

Runs all five workloads and their traced runs in the real subprocess
layout, then checks what a later PR relies on: the metric and workload
names are exactly those ``BENCHMARK.json`` declares, every output check
passed, and nothing the run started — thread, socket, worker process,
work directory — is still there afterwards.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _processes_marked(mark: str) -> list[str]:
    """Command lines of live processes that inherited this run's environment."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            if mark.encode() in (entry / "environ").read_bytes():
                found.append((entry / "cmdline").read_bytes().replace(b"\0", b" ").decode())
        except OSError:
            continue  # gone, or not ours to read
    return found


def test_smoke_suite(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mark = f"bench-e2e-{uuid.uuid4().hex}"
    out = tmp_path / "run.json"
    work_before = set((ROOT / ".bench_work").glob("run-*"))
    completed = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--traced", "--json", str(out),
         "--spans", str(tmp_path / "spans.jsonl")],  # fmt: skip
        cwd=tmp_path,
        env={**os.environ, "BENCH_E2E_MARK": mark},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]

    (run,) = json.loads(out.read_text())["runs"]
    assert list(run["workloads"]) == [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]] + ["failed_share"]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name, entry in run["workloads"].items():
        assert NAME.fullmatch(name)
        assert list(entry["end_to_end"]) == end_to_end, name
        assert list(entry["per_layer"]) == per_layer, name
        assert all(NAME.fullmatch(metric) for metric in end_to_end + per_layer)
        for kind in ("timed", "traced"):
            assert entry[kind]["correct"], (name, kind, entry[kind]["problems"])
            assert entry[kind]["leaks"] == [], (name, kind)
        assert entry["end_to_end"]["failed_share"]["value"] == 0
        assert all(entry["end_to_end"][m]["value"] > 0 for m in end_to_end[:-1]), name
    # Every printed metric carries its name and unit.
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ {metric['unit']}$",
                         completed.stdout, re.M), metric["name"]  # fmt: skip

    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s["workload"] for s in spans} == set(run["workloads"])
    assert all(s["end"] >= s["start"] and s["self_s"] <= s["end"] - s["start"] + 1e-9 for s in spans)

    assert _processes_marked(mark) == []
    assert set((ROOT / ".bench_work").glob("run-*")) == work_before
