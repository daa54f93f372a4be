"""``benchmarks/e2e`` — the repo's real-work benchmark, one command.

Human use (every metric of every workload, by name, with its unit)::

    PYTHONPATH=src python -m benchmarks.e2e.run [--seed 7] [--workload NAME]
        [--seconds 10] [--traced] [--json OUT]
    python -m benchmarks.e2e.run --compare A.json B.json

Driver use (``BENCHMARK.json``'s ``command``; one workload, one JSON line)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The process started here only builds the document pool and spawns one fresh
subprocess per workload (so ``setup_s`` and ``peak_rss_mb`` belong to that
workload alone); ``--child`` is that subprocess.  Everything the run writes
lives under ``.bench_work/`` at the root of the checkout and is removed on
exit, except the span log of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 170
#: Fresh interpreters whose start-and-import time ``setup_s`` takes the median of.
IMPORT_REPEATS = 5
#: Seconds every core is kept busy before a workload subprocess starts.
WARM_UP_S = 2.0


def bootstrap_imports() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable from the checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"benchmarks/e2e measures the library in {ROOT / 'src'}: not there")
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def declared() -> dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _raise_exit(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def adopt_orphans() -> None:
    """Make this process the parent of every descendant its own parent leaves.

    A workload subprocess can end before something it started does — the
    ``multiprocessing`` resource tracker of the process backend always does —
    and such an orphan would otherwise move to init and outlive the benchmark.
    """
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap_descendants(grace_s: float = 10.0) -> None:
    """Wait until no process has this one as its parent; kill what outlives ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left, adopted or own
        if pid:
            continue
        if time.monotonic() > deadline:
            me = str(os.getpid())
            for entry in Path("/proc").iterdir():
                try:
                    fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
                    if fields[1] == me:
                        os.kill(int(entry.name), signal.SIGKILL)
                except (OSError, IndexError):
                    continue  # not a process, or gone
        time.sleep(0.02)


# ---------------------------------------------------------------------- #
# The workload subprocess
# ---------------------------------------------------------------------- #
def open_sockets() -> set[str]:
    found = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listing's own descriptor, already closed
        if target.startswith("socket:"):
            found.add(f"fd {fd} {target}")
    return found


def leftovers(inherited: set[str], grace_s: float = 5.0) -> list[str]:
    """Threads and sockets this process still holds after tear-down.

    Reader threads notice their closed socket a moment after ``close()``
    returns, so they get ``grace_s`` to finish before they count as leaked.
    """
    deadline = time.monotonic() + grace_s
    while True:
        threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
        found = [f"thread {name}" for name in threads] + sorted(open_sockets() - inherited)
        if not found or time.monotonic() > deadline:
            return found
        time.sleep(0.05)


def import_probe_s() -> float:
    """Spawn -> ``benchmarks.e2e.workloads`` imported, in one more fresh interpreter."""
    started = time.time()
    command = [sys.executable, str(HERE / "run.py"), "--import-probe"]
    probe = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return float(probe.stdout) - started


def child_main(spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text())
    inherited = open_sockets()
    from benchmarks.e2e import workloads

    # A 0.3 s interpreter start read 0.31-0.50 s on a busy machine, and it is
    # all of ``setup_s`` on three workloads: take the median of five.
    imports = [time.time() - spec["spawned_at"]]
    if not spec["smoke"]:
        imports += [import_probe_s() for _ in range(IMPORT_REPEATS - 1)]
    imported_s = statistics.median(imports)
    scale = workloads.Scale(
        seed=spec["seed"],
        seconds=spec["seconds"],
        smoke=spec["smoke"],
        pool=Path(spec["pool"]),
        work=Path(spec["work"]),
    )
    workload = workloads.WORKLOADS[spec["workload"]](scale)
    ledger = workloads.SeeOnceLedger()
    signal.signal(signal.SIGTERM, _raise_exit)
    try:
        setups = []
        for repeat in range(1 if scale.smoke else workload.setup_repeats):
            if repeat:
                workload.tear_down()
            started = perf_counter()
            workload.set_up()
            setups.append(perf_counter() - started)
        setup_s = imported_s + statistics.median(setups)
        if spec["traced"]:
            from benchmarks.e2e import layers

            result = layers.traced_run(workload, ledger, Path(spec["spans"]))
        else:
            result = workloads.measure(workload, ledger, setup_s)
        result["info"].update(
            import_s=imported_s, import_repeats=len(imports), setup_repeats=len(setups)
        )
    finally:
        workload.tear_down()
    if spec["traced"]:
        result["per_layer"].update(workload.extra_layers())
    result["leaks"] = leftovers(inherited)
    if result["leaks"]:
        result["correct"] = False
        result["problems"].append(f"left behind after tear-down: {result['leaks']}")
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


# ---------------------------------------------------------------------- #
# The parent: pool, subprocesses, printing
# ---------------------------------------------------------------------- #
def warm_up_machine(live: set) -> None:
    """Keep every core busy for ``WARM_UP_S``, so each workload starts alike.

    This guest starts processes ~15% faster when both vCPUs were busy just
    before (0.29 s against 0.35 s for the same interpreter start), and only
    the workloads that read the pool have a pool build right before them.
    """
    spin = f"import time\nend = time.time() + {WARM_UP_S}\nwhile time.time() < end: pass"
    spinners = [
        subprocess.Popen([sys.executable, "-c", spin]) for _ in range(os.cpu_count() or 1)
    ]
    live.update(spinners)
    for spinner in spinners:
        spinner.wait()
        live.discard(spinner)


def run_workload(
    name: str, args: argparse.Namespace, run_dir: Path, traced: bool, live: set
) -> dict:
    """Run one workload in a fresh subprocess; ``live`` tracks it for signals."""
    work = run_dir / f"{name}-{'traced' if traced else 'timed'}"
    work.mkdir()
    spec = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": traced,
        "pool": str(run_dir / "pool"),
        "work": str(work),
        "spans": str(args.spans),
        "result": str(work / "result.json"),
    }
    if not args.smoke:
        warm_up_machine(live)
    spec["spawned_at"] = time.time()
    (work / "spec.json").write_text(json.dumps(spec))
    command = [sys.executable, str(HERE / "run.py"), "--child", str(work / "spec.json")]
    # The child's own chatter must not end up after the driver's result line.
    child = subprocess.Popen(command, stdout=sys.stderr, cwd=ROOT)
    live.add(child)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        live.discard(child)
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    if code != 0:
        raise SystemExit(f"workload {name} exited with code {code}")
    return json.loads(Path(spec["result"]).read_text())


def with_units(
    values: dict[str, float], declared_metrics: list[dict], absent: float | None = None
) -> dict[str, dict]:
    """Attach declared units; an undeclared name is a harness bug.

    A layer the workload never enters did no work there: ``absent`` (0 for
    layer metrics) stands in for the names it did not report.
    """
    units = {m["name"]: m["unit"] for m in declared_metrics}
    odd = set(values) - set(units) if absent is not None else set(values) ^ set(units)
    if odd:
        raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(odd)}")
    return {
        name: {"value": values.get(name, absent), "unit": unit}
        for name, unit in units.items()
    }


def present(name: str, traced: bool, result: dict, spec: dict) -> tuple[str, dict, str]:
    """Pull one subprocess's metrics out of its result: (kind, metrics, title)."""
    info = result["info"]
    if traced:
        metrics = with_units(result.pop("per_layer"), spec["per_layer"], absent=0.0)
        return "per_layer", metrics, f"{name} (traced, {info['spans']} spans)"
    values = result.pop("end_to_end")
    failed_share = values.pop("failed_share")  # zero by design, so not in BENCHMARK.json
    metrics = with_units(values, spec["end_to_end"])
    metrics["failed_share"] = {"value": failed_share, "unit": "share"}
    title = (
        f"{name} ({info['requests']} requests, {info['documents']} documents, "
        f"p50/p90 over {info['latency_samples']} samples; timed region "
        f"{info['timed_region_s']:.1f} s, raw {info['raw_docs_per_s']:.1f} docs/s, "
        f"machine slowdown x{info['slowdown_median']:.2f})"
    )
    return "end_to_end", metrics, title


def print_block(title: str, metrics: dict[str, dict]) -> None:
    print(f"\n== {title}")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", help="run one workload (default: all five)")
    parser.add_argument(
        "--seconds",
        type=int,
        default=None,
        help="scale: 5*seconds requests per workload (default: run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end metrics, 1 = layer metrics; "
                        "the last stdout line is the result JSON")  # fmt: skip
    parser.add_argument("--traced", action="store_true", help="also make the traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="--seconds 1, a reduced training corpus, one set-up")  # fmt: skip
    parser.add_argument("--json", type=Path, help="append this run to a results file")
    parser.add_argument("--spans", type=Path, help="span log (default .bench_work/spans.jsonl)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap_imports()
    if args.child:
        return child_main(args.child)
    if args.import_probe:
        from benchmarks.e2e import workloads  # noqa: F401 - importing is the probe

        print(time.time())
        return 0
    spec = declared()
    if args.compare:
        from benchmarks.e2e import compare

        return compare.main(args.compare[0], args.compare[1], spec)

    from benchmarks.e2e import corpus, workloads

    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(workloads.WORKLOADS):
        raise SystemExit("workload names differ from BENCHMARK.json")
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; known: {names}")
        names = [args.workload]
    driver = args.trace is not None
    if driver and len(names) != 1:
        parser.error("--trace needs --workload")
    if args.seconds is None:
        args.seconds = 1 if args.smoke else spec["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    modes = [bool(args.trace)] if driver else [False] + [True] * args.traced
    args.spans = args.spans or WORK / "spans.jsonl"
    if any(modes):
        args.spans.unlink(missing_ok=True)  # one traced invocation, one span log

    live: set[subprocess.Popen] = set()

    def stop_children(signum: int, frame: Any) -> None:
        for child in list(live):
            child.terminate()  # the child stops its own workers on SIGTERM
        _raise_exit(signum, frame)

    signal.signal(signal.SIGTERM, stop_children)
    adopt_orphans()
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    run: dict[str, Any] = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    try:
        wanted = {
            index
            for name in names
            for index in workloads.WORKLOADS[name].pool_dirs(
                workloads.REQUESTS_PER_SECOND * args.seconds
            )
        }
        run["pool"] = corpus.build_pool(run_dir / "pool", args.seed, args.seconds, wanted)
        out = sys.stderr if driver else sys.stdout
        print(
            "pool: {pool_docs} documents ({pool_base_docs} base x {variants} variants), "
            "pool_build_s {pool_build_s:.2f}, fingerprint {pool_fingerprint}".format(
                variants=corpus.VARIANTS, **run["pool"]
            ),
            file=out,
            flush=True,
        )
        for name in names:
            entry: dict[str, Any] = {}
            # A smoke run checks names, outputs and clean-up, not speed: the
            # timed and the traced subprocess of a workload share the cores.
            with ThreadPoolExecutor(len(modes) if args.smoke else 1) as executor:
                results = list(
                    executor.map(
                        lambda traced: run_workload(name, args, run_dir, traced, live), modes
                    )
                )
            for traced, result in zip(modes, results):
                ok = ok and result["correct"]
                for problem in result["problems"]:
                    print(f"{name}: {problem}", file=sys.stderr)
                kind, metrics, title = present(name, traced, result, spec)
                entry[kind] = metrics
                entry["traced" if traced else "timed"] = result
                if not driver:
                    print_block(title, metrics)
            run["workloads"][name] = entry
    finally:
        reap_descendants()
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    if args.json:
        runs = json.loads(args.json.read_text())["runs"] if args.json.exists() else []
        args.json.write_text(json.dumps({"runs": runs + [run]}, indent=1))
    if driver:
        entry = run["workloads"][names[0]]
        kind = "traced" if args.trace else "timed"
        metrics = dict(entry["per_layer" if args.trace else "end_to_end"])
        metrics.pop("failed_share", None)  # carried by attempted/failed below
        print(
            json.dumps(
                {
                    "correct": entry[kind]["correct"],
                    "attempted": entry[kind]["attempted"],
                    "failed": entry[kind]["failed"],
                    "metrics": metrics,
                }
            )
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
