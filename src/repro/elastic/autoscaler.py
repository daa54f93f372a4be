"""The autoscaler: a policy loop that grows and shrinks a live cluster.

The coordinator already publishes the two signals that matter — queued
shard backlog and per-batch latency — through its counters and
``ExecutionStats.extra``; the :class:`Autoscaler` samples them on a
period, feeds each snapshot through the pure
:class:`~repro.elastic.policy.AutoscalerPolicy` (sustain windows,
min/max bounds, cooldowns), and acts on the decision through a
*launcher*:

* :class:`SubprocessLauncher` spawns real ``adaparse-repro worker``
  processes (:func:`spawn_local_worker`, which ``cluster`` uses too) and
  registers them on the running coordinator via
  :meth:`~repro.cluster.coordinator.ClusterCoordinator.add_worker`; a
  drain goes through the coordinator's graceful ``remove_worker`` path
  before the process is terminated.
* Tests substitute any object with ``spawn()``/``drain()``/``close()``
  — the loop never touches processes directly.

Determinism: the clock is injected (``clock=`` callable) and one
decision step is a public method (:meth:`Autoscaler.tick`), so tests
drive the whole policy with a fake clock and no thread.  The background
thread exists only for production use (:meth:`start`/:meth:`stop`).

The autoscaler only ever drains workers *it* launched (most recent
first) — fixed-list and ``--join`` workers are somebody else's capacity.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.elastic.policy import AutoscalerPolicy, ScalingSignals
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger, log_event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.coordinator import ClusterCoordinator

#: Thread-name prefix of the autoscaler loop thread.
AUTOSCALER_THREAD_PREFIX = "repro-elastic-autoscaler"

_LOG = get_logger("elastic.autoscaler")

_SCALE_EVENTS = _metrics.counter(
    "repro_elastic_scale_events_total",
    "Autoscaler scale actions taken (direction=up/down).",
    ("direction",),
)


def signals_from_coordinator(coordinator: "ClusterCoordinator") -> ScalingSignals:
    """Sample one :class:`ScalingSignals` snapshot from a live coordinator."""
    queue_depth = 0
    in_flight = 0
    alive = 0
    for worker in coordinator.workers():
        if not worker.get("alive") or worker.get("draining"):
            continue
        alive += 1
        queue_depth += int(worker.get("queued", 0))
        in_flight += int(worker.get("in_flight", 0))
    return ScalingSignals(
        queue_depth=queue_depth,
        in_flight=in_flight,
        workers_alive=alive,
        batch_latency_seconds=float(coordinator.last_batch_seconds),
    )


def spawn_local_worker(
    name: str,
    *,
    backend: str = "serial",
    jobs: int = 1,
    cache_dir: "str | Path | None" = None,
    profile: bool = False,
) -> subprocess.Popen:
    """Start one ``adaparse-repro worker --port 0`` process from this checkout.

    The one local spawn path (the ``cluster`` command and
    :class:`SubprocessLauncher` both use it): ``PYTHONPATH`` carries this
    checkout, and stdout is a pipe whose first line is the JSON ready
    line :func:`ready_address` reads.  Returning before that line lets a
    caller start several workers and then collect their addresses.
    """
    import repro

    command = [
        sys.executable, "-m", "repro.cli", "worker",
        "--port", "0", "--name", name, "--backend", backend,
    ]
    if jobs > 1:
        command += ["--backend-opt", f"n_jobs={jobs}"]
    if cache_dir:
        command += ["--cache-dir", str(cache_dir)]
    if profile:
        command += ["--profile"]
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)


def ready_address(proc: subprocess.Popen) -> str:
    """The bound ``host:port`` from a spawned worker's ready line."""
    assert proc.stdout is not None
    line = proc.stdout.readline()
    try:
        return str(json.loads(line)["address"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(
            f"did not report a listening address (got {line!r}): {exc}"
        ) from exc


def reap_local_workers(procs: "Iterable[subprocess.Popen]") -> None:
    """Stop spawned workers: SIGTERM all, wait 15 s each, kill stragglers."""
    procs = [proc for proc in procs if proc.poll() is None]
    for proc in procs:
        proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5)


class SubprocessLauncher:
    """Spawn/drain local ``adaparse-repro worker`` processes for a coordinator.

    Each worker started with :func:`spawn_local_worker` is registered on
    the coordinator (source ``"autoscaler"``) before :meth:`spawn` returns.
    """

    def __init__(
        self,
        coordinator: "ClusterCoordinator",
        *,
        worker_backend: str = "serial",
        worker_jobs: int = 1,
        cache_dir: "str | None" = None,
        name_prefix: str = "autoscale-worker",
    ) -> None:
        self.coordinator = coordinator
        self.worker_backend = worker_backend
        self.worker_jobs = worker_jobs
        self.cache_dir = cache_dir
        self.name_prefix = name_prefix
        self._procs: dict[str, subprocess.Popen] = {}
        self._spawned = 0
        self._lock = threading.Lock()

    def spawn(self) -> str:
        with self._lock:
            name = f"{self.name_prefix}-{self._spawned}"
            self._spawned += 1
        # One shared cache directory on purpose: the disk store is
        # merge-on-flush additive, so concurrent workers are safe.
        proc = spawn_local_worker(
            name,
            backend=self.worker_backend,
            jobs=self.worker_jobs,
            cache_dir=self.cache_dir,
        )
        try:
            worker_id = self.coordinator.add_worker(
                ready_address(proc), source="autoscaler"
            )
        except Exception:
            reap_local_workers([proc])
            raise
        with self._lock:
            self._procs[worker_id] = proc
        return worker_id

    def drain(self, worker_id: str) -> None:
        from repro.cluster.coordinator import ClusterError

        try:
            self.coordinator.remove_worker(worker_id)
        except ClusterError:
            pass  # already dead/unknown; reap the process regardless
        with self._lock:
            proc = self._procs.pop(worker_id, None)
        if proc is not None:
            reap_local_workers([proc])

    def close(self) -> None:
        with self._lock:
            procs = list(self._procs.values())
            self._procs.clear()
        reap_local_workers(procs)


class Autoscaler:
    """Run an :class:`AutoscalerPolicy` against a live signal source.

    Parameters
    ----------
    policy:
        The pure decision function (bounds, sustain windows, cooldowns).
    signals:
        Zero-argument callable returning the current
        :class:`ScalingSignals` (usually
        :func:`signals_from_coordinator` partially applied).
    launcher:
        Object with ``spawn() -> worker_id``, ``drain(worker_id)``, and
        ``close()``.
    clock:
        Injectable monotonic clock; tests pass a fake.
    poll_interval:
        Sampling period of the background loop (:meth:`start`).
    """

    def __init__(
        self,
        policy: AutoscalerPolicy,
        signals: Callable[[], ScalingSignals],
        launcher: Any,
        *,
        clock: Callable[[], float] = monotonic,
        poll_interval: float = 0.5,
    ) -> None:
        self.policy = policy
        self.signals = signals
        self.launcher = launcher
        self.clock = clock
        self.poll_interval = poll_interval
        self.managed: list[str] = []
        self.events: list[dict[str, Any]] = []
        self.counters = {"scale_up": 0, "scale_down": 0, "scale_errors": 0}
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def tick(self, now: float | None = None) -> str:
        """Sample, decide, act once; returns the decision taken."""
        if now is None:
            now = self.clock()
        signals = self.signals()
        decision = self.policy.decide(signals, now)
        if decision == "up":
            self._scale_up(signals, now)
        elif decision == "down":
            if not self._scale_down(signals, now):
                decision = "hold"  # nothing we own to drain
        return decision

    def _scale_up(self, signals: ScalingSignals, now: float) -> None:
        try:
            worker_id = self.launcher.spawn()
        except Exception as exc:  # noqa: BLE001 - scaling must not kill the loop
            with self._lock:
                self.counters["scale_errors"] += 1
            log_event(_LOG, "warning", "scale_up_failed", reason=str(exc))
            return
        with self._lock:
            self.managed.append(worker_id)
            self.counters["scale_up"] += 1
            self.events.append(
                {
                    "direction": "up",
                    "worker_id": worker_id,
                    "at": now,
                    "queue_depth": signals.queue_depth,
                    "workers_alive": signals.workers_alive,
                }
            )
        _SCALE_EVENTS.inc(direction="up")
        log_event(
            _LOG, "info", "scaled_up",
            worker=worker_id, queue_depth=signals.queue_depth,
        )

    def _scale_down(self, signals: ScalingSignals, now: float) -> bool:
        with self._lock:
            if not self.managed:
                return False
            worker_id = self.managed.pop()  # most recent first
        try:
            self.launcher.drain(worker_id)
        except Exception as exc:  # noqa: BLE001 - scaling must not kill the loop
            with self._lock:
                self.counters["scale_errors"] += 1
            log_event(_LOG, "warning", "scale_down_failed", reason=str(exc))
            return True
        with self._lock:
            self.counters["scale_down"] += 1
            self.events.append(
                {
                    "direction": "down",
                    "worker_id": worker_id,
                    "at": now,
                    "workers_alive": signals.workers_alive,
                }
            )
        _SCALE_EVENTS.inc(direction="down")
        log_event(_LOG, "info", "scaled_down", worker=worker_id)
        return True

    # ------------------------------------------------------------------ #
    def start(self) -> "Autoscaler":
        if self._thread is not None:
            raise RuntimeError("autoscaler already started")
        self._thread = threading.Thread(
            target=self._loop, name=f"{AUTOSCALER_THREAD_PREFIX}-loop", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.tick()
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                log_event(_LOG, "warning", "autoscaler_tick_failed", reason=str(exc))

    def stop(self, *, drain_managed: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if drain_managed:
            self.launcher.close()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                **dict(self.counters),
                "managed_workers": len(self.managed),
                "events": [dict(event) for event in self.events],
            }
