"""Phase attribution and sampling profiler: *where did the time go?*

Two instruments, both zero-dependency:

* :class:`PhaseTimer` — named, nestable wall+CPU phase accounting for the
  pipeline hot path.  A timer is made ambient with :func:`use_timer`
  (contextvar, so it survives ``await`` and rides a copied context into
  pool threads); instrumented code brackets work with the module-level
  :func:`phase` helper, which is a near no-op when no timer is active or
  phases are disabled (``REPRO_OBS_PHASES=0``).  Self time is computed
  per thread via a frame stack: a nested phase charges its wall time to
  the parent frame's ``child_wall``, so the parent's *self* seconds
  exclude it.  Tables from remote shards fold back with
  :meth:`PhaseTimer.merge_table`, which also credits the merged work to
  the currently open phase — the pipeline's
  ``parse`` phase therefore reports orchestration overhead as self time
  and delegated work under the child phase names, on every backend.
* :class:`StackSampler` — an opt-in (``REPRO_OBS_PROFILING=1`` or
  ``--profile``) sampling profiler over :func:`sys._current_frames`,
  aggregating periodic stack snapshots of every thread in the process
  into a :class:`Profile` whose :meth:`~Profile.collapsed` output is
  flamegraph-compatible (``frame;frame;frame count`` lines).  Profiles
  are retained in a bounded process-wide :class:`ProfileStore` keyed by
  ticket/shard id, which backs the gateway ``PROFILE`` RPC and
  ``obs profile TICKET-ID``.

Phase tables are plain dicts of plain floats — JSON-trivial, mergeable
by key, and shippable inside cluster ``batch_result`` frames exactly
like trace spans.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, Mapping

__all__ = [
    "PHASE_SECONDS_BUCKETS",
    "PhaseTimer",
    "Profile",
    "ProfileStore",
    "StackSampler",
    "current_timer",
    "default_store",
    "phase",
    "phase_seconds_histogram",
    "phases_enabled",
    "profiling_enabled",
    "record",
    "set_phases_enabled",
    "set_profiling_enabled",
    "use_timer",
]

#: Default buckets for the ``repro_phase_duration_seconds`` histogram.
#: Phase durations are dominated by sub-millisecond work (cache key
#: hashing, validation) with a long parse tail, so the family default is
#: finer at the bottom than :data:`repro.obs.metrics.DEFAULT_BUCKETS`.
PHASE_SECONDS_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    10.0,
)

_ROW_KEYS = ("total_s", "self_s", "cpu_s", "calls", "bytes")

_PHASES_ENABLED = os.environ.get("REPRO_OBS_PHASES", "1") not in ("0", "false", "off")
_PROFILING_ENABLED = os.environ.get("REPRO_OBS_PROFILING", "0") in ("1", "true", "on")


def phases_enabled() -> bool:
    """Whether phase attribution is globally enabled (default: yes)."""
    return _PHASES_ENABLED


def set_phases_enabled(enabled: bool) -> None:
    global _PHASES_ENABLED
    _PHASES_ENABLED = bool(enabled)


def profiling_enabled() -> bool:
    """Whether the sampling profiler is globally enabled (default: no)."""
    return _PROFILING_ENABLED


def set_profiling_enabled(enabled: bool) -> None:
    global _PROFILING_ENABLED
    _PROFILING_ENABLED = bool(enabled)


def phase_seconds_histogram():
    """The shared ``repro_phase_duration_seconds`` histogram handle."""
    from repro.obs import metrics as _metrics

    return _metrics.histogram(
        "repro_phase_duration_seconds",
        "Wall seconds spent per attributed pipeline phase",
        labelnames=("phase",),
        buckets=PHASE_SECONDS_BUCKETS,
    )


# ---------------------------------------------------------------------- #
# Phase attribution
# ---------------------------------------------------------------------- #
class PhaseTimer:
    """Accumulates per-phase wall/CPU seconds, thread-safe and nestable.

    The accumulated table maps phase name to a row of
    ``{"total_s", "self_s", "cpu_s", "calls", "bytes"}``.  ``total_s``
    includes nested phases; ``self_s`` excludes them, so summing
    ``self_s`` over all phases approximates the attributed wall time
    without double counting.  ``cpu_s`` is per-thread CPU time
    (:func:`time.thread_time`) and is *not* adjusted for nesting across
    threads — thread CPU clocks never include other threads' work.
    """

    __slots__ = ("_lock", "_phases", "_local")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._phases: dict[str, dict[str, float]] = {}
        self._local = threading.local()

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _accumulate(
        self,
        name: str,
        total_s: float,
        self_s: float,
        cpu_s: float,
        calls: int,
        n_bytes: int,
    ) -> None:
        with self._lock:
            row = self._phases.get(name)
            if row is None:
                row = self._phases[name] = dict.fromkeys(_ROW_KEYS, 0.0)
            row["total_s"] += total_s
            row["self_s"] += self_s
            row["cpu_s"] += cpu_s
            row["calls"] += calls
            row["bytes"] += n_bytes

    @contextmanager
    def phase(self, name: str, n_bytes: int = 0) -> Iterator[None]:
        """Time a phase; nested phases subtract from this one's self time."""
        stack = self._stack()
        # [start_wall, start_cpu, child_wall]
        frame = [time.perf_counter(), time.thread_time(), 0.0]
        stack.append(frame)
        try:
            yield
        finally:
            stack.pop()
            wall = time.perf_counter() - frame[0]
            cpu = time.thread_time() - frame[1]
            if stack:
                stack[-1][2] += wall
            self._accumulate(
                name,
                total_s=wall,
                self_s=max(0.0, wall - frame[2]),
                cpu_s=max(0.0, cpu),
                calls=1,
                n_bytes=n_bytes,
            )

    def record(
        self,
        name: str,
        seconds: float,
        cpu_seconds: float = 0.0,
        calls: int = 1,
        n_bytes: int = 0,
    ) -> None:
        """Accumulate externally measured leaf time under ``name``.

        For call sites that time themselves (tight loops amortising one
        record over many iterations).  The time is charged to the
        enclosing open phase's children, like a nested :meth:`phase`.
        """
        stack = self._stack()
        if stack:
            stack[-1][2] += seconds
        self._accumulate(
            name,
            total_s=seconds,
            self_s=seconds,
            cpu_s=cpu_seconds,
            calls=calls,
            n_bytes=n_bytes,
        )

    def merge_table(self, table: Mapping[str, Mapping[str, float]]) -> None:
        """Fold a child worker's snapshot into this timer.

        The merged table's attributed wall (summed ``self_s``) is charged
        to the calling thread's open phase — merging a shard's table
        inside the ``parse`` phase leaves ``parse`` self time covering
        only orchestration, with the delegated work under its own keys.
        """
        if not table:
            return
        covered = 0.0
        for name, row in table.items():
            self_s = float(row.get("self_s", 0.0))
            covered += self_s
            self._accumulate(
                str(name),
                total_s=float(row.get("total_s", 0.0)),
                self_s=self_s,
                cpu_s=float(row.get("cpu_s", 0.0)),
                calls=int(row.get("calls", 0)),
                n_bytes=int(row.get("bytes", 0)),
            )
        stack = self._stack()
        if stack:
            stack[-1][2] += covered

    def snapshot(self) -> dict[str, dict[str, float]]:
        """The accumulated table as a JSON-trivial dict, sorted by name."""
        with self._lock:
            return {
                name: dict(self._phases[name]) for name in sorted(self._phases)
            }

    def clear(self) -> None:
        with self._lock:
            self._phases.clear()


_CURRENT_TIMER: ContextVar["PhaseTimer | None"] = ContextVar(
    "repro_phase_timer", default=None
)


def current_timer() -> "PhaseTimer | None":
    """The ambient :class:`PhaseTimer`, or ``None``."""
    return _CURRENT_TIMER.get()


@contextmanager
def use_timer(timer: "PhaseTimer | None") -> Iterator["PhaseTimer | None"]:
    """Make ``timer`` ambient for the duration of the block."""
    token = _CURRENT_TIMER.set(timer)
    try:
        yield timer
    finally:
        _CURRENT_TIMER.reset(token)


@contextmanager
def phase(name: str, n_bytes: int = 0) -> Iterator[None]:
    """Time a phase on the ambient timer; no-op without one (or disabled)."""
    timer = _CURRENT_TIMER.get() if _PHASES_ENABLED else None
    if timer is None:
        yield
        return
    with timer.phase(name, n_bytes=n_bytes):
        yield


def record(
    name: str,
    seconds: float,
    cpu_seconds: float = 0.0,
    calls: int = 1,
    n_bytes: int = 0,
) -> None:
    """Record leaf time on the ambient timer; no-op without one."""
    timer = _CURRENT_TIMER.get() if _PHASES_ENABLED else None
    if timer is not None:
        timer.record(
            name, seconds, cpu_seconds=cpu_seconds, calls=calls, n_bytes=n_bytes
        )


# ---------------------------------------------------------------------- #
# Sampling profiler
# ---------------------------------------------------------------------- #
def _format_frame(frame: Any) -> str:
    code = frame.f_code
    filename = code.co_filename.rsplit("/", 1)[-1]
    return f"{filename}:{code.co_name}"


class Profile:
    """An aggregated set of sampled stacks (collapsed-stack counts)."""

    __slots__ = ("counts", "interval")

    def __init__(
        self,
        counts: "Mapping[str, int] | None" = None,
        interval: float = 0.01,
    ) -> None:
        #: ``"root;mid;leaf" -> sample count``
        self.counts: dict[str, int] = dict(counts or {})
        self.interval = float(interval)

    @property
    def n_samples(self) -> int:
        return sum(self.counts.values())

    def add_stack(self, stack: str, count: int = 1) -> None:
        self.counts[stack] = self.counts.get(stack, 0) + count

    def merge(self, other: "Profile") -> None:
        for stack, count in other.counts.items():
            self.add_stack(stack, count)

    def collapsed(self) -> str:
        """Flamegraph-compatible collapsed-stack lines, busiest first."""
        ordered = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return "\n".join(f"{stack} {count}" for stack, count in ordered)

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` hottest leaf frames by inclusive-of-leaf sample count."""
        leaves: dict[str, int] = {}
        for stack, count in self.counts.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        ordered = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered[: max(0, n)]

    def to_dict(self) -> dict[str, Any]:
        return {
            "interval": self.interval,
            "n_samples": self.n_samples,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Profile":
        counts = payload.get("counts") or {}
        return cls(
            counts={str(k): int(v) for k, v in counts.items()},
            interval=float(payload.get("interval", 0.01)),
        )


class StackSampler:
    """Periodic whole-process stack sampler (``sys._current_frames``).

    Samples *every* thread except its own at ``interval`` seconds and
    aggregates into a :class:`Profile`.  Overhead scales with thread
    count and stack depth, not with work done — a 10ms interval costs a
    few percent on a parse-dominated run (about 4% at the default interval:
    PyMuPDF over 600 synthetic documents, 2 vCPUs).  ``max_samples``
    bounds memory for long-lived runs.
    """

    def __init__(self, interval: float = 0.01, max_samples: int = 200_000) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = float(interval)
        self.max_samples = int(max_samples)
        self.profile = Profile(interval=self.interval)
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._taken = 0

    def _sample_once(self, own_ident: "int | None") -> None:
        for ident, frame in sys._current_frames().items():
            if ident == own_ident:
                continue
            parts: list[str] = []
            depth = 0
            while frame is not None and depth < 128:
                parts.append(_format_frame(frame))
                frame = frame.f_back
                depth += 1
            if parts:
                self.profile.add_stack(";".join(reversed(parts)))
                self._taken += 1

    def _loop(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            if self._taken >= self.max_samples:
                break
            self._sample_once(own)

    def start(self) -> "StackSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Profile:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return self.profile

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class ProfileStore:
    """A bounded, process-wide id → :class:`Profile` map (oldest evicted)."""

    def __init__(self, max_profiles: int = 64) -> None:
        self.max_profiles = int(max_profiles)
        self._lock = threading.Lock()
        self._profiles: dict[str, Profile] = {}

    def put(self, key: str, profile: Profile) -> None:
        with self._lock:
            self._profiles.pop(key, None)
            self._profiles[key] = profile
            while len(self._profiles) > self.max_profiles:
                self._profiles.pop(next(iter(self._profiles)))

    def get(self, key: str) -> "Profile | None":
        with self._lock:
            return self._profiles.get(key)

    def merge_into(self, key: str, profile: Profile) -> None:
        """Merge ``profile`` into the stored entry (creating it if absent)."""
        with self._lock:
            existing = self._profiles.pop(key, None)
            if existing is None:
                existing = Profile(interval=profile.interval)
            existing.merge(profile)
            self._profiles[key] = existing
            while len(self._profiles) > self.max_profiles:
                self._profiles.pop(next(iter(self._profiles)))

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._profiles)

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()


_DEFAULT_STORE = ProfileStore()


def default_store() -> ProfileStore:
    return _DEFAULT_STORE
