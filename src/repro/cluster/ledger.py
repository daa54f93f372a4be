"""The shard ledger: a persisted record of completed shards for resume.

A campaign over a cluster is a sequence of shards; when the coordinator
process is killed mid-run, everything already parsed is lost with it
(worker-side caches help, but only cache-carrying workers, and only for
the parse itself — the campaign still re-dispatches every shard).  The
:class:`ShardLedger` closes that gap: the coordinator records every
completed shard — keyed by the shard's content-addressed *placement key*
crossed with the spec's ``config_fingerprint()``, the same two
ingredients the cache layer keys on — and a re-run over the same corpus
replays completed shards from the ledger without dispatching them at
all.  Results are **exactly-once across restarts**: a shard is either
replayed (it completed before the kill) or dispatched (it did not), never
both.

Durability comes from :mod:`repro.utils.durable`:

* every completed shard is *appended* to ``ledger.jsonl`` and fsynced
  before the coordinator considers it recorded.  An append is not atomic —
  a kill mid-write leaves a torn last line — but it always starts on a
  fresh line, so a kill at any instant loses at most the shard being
  written: never a previously recorded one, and never the first shard the
  resumed run records after the torn tail;
* reads are corruption-tolerant line by line: a torn line (the kill landed
  mid-append) is skipped, not fatal.  A key recorded twice (two runs over
  the same campaign) reads back as its last line.

The ledger is deliberately *not* the cache: it keys whole shards, lives
with the campaign (one directory per campaign), and records routing
decisions alongside results so a resumed report is byte-identical to an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger, log_event
from repro.utils.durable import JsonLines, append_lines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import RoutingDecision
    from repro.parsers.base import ParseResult

_LOG = get_logger("elastic.ledger")

_LEDGER_FILENAME = "ledger.jsonl"
#: What a line must carry to count as a record.
_RECORD_KEYS = {"key", "results", "decisions"}

_LEDGER_SHARDS = _metrics.counter(
    "repro_elastic_ledger_shards_total",
    "Shards recorded to / replayed from the campaign ledger.",
    ("outcome",),
)


def ledger_key(placement_key: str, fingerprint: str) -> str:
    """The ledger identity of one shard.

    The placement key is content-addressed and order-sensitive over the
    shard's documents, and the fingerprint pins the parser configuration
    — together they identify "this exact batch parsed this exact way",
    which is what makes replay safe across coordinator restarts (and
    what makes a changed corpus or parser config miss the ledger and
    re-run, as it must).
    """
    return f"{placement_key}:{fingerprint}"


class ShardLedger:
    """Append-durable record of completed shards (see the module docstring).

    Parameters
    ----------
    directory:
        The campaign's ledger directory; created on first write.  Safe to
        point several sequential runs at — that is the whole point — but
        not designed for two *concurrent* coordinators (last writer wins
        per shard, which is still exactly-once for readers, just wasteful).
    """

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = Path(directory)
        self.path = self.directory / _LEDGER_FILENAME
        self._lock = threading.Lock()
        self._entries: dict[str, dict[str, Any]] = {}
        self._load()

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        """Read the ledger file, skipping torn or corrupt lines."""
        reader = JsonLines(self.path)  # counts torn appends from a kill mid-write
        skipped = 0
        try:
            for record, _ in reader:
                if isinstance(record, dict) and record.keys() >= _RECORD_KEYS:
                    self._entries[str(record["key"])] = record
                else:
                    skipped += 1
        except OSError:
            return
        skipped += reader.skipped
        if skipped:
            log_event(
                _LOG,
                "warning",
                "ledger_lines_skipped",
                path=str(self.path),
                skipped=skipped,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def completed_output(
        self, placement_key: str, fingerprint: str
    ) -> "tuple[list[ParseResult], list[RoutingDecision]] | None":
        """Rehydrate one completed shard's output, or ``None`` if absent."""
        from repro.core.engine import RoutingDecision
        from repro.parsers.base import ParseResult

        with self._lock:
            record = self._entries.get(ledger_key(placement_key, fingerprint))
        if record is None:
            return None
        results = [ParseResult.from_json_dict(item) for item in record["results"]]
        decisions = [RoutingDecision.from_json_dict(item) for item in record["decisions"]]
        _LEDGER_SHARDS.inc(outcome="replayed")
        return results, decisions

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def record(
        self,
        placement_key: str,
        fingerprint: str,
        results: Iterable[Mapping[str, Any]],
        decisions: Iterable[Mapping[str, Any]],
        *,
        worker_id: str | None = None,
    ) -> None:
        """Durably append one completed shard (results as wire/JSON dicts).

        The append is flushed and fsynced before returning: once the
        coordinator resolves the shard's future, a kill cannot lose it.
        """
        record = {
            "key": ledger_key(placement_key, fingerprint),
            "placement_key": placement_key,
            "fingerprint": fingerprint,
            "worker_id": worker_id,
            "results": list(results),
            "decisions": list(decisions),
        }
        line = json.dumps(record, sort_keys=True).encode("utf-8")
        with self._lock:
            self.directory.mkdir(parents=True, exist_ok=True)
            append_lines(self.path, [line])
            self._entries[record["key"]] = record
        _LEDGER_SHARDS.inc(outcome="recorded")
