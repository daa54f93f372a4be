"""What the disk tier hands back, pinned over every payload shape it stores.

Each payload is put into a :class:`ShardedDiskStore`, flushed, and read
back through a fresh store over the same directory: ``get``,
``iter_entries`` and ``purge(predicate)`` must return every payload equal
to what was put, string for string, so texts come back code point for
code point (a surrogate pair held as two code points stays two).  The
shapes:

* cache entries (:meth:`CacheEntry.to_json_dict`) whose page texts are
  ASCII, non-ASCII, hold a lone surrogate or a split pair, hold ``\\n`` and
  ``\\\\``, are empty, or are no pages at all;
* an entry with a :class:`RoutingDecision`, and one whose error message
  holds a split pair;
* a payload with no texts at all (``{"key", "value"}``).
"""

from __future__ import annotations

import pytest

from repro.cache.cache import CacheEntry
from repro.cache.disk import ShardedDiskStore
from repro.core.engine import RoutingDecision
from repro.parsers.base import ParseResult, ResourceUsage

SPLIT_PAIR = "\ud800\udc00"  # two code points, not U+10000

PAGE_SHAPES = {
    "ascii": ["Abstract. We parse PDFs.", "2 Methods\nA table."],
    "non-ascii": ["naïve café 東京", "Ωμέγα — “quoted” \U0001f600"],
    "lone-surrogate": ["lone \ud800 high", "lone \udcff low"],
    "split-pair": [f"split {SPLIT_PAIR} pair", SPLIT_PAIR],
    "newlines-and-backslashes": ["a\nb\\nc\\\\\n", "\n\n\\", "x\\"],
    "empty-pages": ["", "", "last"],
    "no-pages": [],
    "long-page": ["line of text " * 60 + "\n" for _ in range(23)],
}


def _key(i: int) -> str:
    return f"{i * 2654435761 % 2**32:08x}{i:024x}:fp"


def _entry(i: int, pages: list[str], **fields) -> dict:
    return CacheEntry(
        key=_key(i),
        result=ParseResult(
            parser_name="pymupdf",
            doc_id=f"doc-{i}",
            page_texts=pages,
            usage=ResourceUsage(cpu_seconds=0.25 * i, cpu_memory_mb=12.5),
            succeeded=fields.pop("succeeded", True),
            error=fields.pop("error", None),
        ),
        compute_seconds=0.001 * i,
        stored_at=1700000000.0 + i,
        **fields,
    ).to_json_dict()


def payloads() -> dict[str, dict]:
    shapes = {
        name: _entry(i, pages) for i, (name, pages) in enumerate(PAGE_SHAPES.items())
    }
    n = len(shapes)
    shapes["routed"] = _entry(
        n,
        ["routed page"],
        decision=RoutingDecision(
            doc_id=f"doc-{n}", chosen_parser="nougat", stage="cls3", predicted_improvement=0.125
        ),
    )
    shapes["unscored"] = _entry(
        n + 1,
        ["page"],
        decision=RoutingDecision(doc_id=f"doc-{n + 1}", chosen_parser="pymupdf", stage="cls1"),
    )
    shapes["failed-with-split-pair"] = _entry(
        n + 2, [], succeeded=False, error=f"bad glyph {SPLIT_PAIR}"
    )
    shapes["no-texts"] = {"key": _key(n + 3), "value": f"v {SPLIT_PAIR} é"}
    return shapes


@pytest.fixture(params=[1, 4], ids=["one-shard", "four-shards"])
def stored(request, tmp_path):
    shapes = payloads()
    store = ShardedDiskStore(tmp_path, n_shards=request.param)
    for payload in shapes.values():
        store.put(payload["key"], payload)
    store.flush()
    return shapes, lambda: ShardedDiskStore(tmp_path, n_shards=request.param)


class TestDiskRoundTrip:
    def test_get_returns_every_payload_as_put(self, stored):
        shapes, reopen = stored
        store = reopen()
        for name, payload in shapes.items():
            assert store.get(payload["key"]) == payload, name
        assert store.corrupt_lines_skipped == 0

    def test_texts_keep_their_code_points(self, stored):
        shapes, reopen = stored
        store = reopen()
        pages = store.get(shapes["split-pair"]["key"])["result"]["page_texts"]
        assert [len(page) for page in pages] == [13, 2]
        assert pages[1] == SPLIT_PAIR != "\U00010000"
        assert store.get(shapes["no-pages"]["key"])["result"]["page_texts"] == []
        empty = store.get(shapes["empty-pages"]["key"])["result"]["page_texts"]
        assert empty == ["", "", "last"]

    def test_cache_entries_decode_back_to_what_was_stored(self, stored):
        shapes, reopen = stored
        store = reopen()
        for name, payload in shapes.items():
            if name == "no-texts":
                continue
            entry = CacheEntry.from_json_dict(store.get(payload["key"]))
            assert entry.to_json_dict() == payload, name

    def test_iter_entries_yields_every_payload_once(self, stored):
        shapes, reopen = stored
        entries = sorted(reopen().iter_entries(), key=lambda payload: payload["key"])
        assert entries == sorted(shapes.values(), key=lambda payload: payload["key"])

    def test_purge_by_predicate_sees_each_payload_and_keeps_the_rest(self, stored):
        shapes, reopen = stored
        store = reopen()
        seen = []

        def doomed(payload: dict) -> bool:
            seen.append(payload)
            return "value" in payload or payload["result"]["doc_id"] in ("doc-2", "doc-3")

        assert store.purge(doomed) == 3
        assert sorted(seen, key=lambda p: p["key"]) == sorted(
            shapes.values(), key=lambda p: p["key"]
        )
        gone = ("no-texts", "lone-surrogate", "split-pair")
        kept = {name: p for name, p in shapes.items() if name not in gone}
        reopened = reopen()
        assert len(reopened) == len(kept)
        for name, payload in shapes.items():
            assert reopened.get(payload["key"]) == kept.get(name), name
        assert reopened.corrupt_lines_skipped == 0
