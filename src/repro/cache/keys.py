"""Content-addressed cache keys for parse results.

A cache key answers one question: *would this parse produce byte-identical
output to a parse we already paid for?*  In this reproduction a parse is a
deterministic function of

* the document's **content channels** — the embedded text layer (what
  extraction parsers read), the image-layer degradations (what recognition
  parsers read), and the ground-truth pages they are derived from, whose
  element kinds and LaTeX recognition parsers read too;
* the document's **identity** — ``doc_id`` and generation ``seed``, because
  the simulated parsers draw their per-document noise from
  ``rng_from(seed, "parser", name, doc_id)``; and
* the parser's **configuration fingerprint** — name, version, cost model,
  and for AdaParse engines the α budget, batch size, and trained model
  weights (see :meth:`repro.parsers.base.Parser.config_fingerprint`).

The content hash is one :func:`repro.utils.hashing.stable_hash_hex` over
those fields, each channel hashed exactly (case, whitespace and all).  Which
fields, in which order, is versioned by :data:`CONTENT_HASH_SCHEME`.  Scheme
3 hashes, in order: ``doc_id``, ``seed``, the literal ``"pdf"``, the page
texts of the text layer, one digest over the ground truth
(:func:`~repro.documents.simpdf.page_content_bytes`, every element's text
and LaTeX, then each page's element kinds), the text layer's quality and
producer, and the seven image-layer fields.

The ground-truth digest hashes the bytes a SimPDF 2 pages stream inflates
to, so a document read from such a file is hashed without building its
pages.  Those bytes are the writer's encoding: a change to how the writer
encodes the pages stream is a change of scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.documents.document import SciDocument
from repro.documents.simpdf import page_content_bytes
from repro.utils.hashing import hash_buffers, stable_hash, stable_hash_hex


#: Attribute the computed hash is memoised under on the document object.
#: Hashing a document's full text dominates a warm cache pass, and document
#: copies go through ``dataclasses.replace`` (fresh objects without the
#: attribute), so per-object memoisation is safe for the library's idioms.
#: A source's ``load`` tags a document with the reference it was read through
#: the same way (:func:`repro.documents.sources.document_origin`), and the
#: parse cache's reference index learns ``(origin, hash)``.  Derived copies
#: carry neither: ``with_text_layer``, ``with_image_layer`` and
#: ``dataclasses.replace`` build new objects.
_MEMO_ATTR = "_repro_cache_content_hash"


def document_content_hash(document: SciDocument) -> str:
    """Stable hex hash of everything a parse of ``document`` depends on.

    Combines the exact text layer, the ground-truth pages (kinds, texts and
    LaTeX), layer qualities, image-layer degradations, and the identity
    fields that seed the simulated parsers' noise channels.

    The hash is memoised on the document instance; callers that mutate a
    document's layers in place (rather than using ``with_text_layer`` /
    ``with_image_layer``) should delete the ``_repro_cache_content_hash``
    attribute to force a re-hash, and the ``_repro_source_origin`` attribute
    so the edit is not remembered as the file's content.
    """
    memoised = getattr(document, _MEMO_ATTR, None)
    if memoised is not None:
        return memoised
    value = _compute_content_hash(document)
    try:
        setattr(document, _MEMO_ATTR, value)
    except (AttributeError, TypeError):  # slotted/frozen document doubles
        pass
    return value


#: Version of what :func:`_compute_content_hash` hashes.  The reference index
#: (:mod:`repro.cache.refindex`) stores content hashes under a file named
#: after it, so bump it with any change to the fields below and the old index
#: is orphaned instead of answering with hashes this function no longer makes.
#: Scheme 2 dropped scheme 1's dedup fingerprint of the normalised text: it is
#: a function of the page texts, which are hashed exactly below.  Scheme 3
#: replaced scheme 2's ground-truth term, a hash of each page's plain text,
#: with one digest over :func:`~repro.documents.simpdf.page_content_bytes`
#: and each page's element kinds: scheme 2 keyed a LaTeX- or kind-only edit
#: to the same slot, though recognition parsers read both.  Those bytes are
#: the SimPDF 2 writer's pages stream, so a writer change to that stream's
#: bytes is a scheme change too.
CONTENT_HASH_SCHEME = 3


def _compute_content_hash(document: SciDocument) -> str:
    text = document.text_layer
    image = document.image_layer
    return stable_hash_hex(
        "parse-content",
        document.doc_id,
        document.seed,
        # Scheme 2 hashed the document's format family here; every document
        # is a PDF, so the literal keeps the hashes where they were.
        "pdf",
        stable_hash(*text.page_texts),
        hash_buffers(
            page_content_bytes(document.pages),
            *(" ".join(kinds).encode("ascii") for kinds in document.element_kinds),
        ),
        text.quality.value,
        text.producer,
        image.dpi,
        image.rotation_deg,
        image.blur_sigma,
        image.contrast,
        image.noise_level,
        image.jpeg_quality,
        image.is_scanned,
    )


@dataclass(frozen=True)
class CacheKey:
    """One cache slot: (document content hash, parser config fingerprint)."""

    content_hash: str
    config_fingerprint: str

    def __str__(self) -> str:
        return f"{self.content_hash}:{self.config_fingerprint}"

    @classmethod
    def parse(cls, raw: str) -> "CacheKey":
        """Rebuild a key from its ``str()`` form."""
        content_hash, _, fingerprint = raw.partition(":")
        if not content_hash or not fingerprint:
            raise ValueError(f"malformed cache key {raw!r}")
        return cls(content_hash=content_hash, config_fingerprint=fingerprint)


def parse_cache_key(document: SciDocument, config_fingerprint: str) -> CacheKey:
    """The cache key for parsing ``document`` under one parser configuration."""
    return CacheKey(
        content_hash=document_content_hash(document),
        config_fingerprint=config_fingerprint,
    )
