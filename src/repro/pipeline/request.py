"""The typed request object of the parsing pipeline.

A :class:`ParseRequest` is a frozen, self-contained description of one
parsing run: where the documents come from (a
:class:`~repro.documents.sources.DocumentSource`), which parser (or
AdaParse engine) processes them, and the execution knobs (batch size, α
override, backend spec).  Because it is immutable and JSON-serialisable it
can be logged, queued, replayed, and compared — the building block a
parsing *service* schedules on.

The canonical way to say "which documents" is the ``source`` field::

    ParseRequest(parser="pymupdf", source=SimPdfDirSource("corpus"))
    ParseRequest(parser="pymupdf", source="simpdf-dir:corpus")
    ParseRequest(parser="pymupdf", source=SourceSpec("synthetic", {"n_documents": 50}))

The pre-source inputs (``documents=``, ``corpus=``, ``n_documents=``,
``seed=``) were removed: passing one is a :class:`TypeError` that spells
out the ``source=`` replacement.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.documents.corpus import CorpusConfig
from repro.documents.document import SciDocument
from repro.documents.sources import (
    DocumentSource,
    ExplicitSource,
    SourceSpec,
    SyntheticSource,
    create_source,
    parse_source_arg,
)

#: Seed of the default synthetic source, and the ``seed`` every
#: non-synthetic request reports in its JSON form.
_DEFAULT_SEED = 2025

_SOURCE_HINT = (
    "say which documents with source=: source=ExplicitSource(documents) (or "
    "request_for_documents(parser, documents)) for a collection, "
    "source='synthetic:N?seed=S' (or SyntheticSource(CorpusConfig(...))) for "
    "a synthetic corpus"
)


@dataclass(frozen=True)
class ParseRequest:
    """Immutable description of one parsing run.

    Attributes
    ----------
    parser:
        Registry parser name (``pymupdf``, ``nougat``, …) or an engine name
        (``adaparse_ft``, ``adaparse_llm``).
    source:
        Where the documents come from.  Accepts a
        :class:`~repro.documents.sources.DocumentSource` instance, a
        declarative :class:`~repro.documents.sources.SourceSpec` (or its
        mapping form ``{"kind": ..., "options": {...}}``), or the CLI
        shorthand string ``"kind:value?opt=val"``.  Specs are validated and
        resolved at construction; after ``__init__`` the field always holds
        a ``DocumentSource`` (or ``None`` for a provenance-only request
        rehydrated from JSON, which refuses replay).  When nothing is
        passed, a default synthetic source (100 documents, seed 2025) is
        used.
    batch_size:
        Documents per scheduling batch; ``None`` uses the parser's own
        default (the engine's configured batch size, or the pipeline
        default for base parsers).
    alpha:
        Per-request override of the engine's α routing budget; ignored for
        base parsers.
    backend:
        Execution backend by name (``serial``, ``thread``,
        ``remote``) or ``"auto"``, which picks serial — or thread
        when parallelism is requested via ``backend_options``.  ``"async"``
        and ``"process"`` are accepted names for ``thread``.
    backend_options:
        Backend construction options (e.g. ``{"n_jobs": 8}`` for the
        thread backend, ``{"workers": "host:port,host:port"}`` for
        ``remote``): the parameters of the backend's constructor, and no
        others.
    cache:
        Cache policy for this run: ``"off"`` (default), ``"read"``,
        ``"write"``, or ``"readwrite"`` — see
        :class:`repro.cache.CachePolicy`.  Requires the pipeline to carry a
        :class:`repro.cache.ParseCache` (one is created on demand).
    """

    parser: str = "pymupdf"
    source: Any = None
    batch_size: int | None = None
    alpha: float | None = None
    backend: str = "auto"
    backend_options: dict[str, Any] = field(default_factory=dict)
    cache: str = "off"
    #: Provenance of an explicit document collection.  Derived from the
    #: source when it is an ``ExplicitSource``; carried alone after a JSON
    #: round trip, in which case the request is inspectable but refuses to
    #: replay (the documents themselves were not serialised).  An *empty*
    #: tuple marks a custom source that could not be serialised at all.
    doc_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.doc_ids is not None and not isinstance(self.doc_ids, tuple):
            object.__setattr__(self, "doc_ids", tuple(self.doc_ids))

        # ------------------------------------------------------------- #
        # Normalise the source: string shorthand -> spec -> instance.
        # ------------------------------------------------------------- #
        source = self.source
        if isinstance(source, str):
            source = parse_source_arg(source)
        if isinstance(source, Mapping):
            source = SourceSpec.from_json_dict(source)
        if isinstance(source, SourceSpec):
            source = create_source(source)
        if source is not None and not isinstance(source, DocumentSource):
            raise TypeError(
                "source must be a DocumentSource, SourceSpec, mapping, or "
                f"'kind:...' string, not {type(source).__name__}"
            )
        if source is None and self.doc_ids is None:
            # (doc_ids alone is a provenance-only rehydration; refuses replay)
            source = SyntheticSource(CorpusConfig(n_documents=100, seed=_DEFAULT_SEED))
        object.__setattr__(self, "source", source)

        if isinstance(source, ExplicitSource):
            object.__setattr__(
                self, "doc_ids", tuple(d.doc_id for d in source.documents)
            )

        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        # Always copy: sharing the caller's dict would let later mutation of
        # it bypass the validation below.
        object.__setattr__(self, "backend_options", dict(self.backend_options))
        # Validate the backend spec eagerly: a queued/serialised request must
        # fail at construction, not hours later when a worker dequeues it.
        # Imported lazily to keep the module graph acyclic.
        from repro.pipeline.backends.base import validate_backend_spec

        validate_backend_spec(self.backend, self.backend_options)
        # Accept a CachePolicy enum member (a str subclass) or a plain
        # string; validate through the enum (the single source of truth for
        # the policy set) but store the plain value so the request stays
        # JSON-trivial.  Imported here to keep the module graph acyclic.
        from repro.cache import CachePolicy

        object.__setattr__(self, "cache", CachePolicy.coerce(self.cache).value)

    @property
    def cache_policy(self):
        """The request's cache policy as a :class:`repro.cache.CachePolicy`."""
        from repro.cache import CachePolicy

        return CachePolicy(self.cache)

    def resolved_backend(self) -> tuple[str, dict[str, Any]]:
        """The concrete ``(backend name, options)`` this request executes on."""
        from repro.pipeline.backends.base import normalize_backend_spec

        return normalize_backend_spec(self.backend, self.backend_options)

    # ------------------------------------------------------------------ #
    # Document source resolution
    # ------------------------------------------------------------------ #
    def resolve_source(self) -> DocumentSource:
        """The request's document source, ready to stream.

        A request rehydrated from JSON that referenced unserialised
        documents (an explicit collection or a spec-less custom source)
        refuses to resolve: replaying it against different data would
        produce a same-shaped report over the wrong documents.
        """
        if self.source is not None:
            return self.source
        raise ValueError(
            "request references documents that were not serialised; "
            "supply the documents (or a declarative source) to a fresh "
            "request to replay it"
        )

    def source_spec(self) -> SourceSpec | None:
        """The declarative spec of the source, when it has one."""
        return self.source.spec() if self.source is not None else None

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict[str, Any]:
        """JSON-compatible view of the request.

        Declarative sources round-trip losslessly through their spec;
        explicit documents are recorded by id only (provenance) and a
        custom spec-less source serialises as an empty ``doc_ids`` list —
        both rehydrate into requests that refuse replay.
        """
        spec = self.source_spec()
        # Derived provenance: how many documents, where that is known without
        # I/O (a synthetic config, doc_ids), and a synthetic corpus's seed.
        if isinstance(self.source, SyntheticSource):
            n_documents, seed = self.source.config.n_documents, self.source.config.seed
        else:
            n_documents, seed = len(self.doc_ids or ()) or None, _DEFAULT_SEED
        payload: dict[str, Any] = {
            "parser": self.parser,
            "source": None if spec is None else spec.to_json_dict(),
            "n_documents": n_documents,
            "seed": seed,
            "batch_size": self.batch_size,
            "alpha": self.alpha,
            "backend": self.backend,
            "backend_options": dict(self.backend_options),
            "cache": self.cache,
            "doc_ids": None,
        }
        if spec is None:
            payload["doc_ids"] = list(self.doc_ids) if self.doc_ids else []
        return payload

    #: JSON keys :meth:`from_json_dict` understands.  ``n_documents`` and
    #: ``seed`` are derived provenance (read back only to reject a payload
    #: that has them *instead of* a source).
    _JSON_KEYS = frozenset(
        {
            "parser",
            "source",
            "n_documents",
            "seed",
            "batch_size",
            "alpha",
            "backend",
            "backend_options",
            "cache",
            "doc_ids",
        }
    )

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "ParseRequest":
        """Rebuild a request from :meth:`to_json_dict` output.

        Unknown keys are rejected with a did-you-mean suggestion, so a typo
        in a request file (``"sorce"``, a misspelled source option) fails
        loudly at submit time instead of being silently dropped.  A request
        that carried unserialised documents rebuilds with its ``doc_ids``
        provenance only — it can be inspected and compared, but
        :meth:`resolve_source` (and therefore the pipeline) refuses to
        replay it.
        """
        unknown = sorted(set(payload) - cls._JSON_KEYS)
        if unknown:
            known = sorted(cls._JSON_KEYS)
            hints = []
            for name in unknown:
                match = difflib.get_close_matches(name, known, n=1, cutoff=0.6)
                hints.append(f"{name!r}" + (f" (did you mean {match[0]!r}?)" if match else ""))
            raise ValueError(
                f"unknown ParseRequest field(s) {', '.join(hints)}; known: {known}"
            )
        source = payload.get("source")
        doc_ids = payload.get("doc_ids")
        # Beside a source (or doc_ids) the counts are derived provenance and
        # ignored; on their own they used to *pick* the documents.
        counts = () if source is not None or doc_ids is not None else ("n_documents", "seed")
        for name in counts:
            if payload.get(name) is not None:
                raise ValueError(
                    f"request field {name!r} no longer says which documents to "
                    f"parse; {_SOURCE_HINT}"
                )
        return cls(
            parser=payload.get("parser", "pymupdf"),
            source=source,
            doc_ids=None if source is not None else doc_ids,
            batch_size=payload.get("batch_size"),
            alpha=payload.get("alpha"),
            backend=payload.get("backend", "auto"),
            backend_options=dict(payload.get("backend_options", {}) or {}),
            cache=payload.get("cache", "off"),
        )


def request_for_documents(
    parser: str, documents: Sequence[SciDocument], **overrides: Any
) -> ParseRequest:
    """Convenience constructor for a request over an explicit collection."""
    return ParseRequest(
        parser=parser, source=ExplicitSource(tuple(documents)), **overrides
    )
