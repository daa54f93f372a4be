"""Pluggable document sources: where a parsing run's documents come from.

A :class:`DocumentSource` answers three questions for the pipeline:

* :meth:`~DocumentSource.iter_documents` — stream the documents (O(1)
  memory for directory-backed sources);
* :meth:`~DocumentSource.fingerprint` — a stable identity of the backing
  content, recorded in reports for provenance (per-document parse caching
  keys on *content*, so two sources yielding byte-identical documents
  share cache entries regardless of their fingerprints);
* :attr:`~DocumentSource.doc_type` — the declared
  :class:`~repro.documents.document.DocumentType` its documents carry
  (``None`` for mixed-format sources such as crawl dumps), which feeds
  format-aware routing.

Sources that can enumerate their documents *without reading them*
(``synthetic`` by index; ``simpdf-dir``, ``html-dir`` and ``markdown-dir``
by relative path) also offer :meth:`~DocumentSource.refs` — a stream of
small JSON-round-trippable :class:`DocumentRef` values — and
:meth:`~DocumentSource.load`, which turns one reference back into its
document.  A reference-able source is read where it is parsed, on every
execution backend: a run holds references, and :func:`load_items` — the one
place a reference becomes its document — is called at the execution site, by
whichever thread or worker daemon parses the batch.

Sources are constructed either directly (``HtmlDirSource("corpus/html")``)
or declaratively through a :class:`SourceSpec` — a JSON-round-trippable
``(kind, options)`` pair resolved against a registry, mirroring how
execution backends are named (:mod:`repro.pipeline.backends.base`).  The
spec form is what travels in ``ParseRequest`` JSON, gateway request files,
and the CLI's ``--source kind:path`` shorthand; option typos fail loudly
at construction with a did-you-mean suggestion.
"""

from __future__ import annotations

import abc
import difflib
import json
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path, PurePosixPath
from stat import S_ISREG
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.documents.corpus import CorpusConfig, build_document
from repro.documents.document import DocumentType, SciDocument
from repro.documents.simpdf import deserialize_document
from repro.documents.webtext import (
    WebTextRecord,
    html_to_blocks,
    markdown_to_blocks,
    record_to_document,
)
from repro.obs import profiling as _profiling
from repro.utils.hashing import stable_hash_hex


def _suggest(name: str, known: list[str]) -> str:
    """``"; did you mean 'x'?"`` when a close match exists, else ``""``."""
    matches = difflib.get_close_matches(name, known, n=1, cutoff=0.6)
    return f"; did you mean {matches[0]!r}?" if matches else ""


# ---------------------------------------------------------------------- #
# The protocol
# ---------------------------------------------------------------------- #
class DocumentSource(abc.ABC):
    """Where documents come from.  Implementations must be cheap to build.

    Constructors only record configuration (paths, globs, corpus specs) —
    existence and readability are checked at iteration time, so a spec can
    be validated on a submitting client whose filesystem differs from the
    executing service's.
    """

    #: Registry kind of the source (``"synthetic"``, ``"html-dir"``, …).
    kind: str = "abstract"

    @property
    def doc_type(self) -> DocumentType | None:
        """Declared type of every yielded document; ``None`` when mixed."""
        return None

    @abc.abstractmethod
    def iter_documents(self) -> Iterator[SciDocument]:
        """Stream the documents in a stable, deterministic order."""

    @abc.abstractmethod
    def fingerprint(self) -> str:
        """Stable hex identity of the backing content.

        Changes when the underlying files change (size/mtime for
        directory sources) or the generation spec changes (synthetic).
        """

    def spec(self) -> "SourceSpec | None":
        """The declarative spec that rebuilds this source, when one exists.

        ``None`` means the source is not JSON-replayable (e.g. an
        in-memory document collection); requests carrying it serialise as
        provenance only and refuse replay after a round trip.
        """
        return None

    def count_hint(self) -> int | None:
        """Document count when knowable without reading content, else ``None``."""
        return None

    def refs(self) -> "Iterator[DocumentRef] | None":
        """References to the documents, in :meth:`iter_documents` order.

        ``None`` (the default) means the source cannot enumerate its
        documents without reading them — an in-memory collection, or a
        crawl dump whose mirror dedup compares content across files — and
        must be materialised with :meth:`iter_documents`.
        """
        return None

    def load(self, ref: "DocumentRef", *, check_stamp: bool = True) -> SciDocument:
        """The one document ``ref`` names.

        Raises :class:`StaleReference` when the document is not what the
        reference was cut from (gone, or its stamp moved; ``check_stamp=
        False`` reads whatever is there now), and :class:`ValueError` for
        a locator this source could never have issued.
        """
        raise ValueError(f"{self.kind} source cannot load documents by reference")

    def describe(self) -> dict[str, Any]:
        """Human-oriented summary (CLI listings, service logs)."""
        payload: dict[str, Any] = {"kind": self.kind}
        if self.doc_type is not None:
            payload["doc_type"] = self.doc_type.value
        hint = self.count_hint()
        if hint is not None:
            payload["n_documents"] = hint
        return payload

    # Value semantics: sources with the same kind and fingerprint will
    # yield identical documents, which is what request comparison needs.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DocumentSource):
            return NotImplemented
        return self.kind == other.kind and self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash((self.kind, self.fingerprint()))


# ---------------------------------------------------------------------- #
# Concrete sources
# ---------------------------------------------------------------------- #
class SyntheticSource(DocumentSource):
    """Today's corpus builder behind the source protocol.

    Streams documents one at a time through
    :func:`~repro.documents.corpus.build_document` instead of
    materialising the whole corpus, so arbitrarily large synthetic runs
    keep O(1) source-side memory.
    """

    kind = "synthetic"

    def __init__(self, config: CorpusConfig | None = None) -> None:
        self.config = config or CorpusConfig()

    @property
    def doc_type(self) -> DocumentType:
        return DocumentType.PDF

    def iter_documents(self) -> Iterator[SciDocument]:
        for index in range(self.config.n_documents):
            yield build_document(index, self.config)

    # ``CorpusConfig`` is frozen, so the fingerprint and the spec are computed
    # once per instance: ``load`` compares the fingerprint per document.
    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        cfg = asdict(self.config)
        return stable_hash_hex(
            "source-synthetic", *(f"{k}={cfg[k]}" for k in sorted(cfg))
        )

    def spec(self) -> "SourceSpec":
        return self._spec

    @cached_property
    def _spec(self) -> "SourceSpec":
        cfg = self.config
        options: dict[str, Any] = {"n_documents": cfg.n_documents, "seed": cfg.seed}
        defaults = CorpusConfig(n_documents=cfg.n_documents, seed=cfg.seed)
        for name in ("min_pages", "max_pages", "scanned_fraction", "name"):
            if getattr(cfg, name) != getattr(defaults, name):
                options[name] = getattr(cfg, name)
        # Nested text-generation knobs ride as a mapping so the spec stays
        # lossless for fully customised corpora.
        if cfg.textgen != defaults.textgen:
            options["textgen"] = asdict(cfg.textgen)
        return SourceSpec(kind=self.kind, options=options)

    def count_hint(self) -> int:
        return self.config.n_documents

    def refs(self) -> "Iterator[DocumentRef]":
        spec, stamp = self.spec(), self.fingerprint()
        for index in range(self.config.n_documents):
            yield DocumentRef(spec, str(index), stamp, self.doc_type.value)

    def load(self, ref: "DocumentRef", *, check_stamp: bool = True) -> SciDocument:
        index = int(ref.locator) if ref.locator.isdecimal() else -1
        if not 0 <= index < self.config.n_documents:
            raise ValueError(
                f"synthetic locator {ref.locator!r} is not an index below "
                f"{self.config.n_documents}"
            )
        if check_stamp and ref.stamp != self.fingerprint():
            raise StaleReference(
                f"synthetic corpus configuration differs from the referenced one "
                f"(document {ref.locator})"
            )
        return build_document(index, self.config)


class ExplicitSource(DocumentSource):
    """An in-memory document collection (the old ``documents=`` field).

    Not JSON-replayable: :meth:`spec` is ``None``, so a request built on it
    serialises its ``doc_ids`` for provenance and refuses replay after a
    round trip — exactly the legacy explicit-documents contract.
    """

    kind = "explicit"

    def __init__(self, documents: Any) -> None:
        self.documents: tuple[SciDocument, ...] = tuple(documents)
        if not self.documents:
            raise ValueError("documents must not be empty")

    @property
    def doc_type(self) -> DocumentType | None:
        types = {doc.doc_type for doc in self.documents}
        return DocumentType(next(iter(types))) if len(types) == 1 else None

    def iter_documents(self) -> Iterator[SciDocument]:
        return iter(self.documents)

    def fingerprint(self) -> str:
        from repro.cache.keys import document_content_hash

        return stable_hash_hex(
            "source-explicit", *(document_content_hash(d) for d in self.documents)
        )

    def count_hint(self) -> int:
        return len(self.documents)


class _FileSource(DocumentSource):
    """Shared machinery of directory-backed sources."""

    def __init__(self, directory: str | Path, glob: str) -> None:
        self.directory = Path(directory)
        self.glob = glob

    def _listing(self) -> list[tuple[Path, os.stat_result]]:
        """The matching regular files in path order, each with the one ``stat`` taken of it."""
        if not self.directory.is_dir():
            raise FileNotFoundError(
                f"{self.kind} source directory {str(self.directory)!r} does not "
                f"exist (or is not a directory)"
            )
        listing = []
        for path in self.directory.glob(self.glob):
            try:
                stat = path.stat()
            except (FileNotFoundError, NotADirectoryError):
                continue  # a dangling link, or gone since the glob saw it
            if S_ISREG(stat.st_mode):
                listing.append((path, stat))
        listing.sort(key=itemgetter(0))
        return listing

    def paths(self) -> list[Path]:
        return [path for path, _ in self._listing()]

    def fingerprint(self) -> str:
        entries = [
            f"{path.relative_to(self.directory)}:{_file_stamp(stat)}"
            for path, stat in self._listing()
        ]
        return stable_hash_hex("source-files", self.kind, self.glob, *entries)

    def count_hint(self) -> int | None:
        try:
            return len(self.paths())
        except FileNotFoundError:
            return None

    def spec(self) -> "SourceSpec":
        options: dict[str, Any] = {"path": str(self.directory)}
        default_glob = _SOURCE_REGISTRY[self.kind].defaults.get("glob")
        if self.glob != default_glob:
            options["glob"] = self.glob
        return SourceSpec(kind=self.kind, options=options)


class _PerFileSource(_FileSource):
    """Directory sources where one file is one document.

    That is what makes them reference-able: the files can be listed (and
    stamped with ``size:mtime_ns``) without opening any of them.
    """

    @abc.abstractmethod
    def _read(self, path: Path) -> SciDocument:
        """Read and extract the document stored at ``path``."""

    def iter_documents(self) -> Iterator[SciDocument]:
        for path in self.paths():
            yield self._read(path)

    def refs(self) -> "Iterator[DocumentRef]":
        spec, doc_type = self.spec(), self.doc_type.value
        for path, stat in self._listing():
            yield DocumentRef(
                spec,
                path.relative_to(self.directory).as_posix(),
                _file_stamp(stat),
                doc_type,
            )

    def load(self, ref: "DocumentRef", *, check_stamp: bool = True) -> SciDocument:
        relative = PurePosixPath(ref.locator)
        if relative.is_absolute() or ".." in relative.parts or not relative.parts:
            raise ValueError(
                f"locator {ref.locator!r} does not name a file under the "
                f"{self.kind} source root"
            )
        path = self.directory / relative
        try:
            stamp = _file_stamp(path.stat())
            if check_stamp and stamp != ref.stamp:
                raise StaleReference(
                    f"{path} changed since it was referenced "
                    f"({ref.stamp} -> {stamp})"
                )
            return self._read(path)
        except (FileNotFoundError, NotADirectoryError) as exc:
            raise StaleReference(f"{path} is not readable here: {exc}") from exc


def _file_stamp(stat: os.stat_result) -> str:
    return f"{stat.st_size}:{stat.st_mtime_ns}"


class SimPdfDirSource(_PerFileSource):
    """A directory of ``*.simpdf`` files (the existing on-disk format)."""

    kind = "simpdf-dir"

    def __init__(self, directory: str | Path, glob: str = "*.simpdf") -> None:
        super().__init__(directory, glob)

    @property
    def doc_type(self) -> DocumentType:
        return DocumentType.PDF

    def _read(self, path: Path) -> SciDocument:
        return deserialize_document(path.read_bytes())


class HtmlDirSource(_PerFileSource):
    """A directory of HTML files, extracted to structured text."""

    kind = "html-dir"

    def __init__(self, directory: str | Path, glob: str = "**/*.html") -> None:
        super().__init__(directory, glob)

    @property
    def doc_type(self) -> DocumentType:
        return DocumentType.HTML

    def _read(self, path: Path) -> SciDocument:
        blocks, title = html_to_blocks(path.read_text(encoding="utf-8", errors="replace"))
        return record_to_document(
            WebTextRecord(
                doc_id=_doc_id_for(path, self.directory),
                doc_type=DocumentType.HTML,
                blocks=tuple(blocks),
                title=title,
                origin=self.directory.name or "html",
            )
        )


class MarkdownDirSource(_PerFileSource):
    """A directory of Markdown files, extracted to structured text."""

    kind = "markdown-dir"

    def __init__(self, directory: str | Path, glob: str = "**/*.md") -> None:
        super().__init__(directory, glob)

    @property
    def doc_type(self) -> DocumentType:
        return DocumentType.MARKDOWN

    def _read(self, path: Path) -> SciDocument:
        blocks, title = markdown_to_blocks(
            path.read_text(encoding="utf-8", errors="replace")
        )
        return record_to_document(
            WebTextRecord(
                doc_id=_doc_id_for(path, self.directory),
                doc_type=DocumentType.MARKDOWN,
                blocks=tuple(blocks),
                title=title,
                origin=self.directory.name or "markdown",
            )
        )


class CrawlDumpSource(_FileSource):
    """A per-domain crawl dump: ``root/<domain>/*.{html,md}``.

    The layout produced by site crawlers — one subdirectory per crawled
    domain holding that domain's pages.  Mixed HTML/Markdown content is
    routed to the right extractor per file, the domain becomes the
    document's publisher, and exact near-duplicate mirrors (the same page
    crawled under several domains) are dropped via the dataset layer's
    :func:`~repro.datasets.dedup.content_fingerprint`.
    """

    kind = "crawl-dump"

    def __init__(
        self, directory: str | Path, glob: str = "**/*", dedup: bool = True
    ) -> None:
        super().__init__(directory, glob)
        self.dedup = bool(dedup)

    @property
    def doc_type(self) -> DocumentType | None:
        return None  # mixed per-file types

    def _listing(self) -> list[tuple[Path, os.stat_result]]:
        return [
            (path, stat)
            for path, stat in super()._listing()
            if path.suffix.lower() in (".html", ".htm", ".md", ".markdown")
        ]

    def spec(self) -> "SourceSpec":
        base = super().spec()
        options = dict(base.options)
        if not self.dedup:
            options["dedup"] = False
        return SourceSpec(kind=self.kind, options=options)

    def iter_documents(self) -> Iterator[SciDocument]:
        # Imported lazily: repro.datasets builds on the pipeline, which
        # builds on this module; deferring keeps the graph acyclic.
        from repro.datasets.dedup import content_fingerprint

        seen: set[int] = set()
        for path in self.paths():
            relative = path.relative_to(self.directory)
            domain = relative.parts[0] if len(relative.parts) > 1 else self.directory.name
            raw = path.read_text(encoding="utf-8", errors="replace")
            if path.suffix.lower() in (".md", ".markdown"):
                blocks, title = markdown_to_blocks(raw)
                doc_type = DocumentType.MARKDOWN
            else:
                blocks, title = html_to_blocks(raw)
                doc_type = DocumentType.HTML
            text = "\n".join(text for _, text in blocks)
            if self.dedup:
                fp = content_fingerprint(text)
                if fp in seen:
                    continue
                seen.add(fp)
            yield record_to_document(
                WebTextRecord(
                    doc_id=str(relative.with_suffix("")).replace("\\", "/"),
                    doc_type=doc_type,
                    blocks=tuple(blocks),
                    title=title,
                    origin=domain,
                )
            )


def _doc_id_for(path: Path, root: Path) -> str:
    return str(path.relative_to(root).with_suffix("")).replace("\\", "/")


# ---------------------------------------------------------------------- #
# Declarative specs and the registry
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SourceSpec:
    """JSON-round-trippable ``(kind, options)`` description of a source."""

    kind: str
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "options": dict(self.options)}

    @cached_property
    def options_json(self) -> str:
        """The options in canonical JSON — what :meth:`DocumentRef.key` hashes.

        Computed once per spec: every reference of one listing shares its
        spec, and a frozen spec's options do not change.
        """
        return json.dumps(self.options, sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "SourceSpec":
        unknown = sorted(set(payload) - {"kind", "options"})
        if unknown:
            raise ValueError(
                f"unknown source-spec field(s) {unknown}; expected 'kind' and "
                f"'options'"
            )
        if "kind" not in payload:
            raise ValueError("source spec is missing its 'kind'")
        return cls(
            kind=str(payload["kind"]), options=dict(payload.get("options") or {})
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceSpec):
            return NotImplemented
        return self.kind == other.kind and self.options == other.options

    def __hash__(self) -> int:
        return hash((self.kind, tuple(sorted(self.options.items()))))


class StaleReference(LookupError):
    """A :class:`DocumentRef` no longer names what it was cut from.

    The document is gone from where this process looks, or its stamp has
    moved; whoever holds the reference should fetch the document another
    way instead of trusting it.
    """


@dataclass(frozen=True)
class DocumentRef:
    """One document of a source, named without reading it.

    Attributes
    ----------
    source:
        The spec that rebuilds the source (:func:`create_source`).
    locator:
        Where in the source the document is: the index for ``synthetic``,
        the ``/``-separated path relative to the root for directory kinds.
    stamp:
        What the document looked like when the reference was cut —
        ``size:mtime_ns`` for a file, the configuration fingerprint for
        ``synthetic``.  :meth:`DocumentSource.load` compares it, so a
        reader that sees a different document finds out.
    doc_type:
        The source's declared :class:`DocumentType` value.
    """

    source: SourceSpec
    locator: str
    stamp: str
    doc_type: str | None = None

    def __hash__(self) -> int:
        # Not the generated field hash: a spec's options may nest a mapping
        # (``synthetic``'s ``textgen``), which is comparable but unhashable.
        return hash((self.locator, self.stamp))

    def key(self) -> str:
        """Stable hex identity of (spec, locator, stamp).

        Stands where a content hash would for placement, checkpoints and the
        parse cache's reference index: it moves whenever the referenced
        bytes can have moved.
        """
        return self._key

    @cached_property
    def _key(self) -> str:
        return stable_hash_hex(
            "document-ref",
            self.source.kind,
            self.source.options_json,
            self.locator,
            self.stamp,
        )

    @property
    def modified_ns(self) -> int | None:
        """The ``mtime_ns`` of a file stamp; ``None`` when the stamp is not a file's."""
        _, colon, modified = self.stamp.partition(":")
        return int(modified) if colon and modified.isdecimal() else None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "source": self.source.to_json_dict(),
            "locator": self.locator,
            "stamp": self.stamp,
            "doc_type": self.doc_type,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "DocumentRef":
        missing = sorted({"source", "locator", "stamp"} - set(payload))
        if missing:
            raise ValueError(f"document reference is missing {missing}")
        doc_type = payload.get("doc_type")
        return cls(
            source=SourceSpec.from_json_dict(payload["source"]),
            locator=str(payload["locator"]),
            stamp=str(payload["stamp"]),
            doc_type=None if doc_type is None else str(doc_type),
        )


#: What a batch is made of: a document, or a reference to be read where the
#: batch is parsed.
Item = SciDocument | DocumentRef


class StaleReferences(StaleReference):
    """Every reference of one batch that did not load; ``refs`` says which."""

    def __init__(self, message: str, refs: "Sequence[DocumentRef]" = ()) -> None:
        super().__init__(message)
        self.refs = list(refs)


class BadReference(ValueError):
    """A reference no source here could have issued: an unknown kind or
    option, or a locator outside the source.  Fetching the document another
    way will not help — the reference itself is wrong."""


def load_items(items: Sequence[Item]) -> list[SciDocument]:
    """One batch of items as documents: the one place a reference is read.

    Documents pass through; each :class:`DocumentRef` is read from its
    source — built once per spec per call — under one ``source.load`` phase
    (no phase row when there is nothing to read).  Every reference is
    tried, and one :class:`StaleReferences` names all that did not load.
    """
    documents = list(items)
    slots = [slot for slot, item in enumerate(documents) if isinstance(item, DocumentRef)]
    if not slots:
        return documents
    sources: dict[tuple[str, str], DocumentSource] = {}
    failures: dict[DocumentRef, StaleReference] = {}
    with _profiling.phase("source.load"):
        for slot in slots:
            ref = documents[slot]
            built = (ref.source.kind, ref.source.options_json)
            try:
                source = sources.get(built)
                if source is None:
                    # Registered kinds only, options validated.
                    source = sources[built] = create_source(ref.source)
                documents[slot] = source.load(ref)
            except StaleReference as exc:
                failures[ref] = exc
            except ValueError as exc:
                raise BadReference(str(exc)) from exc
    if failures:
        raise StaleReferences("; ".join(map(str, failures.values())), failures)
    return documents


@dataclass(frozen=True)
class SourceKind:
    """Name-based construction recipe of one source kind.

    ``path_option`` names the option the CLI's ``kind:value`` shorthand
    binds to; ``defaults`` records option defaults so specs stay minimal.
    """

    name: str
    factory: Callable[..., DocumentSource]
    options: frozenset[str]
    description: str
    path_option: str | None = None
    defaults: Mapping[str, Any] = field(default_factory=dict)


def _make_synthetic(**options: Any) -> SyntheticSource:
    known = {"n_documents", "seed", "min_pages", "max_pages", "scanned_fraction", "name"}
    config_kwargs = {k: v for k, v in options.items() if k in known}
    for name in ("n_documents", "seed", "min_pages", "max_pages"):
        if name in config_kwargs:
            config_kwargs[name] = int(config_kwargs[name])
    textgen = options.get("textgen")
    if textgen is not None:
        from dataclasses import fields as dc_fields

        from repro.documents.textgen import TextGenConfig

        tg_known = {f.name for f in dc_fields(TextGenConfig)}
        config_kwargs["textgen"] = TextGenConfig(
            **{k: v for k, v in dict(textgen).items() if k in tg_known}
        )
    return SyntheticSource(CorpusConfig(**config_kwargs))


_SOURCE_REGISTRY: dict[str, SourceKind] = {}


def register_source(spec: SourceKind) -> None:
    """Register (or replace) a source kind under its name."""
    _SOURCE_REGISTRY[spec.name] = spec


for _kind in (
    SourceKind(
        name="synthetic",
        factory=_make_synthetic,
        options=frozenset(
            {
                "n_documents",
                "seed",
                "min_pages",
                "max_pages",
                "scanned_fraction",
                "name",
                "textgen",
            }
        ),
        description="generated synthetic corpus (the existing corpus builder)",
        path_option="n_documents",
    ),
    SourceKind(
        name="simpdf-dir",
        factory=SimPdfDirSource,
        options=frozenset({"directory", "path", "glob"}),
        description="directory of *.simpdf files",
        path_option="path",
        defaults={"glob": "*.simpdf"},
    ),
    SourceKind(
        name="html-dir",
        factory=HtmlDirSource,
        options=frozenset({"directory", "path", "glob"}),
        description="directory of HTML files (structure-preserving extraction)",
        path_option="path",
        defaults={"glob": "**/*.html"},
    ),
    SourceKind(
        name="markdown-dir",
        factory=MarkdownDirSource,
        options=frozenset({"directory", "path", "glob"}),
        description="directory of Markdown files",
        path_option="path",
        defaults={"glob": "**/*.md"},
    ),
    SourceKind(
        name="crawl-dump",
        factory=CrawlDumpSource,
        options=frozenset({"directory", "path", "glob", "dedup"}),
        description="per-domain crawl dump (mixed HTML/Markdown, deduplicated)",
        path_option="path",
        defaults={"glob": "**/*", "dedup": True},
    ),
):
    register_source(_kind)


def source_names() -> list[str]:
    """Known source kinds (sorted)."""
    return sorted(_SOURCE_REGISTRY)


def source_kinds() -> list[SourceKind]:
    """Registered source kinds (sorted by name; for docs and CLI help)."""
    return [_SOURCE_REGISTRY[name] for name in source_names()]


def validate_source_spec(spec: SourceSpec) -> None:
    """Fail fast on an unknown kind or misspelled options.

    Filesystem state is deliberately *not* checked: a spec may be
    validated on a submitting client whose paths only exist on the
    executing service.
    """
    kind = _SOURCE_REGISTRY.get(spec.kind)
    if kind is None:
        raise ValueError(
            f"unknown document source {spec.kind!r}"
            f"{_suggest(spec.kind, source_names())}; known: {source_names()}"
        )
    for option in spec.options:
        if option not in kind.options:
            raise ValueError(
                f"unknown option {option!r} for source {spec.kind!r}"
                f"{_suggest(option, sorted(kind.options))}; "
                f"known: {sorted(kind.options)}"
            )


def create_source(spec: SourceSpec | DocumentSource) -> DocumentSource:
    """Resolve a spec (or pass an instance through) into a source."""
    if isinstance(spec, DocumentSource):
        return spec
    validate_source_spec(spec)
    kind = _SOURCE_REGISTRY[spec.kind]
    options = dict(spec.options)
    # ``path`` is the spec-facing spelling of the factories' ``directory``.
    if "path" in options:
        options.setdefault("directory", options.pop("path"))
    return kind.factory(**options)


def _coerce_option_value(value: str) -> Any:
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def parse_source_arg(raw: str) -> SourceSpec:
    """Parse the CLI's ``--source`` shorthand into a validated spec.

    ``kind:value`` binds ``value`` to the kind's primary option (the
    directory for file sources, the document count for ``synthetic``);
    further options ride as ``?key=value&key=value``::

        html-dir:corpus/html
        crawl-dump:dumps/2024-07?dedup=false
        synthetic:500?seed=7
    """
    raw = raw.strip()
    if not raw:
        raise ValueError("empty --source value")
    head, _, query = raw.partition("?")
    kind_name, _, primary = head.partition(":")
    kind = _SOURCE_REGISTRY.get(kind_name)
    if kind is None:
        raise ValueError(
            f"unknown document source {kind_name!r}"
            f"{_suggest(kind_name, source_names())}; known: {source_names()}"
        )
    options: dict[str, Any] = {}
    if primary:
        if kind.path_option is None:
            raise ValueError(f"source {kind_name!r} takes no positional value")
        options[kind.path_option] = (
            _coerce_option_value(primary) if kind.path_option != "path" else primary
        )
    for pair in filter(None, query.split("&")):
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"malformed --source option {pair!r}; expected key=value")
        options[key.strip()] = _coerce_option_value(value.strip())
    spec = SourceSpec(kind=kind_name, options=options)
    validate_source_spec(spec)
    return spec
