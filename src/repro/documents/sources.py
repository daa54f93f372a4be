"""Pluggable document sources: where a parsing run's documents come from.

A :class:`DocumentSource` answers two questions for the pipeline:

* :meth:`~DocumentSource.iter_documents` — stream the documents (O(1)
  memory for directory-backed sources);
* :meth:`~DocumentSource.fingerprint` — a stable identity of the backing
  content, recorded in reports for provenance (per-document parse caching
  keys on *content*, so two sources yielding byte-identical documents
  share cache entries regardless of their fingerprints).

Sources that can enumerate their documents *without reading them*
(``synthetic`` by index, ``simpdf-dir`` by relative path) also offer
:meth:`~DocumentSource.refs` — a stream of small JSON-round-trippable
:class:`DocumentRef` values — and
:meth:`~DocumentSource.load`, which turns one reference back into its
document.  A reference-able source is read where it is parsed, on every
execution backend: a run holds references, and :func:`load_items` — the one
place a reference becomes its document — is called at the execution site, by
whichever thread or worker daemon parses the batch.  Such a source's
:meth:`~DocumentSource.iter_documents` is :meth:`~DocumentSource.load` over
its references, and every loaded document remembers the reference it was
read through (:func:`document_origin`), so the parse cache can key that
reference by a stat the next time it is listed.

Sources are constructed either directly (``SimPdfDirSource("corpus")``)
or declaratively through a :class:`SourceSpec` — a JSON-round-trippable
``(kind, options)`` pair resolved against the closed table of two kinds,
mirroring how execution backends are named
(:mod:`repro.pipeline.backends.base`); a kind's options are read from its
constructor.  The spec form is what travels in ``ParseRequest`` JSON,
gateway request files, and the CLI's ``--source kind:path`` shorthand;
option typos fail loudly at construction with a did-you-mean suggestion.
"""

from __future__ import annotations

import abc
import contextlib
import difflib
import fnmatch
import inspect
import json
import os
import re
import time
from dataclasses import asdict, dataclass, field, fields
from functools import cache, cached_property
from pathlib import Path, PurePosixPath
from stat import S_ISREG
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from repro.documents.corpus import CorpusConfig, build_document
from repro.documents.document import SciDocument
from repro.documents.simpdf import deserialize_document
from repro.documents.textgen import TextGenConfig
from repro.obs import profiling as _profiling
from repro.utils.hashing import frame_text, framed_hash_hex, stable_hash_hex


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

    #: Kind of the source (``"synthetic"``, ``"simpdf-dir"``, …).
    kind: str = "abstract"

    def iter_documents(self) -> Iterator[SciDocument]:
        """Stream the documents in a stable, deterministic order.

        For a source with :meth:`refs`: each reference loaded as it stands
        now (``check_stamp=False``), so every document carries its origin.
        """
        refs = self.refs()
        if refs is None:
            raise NotImplementedError(f"{self.kind} source lists no references")
        for ref in refs:
            yield self.load(ref, check_stamp=False)

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

    def refs(self) -> "Iterator[DocumentRef] | None":
        """References to the documents, in :meth:`iter_documents` order.

        ``None`` (the default) means the source cannot enumerate its
        documents without reading them — an in-memory collection — and
        must be materialised with :meth:`iter_documents`.
        """
        return None

    def load(self, ref: "DocumentRef", *, check_stamp: bool = True) -> SciDocument:
        """The one document ``ref`` names.

        Raises :class:`StaleReference` when the document is not what the
        reference was cut from (gone, or its stamp moved; ``check_stamp=
        False`` reads whatever is there now), and :class:`ValueError` for
        a locator this source could never have issued.  The document's
        :func:`document_origin` is ``ref`` with the stamp that was read, and
        the moment it was read.
        """
        raise ValueError(f"{self.kind} source cannot load documents by reference")

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

    def refs(self) -> "Iterator[DocumentRef]":
        spec, stamp = self.spec(), self.fingerprint()
        for index in range(self.config.n_documents):
            yield DocumentRef(spec, str(index), stamp)

    def load(self, ref: "DocumentRef", *, check_stamp: bool = True) -> SciDocument:
        index = int(ref.locator) if ref.locator.isdecimal() else -1
        if not 0 <= index < self.config.n_documents:
            raise ValueError(
                f"synthetic locator {ref.locator!r} is not an index below "
                f"{self.config.n_documents}"
            )
        read_ns, stamp = time.time_ns(), self.fingerprint()
        if check_stamp and ref.stamp != stamp:
            raise StaleReference(
                f"synthetic corpus configuration differs from the referenced one "
                f"(document {ref.locator})"
            )
        return _with_origin(build_document(index, self.config), ref, stamp, read_ns)


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

    def iter_documents(self) -> Iterator[SciDocument]:
        return iter(self.documents)

    def fingerprint(self) -> str:
        from repro.cache.keys import document_content_hash

        return stable_hash_hex(
            "source-explicit", *(document_content_hash(d) for d in self.documents)
        )


class SimPdfDirSource(DocumentSource):
    """A directory of ``*.simpdf`` files, one document per file.

    That is what makes it reference-able: the files can be listed (and
    stamped with ``size:mtime_ns``) without opening any of them.

    ``glob`` is matched the way pathlib's ``glob`` matches on POSIX, one
    ``/``-separated component at a time and case-sensitively: ``*`` matches
    hidden names, a non-``**`` component follows directory symlinks, and
    ``**`` matches zero or more directories without descending into
    symlinked ones.  It must name files under the root: an empty or
    absolute pattern, one ending in ``/`` (directories only) or one with a
    ``..`` component is refused here.
    """

    kind = "simpdf-dir"
    default_glob = "*.simpdf"

    def __init__(self, directory: str | Path, glob: str = default_glob) -> None:
        self.directory = Path(directory)
        self.glob = glob
        self._pattern = _compile_glob(glob)

    def _listing(self) -> list[tuple[str, os.stat_result]]:
        """The matching regular files as ``(locator, stat)``, in path order.

        A locator is the ``/``-separated path under the root.  Each file is
        stat'ed once, following links.
        """
        root = os.fspath(self.directory)
        if not os.path.isdir(root):
            raise FileNotFoundError(
                f"{self.kind} source directory {root!r} does not "
                f"exist (or is not a directory)"
            )
        found: dict[str, os.stat_result] = {}
        _select(root, "", self._pattern, found)
        # ``Path`` order: component by component, so ``a/b/z`` precedes ``a-b/w``.
        return sorted(found.items(), key=lambda item: item[0].split("/"))

    def paths(self) -> list[Path]:
        return [self.directory / locator for locator, _ in self._listing()]

    def fingerprint(self) -> str:
        entries = [f"{locator}:{_file_stamp(stat)}" for locator, stat in self._listing()]
        return stable_hash_hex("source-files", self.kind, self.glob, *entries)

    def spec(self) -> "SourceSpec":
        options: dict[str, Any] = {"path": str(self.directory)}
        if self.glob != self.default_glob:
            options["glob"] = self.glob
        return SourceSpec(kind=self.kind, options=options)

    def _read(self, path: Path) -> SciDocument:
        return deserialize_document(path.read_bytes())

    def refs(self) -> "Iterator[DocumentRef]":
        spec = self.spec()
        for locator, stat in self._listing():
            yield DocumentRef(spec, locator, _file_stamp(stat))

    def load(self, ref: "DocumentRef", *, check_stamp: bool = True) -> SciDocument:
        relative = PurePosixPath(ref.locator)
        if relative.is_absolute() or ".." in relative.parts or not relative.parts:
            raise ValueError(
                f"locator {ref.locator!r} does not name a file under the "
                f"{self.kind} source root"
            )
        path = self.directory / relative
        read_ns = time.time_ns()
        try:
            stamp = _file_stamp(path.stat())
            if check_stamp and stamp != ref.stamp:
                raise StaleReference(
                    f"{path} changed since it was referenced "
                    f"({ref.stamp} -> {stamp})"
                )
            document = self._read(path)
        except (FileNotFoundError, NotADirectoryError) as exc:
            raise StaleReference(f"{path} is not readable here: {exc}") from exc
        return _with_origin(document, ref, stamp, read_ns)


#: A compiled glob: one matcher per ``/``-separated component, ``None`` for ``**``.
_Pattern = tuple["re.Pattern[str] | None", ...]


def _compile_glob(glob: object) -> _Pattern:
    """Compile a ``simpdf-dir`` glob, refusing one that does not stay under the root."""
    if not isinstance(glob, str):
        raise ValueError(f"source 'simpdf-dir' option 'glob' must be a string, not {glob!r}")
    components = [part for part in glob.split("/") if part not in ("", ".")]
    if glob.startswith("/") or glob.endswith("/") or not components or ".." in components:
        raise ValueError(
            f"source 'simpdf-dir' option 'glob' must name files under the source "
            f"root: {glob!r} is empty, absolute, ends in '/' or has a '..' component"
        )
    if any("**" in part and part != "**" for part in components):
        raise ValueError(f"invalid glob {glob!r}: '**' can only be an entire component")
    return tuple(
        None if part == "**" else re.compile(fnmatch.translate(part))
        for part in components
    )


def _scandir(directory: str) -> list[os.DirEntry[str]]:
    try:
        with os.scandir(directory) as entries:
            return list(entries)
    except (PermissionError, FileNotFoundError, NotADirectoryError):
        return []  # unreadable, or gone since its parent was listed


def _directories(directory: str, prefix: str) -> Iterator[tuple[str, str]]:
    """``directory`` and every directory below it, not entering symlinks (``**``)."""
    yield directory, prefix
    for entry in _scandir(directory):
        if entry.is_dir(follow_symlinks=False):
            yield from _directories(entry.path, f"{prefix}{entry.name}/")


def _select(
    directory: str,
    prefix: str,
    pattern: _Pattern,
    found: dict[str, os.stat_result],
) -> None:
    """Add to ``found`` each regular file under ``directory`` that ``pattern``
    matches, with its stat (:func:`_regular_stat`).

    ``prefix`` is ``directory``'s locator plus ``/`` (``""`` at the root).  A
    file reached twice (``**/**``) is stat'ed and listed once.
    """
    head, rest = pattern[0], pattern[1:]
    if head is None:
        if rest:  # a trailing ``**`` names directories only
            for below, below_prefix in _directories(directory, prefix):
                _select(below, below_prefix, rest, found)
        return
    for entry in _scandir(directory):
        if not head.match(entry.name):
            continue
        locator = prefix + entry.name
        if rest:
            if entry.is_dir():
                _select(entry.path, locator + "/", rest, found)
            continue
        if locator in found:
            continue
        stat = _regular_stat(entry)
        if stat is not None:
            found[locator] = stat


def _regular_stat(entry: os.DirEntry[str]) -> os.stat_result | None:
    """``entry``'s stat, following links, if it is a regular file."""
    try:
        stat = os.stat(entry.path)
    except (FileNotFoundError, NotADirectoryError):
        return None  # a dangling link, or gone since it was listed
    return stat if S_ISREG(stat.st_mode) else None


def _file_stamp(stat: os.stat_result) -> str:
    return f"{stat.st_size}:{stat.st_mtime_ns}"


# ---------------------------------------------------------------------- #
# Declarative specs and the table of kinds
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
        """The options in canonical JSON, as :meth:`DocumentRef.key` hashes them.

        Computed once per spec: every reference of one listing shares its
        spec, and a frozen spec's options do not change.
        """
        return json.dumps(self.options, sort_keys=True)

    @cached_property
    def key_prefix(self) -> bytes:
        """The framed head every :meth:`DocumentRef.key` of this spec hashes.

        Bytes, not a started ``blake2b``: a hash object cannot be pickled or
        deep-copied, and references travel both ways.
        """
        return frame_text("document-ref", self.kind, self.options_json)

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


#: Bound of the process-wide memo behind :meth:`DocumentRef.key`.  Every
#: listing makes new references, so a re-run over the same files keys them
#: by lookup instead of by hashing; a key is a pure function of its entry's
#: tuple, so sharing the memo changes no answer.  It is cleared when full,
#: which keeps it under ~6 MB (entries of at most ~0.4 KB: the tuple, the
#: two strings it holds and the hex key).
_REF_KEY_MEMO_ENTRIES = 16384
_REF_KEYS: dict[tuple[bytes, str, str], str] = {}


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
    """

    source: SourceSpec
    locator: str
    stamp: str

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
        # Memoised by hand: ``cached_property`` takes a lock per first access
        # on Python 3.11, and every reference of a listing is keyed once.
        key = self.__dict__.get("_key")
        if key is None:
            prefix = self.source.key_prefix
            identity = (prefix, self.locator, self.stamp)
            key = _REF_KEYS.get(identity)
            if key is None:
                key = framed_hash_hex(prefix + frame_text(self.locator, self.stamp))
                if len(_REF_KEYS) >= _REF_KEY_MEMO_ENTRIES:
                    _REF_KEYS.clear()
                _REF_KEYS[identity] = key
            self.__dict__["_key"] = key
        return key

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
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "DocumentRef":
        missing = sorted({"source", "locator", "stamp"} - set(payload))
        if missing:
            raise ValueError(f"document reference is missing {missing}")
        return cls(
            source=SourceSpec.from_json_dict(payload["source"]),
            locator=str(payload["locator"]),
            stamp=str(payload["stamp"]),
        )


#: What a batch is made of: a document, or a reference to be read where the
#: batch is parsed.
Item = SciDocument | DocumentRef

#: Attribute a loaded document carries its origin under, set like the
#: content-hash memo (:mod:`repro.cache.keys`) and dropped like it by every
#: derived copy.
_ORIGIN_ATTR = "_repro_source_origin"


class Origin(NamedTuple):
    """The reference a document was read through, and when."""

    #: The reference, with the stamp ``load`` saw just before the read.
    ref: DocumentRef
    #: ``time.time_ns()`` just before that stamp was taken: a file's stamp
    #: is trusted only if its mtime was already old at this moment.
    read_ns: int


def _with_origin(
    document: SciDocument, ref: DocumentRef, stamp: str, read_ns: int
) -> SciDocument:
    """``document``, tagged with ``ref`` as it stood (``stamp``) when read."""
    if ref.stamp != stamp:
        ref = DocumentRef(ref.source, ref.locator, stamp)
    with contextlib.suppress(AttributeError, TypeError):  # slotted/frozen doubles
        setattr(document, _ORIGIN_ATTR, Origin(ref, read_ns))
    return document


def document_origin(document: SciDocument) -> Origin | None:
    """The reference a source's ``load`` read ``document`` through, if any.

    A copy made from the document (``with_text_layer``,
    ``dataclasses.replace``) has none.
    """
    return getattr(document, _ORIGIN_ATTR, None)


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
                    # Known kinds only, options validated.
                    source = sources[built] = create_source(ref.source)
                documents[slot] = source.load(ref)
            except StaleReference as exc:
                failures[ref] = exc
            except ValueError as exc:
                raise BadReference(str(exc)) from exc
    if failures:
        raise StaleReferences("; ".join(map(str, failures.values())), failures)
    return documents


def _check_options(options: Any, known: frozenset[str], owner: str) -> None:
    """Refuse the first option of ``options`` that is not in ``known``."""
    for option in options:
        if option not in known:
            raise ValueError(
                f"unknown option {option!r} for {owner}"
                f"{_suggest(option, sorted(known))}; known: {sorted(known)}"
            )


def _make_synthetic(**options: Any) -> SyntheticSource:
    for name in ("n_documents", "seed", "min_pages", "max_pages"):
        if name in options:
            value = options[name]
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(
                    f"synthetic option {name!r} must be an integer, not {value!r}"
                )
            options[name] = int(value)
    textgen = options.pop("textgen", None)
    if textgen is not None:
        if not isinstance(textgen, Mapping):
            raise ValueError(f"synthetic option 'textgen' must be a mapping, not {textgen!r}")
        textgen = dict(textgen)
        known = frozenset(f.name for f in fields(TextGenConfig))
        _check_options(textgen, known, "'textgen' of source 'synthetic'")
        for name, value in textgen.items():
            # Every knob is an integer; a string is not read as one here.
            integral = isinstance(value, float) and value.is_integer()
            if not integral and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(
                    f"synthetic option 'textgen.{name}' must be an integer, not {value!r}"
                )
            textgen[name] = int(value)
        options["textgen"] = TextGenConfig(**textgen)
    return SyntheticSource(CorpusConfig(**options))


#: Source kind → its constructor and the option the CLI's ``kind:value``
#: shorthand binds.  The set is closed; a kind's options are read from its
#: constructor (:func:`_source_options`).
_SOURCES: dict[str, tuple[Callable[..., DocumentSource], str]] = {
    "synthetic": (_make_synthetic, "n_documents"),
    "simpdf-dir": (SimPdfDirSource, "path"),
}


@cache
def _source_options(kind: str) -> frozenset[str]:
    """The options source ``kind`` takes: ``synthetic``'s are the fields of
    :class:`CorpusConfig`, ``simpdf-dir``'s its constructor's parameters and
    ``path``, the spec-facing spelling of ``directory``."""
    if kind == "synthetic":
        return frozenset(f.name for f in fields(CorpusConfig))
    factory, primary_option = _SOURCES[kind]
    return frozenset(inspect.signature(factory).parameters) | {primary_option}


def source_names() -> list[str]:
    """Known source kinds (sorted)."""
    return sorted(_SOURCES)


def _unknown_kind(kind: str) -> ValueError:
    return ValueError(
        f"unknown document source {kind!r}"
        f"{_suggest(kind, source_names())}; known: {source_names()}"
    )


def validate_source_spec(spec: SourceSpec) -> None:
    """Fail fast on an unknown kind or misspelled options.

    Filesystem state is deliberately *not* checked: a spec may be
    validated on a submitting client whose paths only exist on the
    executing service.
    """
    if spec.kind not in _SOURCES:
        raise _unknown_kind(spec.kind)
    _check_options(spec.options, _source_options(spec.kind), f"source {spec.kind!r}")


def create_source(spec: SourceSpec | DocumentSource) -> DocumentSource:
    """Resolve a spec (or pass an instance through) into a source."""
    if isinstance(spec, DocumentSource):
        return spec
    validate_source_spec(spec)
    factory, primary_option = _SOURCES[spec.kind]
    options = dict(spec.options)
    # ``path`` is the spec-facing spelling of the factories' ``directory``.
    if "path" in options:
        options.setdefault("directory", options.pop("path"))
    if primary_option == "path" and not options.get("directory"):
        raise ValueError(f"source {spec.kind!r} needs a 'path', e.g. {spec.kind}:corpus")
    return factory(**options)


def _coerce_option_value(value: str) -> Any:
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

        simpdf-dir:corpus
        simpdf-dir:corpus?glob=**/*.simpdf
        synthetic:500?seed=7
    """
    raw = raw.strip()
    if not raw:
        raise ValueError("empty --source value")
    head, _, query = raw.partition("?")
    kind_name, _, primary = head.partition(":")
    if kind_name not in _SOURCES:
        raise _unknown_kind(kind_name)
    option = _SOURCES[kind_name][1]
    options: dict[str, Any] = {}
    if primary:
        options[option] = primary if option == "path" else _coerce_option_value(primary)
    for pair in filter(None, query.split("&")):
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"malformed --source option {pair!r}; expected key=value")
        options[key.strip()] = _coerce_option_value(value.strip())
    spec = SourceSpec(kind=kind_name, options=options)
    validate_source_spec(spec)
    return spec
