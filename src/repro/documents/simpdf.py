"""SimPDF: a serialisable container format for synthetic documents.

The paper's pipeline reads PDFs from a Lustre filesystem, aggregates them into
compressed ZIP archives, and stages those archives to node-local RAM storage.
SimPDF is the reproduction's on-disk stand-in: a zlib-compressed JSON container
holding a document's ground truth, text layer, image layer and metadata.  The
archive variant packs many documents into one file so the HPC simulator and
the examples exercise the same aggregation/staging pattern with realistic
byte sizes.

Two layouts are read, told apart by their magic prefix; the one writer
(:func:`serialize_document`, behind :class:`SimPdfWriter` and
:class:`SimPdfArchive`) writes the second.

``SIMPDF1\\n`` + one zlib stream
    The UTF-8 JSON of :func:`document_to_dict`, everything in one stream.

``SIMPDF2\\n`` + header length (4 bytes, little-endian) + header + pages
    *header* is one zlib stream of the JSON of everything but the page
    content: ``doc_id``, ``seed``, metadata, the image layer, the text layer
    and each page's element ``kinds``.  *pages* is one zlib stream of the
    JSON list of ``[index, [[text, latex], ...]]``, one per page, compressed
    with the last 32 KB of the UTF-8 text layer (pages joined by ``\\n``)
    as zlib preset dictionary: the text layer is a near-copy of the ground
    truth, so the page content costs a few percent of the file, not a
    third.  Both streams are UTF-8 with ``surrogatepass``, so every string a
    document can hold round-trips, a lone surrogate included.

Reading a second-layout file decodes the header only.  The document's
``pages`` is a :class:`~repro.documents.document.LazyPages` that knows its
length and its element kinds, and decodes the pages stream the first time a
page is touched.  What reads only the layers, the metadata, the page count
or :attr:`~repro.documents.document.SciDocument.equation_fraction` never
decodes it: extraction parsers (PyMuPDF, pypdf), CLS I, CLS II and every
parser's cost model.  Nor does the parse cache's content hash, which hashes
the inflated stream (:func:`page_content_bytes`), or the writer.  What reads
the ground truth decodes it, once per document object: recognition parsers
(Nougat and the others an engine routes to), :func:`document_to_dict` (the
cluster's inline payloads) and evaluation.
"""

from __future__ import annotations

import io
import json
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.documents.document import (
    ELEMENT_KINDS,
    ImageLayer,
    LazyPages,
    PageContent,
    PageElement,
    SciDocument,
    TextLayer,
    TextLayerQuality,
)
from repro.documents.metadata import DocumentMetadata

#: Magic prefix of the first SimPDF layout (one stream); still read.
MAGIC = b"SIMPDF1\n"
#: Magic prefix of the layout the writer writes (header, then pages).
MAGIC_V2 = b"SIMPDF2\n"
#: Bytes of the text layer zlib keeps as the pages stream's dictionary: its
#: whole window, so a longer dictionary would be cut to this anyway.
_DICTIONARY_BYTES = 32 * 1024
_KINDS = {kind: kind for kind in ELEMENT_KINDS}


def _fields(doc: SciDocument, **pages: object) -> dict[str, object]:
    """:func:`document_to_dict`'s fields, with ``pages`` (if given) in its place."""
    return {
        "doc_id": doc.doc_id,
        "seed": doc.seed,
        "metadata": doc.metadata.to_dict(),
        **pages,
        "text_layer": {
            "quality": doc.text_layer.quality.value,
            "producer": doc.text_layer.producer,
            "page_texts": list(doc.text_layer.page_texts),
        },
        "image_layer": {
            "dpi": doc.image_layer.dpi,
            "rotation_deg": doc.image_layer.rotation_deg,
            "blur_sigma": doc.image_layer.blur_sigma,
            "contrast": doc.image_layer.contrast,
            "noise_level": doc.image_layer.noise_level,
            "jpeg_quality": doc.image_layer.jpeg_quality,
            "is_scanned": doc.image_layer.is_scanned,
        },
    }


def document_to_dict(doc: SciDocument) -> dict[str, object]:
    """Convert a document to a JSON-serialisable dictionary."""
    return _fields(
        doc,
        pages=[
            {
                "index": page.index,
                "elements": [
                    {"kind": el.kind, "text": el.text, "latex": el.latex}
                    for el in page.elements
                ],
            }
            for page in doc.pages
        ],
    )


def _assemble(data: dict[str, object], pages: Sequence[PageContent]) -> SciDocument:
    """A document from :func:`document_to_dict`'s fields and its pages."""
    tl = data["text_layer"]  # type: ignore[index]
    il = data["image_layer"]  # type: ignore[index]
    return SciDocument(
        doc_id=str(data["doc_id"]),
        seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
        metadata=DocumentMetadata.from_dict(dict(data["metadata"])),  # type: ignore[arg-type]
        pages=pages,
        text_layer=TextLayer(
            quality=TextLayerQuality(tl["quality"]),
            page_texts=list(tl["page_texts"]),
            producer=str(tl["producer"]),
        ),
        image_layer=ImageLayer(
            dpi=int(il["dpi"]),
            rotation_deg=float(il["rotation_deg"]),
            blur_sigma=float(il["blur_sigma"]),
            contrast=float(il["contrast"]),
            noise_level=float(il["noise_level"]),
            jpeg_quality=int(il["jpeg_quality"]),
            is_scanned=bool(il["is_scanned"]),
        ),
    )


def document_from_dict(data: dict[str, object]) -> SciDocument:
    """Inverse of :func:`document_to_dict`."""
    pages = [
        PageContent(
            index=int(p["index"]),  # type: ignore[index,arg-type]
            elements=tuple(
                PageElement(kind=e["kind"], text=e["text"], latex=e.get("latex"))
                for e in p["elements"]  # type: ignore[index]
            ),
        )
        for p in data["pages"]  # type: ignore[union-attr]
    ]
    return _assemble(data, pages)


def _utf8(value: object) -> bytes:
    return json.dumps(value, ensure_ascii=False).encode("utf-8", "surrogatepass")


def _from_utf8(payload: bytes) -> object:
    return json.loads(payload.decode("utf-8", "surrogatepass"))


def _pages_dictionary(page_texts: Sequence[str]) -> bytes:
    """The pages stream's zlib preset dictionary: the text layer's tail."""
    return "\n".join(page_texts).encode("utf-8", "surrogatepass")[-_DICTIONARY_BYTES:]


def _inflate_pages(stream: bytes, page_texts: tuple[str, ...]) -> bytes:
    """A second-layout pages stream, inflated: :func:`page_content_bytes`."""
    inflater = zlib.decompressobj(zdict=_pages_dictionary(page_texts))
    return inflater.decompress(stream) + inflater.flush()


def _decode_pages(kinds: tuple[tuple[str, ...], ...], content: bytes) -> list[PageContent]:
    """Build the pages of an inflated pages stream (what :class:`LazyPages` calls)."""
    return [
        PageContent(
            index=int(index),
            elements=tuple(
                PageElement(kind=kind, text=text, latex=latex)
                for kind, (text, latex) in zip(page_kinds, elements, strict=True)
            ),
        )
        for page_kinds, (index, elements) in zip(kinds, _from_utf8(content), strict=True)  # type: ignore[arg-type]
    ]


def page_content_bytes(pages: Sequence[PageContent]) -> bytes:
    """The pages' content as the second layout's pages stream holds it.

    The UTF-8 (``surrogatepass``) JSON of ``[[index, [[text, latex], ...]],
    ...]``: every page's text and LaTeX, not its element kinds.  The writer
    compresses exactly these bytes and the parse cache's content hash hashes
    them, so the two cannot drift.  An undecoded :class:`LazyPages` returns
    its inflated stream, parsing no JSON and building no page.
    """
    if isinstance(pages, LazyPages):
        encoded = pages.encoded()
        if encoded is not None:
            return encoded
    return _utf8(
        [[page.index, [[el.text, el.latex] for el in page.elements]] for page in pages]
    )


def serialize_document(doc: SciDocument, compress_level: int = 6) -> bytes:
    """Serialise one document to SimPDF bytes (the second layout)."""
    header = _fields(doc)
    header["kinds"] = doc.element_kinds
    head = zlib.compress(_utf8(header), compress_level)
    deflater = zlib.compressobj(
        compress_level, zdict=_pages_dictionary(doc.text_layer.page_texts)
    )
    body = deflater.compress(page_content_bytes(doc.pages)) + deflater.flush()
    return MAGIC_V2 + len(head).to_bytes(4, "little") + head + body


def deserialize_document(blob: bytes) -> SciDocument:
    """Parse SimPDF bytes (either layout) back into a document.

    A second-layout document's pages decode on first use (module docstring).
    """
    if blob.startswith(MAGIC):
        payload = zlib.decompress(blob[len(MAGIC):])
        return document_from_dict(json.loads(payload.decode("utf-8")))
    if not blob.startswith(MAGIC_V2):
        raise ValueError("not a SimPDF payload (bad magic)")
    start = len(MAGIC_V2) + 4
    end = start + int.from_bytes(blob[len(MAGIC_V2):start], "little")
    header = _from_utf8(zlib.decompress(blob[start:end]))
    try:  # one shared string per kind, not one per element and document
        kinds = tuple(
            tuple(_KINDS[kind] for kind in page_kinds)
            for page_kinds in header["kinds"]  # type: ignore[index]
        )
    except KeyError as exc:
        raise ValueError(f"unknown element kind: {exc.args[0]!r}") from None
    page_texts = tuple(header["text_layer"]["page_texts"])  # type: ignore[index]
    pages = LazyPages(kinds, partial(_inflate_pages, blob[end:], page_texts), _decode_pages)
    return _assemble(header, pages)  # type: ignore[arg-type]


class SimPdfWriter:
    """Write individual SimPDF files under a directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def write(self, doc: SciDocument) -> Path:
        """Write one document; returns the file path."""
        path = self.directory / f"{doc.doc_id}.simpdf"
        path.write_bytes(serialize_document(doc))
        return path


@dataclass
class ArchiveEntry:
    """Directory entry of a :class:`SimPdfArchive`: id, offset, length."""

    doc_id: str
    offset: int
    length: int


class SimPdfArchive:
    """A single-file archive packing many SimPDF documents.

    Mirrors the paper's ZIP aggregation: a header with a JSON directory of
    entries, followed by the concatenated compressed documents.  Supports
    random access by document id without decompressing the whole archive.
    """

    MAGIC = b"SIMPDFARCH1\n"

    @classmethod
    def write(cls, path: str | Path, documents: Iterable[SciDocument]) -> "SimPdfArchive":
        """Create an archive file from documents and return a reader for it."""
        body = io.BytesIO()
        entries: list[ArchiveEntry] = []
        for doc in documents:
            blob = serialize_document(doc)
            entries.append(ArchiveEntry(doc_id=doc.doc_id, offset=body.tell(), length=len(blob)))
            body.write(blob)
        directory = json.dumps(
            [{"doc_id": e.doc_id, "offset": e.offset, "length": e.length} for e in entries]
        ).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(cls.MAGIC)
            fh.write(len(directory).to_bytes(8, "little"))
            fh.write(directory)
            fh.write(body.getvalue())
        return cls(path)

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            magic = fh.read(len(self.MAGIC))
            if magic != self.MAGIC:
                raise ValueError("not a SimPDF archive (bad magic)")
            dir_len = int.from_bytes(fh.read(8), "little")
            directory = json.loads(fh.read(dir_len).decode("utf-8"))
            self._body_offset = fh.tell()
        self.entries = [
            ArchiveEntry(doc_id=e["doc_id"], offset=e["offset"], length=e["length"])
            for e in directory
        ]
        self._index = {e.doc_id: e for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def doc_ids(self) -> list[str]:
        """All document ids in archive order."""
        return [e.doc_id for e in self.entries]

    def read(self, doc_id: str) -> SciDocument:
        """Random-access read of one document by id."""
        entry = self._index.get(doc_id)
        if entry is None:
            raise KeyError(f"no document {doc_id!r} in archive")
        with open(self.path, "rb") as fh:
            fh.seek(self._body_offset + entry.offset)
            blob = fh.read(entry.length)
        return deserialize_document(blob)

    def __iter__(self) -> Iterator[SciDocument]:
        with open(self.path, "rb") as fh:
            for entry in self.entries:
                fh.seek(self._body_offset + entry.offset)
                yield deserialize_document(fh.read(entry.length))
