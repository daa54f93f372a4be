"""The content hash of a document's ground truth (scheme 3).

Recognition parsers read each element's kind and LaTeX, so the hash must
move with either.  It must not move with how the document was read: a
SimPDF 2 file is hashed from its inflated pages stream without building a
page, and every other read builds the pages and encodes them as the writer
does, so all of them must key alike, odd strings included.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import zlib

import pytest

from repro.cache import ParseCache
from repro.cache.keys import document_content_hash
from repro.documents.corpus import CorpusConfig, build_corpus
from repro.documents.document import (
    ELEMENT_KINDS,
    LazyPages,
    PageContent,
    PageElement,
    SciDocument,
    TextLayer,
    TextLayerQuality,
)
from repro.documents.simpdf import (
    MAGIC,
    MAGIC_V2,
    SimPdfArchive,
    deserialize_document,
    document_from_dict,
    document_to_dict,
    page_content_bytes,
    serialize_document,
)
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline, request_for_documents
from tests.documents.test_simpdf_pins import POOL_CONFIG


def _edit_element(document: SciDocument, where, **changes) -> SciDocument:
    """``document`` with the first element ``where`` accepts changed."""
    for p, page in enumerate(document.pages):
        for e, element in enumerate(page.elements):
            if where(element):
                elements = list(page.elements)
                elements[e] = dataclasses.replace(element, **changes)
                pages = list(document.pages)
                pages[p] = dataclasses.replace(page, elements=tuple(elements))
                return dataclasses.replace(document, pages=pages)
    raise AssertionError(f"no element to edit in {document.doc_id}")


def _is_equation(element: PageElement) -> bool:
    return element.kind == "equation" and element.latex is not None


@pytest.fixture(scope="module")
def with_equation() -> SciDocument:
    """The first seed-7 document that holds an equation with LaTeX."""
    return next(
        document
        for document in build_corpus(CorpusConfig(n_documents=8, seed=7))
        if any(_is_equation(el) for page in document.pages for el in page.elements)
    )


class TestGroundTruthEdits:
    """Scheme 2 hashed each page's plain text only, so these keyed alike."""

    def test_a_latex_only_edit_changes_the_hash(self, with_equation):
        edited = _edit_element(with_equation, _is_equation, latex=r"\alpha + \beta")
        assert edited.ground_truth_text() == with_equation.ground_truth_text()
        assert document_content_hash(edited) != document_content_hash(with_equation)

    def test_a_kind_only_edit_changes_the_hash(self, with_equation):
        first = with_equation.pages[0].elements[0]
        other = next(kind for kind in ELEMENT_KINDS if kind != first.kind)
        edited = _edit_element(with_equation, lambda el: el is first, kind=other)
        assert edited.ground_truth_text() == with_equation.ground_truth_text()
        assert document_content_hash(edited) != document_content_hash(with_equation)

    def test_a_cached_nougat_run_parses_the_edited_latex(self, with_equation):
        edited = _edit_element(with_equation, _is_equation, latex=r"\alpha + \beta")
        registry = default_registry()

        def texts(pipeline, document) -> list[str]:
            request = request_for_documents("nougat", [document], cache="readwrite")
            return list(pipeline.run(request).results[0].page_texts)

        uncached = ParsePipeline(registry)
        assert texts(uncached, edited) != texts(uncached, with_equation)
        cached = ParsePipeline(registry, cache=ParseCache())
        assert texts(cached, with_equation) == texts(uncached, with_equation)
        assert texts(cached, edited) == texts(uncached, edited)


# ---------------------------------------------------------------------- #
# Every read keys alike
# ---------------------------------------------------------------------- #
def _with_odd_text(document: SciDocument, odd: str) -> SciDocument:
    """``odd`` in the first page's text layer and in a new ground-truth element."""
    texts = list(document.text_layer.page_texts)
    texts[0] = f"before {odd} after " + texts[0]
    first = document.pages[0]
    element = PageElement(kind="paragraph", text=f"ground {odd} truth")
    pages = [
        PageContent(index=first.index, elements=first.elements + (element,)),
        *document.pages[1:],
    ]
    return dataclasses.replace(
        document,
        pages=pages,
        text_layer=dataclasses.replace(document.text_layer, page_texts=texts),
    )


ODD_CASES = [
    "astral", "latex-none", "lone-surrogate", "missing-text-layer", "pair-as-two-code-points",
]


@pytest.fixture(scope="module")
def odd(with_equation) -> dict[str, SciDocument]:
    document = with_equation
    missing = TextLayer(
        quality=TextLayerQuality.MISSING,
        page_texts=["" for _ in document.pages],
        producer=document.text_layer.producer,
    )
    return {
        "astral": _with_odd_text(document, "\U0001F600"),
        "latex-none": _edit_element(document, _is_equation, latex=None),
        "lone-surrogate": _with_odd_text(document, "\ud800"),
        "missing-text-layer": document.with_text_layer(missing),
        "pair-as-two-code-points": _with_odd_text(document, "\ud83d\ude00"),
    }


def _escaped_first_layout(document: SciDocument) -> bytes:
    """A ``SIMPDF1`` file with ASCII escapes, which can carry any string."""
    return MAGIC + zlib.compress(json.dumps(document_to_dict(document)).encode("ascii"))


def _second_layout(document: SciDocument) -> SciDocument:
    read = deserialize_document(serialize_document(document))
    assert isinstance(read.pages, LazyPages) and not read.pages.is_decoded
    return read


def _decoded(document: SciDocument) -> SciDocument:
    read = _second_layout(document)
    list(read.pages)
    assert read.pages.is_decoded
    return read


def _pickled(document: SciDocument) -> SciDocument:
    copy = pickle.loads(pickle.dumps(_second_layout(document)))
    assert not copy.pages.is_decoded
    return copy


READS = {
    "simpdf2-undecoded": _second_layout,
    "simpdf2-decoded": _decoded,
    "simpdf1": lambda document: deserialize_document(_escaped_first_layout(document)),
    "dict": lambda document: document_from_dict(document_to_dict(document)),
    "pickled-lazy-pages": _pickled,
}


@pytest.fixture(scope="module")
def pool() -> list[SciDocument]:
    return list(build_corpus(POOL_CONFIG))


def _assert_reads_key_alike(document: SciDocument, reads=READS) -> None:
    # A fresh object: the hash is memoised on the one it was computed for.
    expected = document_content_hash(dataclasses.replace(document))
    for name, read in reads.items():
        copy = read(document)
        assert document_content_hash(copy) == expected, name
        if isinstance(copy.pages, LazyPages) and name != "simpdf2-decoded":
            assert not copy.pages.is_decoded, f"{name}: hashing decoded the pages"


class TestEveryReadKeysAlike:
    def test_the_pool(self, pool):
        for document in pool:
            _assert_reads_key_alike(document)

    @pytest.mark.parametrize("case", ODD_CASES)
    def test_odd_documents(self, odd, case):
        document = odd[case]
        reads = dict(READS)
        if case == "pair-as-two-code-points":
            # JSON's ``\\ud83d\\ude00`` escape reads back as one astral
            # character: the first layout cannot hold this document, so its
            # read is another document, with that document's hash.
            read = reads.pop("simpdf1")(document)
            assert document_content_hash(read) == document_content_hash(odd["astral"])
        _assert_reads_key_alike(document, reads)

    def test_archive_entries(self, tmp_path, pool, odd):
        documents = [
            dataclasses.replace(d, doc_id=f"{i}-{d.doc_id}")
            for i, d in enumerate([*pool[:8], *odd.values()])
        ]
        archive = SimPdfArchive.write(tmp_path / "pool.simpdfarch", documents)
        for document, entry in zip(documents, archive, strict=True):
            assert document_content_hash(entry) == document_content_hash(document)
            assert not entry.pages.is_decoded

    @pytest.mark.parametrize("case", ["pool", *ODD_CASES])
    def test_the_writer_compresses_the_encoders_bytes(self, pool, odd, case):
        document = pool[0] if case == "pool" else odd[case]
        blob = serialize_document(document)
        assert blob.startswith(MAGIC_V2)
        start = len(MAGIC_V2) + 4
        end = start + int.from_bytes(blob[len(MAGIC_V2):start], "little")
        text = "\n".join(document.text_layer.page_texts).encode("utf-8", "surrogatepass")
        inflater = zlib.decompressobj(zdict=text[-32 * 1024:])
        stream = inflater.decompress(blob[end:]) + inflater.flush()
        assert stream == page_content_bytes(document.pages)
        assert stream == page_content_bytes(_second_layout(document).pages)
