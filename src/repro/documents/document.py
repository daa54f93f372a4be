"""Core document data model: pages, elements, text layer, image layer.

A :class:`SciDocument` carries three views of the same content:

* ``pages`` — the *ground-truth* structured content (what the paper obtains
  from publisher HTML): a sequence of :class:`PageContent`, each a sequence
  of typed :class:`PageElement` blocks (paragraphs, equations, tables,
  SMILES, captions, references).  A generated document holds a list; one
  read from a SimPDF file holds :class:`LazyPages`, which decodes on first
  use.
* ``text_layer`` — the text *embedded in the PDF*, which is what extraction
  parsers (PyMuPDF, pypdf) read.  Its fidelity ranges from clean born-digital
  text to OCR-derived, scrambled, or entirely missing layers.
* ``image_layer`` — the rendering/scan quality of the page images, which is
  what recognition parsers (Tesseract, Nougat, Marker) read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

from repro.documents.metadata import DocumentMetadata


class TextLayerQuality(str, enum.Enum):
    """Fidelity class of the text embedded in a document.

    The classes mirror the situations described in the paper's background
    section: born-digital documents with a faithful layer, layers attached by
    sub-par OCR software, deliberately scrambled text, and scanned documents
    with no layer at all.
    """

    CLEAN = "clean"
    NOISY = "noisy"
    OCR_DERIVED = "ocr_derived"
    SCRAMBLED = "scrambled"
    MISSING = "missing"

    @property
    def is_usable(self) -> bool:
        """Whether extraction-based parsing can produce acceptable text."""
        return self in (TextLayerQuality.CLEAN, TextLayerQuality.NOISY)


#: Element kinds produced by the text generator, in the order they typically
#: appear on a page.
ELEMENT_KINDS: tuple[str, ...] = (
    "heading",
    "boilerplate",
    "paragraph",
    "equation",
    "table",
    "figure_caption",
    "smiles",
    "citation_block",
    "reference_entry",
)


@dataclass(frozen=True)
class PageElement:
    """One typed content block of a page.

    Attributes
    ----------
    kind:
        One of :data:`ELEMENT_KINDS`.
    text:
        Ground-truth plain-text rendering of the block.
    latex:
        For ``equation`` elements, the LaTeX source (recognition parsers that
        understand math, e.g. Nougat, reproduce this; extraction parsers leak
        a garbled plaintext version instead).
    """

    kind: str
    text: str
    latex: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown element kind: {self.kind!r}")

    @property
    def n_words(self) -> int:
        """Number of whitespace-delimited words in the ground-truth text."""
        return len(self.text.split())


@dataclass(frozen=True)
class PageContent:
    """Ground-truth content of a single page."""

    index: int
    elements: tuple[PageElement, ...]

    def ground_truth_text(self) -> str:
        """Plain-text rendering of the page (blocks joined by blank lines)."""
        return "\n".join(el.text for el in self.elements)

    def elements_of_kind(self, kind: str) -> tuple[PageElement, ...]:
        """All elements of one kind on this page."""
        return tuple(el for el in self.elements if el.kind == kind)

    @property
    def n_words(self) -> int:
        """Total ground-truth word count of the page."""
        return sum(el.n_words for el in self.elements)

    @property
    def equation_fraction(self) -> float:
        """Fraction of blocks that are equations (a difficulty proxy)."""
        if not self.elements:
            return 0.0
        return len(self.elements_of_kind("equation")) / len(self.elements)


class LazyPages(Sequence[PageContent]):
    """Ground-truth pages that are decoded on first item access.

    The sequence knows its length and each page's element kinds without
    decoding, which is all a page count and
    :attr:`SciDocument.equation_fraction` read; indexing or iterating calls
    ``decode(kinds, content())`` once and keeps its pages.  Until then,
    :meth:`encoded` hands out ``content()``, the page content's bytes, so a
    reader that wants only those bytes builds no page.  It compares equal to
    a list of the same pages, pickles (still undecoded if it was), and two
    threads that touch it first at once both get equal pages: each may
    decode, neither sees a half-built list.
    """

    def __init__(
        self,
        kinds: tuple[tuple[str, ...], ...],
        content: Callable[[], bytes],
        decode: Callable[[tuple[tuple[str, ...], ...], bytes], list[PageContent]],
    ) -> None:
        self.kinds = kinds
        self._content: Callable[[], bytes] | None = content
        self._decode = decode
        self._pages: list[PageContent] | None = None

    def _decoded(self) -> list[PageContent]:
        pages = self._pages
        if pages is None:
            content = self._content
            if content is None:  # another thread stored its pages in between
                return self._pages  # type: ignore[return-value]
            pages = self._decode(self.kinds, content())
            self._pages = pages  # before ``_content`` is cleared: see above
            self._content = None
        return pages

    def encoded(self) -> bytes | None:
        """``content()`` while the pages are undecoded, ``None`` after."""
        content = self._content
        return None if content is None else content()

    @property
    def is_decoded(self) -> bool:
        return self._pages is not None

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index):  # type: ignore[override]
        return self._decoded()[index]

    def __iter__(self) -> Iterator[PageContent]:
        return iter(self._decoded())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyPages):
            other = other._decoded()
        if not isinstance(other, list):
            return NotImplemented
        return self._decoded() == other


@dataclass
class TextLayer:
    """The text embedded in the document, page by page.

    ``page_texts`` may deviate from the ground truth: it is whatever the
    producing tool (or a later OCR pass) attached to the PDF.  Extraction
    parsers read this layer verbatim, so its quality bounds their accuracy.
    """

    quality: TextLayerQuality
    page_texts: list[str]
    producer: str

    @property
    def n_pages(self) -> int:
        return len(self.page_texts)

    @property
    def n_characters(self) -> int:
        """Total number of embedded characters (zero for a missing layer)."""
        return sum(len(t) for t in self.page_texts)

    def text(self) -> str:
        """Concatenated embedded text of the whole document."""
        return "\n".join(self.page_texts)


@dataclass
class ImageLayer:
    """Rendering/scan quality of the page images.

    A born-digital document renders crisply (``is_scanned=False``); a scanned
    document carries the degradations the paper simulates (random rotations,
    contrast changes, Gaussian blur, compression).  Recognition parsers'
    character error rates are driven by :meth:`degradation_score`.
    """

    dpi: int = 300
    rotation_deg: float = 0.0
    blur_sigma: float = 0.0
    contrast: float = 1.0
    noise_level: float = 0.0
    jpeg_quality: int = 95
    is_scanned: bool = False

    def degradation_score(self) -> float:
        """Scalar in ``[0, 1]``: 0 = pristine render, 1 = barely legible scan.

        The score combines the individual degradations with weights chosen so
        that typical "low-quality scan" parameters (150 dpi, a few degrees of
        rotation, mild blur, strong compression) land around 0.4–0.7.
        """
        dpi_term = max(0.0, min(1.0, (300.0 - self.dpi) / 250.0))
        rot_term = min(1.0, abs(self.rotation_deg) / 10.0)
        blur_term = min(1.0, self.blur_sigma / 3.0)
        contrast_term = min(1.0, abs(1.0 - self.contrast) / 0.8)
        noise_term = min(1.0, self.noise_level / 0.5)
        jpeg_term = max(0.0, min(1.0, (95.0 - self.jpeg_quality) / 80.0))
        score = (
            0.22 * dpi_term
            + 0.18 * rot_term
            + 0.22 * blur_term
            + 0.12 * contrast_term
            + 0.16 * noise_term
            + 0.10 * jpeg_term
        )
        return float(max(0.0, min(1.0, score)))


@dataclass
class SciDocument:
    """A synthetic scientific document with ground truth and derived layers.

    Attributes
    ----------
    doc_id:
        Stable identifier (also used to derive per-document random streams).
    metadata:
        Publisher/producer/year/category metadata (CLS II features).
    pages:
        Ground-truth page contents (a list, or :class:`LazyPages`).
    text_layer:
        Embedded text layer read by extraction parsers.
    image_layer:
        Rendering quality read by recognition parsers.
    seed:
        Root seed the document was generated from (kept for provenance).
    """

    doc_id: str
    metadata: DocumentMetadata
    pages: Sequence[PageContent]
    text_layer: TextLayer
    image_layer: ImageLayer
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.pages:
            raise ValueError("a document must have at least one page")
        if self.text_layer.n_pages != len(self.pages):
            raise ValueError(
                "text layer must cover every page: "
                f"{self.text_layer.n_pages} layer pages vs {len(self.pages)} pages"
            )

    # ------------------------------------------------------------------ #
    # Ground-truth accessors
    # ------------------------------------------------------------------ #
    @property
    def n_pages(self) -> int:
        return len(self.pages)

    @property
    def n_words(self) -> int:
        """Total ground-truth word count of the document."""
        return sum(page.n_words for page in self.pages)

    def ground_truth_text(self) -> str:
        """Full ground-truth plain text (ψ in the paper's notation)."""
        return "\n".join(page.ground_truth_text() for page in self.pages)

    def ground_truth_pages(self) -> list[str]:
        """Per-page ground-truth plain text."""
        return [page.ground_truth_text() for page in self.pages]

    # ------------------------------------------------------------------ #
    # Difficulty proxies
    # ------------------------------------------------------------------ #
    @property
    def element_kinds(self) -> Sequence[Sequence[str]]:
        """Each page's element kinds, read without decoding :class:`LazyPages`."""
        if isinstance(self.pages, LazyPages):
            return self.pages.kinds
        return [[el.kind for el in page.elements] for page in self.pages]

    @property
    def equation_fraction(self) -> float:
        """Document-level fraction of equation blocks.

        Read from element kinds alone, so it never decodes :class:`LazyPages`.
        """
        n_elements = n_eq = 0
        for page_kinds in self.element_kinds:
            n_elements += len(page_kinds)
            n_eq += page_kinds.count("equation")
        if n_elements == 0:
            return 0.0
        return n_eq / n_elements

    def with_text_layer(self, text_layer: TextLayer) -> "SciDocument":
        """Return a copy of the document with a replaced text layer."""
        return replace(self, text_layer=text_layer)

    def with_image_layer(self, image_layer: ImageLayer) -> "SciDocument":
        """Return a copy of the document with a replaced image layer."""
        return replace(self, image_layer=image_layer)


def total_pages(documents: Iterable[SciDocument]) -> int:
    """Sum of page counts over a collection of documents."""
    return sum(doc.n_pages for doc in documents)
