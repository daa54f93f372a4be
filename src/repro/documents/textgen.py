"""Scientific text generation.

Generates the ground-truth content of synthetic scientific documents: prose
paragraphs with domain vocabulary, LaTeX equations, SMILES strings, tables,
figure captions, citation blocks and reference entries.  The generator is the
stand-in for the paper's HTML-derived ground truth: every document's true text
is known exactly, which is what makes the accuracy metrics computable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from repro.documents import lexicon
from repro.documents.document import PageContent, PageElement
from repro.utils.rng import DrawStream, WeightedTable, replayed

F = TypeVar("F", bound=Callable[..., object])


@dataclass(frozen=True)
class TextGenConfig:
    """Knobs of the text generator.

    Attributes
    ----------
    min_sentences_per_paragraph, max_sentences_per_paragraph:
        Range of paragraph lengths.
    min_words_per_sentence, max_words_per_sentence:
        Range of sentence lengths (whitespace tokens).
    min_elements_per_page, max_elements_per_page:
        Range of content blocks per page (headings and boilerplate excluded).
    """

    min_sentences_per_paragraph: int = 3
    max_sentences_per_paragraph: int = 6
    min_words_per_sentence: int = 9
    max_words_per_sentence: int = 22
    min_elements_per_page: int = 4
    max_elements_per_page: int = 8


_GREEK = ("\\alpha", "\\beta", "\\gamma", "\\lambda", "\\mu", "\\sigma", "\\theta", "\\phi", "\\omega", "\\epsilon")
_OPERATORS = ("+", "-", "\\cdot", "\\times")
_FUNCTIONS = ("\\exp", "\\log", "\\sin", "\\cos", "\\tanh", "\\sqrt")
_VARIABLES = ("x", "y", "z", "t", "u", "v", "n", "k", "p", "q")
_SMILES_FRAGMENTS = ("C", "CC", "C(=O)", "O", "N", "c1ccccc1", "C(N)", "S(=O)(=O)", "Cl", "F", "[Na+]", "C#N", "OC")
_ELEMENT_MIX = {domain: WeightedTable.of(mix) for domain, mix in lexicon.ELEMENT_MIX.items()}
_GENERIC_VOCABULARY = (
    lexicon.GENERIC_TERMS
    + lexicon.ACADEMIC_ADJECTIVES[:6]
    + ("is", "was", "the", "a", "of", "for", "with", "and", "new", "best", "near", "local")
)


def _hands_back(method: F) -> F:
    """Mark a public method of :class:`ScientificTextGenerator`.

    A generator built on a bare numpy Generator borrows it: whoever holds
    that Generator when the method returns must find it where numpy would
    have left it (``ml.pretrain`` runs one generator per domain down a single
    stream).  A generator built on a :class:`DrawStream` leaves that to the
    stream's owner.
    """

    @functools.wraps(method)
    def entry(self: "ScientificTextGenerator", *args: object, **kwargs: object) -> object:
        if not self._borrowed:
            return method(self, *args, **kwargs)
        try:
            return method(self, *args, **kwargs)
        finally:
            self.draws.handover()

    return entry  # type: ignore[return-value]


class ScientificTextGenerator:
    """Domain-conditioned generator of scientific page content.

    Parameters
    ----------
    domain:
        One of :data:`repro.documents.lexicon.DOMAINS`.
    rng:
        Source of all sampling: the :class:`~repro.utils.rng.DrawStream` of the
        caller (a per-document stream for reproducibility), or a PCG64
        :class:`numpy.random.Generator`, which is drawn from through a stream
        and handed back in place whenever a public method returns.
    config:
        Optional :class:`TextGenConfig`.
    """

    def __init__(
        self,
        domain: str,
        rng: np.random.Generator | DrawStream,
        config: TextGenConfig | None = None,
    ) -> None:
        if domain not in lexicon.DOMAINS:
            raise KeyError(f"unknown domain: {domain!r}")
        self.domain = domain
        self._borrowed = not isinstance(rng, DrawStream)
        self.draws = DrawStream(rng) if self._borrowed else rng
        self.config = config or TextGenConfig()
        self._terms = lexicon.DOMAIN_TERMS[domain]
        self._fragile = lexicon.FRAGILE_ENTITIES.get(domain, ("unit",))
        self._element_mix = _ELEMENT_MIX[domain]

    # ------------------------------------------------------------------ #
    # Sentence / paragraph generation
    # ------------------------------------------------------------------ #
    @_hands_back
    def sentence(self) -> str:
        """Generate one scientific-sounding sentence."""
        draws = self.draws
        cfg = self.config
        terms = self._terms
        n_words = draws.integers(cfg.min_words_per_sentence, cfg.max_words_per_sentence + 1)
        adj = draws.picks(lexicon.ACADEMIC_ADJECTIVES, 3)
        noun = draws.picks(lexicon.ACADEMIC_NOUNS, 4)
        term = draws.picks(terms, 4)
        verb = draws.picks(lexicon.ACADEMIC_VERBS, 2)
        if draws.random() < 0.25:
            parts = [draws.pick(lexicon.CONNECTIVES).capitalize() + ",", "the"]
        else:
            parts = ["The"]
        parts += (adj[0], noun[0], "of", "the", term[0], verb[0] + "s")
        parts += ("a", adj[1], noun[1], "in", "the", term[1], noun[2])
        if draws.random() < 0.35:
            parts += ("with", "respect", "to", "the", term[2], noun[3])
        if draws.random() < 0.25:
            value = draws.random() * 100
            parts += ("at", f"{value:.1f}", "percent")
        if draws.random() < 0.18:
            parts += ("for", draws.pick(self._fragile))
        # Pad or trim to the target length with additional qualifier words.
        for filler in draws.picks(terms, max(1, n_words)):
            if len(parts) >= n_words:
                break
            parts += ("and", "the", filler)
        sentence = " ".join(parts[:n_words]).rstrip(",")
        return sentence + "."

    @_hands_back
    def paragraph(self, n_sentences: int | None = None) -> str:
        """Generate a paragraph of several sentences, possibly with a citation."""
        draws = self.draws
        cfg = self.config
        if n_sentences is None:
            n_sentences = draws.integers(
                cfg.min_sentences_per_paragraph, cfg.max_sentences_per_paragraph + 1
            )
        sentences = [self.sentence() for _ in range(n_sentences)]
        if draws.random() < 0.5:
            cite_at = draws.integers(0, n_sentences)
            sentences[cite_at] = sentences[cite_at][:-1] + " " + self.inline_citation() + "."
        return " ".join(sentences)

    @_hands_back
    def inline_citation(self) -> str:
        """Generate an inline citation marker."""
        draws = self.draws
        if draws.random() < 0.5:
            return f"[{draws.integers(1, 60)}]"
        name = draws.pick(lexicon.AUTHOR_SURNAMES)
        year = draws.integers(1998, 2025)
        return f"({name} et al., {year})"

    # ------------------------------------------------------------------ #
    # Structured elements
    # ------------------------------------------------------------------ #
    @_hands_back
    def equation_latex(self) -> str:
        """Generate a LaTeX equation string."""
        draws = self.draws
        lhs_var = draws.pick(_VARIABLES)
        greek = draws.picks(_GREEK, 2)
        op = draws.picks(_OPERATORS, 2)
        fn = draws.pick(_FUNCTIONS)
        rhs_var = draws.picks(_VARIABLES, 2)
        style = draws.integers(0, 4)
        if style == 0:
            body = f"{fn}({greek[0]} {op[0]} {rhs_var[0]}^{draws.integers(2, 5)})"
            return f"{lhs_var} = \\frac{{{body}}}{{{greek[1]} {op[1]} {rhs_var[1]}}}"
        if style == 1:
            return (
                f"\\frac{{\\partial {lhs_var}}}{{\\partial t}} = "
                f"\\nabla^2 {lhs_var} {op[0]} {greek[0]} {rhs_var[0]}"
            )
        if style == 2:
            return (
                f"{lhs_var}_{{n+1}} = {lhs_var}_n {op[0]} {greek[0]} "
                f"\\sum_{{i=1}}^{{N}} {fn}({rhs_var[0]}_i)"
            )
        return (
            f"\\mathbb{{E}}[{lhs_var}] = \\int_0^\\infty {fn}({rhs_var[0]}) "
            f"\\, d{rhs_var[0]} {op[1]} {greek[1]}"
        )

    @_hands_back
    def equation_element(self) -> PageElement:
        """Equation block (ground truth is the LaTeX source, as in HTML/MathML)."""
        latex = self.equation_latex()
        return PageElement(kind="equation", text=latex, latex=latex)

    @_hands_back
    def smiles_string(self) -> str:
        """Generate a SMILES-like molecular identifier."""
        draws = self.draws
        return "".join(draws.picks(_SMILES_FRAGMENTS, draws.integers(3, 8)))

    @_hands_back
    def smiles_element(self) -> PageElement:
        """A compound description sentence carrying a SMILES identifier."""
        smiles = self.smiles_string()
        sentence = (
            f"The candidate compound ({smiles}) was synthesized and characterized "
            f"by {self.draws.pick(self._terms)} analysis."
        )
        return PageElement(kind="smiles", text=sentence)

    @_hands_back
    def table_element(self) -> PageElement:
        """A small numeric results table rendered as aligned plain text."""
        draws = self.draws
        n_rows = draws.integers(3, 7)
        n_values = draws.integers(3, 6) - 1  # numeric columns beside the label column
        headers = ["condition"] + draws.picks(lexicon.ACADEMIC_NOUNS, n_values)
        lines = ["Table: " + " | ".join(headers)]
        values = [draws.random() for _ in range(n_rows * n_values)]  # row-major block
        scale = draws.integers(1, 100)
        for r in range(n_rows):
            label = draws.pick(self._terms)
            cells = [f"{value * scale:.2f}" for value in values[r * n_values : (r + 1) * n_values]]
            lines.append(" | ".join([label] + cells))
        return PageElement(kind="table", text="\n".join(lines))

    @_hands_back
    def figure_caption_element(self, figure_number: int) -> PageElement:
        """A figure caption block."""
        caption = (
            f"Figure {figure_number}: {self.sentence()} Error bars denote one "
            f"standard deviation across {self.draws.integers(3, 12)} replicates."
        )
        return PageElement(kind="figure_caption", text=caption)

    @_hands_back
    def citation_block_element(self) -> PageElement:
        """A short related-work passage dense with citations."""
        sentences = []
        for _ in range(self.draws.integers(2, 4)):
            s = self.sentence()
            sentences.append(s[:-1] + " " + self.inline_citation() + ".")
        return PageElement(kind="citation_block", text=" ".join(sentences))

    @_hands_back
    def reference_entry_element(self, index: int) -> PageElement:
        """A bibliography entry."""
        draws = self.draws
        surnames = lexicon.AUTHOR_SURNAMES
        picked = draws.sample(len(surnames), draws.integers(2, 4))
        authors = ", ".join(surnames[i] for i in picked)
        title = " ".join(draws.picks(self._terms, draws.integers(4, 7)))
        journal = f"Journal of {draws.pick(self._terms).capitalize()}"
        year = draws.integers(1995, 2025)
        pages = f"{draws.integers(1, 900)}--{draws.integers(900, 1800)}"
        text = f"[{index}] {authors}. {title.capitalize()}. {journal}, {year}, pp. {pages}."
        return PageElement(kind="reference_entry", text=text)

    @_hands_back
    def heading_element(self, title: str | None = None) -> PageElement:
        """A section heading block."""
        if title is None:
            title = self.draws.pick(lexicon.SECTION_TITLES)
        return PageElement(kind="heading", text=title)

    @_hands_back
    def boilerplate_element(self) -> PageElement:
        """First-page boilerplate (license lines, submission notes, ...)."""
        line = self.draws.pick(lexicon.FIRST_PAGE_BOILERPLATE)
        return PageElement(kind="boilerplate", text=line)

    # ------------------------------------------------------------------ #
    # Page assembly
    # ------------------------------------------------------------------ #
    def _body_element(self, figure_counter: int) -> tuple[PageElement, int]:
        """Sample one body element according to the domain element mix."""
        kind = self.draws.weighted(self._element_mix)
        if kind == "paragraph":
            return PageElement(kind="paragraph", text=self.paragraph()), figure_counter
        if kind == "equation":
            return self.equation_element(), figure_counter
        if kind == "table":
            return self.table_element(), figure_counter
        if kind == "figure_caption":
            figure_counter += 1
            return self.figure_caption_element(figure_counter), figure_counter
        if kind == "smiles":
            return self.smiles_element(), figure_counter
        return self.citation_block_element(), figure_counter

    @_hands_back
    def first_page(self, title: str, abstract_sentences: int = 5) -> PageContent:
        """Generate the title/abstract page."""
        elements: list[PageElement] = [
            PageElement(kind="heading", text=title),
            self.boilerplate_element(),
            PageElement(kind="heading", text="Abstract"),
            PageElement(kind="paragraph", text=self.paragraph(abstract_sentences)),
            self.heading_element("Introduction"),
            PageElement(kind="paragraph", text=self.paragraph()),
            PageElement(kind="paragraph", text=self.paragraph()),
        ]
        return PageContent(index=0, elements=tuple(elements))

    @_hands_back
    def body_page(self, index: int, figure_counter: int = 0) -> tuple[PageContent, int]:
        """Generate a body page; returns the page and the updated figure count."""
        draws = self.draws
        cfg = self.config
        n_elements = draws.integers(cfg.min_elements_per_page, cfg.max_elements_per_page + 1)
        elements: list[PageElement] = []
        if draws.random() < 0.4:
            elements.append(self.heading_element())
        for _ in range(n_elements):
            element, figure_counter = self._body_element(figure_counter)
            elements.append(element)
        return PageContent(index=index, elements=tuple(elements)), figure_counter

    @_hands_back
    def references_page(self, index: int, n_entries: int | None = None) -> PageContent:
        """Generate the bibliography page."""
        if n_entries is None:
            n_entries = self.draws.integers(10, 25)
        elements: list[PageElement] = [self.heading_element("References")]
        for i in range(1, n_entries + 1):
            elements.append(self.reference_entry_element(i))
        return PageContent(index=index, elements=tuple(elements))

    @_hands_back
    def document_pages(self, title: str, n_pages: int) -> list[PageContent]:
        """Generate all pages of a document (first page, body, references)."""
        if n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        pages: list[PageContent] = [self.first_page(title)]
        figure_counter = 0
        for idx in range(1, max(1, n_pages - 1)):
            page, figure_counter = self.body_page(idx, figure_counter)
            pages.append(page)
        if n_pages >= 2:
            pages.append(self.references_page(n_pages - 1))
        return pages[:n_pages]


def generate_generic_sentences(rng: np.random.Generator | DrawStream, n_sentences: int) -> list[str]:
    """Generate non-scientific filler sentences (web-style text).

    Used to pre-train the "generic" encoder baselines (BERT / MiniLM stand-ins)
    so that Table 4 can contrast scientific vs web-scale pre-training.
    """
    sentences = []
    with replayed(rng) as draws:
        for _ in range(n_sentences):
            words = draws.picks(_GENERIC_VOCABULARY, draws.integers(7, 16))
            sentences.append(" ".join(words).capitalize() + ".")
    return sentences
