"""Tests for the scientific text generator."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.documents import lexicon
from repro.documents.textgen import (
    ScientificTextGenerator,
    TextGenConfig,
    generate_generic_sentences,
)


@pytest.fixture()
def generator() -> ScientificTextGenerator:
    return ScientificTextGenerator("chemistry", np.random.default_rng(5))


class TestSentences:
    def test_sentence_is_nonempty_and_terminated(self, generator):
        sentence = generator.sentence()
        assert sentence.endswith(".")
        assert len(sentence.split()) >= 5

    def test_sentence_length_respects_config(self):
        config = TextGenConfig(min_words_per_sentence=8, max_words_per_sentence=12)
        gen = ScientificTextGenerator("physics", np.random.default_rng(0), config)
        for _ in range(20):
            words = gen.sentence().split()
            assert len(words) <= 12

    def test_paragraph_has_multiple_sentences(self, generator):
        paragraph = generator.paragraph(4)
        assert paragraph.count(".") >= 4

    def test_determinism_given_seed(self):
        a = ScientificTextGenerator("biology", np.random.default_rng(9)).paragraph(3)
        b = ScientificTextGenerator("biology", np.random.default_rng(9)).paragraph(3)
        assert a == b

    def test_unknown_domain_rejected(self):
        with pytest.raises(KeyError):
            ScientificTextGenerator("astrology", np.random.default_rng(0))


class TestStructuredElements:
    def test_equation_contains_latex_commands(self, generator):
        latex = generator.equation_latex()
        assert "\\" in latex

    def test_equation_element_kind_and_latex(self, generator):
        element = generator.equation_element()
        assert element.kind == "equation"
        assert element.latex == element.text

    def test_smiles_string_characters(self, generator):
        smiles = generator.smiles_string()
        assert len(smiles) >= 3
        assert all(c in "CNOSPFIclnos0123456789()[]=#+-@Na" for c in smiles)

    def test_table_element_has_rows(self, generator):
        table = generator.table_element()
        assert table.kind == "table"
        assert table.text.count("\n") >= 3
        assert "|" in table.text

    def test_reference_entry_format(self, generator):
        ref = generator.reference_entry_element(4)
        assert ref.kind == "reference_entry"
        assert ref.text.startswith("[4]")

    def test_citation_block_contains_citation(self, generator):
        block = generator.citation_block_element()
        assert "[" in block.text or "et al." in block.text

    def test_inline_citation_is_numbered_or_author_year(self, generator):
        forms = set()
        for _ in range(40):
            citation = generator.inline_citation()
            numbered = re.fullmatch(r"\[(\d+)\]", citation)
            author_year = re.fullmatch(r"\((\w+) et al\., (\d{4})\)", citation)
            assert numbered or author_year, citation
            if numbered:
                assert 1 <= int(numbered.group(1)) < 60
                forms.add("numbered")
            else:
                assert author_year.group(1) in lexicon.AUTHOR_SURNAMES
                assert 1998 <= int(author_year.group(2)) < 2025
                forms.add("author_year")
        assert forms == {"numbered", "author_year"}

    def test_smiles_element_wraps_a_smiles_string_in_a_sentence(self, generator):
        element = generator.smiles_element()
        assert element.kind == "smiles"
        smiles = re.search(r"compound \((.+)\) was synthesized", element.text).group(1)
        assert all(c in "CNOSPFIclnos0123456789()[]=#+-@Na" for c in smiles)
        assert element.latex is None

    def test_figure_caption_carries_its_number(self, generator):
        element = generator.figure_caption_element(7)
        assert element.kind == "figure_caption"
        assert element.text.startswith("Figure 7: ")
        assert "replicates." in element.text

    def test_heading_element_uses_the_given_title(self, generator):
        assert generator.heading_element("Methods").text == "Methods"
        assert generator.heading_element().text in lexicon.SECTION_TITLES

    def test_boilerplate_element_comes_from_the_lexicon(self, generator):
        element = generator.boilerplate_element()
        assert element.kind == "boilerplate"
        assert element.text in lexicon.FIRST_PAGE_BOILERPLATE


class TestPages:
    def test_first_page_structure(self, generator):
        page = generator.first_page("A Title")
        kinds = [el.kind for el in page.elements]
        assert kinds[0] == "heading"
        assert "paragraph" in kinds

    def test_document_pages_count(self, generator):
        pages = generator.document_pages("Title", 6)
        assert len(pages) == 6
        assert pages[0].index == 0
        assert pages[-1].elements[0].text == "References"

    def test_document_pages_single_page(self, generator):
        pages = generator.document_pages("Title", 1)
        assert len(pages) == 1

    def test_body_page_respects_the_element_range(self, generator):
        config = generator.config
        for index in range(1, 8):
            page, _ = generator.body_page(index)
            assert page.index == index
            body = [el for el in page.elements if el.kind != "heading"]
            assert config.min_elements_per_page <= len(body) <= config.max_elements_per_page

    def test_body_page_numbers_figures_on_from_the_counter(self):
        gen = ScientificTextGenerator("biology", np.random.default_rng(2))
        counter = 3
        numbers = []
        for index in range(1, 12):
            page, new_counter = gen.body_page(index, counter)
            captions = page.elements_of_kind("figure_caption")
            assert new_counter == counter + len(captions)
            numbers += [int(re.match(r"Figure (\d+):", c.text).group(1)) for c in captions]
            counter = new_counter
        assert numbers == list(range(4, counter + 1))
        assert numbers

    def test_references_page_numbers_entries_from_one(self, generator):
        page = generator.references_page(9, n_entries=5)
        assert page.index == 9
        assert page.elements[0].kind == "heading"
        assert page.elements[0].text == "References"
        entries = page.elements[1:]
        assert [el.kind for el in entries] == ["reference_entry"] * 5
        assert [el.text.split("]")[0] for el in entries] == ["[1", "[2", "[3", "[4", "[5"]

    def test_references_page_default_length(self, generator):
        for _ in range(10):
            n_entries = len(generator.references_page(2).elements) - 1
            assert 10 <= n_entries < 25

    def test_invalid_page_count(self, generator):
        with pytest.raises(ValueError):
            generator.document_pages("Title", 0)

    def test_domain_element_mix_differs(self):
        math_gen = ScientificTextGenerator("mathematics", np.random.default_rng(3))
        med_gen = ScientificTextGenerator("medicine", np.random.default_rng(3))
        math_pages = math_gen.document_pages("T", 10)
        med_pages = med_gen.document_pages("T", 10)
        math_eq = sum(len(p.elements_of_kind("equation")) for p in math_pages)
        med_eq = sum(len(p.elements_of_kind("equation")) for p in med_pages)
        assert math_eq > med_eq


class TestGenericSentences:
    def test_count_and_shape(self):
        sentences = generate_generic_sentences(np.random.default_rng(1), 10)
        assert len(sentences) == 10
        assert all(s.endswith(".") for s in sentences)

    def test_vocabulary_is_non_scientific(self):
        sentences = " ".join(generate_generic_sentences(np.random.default_rng(1), 50)).lower()
        scientific_hits = sum(1 for term in lexicon.DOMAIN_TERMS["chemistry"] if term in sentences)
        assert scientific_hits <= 3
