"""Golden digests of every base parser's output: the science pin for parsing.

A simulated parse is a pure function of the document and the parser's
per-document random stream, and every accuracy number in the reproduction is
a comparison of such output against ground truth, so the noise channels a
parser composes may get cheaper but never different.  The digests below must
not be edited by a change that claims parser output is unchanged; a
deliberate change regenerates them with
``python tests/parsers/test_parser_golden.py`` and says so.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.documents.corpus import CorpusConfig, build_corpus
from repro.parsers.registry import default_registry

#: Twelve documents, one to three pages, born-digital and scanned.
CORPUS = CorpusConfig(n_documents=12, seed=11, min_pages=1, max_pages=3)

PARSER_DIGESTS: dict[str, str] = {
    "marker": "4fcc04d54d69daa47f529a3f09ae85da638e4907e4f3589b888ec93527e3dd92",
    "nougat": "f11e49448fbcd53dccc82df6268dcc718ec4bee1a11006770ca85db8478ed89d",
    "pymupdf": "3e8dd60d6219f26b87f451f46230e16d6aea80caa8d963f6bd1a4b6da93bbe1f",
    "pypdf": "8081b785f441f989d883d9b5a4048df85465ed5b51c95b47e9af54930c70b023",
    "grobid": "df13a435abb2710a12ce5886416ccf4c729ec60739a8c26609c547fb19629799",
    "tesseract": "1221b6c49da56b5c4633cbd06475945eb2d319cfb204ba66613e0cbac1021845",
}


def parser_digest(parser, documents) -> str:
    """sha256 over the ``page_texts`` a parser makes of each document, in order."""
    digest = hashlib.sha256()
    for document in documents:
        result = parser.parse(document)
        payload = json.dumps([result.doc_id, result.page_texts], ensure_ascii=False)
        digest.update(payload.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def documents():
    documents = build_corpus(CORPUS).documents
    scanned = [document.image_layer.is_scanned for document in documents]
    assert any(scanned) and not all(scanned)
    return documents


@pytest.mark.parametrize("name", default_registry().names)
def test_parser_output_matches_golden_digest(name, documents):
    assert parser_digest(default_registry().get(name), documents) == PARSER_DIGESTS[name]


if __name__ == "__main__":
    corpus = build_corpus(CORPUS).documents
    for parser in default_registry():
        print(f'    "{parser.name}": "{parser_digest(parser, corpus)}",')
