"""Golden digests of the synthetic corpus: the science pin.

A synthetic document is a pure function of ``(seed, index, CorpusConfig)``
and every accuracy number in the reproduction is computed against its ground
truth, so the generator may get cheaper but never different.  The digests
below were cut from the numpy-call implementation (one ``Generator.choice``
per word) and must not be edited by a change that claims the corpus is
unchanged; a deliberate change to the corpus regenerates them with
``python tests/documents/test_corpus_golden.py`` and says so.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.documents.corpus import CorpusConfig, build_document
from repro.documents.textgen import TextGenConfig
from repro.ml.pretrain import generic_sentences, scientific_sentences

N_DOCUMENTS = 24

CONFIGS: dict[str, CorpusConfig] = {
    **{f"seed-{seed}": CorpusConfig(n_documents=N_DOCUMENTS, seed=seed) for seed in (0, 5, 7, 7003, 123456)},
    "non-default": CorpusConfig(
        n_documents=N_DOCUMENTS,
        seed=11,
        min_pages=1,
        max_pages=3,
        scanned_fraction=0.5,
        textgen=TextGenConfig(
            min_sentences_per_paragraph=1,
            max_sentences_per_paragraph=3,
            min_words_per_sentence=5,
            max_words_per_sentence=40,
            min_elements_per_page=2,
            max_elements_per_page=11,
        ),
    ),
}

CORPUS_DIGESTS: dict[str, str] = {
    "seed-0": "bc8fab67a39f9ce7088dd7b8d07631960adaf31457f22d428e7244c98cccb7ec",
    "seed-5": "53e6a868ef07b02a68afaf1eed54383ea3f8b31fcaa346dcb15ca215d9327f56",
    "seed-7": "c2399aaa2ee1cf2c3863aa65a07c776d67e1277195abb693e780bf42fc26f31f",
    "seed-7003": "b2d7493cccc6cb9958d41915baf27ff048a775abd88b8870d217257793d4398d",
    "seed-123456": "551c4ba63ccf31a4ddc75d2049e22283f782016055dafb7a0369e272da0129c6",
    "non-default": "597bd5433dd024a7135369a6a5e9d654522b5d965d2380f2dea6b3622e957e48",
}

SENTENCE_DIGESTS: dict[str, str] = {
    "scientific": "38c811c6e3a131383a8296dc506fee4582d82740e18162717433ebc628d3b8fb",
    "generic": "0c546f5c9c1ac5dc370e51983054405b334be583f037e28289524a5a5877f956",
}


def document_digest(doc) -> str:
    """sha256 over everything a document generator decides."""
    payload = {
        "doc_id": doc.doc_id,
        "ground_truth": doc.ground_truth_text(),
        "text_layer": "\f".join(doc.text_layer.page_texts),
        "text_layer_quality": doc.text_layer.quality.value,
        "metadata": doc.metadata.to_dict(),
        "image_layer": asdict(doc.image_layer),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def corpus_digest(config: CorpusConfig) -> str:
    digest = hashlib.sha256()
    for index in range(config.n_documents):
        digest.update(document_digest(build_document(index, config)).encode("ascii"))
    return digest.hexdigest()


def sentences_digest(sentences: list[str]) -> str:
    return hashlib.sha256("\n".join(sentences).encode("utf-8")).hexdigest()


def pretraining_sentences() -> dict[str, list[str]]:
    return {"scientific": scientific_sentences(60, seed=23), "generic": generic_sentences(60, seed=23)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_corpus_matches_golden_digest(name):
    assert corpus_digest(CONFIGS[name]) == CORPUS_DIGESTS[name]


@pytest.mark.parametrize("kind", sorted(SENTENCE_DIGESTS))
def test_pretraining_sentences_match_golden_digest(kind):
    assert sentences_digest(pretraining_sentences()[kind]) == SENTENCE_DIGESTS[kind]


if __name__ == "__main__":
    for name, config in CONFIGS.items():
        print(f'    "{name}": "{corpus_digest(config)}",')
    for kind, sentences in pretraining_sentences().items():
        print(f'    "{kind}": "{sentences_digest(sentences)}",')
