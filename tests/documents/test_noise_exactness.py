"""The noise channels against the split-and-join loops they replaced.

Every channel must make the same string as the reference loop below and leave
the Generator at the same position, for any text: astral code points, lone
surrogates, leading, trailing and repeated spaces, empty words, ``""``.  The
references are the loops the channels used before they learned to cost their
hits; the one departure is the fix in :func:`ref_substitute_characters`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.documents import noise
from repro.documents.document import (
    ImageLayer,
    PageContent,
    PageElement,
    SciDocument,
    TextLayer,
    TextLayerQuality,
)
from repro.documents.metadata import DocumentMetadata
from repro.parsers.registry import default_registry
from repro.pipeline import ParsePipeline, request_for_documents


# ---------------------------------------------------------------------- #
# Reference loops
# ---------------------------------------------------------------------- #
def ref_inject_whitespace(text, rate, rng):
    if rate <= 0 or not text:
        return text
    words = text.split(" ")
    mask = rng.random(len(words)) < rate
    out = []
    for word, hit in zip(words, mask):
        if hit and len(word) >= 4:
            pos = int(rng.integers(1, len(word)))
            word = word[:pos] + " " + word[pos:]
        out.append(word)
    return " ".join(out)


def ref_substitute_words(text, rate, rng, vocabulary=None):
    if rate <= 0 or not text:
        return text
    words = text.split(" ")
    vocab = vocabulary if vocabulary else ("data", "value", "figure", "item", "entry")
    mask = rng.random(len(words)) < rate
    if mask.any():
        replacements = rng.choice(vocab, size=int(mask.sum()))
        it = iter(replacements)
        words = [str(next(it)) if hit and w else w for w, hit in zip(words, mask)]
    return " ".join(words)


def ref_scramble_characters(text, rate, rng):
    if rate <= 0 or not text:
        return text
    words = text.split(" ")
    mask = rng.random(len(words)) < rate
    out = []
    for word, hit in zip(words, mask):
        if hit and len(word) > 3:
            interior = list(word[1:-1])
            rng.shuffle(interior)
            word = word[0] + "".join(interior) + word[-1]
        out.append(word)
    return " ".join(out)


def ref_substitute_characters(text, rate, rng, confusions=None):
    if rate <= 0 or not text:
        return text
    table = confusions if confusions is not None else noise.OCR_CONFUSIONS
    chars = list(text)
    mask = rng.random(len(chars)) < rate
    for i in np.flatnonzero(mask):
        c = chars[i]
        if c in table:
            chars[i] = table[c]
        elif c.isalpha():
            offset = 1 if rng.random() < 0.5 else -1
            # The loop had ord(c.lower()), a TypeError on a two-code-point
            # lowercase form ('İ'); everything else is unchanged by the [0].
            chars[i] = chr(max(97, min(122, ord(c.lower()[0]) + offset)))
    return "".join(chars)


def ref_corrupt_case(text, rate, rng):
    if rate <= 0 or not text:
        return text
    chars = list(text)
    mask = rng.random(len(chars)) < rate
    for i in np.flatnonzero(mask):
        c = chars[i]
        if c.isalpha():
            chars[i] = c.lower() if c.isupper() else c.upper()
    return "".join(chars)


def ref_drop_words(text, rate, rng):
    if rate <= 0 or not text:
        return text
    words = text.split(" ")
    keep = rng.random(len(words)) >= rate
    kept = [w for w, k in zip(words, keep) if k]
    if not kept and words:
        kept = [words[0]]
    return " ".join(kept)


def ref_merge_words(text, rate, rng):
    if rate <= 0 or not text:
        return text
    words = text.split(" ")
    if len(words) < 2:
        return text
    out = [words[0]]
    merges = rng.random(len(words) - 1) < rate
    for word, merge in zip(words[1:], merges):
        if merge:
            out[-1] = out[-1] + word
        else:
            out.append(word)
    return " ".join(out)


def ref_swap_adjacent_words(text, rate, rng):
    if rate <= 0 or not text:
        return text
    words = text.split(" ")
    i = 0
    while i < len(words) - 1:
        if rng.random() < rate:
            words[i], words[i + 1] = words[i + 1], words[i]
            i += 2
        else:
            i += 1
    return " ".join(words)


def ref_ocr_channel(text, severity, rng, vocabulary=None):
    severity = float(max(0.0, min(1.0, severity)))
    out = ref_substitute_characters(text, rate=0.002 + 0.06 * severity, rng=rng)
    out = ref_merge_words(out, rate=0.002 + 0.03 * severity, rng=rng)
    out = ref_inject_whitespace(out, rate=0.002 + 0.05 * severity, rng=rng)
    out = ref_drop_words(out, rate=0.001 + 0.03 * severity, rng=rng)
    out = ref_corrupt_case(out, rate=0.001 + 0.02 * severity, rng=rng)
    if severity > 0.5:
        out = ref_scramble_characters(out, rate=0.04 * (severity - 0.5), rng=rng)
    if vocabulary:
        out = ref_substitute_words(out, rate=0.01 * severity, rng=rng, vocabulary=vocabulary)
    return out


def ref_scramble_layer(text, rng):
    out = ref_scramble_characters(text, rate=0.8, rng=rng)
    out = ref_substitute_characters(out, rate=0.15, rng=rng)
    out = ref_merge_words(out, rate=0.2, rng=rng)
    return out


CHANNELS = {
    "inject_whitespace": (noise.inject_whitespace, ref_inject_whitespace),
    "substitute_words": (noise.substitute_words, ref_substitute_words),
    "scramble_characters": (noise.scramble_characters, ref_scramble_characters),
    "substitute_characters": (noise.substitute_characters, ref_substitute_characters),
    "corrupt_case": (noise.corrupt_case, ref_corrupt_case),
    "drop_words": (noise.drop_words, ref_drop_words),
    "merge_words": (noise.merge_words, ref_merge_words),
    "swap_adjacent_words": (noise.swap_adjacent_words, ref_swap_adjacent_words),
}


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
#: Every code point, lone surrogates included (hypothesis leaves out Cs by default).
_ANY_CHAR = st.characters(blacklist_categories=())
#: Characters that have broken text code before: two-code-point case maps,
#: ligatures, an astral letter, both surrogate halves, OCR confusion sources.
_TRICKY = st.sampled_from(
    ["İ", "ß", "ŉ", "ﬁ", "𝔸", "𝟘", "\ud800", "\udfff", "m", "w", "l", "Ä"]
)
_WORD = st.text(st.one_of(_ANY_CHAR, _TRICKY), max_size=9)
#: Spaces are the word separator, so they get their own weight: runs, edges, ``""`` words.
_SPACED = st.lists(st.one_of(_WORD, st.just(""), st.just(" ")), max_size=40).map(" ".join)
TEXTS = st.one_of(st.just(""), st.text(st.one_of(_ANY_CHAR, _TRICKY, st.just(" "))), _SPACED)
RATES = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.006]), st.floats(0.0, 1.0))
SEEDS = st.integers(0, 2**32 - 1)


def run(function, text, *args, seed, **kwargs):
    """``function``'s output, and the next draw of the Generator it was handed."""
    rng = np.random.default_rng(seed)
    out = function(text, *args, rng=rng, **kwargs)
    return out, rng.random()


# ---------------------------------------------------------------------- #
# Exactness
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(CHANNELS))
@settings(max_examples=300, deadline=None)
@given(text=TEXTS, rate=RATES, seed=SEEDS)
def test_channel_matches_its_reference_loop(name, text, rate, seed):
    channel, reference = CHANNELS[name]
    assert run(channel, text, rate, seed=seed) == run(reference, text, rate, seed=seed)


@settings(max_examples=200, deadline=None)
@given(
    text=TEXTS,
    rate=RATES,
    seed=SEEDS,
    vocabulary=st.lists(st.text(max_size=6), max_size=4).map(tuple),
)
def test_substitute_words_matches_with_any_vocabulary(text, rate, seed, vocabulary):
    assert run(noise.substitute_words, text, rate, seed=seed, vocabulary=vocabulary) == run(
        ref_substitute_words, text, rate, seed=seed, vocabulary=vocabulary
    )


@settings(max_examples=200, deadline=None)
@given(
    text=TEXTS,
    rate=RATES,
    seed=SEEDS,
    confusions=st.dictionaries(_ANY_CHAR, st.text(max_size=3), max_size=6),
)
def test_substitute_characters_matches_with_any_confusion_table(text, rate, seed, confusions):
    assert run(noise.substitute_characters, text, rate, seed=seed, confusions=confusions) == run(
        ref_substitute_characters, text, rate, seed=seed, confusions=confusions
    )


@settings(max_examples=200, deadline=None)
@given(
    text=TEXTS,
    severity=st.floats(-0.5, 1.5),
    seed=SEEDS,
    vocabulary=st.one_of(st.none(), st.just(("alpha", "beta", "gamma"))),
)
def test_ocr_channel_matches_its_reference(text, severity, seed, vocabulary):
    assert run(noise.ocr_channel, text, severity, seed=seed, vocabulary=vocabulary) == run(
        ref_ocr_channel, text, severity, seed=seed, vocabulary=vocabulary
    )


@settings(max_examples=200, deadline=None)
@given(text=TEXTS, seed=SEEDS)
def test_scramble_layer_matches_its_reference(text, seed):
    assert run(noise.scramble_layer, text, seed=seed) == run(ref_scramble_layer, text, seed=seed)


def test_a_page_of_prose_at_every_rate_the_parsers_use():
    """A realistic page (long, ASCII, single spaces) through every channel."""
    words = np.random.default_rng(3).choice(["lorem", "ipsum", "dolor", "sit", "amet,"], 400)
    page = " ".join(words.tolist())
    for name, (channel, reference) in CHANNELS.items():
        for rate in (0.006, 0.02, 0.05, 0.3, 0.8):
            for seed in range(5):
                assert run(channel, page, rate, seed=seed) == run(
                    reference, page, rate, seed=seed
                ), (name, rate, seed)


# ---------------------------------------------------------------------- #
# The two-code-point lowercase form
# ---------------------------------------------------------------------- #
def test_letter_with_a_two_code_point_lowercase_is_substituted():
    assert len("İ".lower()) == 2
    out = noise.substitute_characters("İ", 1.0, np.random.default_rng(0))
    assert out in ("h", "j")


def test_pypdf_parses_a_turkish_document():
    """A Turkish page used to make pypdf's parse fail."""
    paragraph = " ".join(["İstanbul ile İzmir arasında İlk İş İyi İnce bir yol."] * 40)
    page = PageContent(
        index=0,
        elements=(PageElement("heading", "İller"), PageElement("paragraph", paragraph)),
    )
    document = SciDocument(
        doc_id="iller",
        metadata=DocumentMetadata(
            title="İller",
            publisher="acme",
            domain="geography",
            subcategory="places",
            year=2024,
            pdf_format="1.7",
            producer="latex",
            n_pages=1,
        ),
        pages=[page],
        text_layer=TextLayer(TextLayerQuality.CLEAN, [page.ground_truth_text()], "latex"),
        image_layer=ImageLayer(),
    )
    report = ParsePipeline(default_registry()).run(request_for_documents("pypdf", [document]))
    (result,) = report.results
    assert result.succeeded, result.error
    assert "stanbul" in result.text
