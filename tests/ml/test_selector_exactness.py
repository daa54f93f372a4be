"""The selector's fast paths are exact: same ids, same features, same scores.

``FastTextModel.bucket_ids`` reuses each distinct word's sub-word ids, hashes
a new word's n-grams under one framed head (``stable_hashes``) and averages
embeddings in blocks; ``TextStatisticsExtractor.extract`` reads character
classes from a table, counts repeated runs on the code points and computes
word statistics once per distinct word.  The per-occurrence / per-character
versions they replaced live on here as the references, and every comparison
is ``np.array_equal`` or ``==`` — the arithmetic is unchanged, so there is
no tolerance to set.
"""

from __future__ import annotations

import math
import pickle
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.documents import lexicon
from repro.ml import fasttext as fasttext_module
from repro.ml import features as features_module
from repro.ml import tokenizer as tokenizer_module
from repro.ml.fasttext import FastTextConfig, FastTextModel
from repro.ml.features import TEXT_FEATURE_NAMES, TextStatisticsExtractor
from repro.ml.tokenizer import FIRST_HASH_ID, HashingTokenizer
from repro.utils.hashing import stable_hash, stable_hashes

CONFIG = FastTextConfig(embedding_dim=8, n_buckets=512, max_tokens=40, n_epochs=1)
MATH_GLYPHS = set("∂∇Σ∫∞αβγλμσθφωε·×√^_{}\\=+")

# Characters the character-class table must get right: the four counted
# whitespace characters and others that are not; cased, titlecase and
# caseless letters; digits that are not decimal; combining marks; math
# glyphs; astral letters, digits and symbols; lone surrogates, which a JSON
# text layer can hold.
_TRICKY = (
    " \t\n\r\x0b\x0c\x1f  AzÉßǅⅧ²½٣́⃗∂Σ∫·×√^_{}\\=+-.,;:()𝔸𝕫𝟘😀\U0001e900\U0010ffff"
    "\ud800\udbff\udc00\udfff"
)
TEXTS = st.one_of(
    st.text(max_size=200),
    st.text(alphabet=st.sampled_from(_TRICKY), max_size=200),
    st.lists(
        st.sampled_from(["the", "catalyst", "rbsout", "xkcd", "Σ∫", "a", "aaaa", "-\n", " ", "\n", "𝔸𝔹"]),
        max_size=80,
    ).map("".join),
)


# ---------------------------------------------------------------------- #
# References: the loops the fast paths replaced
# ---------------------------------------------------------------------- #
def naive_features(text: str, max_chars: int = 6000) -> np.ndarray:
    text = text[:max_chars]
    n_chars = len(text)
    if n_chars == 0:
        return np.zeros(len(TEXT_FEATURE_NAMES), dtype=np.float64)
    whitespace = np.asarray([c in " \t\n\r" for c in text], dtype=bool)
    is_alpha = np.asarray([c.isalpha() for c in text], dtype=bool)
    is_digit = np.asarray([c.isdigit() for c in text], dtype=bool)
    is_upper = np.asarray([c.isupper() for c in text], dtype=bool)
    non_ascii = np.asarray([ord(c) > 127 for c in text], dtype=bool)
    math_glyphs = np.asarray([c in MATH_GLYPHS for c in text], dtype=bool)
    punctuation = ~(is_alpha | is_digit | whitespace)
    words = text.split()
    n_words = max(1, len(words))
    word_lengths = np.asarray([len(w) for w in words], dtype=np.float64) if words else np.zeros(1)
    alpha_words = [w for w in words if re.fullmatch(r"[A-Za-z]+", w)]
    vowel_free = sum(1 for w in alpha_words if len(w) >= 4 and not (set(w.lower()) & set("aeiou")))
    long_words = sum(1 for w in words if len(w) > 18)
    single_char_words = sum(1 for w in words if len(w) == 1)
    repeated_runs = len(re.findall(r"(.)\1{3,}", text))
    lines = [ln for ln in text.split("\n") if ln.strip()]
    line_length_mean = float(np.mean([len(ln) for ln in lines])) if lines else 0.0
    hyphen_breaks = text.count("-\n")
    lowercase_words = {w.lower().strip(".,;:()") for w in words}
    scientific_terms = set(lexicon.all_scientific_terms()) | set(lexicon.ACADEMIC_NOUNS)
    lexicon_hits = len(lowercase_words & scientific_terms)
    return np.asarray(
        [
            math.log1p(n_chars),
            math.log1p(len(words)),
            float(np.mean(word_lengths)),
            float(np.mean(whitespace)),
            float(np.mean(is_alpha)),
            float(np.mean(is_digit)),
            float(np.mean(punctuation)),
            float(np.mean(is_upper)),
            float(np.mean(non_ascii)),
            float(np.mean(math_glyphs)),
            vowel_free / n_words,
            long_words / n_words,
            single_char_words / n_words,
            repeated_runs / max(1, len(lines)),
            line_length_mean / 100.0,
            lexicon_hits / n_words,
            len(lowercase_words) / n_words,
            hyphen_breaks / max(1, len(lines)),
        ],
        dtype=np.float64,
    )


def naive_bucket_ids(text: str, cfg: FastTextConfig) -> np.ndarray:
    words = re.findall(r"[a-z0-9]+|[^\sa-z0-9]", text.lower())[: cfg.max_tokens]
    ids: list[int] = []
    for word in words:
        ids.append(stable_hash("ft-word", word) % cfg.n_buckets)
        padded = f"<{word}>"
        for n in range(cfg.char_ngram_min, cfg.char_ngram_max + 1):
            for i in range(len(padded) - n + 1):
                ids.append(stable_hash("ft-char", padded[i : i + n]) % cfg.n_buckets)
    return np.asarray(ids or [0], dtype=np.int64)


def naive_predict(model: FastTextModel, texts: list[str]) -> np.ndarray:
    hidden = np.stack(
        [model.embeddings[naive_bucket_ids(t, model.config)].mean(axis=0) for t in texts], axis=0
    )
    return hidden @ model.head_weight + model.head_bias


@pytest.fixture()
def hash_calls(monkeypatch):
    """Records every hash the fastText model and the tokenizer compute.

    One entry per hashed value, as ``stable_hash``'s parts: a
    ``stable_hashes(head, parts)`` call adds ``(head, part)`` per part.
    """
    calls = []

    def counting(*parts):
        calls.append(parts)
        return stable_hash(*parts)

    def counting_many(head, parts):
        parts = list(parts)
        calls.extend((head, part) for part in parts)
        return stable_hashes(head, parts)

    monkeypatch.setattr(fasttext_module, "stable_hash", counting)
    monkeypatch.setattr(fasttext_module, "stable_hashes", counting_many)
    monkeypatch.setattr(tokenizer_module, "stable_hash", counting)
    return calls


def n_char_ngrams(word: str, cfg: FastTextConfig) -> int:
    padded = len(word) + 2
    sizes = range(cfg.char_ngram_min, cfg.char_ngram_max + 1)
    return sum(max(0, padded - n + 1) for n in sizes)


def _page(seed: int, n_words: int = 60) -> str:
    rng = np.random.default_rng(seed)
    vocabulary = lexicon.all_scientific_terms() + lexicon.ACADEMIC_NOUNS
    return " ".join(vocabulary[i] for i in rng.integers(0, len(vocabulary), n_words))


# ---------------------------------------------------------------------- #
# (a) Exactness over arbitrary Unicode
# ---------------------------------------------------------------------- #
class TestExactOnAnyText:
    @settings(max_examples=300, deadline=None)
    @given(TEXTS)
    @example("")
    @example(" \t\n\r ")
    @example("Ab1 " * 2000)  # longer than max_chars
    @example("x" * 5999 + "𝔸𝔹")  # truncation lands between astral characters
    @example("é́ ñ ́")  # combining marks
    @example("∂u/∂t = ∇·(κ∇u) + Σ λ_i {x^2} \\ 1+1=2")
    @example("𝔸𝕫 𝟘𝟙 😀 \U0010ffff")
    @example("aaaa bbbbb-\ncccc\n\n  \nrhythm RHYTHMS Ǆ ǅ ǆ")
    @example("lone \ud800 surrogates \udfff\udfff\udfff\udfff \udc00x")
    def test_features_equal_the_per_character_reference(self, text):
        assert np.array_equal(TextStatisticsExtractor().extract(text), naive_features(text))

    def test_features_respect_a_custom_max_chars(self):
        text = "Σ∫ abc 123\n" * 40
        extractor = TextStatisticsExtractor(max_chars=57)
        assert np.array_equal(extractor.extract(text), naive_features(text, max_chars=57))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(TEXTS, min_size=1, max_size=4))
    @example([""])
    @example(["   \n"])
    @example(["word " * 100])  # longer than max_tokens
    @example(["𝔸𝔹 ∂∇ é", "ab", "a"])
    def test_ids_and_predictions_equal_the_per_occurrence_reference(self, texts):
        model = FastTextModel(CONFIG, n_outputs=3)
        for _ in range(2):  # cold table, then warm
            for text in texts:
                ids = model.bucket_ids(text)
                assert ids.dtype == np.int64 and ids.flags.writeable
                assert np.array_equal(ids, naive_bucket_ids(text, CONFIG))
            assert np.array_equal(model.predict(texts), naive_predict(model, texts))

    def test_classification_head_is_exact_too(self):
        model = FastTextModel(CONFIG, n_outputs=2, task="classification")
        texts = [_page(1), _page(2), ""]
        logits = naive_predict(model, texts)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.array_equal(model.predict(texts), exp / exp.sum(axis=1, keepdims=True))

    def test_training_sees_the_same_ids_hence_learns_the_same_weights(self, monkeypatch):
        texts = [_page(seed) for seed in range(12)]
        targets = np.random.default_rng(0).random((12, 2))
        fast = FastTextModel(CONFIG, n_outputs=2)
        fast.fit(texts, targets)
        reference = FastTextModel(CONFIG, n_outputs=2)
        monkeypatch.setattr(
            reference, "bucket_ids", lambda text: naive_bucket_ids(text, CONFIG)
        )
        reference.fit(texts, targets)
        assert np.array_equal(fast.embeddings, reference.embeddings)
        assert np.array_equal(fast.head_weight, reference.head_weight)
        assert np.array_equal(fast.head_bias, reference.head_bias)

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=60), st.sampled_from([8, 4096, 1 << 20]))
    def test_token_ids_equal_a_fresh_hash(self, text, vocab_size):
        tokenizer = HashingTokenizer(vocab_size=vocab_size, max_length=32)
        for token in tokenizer.words(text):
            expected = FIRST_HASH_ID + stable_hash("tok", token) % (vocab_size - FIRST_HASH_ID)
            assert tokenizer.token_id(token) == expected


class TestExactAtTheEdges:
    """Where each new path could part from its reference: block and run edges."""

    @pytest.mark.parametrize("n_ids", [1, 511, 512, 513, 1024, 1025, 3001])
    def test_blocked_mean_equals_the_whole_gather(self, n_ids):
        model = FastTextModel(FastTextConfig(n_buckets=4096), n_outputs=1)
        ids = np.random.default_rng(n_ids).integers(0, 4096, n_ids)
        mean = model._mean_embedding(ids)
        assert np.array_equal(mean, model.embeddings[ids].mean(axis=0))

    def test_text_vector_is_the_blocked_mean_past_five_blocks(self):
        config = FastTextConfig(max_tokens=300)
        model = FastTextModel(config, n_outputs=1)
        text = _page(5, n_words=300)
        ids = naive_bucket_ids(text, config)
        assert len(ids) > 5 * fasttext_module._MEAN_BLOCK_ROWS
        assert np.array_equal(model.text_vector(text), model.embeddings[ids].mean(axis=0))

    @pytest.mark.parametrize(
        "text",
        [
            "bcdfghjklmnpqrstvwxz",
            "bcdfghjklmnpqrstvwxz a bcdfghjklmnpqrstvwxz rhythm",
            "xkcd " * 30,
        ],
    )
    def test_a_long_vowel_free_word_counts_as_both(self, text):
        features = TextStatisticsExtractor().extract(text)
        assert np.array_equal(features, naive_features(text))
        ratio = dict(zip(TEXT_FEATURE_NAMES, features.tolist()))
        words = text.split()
        assert ratio["vowel_free_word_ratio"] == sum(
            len(w) >= 4 and not set(w) & set("aeiou") for w in words
        ) / len(words)
        assert ratio["long_word_ratio"] == sum(len(w) > 18 for w in words) / len(words)

    @pytest.mark.parametrize(
        "text, runs",
        [
            ("\n" * 6, 0),
            ("ab\n\n\n\n\ncd", 0),
            ("aaaa\naaaa", 2),
            ("a" * 9, 1),
            ("aaa", 0),
            ("aaaabbbb aaaa", 3),
            ("x" + "𝔸" * 4 + "x", 1),
            ("\ud800" * 5, 1),
        ],
    )
    def test_repeated_runs_are_what_the_regex_finds(self, text, runs):
        code_points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        assert features_module._repeated_runs(code_points) == runs
        assert len(re.findall(r"(.)\1{3,}", text)) == runs
        assert np.array_equal(TextStatisticsExtractor().extract(text), naive_features(text))

    @pytest.mark.parametrize(
        "text, astral",
        [
            ("Plain BMP text ∂Σ 42 \ud800", 0),
            ("\U0010ffff", 1),
            ("𝔸b𝔸 𝟘\U0001e900", 3),
        ],
    )
    def test_class_counts_take_the_astral_pass_only_when_needed(
        self, text, astral, monkeypatch
    ):
        features_module._bmp_class_table()  # built before the calls are counted
        classed = []
        char_class = features_module._char_class
        monkeypatch.setattr(
            features_module, "_char_class", lambda char: classed.append(char) or char_class(char)
        )
        code_points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        classes = features_module._char_classes(code_points)
        assert len(classed) == astral  # once per distinct astral code point
        assert classes.tolist() == [char_class(char) for char in text]
        assert np.array_equal(TextStatisticsExtractor().extract(text), naive_features(text))


# ---------------------------------------------------------------------- #
# (b) The deterministic gate: a repeated batch hashes nothing
# ---------------------------------------------------------------------- #
class TestRepeatedTextHashesNothing:
    def test_scoring_a_batch_twice_hashes_only_once(self, hash_calls):
        model = FastTextModel(CONFIG, n_outputs=3)
        batch = [_page(seed) for seed in range(8)]
        first = model.predict(batch)
        distinct = {w for text in batch for w in model._tokenizer.words(text)[: CONFIG.max_tokens]}
        assert {parts[1] for parts in hash_calls if parts[0] == "ft-word"} == distinct
        assert sum(parts[0] == "ft-word" for parts in hash_calls) == len(distinct)
        assert sum(parts[0] == "ft-char" for parts in hash_calls) == sum(
            n_char_ngrams(word, CONFIG) for word in distinct
        )
        del hash_calls[:]
        assert np.array_equal(model.predict(batch), first)
        assert hash_calls == []

    def test_encoding_a_batch_twice_hashes_only_once(self, hash_calls):
        tokenizer_module._hashed_token_id.cache_clear()
        tokenizer = HashingTokenizer(vocab_size=4096, max_length=64)
        batch = [_page(seed) for seed in range(8)]
        first, _ = tokenizer.encode_batch(batch)
        assert len(hash_calls) == len({w for text in batch for w in tokenizer.words(text)[:63]})
        del hash_calls[:]
        again, _ = tokenizer.encode_batch(batch)
        assert np.array_equal(again, first)
        assert hash_calls == []
        # a tokenizer with another vocabulary shares the memo, not the ids
        other = HashingTokenizer(vocab_size=64, max_length=64)
        assert other.encode(batch[0]).max() < 64

    def test_tokenizer_stays_a_frozen_hashable_picklable_value(self):
        tokenizer = HashingTokenizer(vocab_size=4096, max_length=16)
        tokenizer.encode("the catalyst")
        assert pickle.loads(pickle.dumps(tokenizer)) == tokenizer
        assert hash(tokenizer) == hash(HashingTokenizer(vocab_size=4096, max_length=16))
        with pytest.raises(AttributeError):
            tokenizer.vocab_size = 8  # type: ignore[misc]


# ---------------------------------------------------------------------- #
# (c) The table is bounded, and exact across evictions
# ---------------------------------------------------------------------- #
class TestIdTableBound:
    def test_generations_never_exceed_the_bound_and_stay_exact(self, monkeypatch):
        bound = 5
        monkeypatch.setattr(fasttext_module, "_ID_TABLE_GENERATION_WORDS", bound)
        model = FastTextModel(CONFIG, n_outputs=3)
        texts = [_page(seed, n_words=12) for seed in range(30)]
        for text in texts + texts[::-1]:
            assert np.array_equal(model.bucket_ids(text), naive_bucket_ids(text, CONFIG))
            assert len(model._recent_word_ids) <= bound
            assert len(model._old_word_ids) <= bound
        assert model._old_word_ids  # generations did turn over

    def test_a_word_in_steady_use_survives_turnover(self, monkeypatch, hash_calls):
        monkeypatch.setattr(fasttext_module, "_ID_TABLE_GENERATION_WORDS", 4)
        model = FastTextModel(CONFIG, n_outputs=3)
        for i in range(40):
            model.bucket_ids(f"catalyst filler{i}")
        assert sum(parts == ("ft-word", "catalyst") for parts in hash_calls) == 1

    def test_overlong_words_are_hashed_but_not_kept(self):
        model = FastTextModel(CONFIG, n_outputs=3)
        run = "x" * (fasttext_module._ID_TABLE_MAX_WORD_CHARS + 1)
        text = f"{run} {run[:-1]}"
        assert np.array_equal(model.bucket_ids(text), naive_bucket_ids(text, CONFIG))
        assert set(model._recent_word_ids) == {run[:-1]}

    def test_default_bounds_keep_the_worst_case_under_8_mb(self):
        longest = "x" * fasttext_module._ID_TABLE_MAX_WORD_CHARS
        ids = FastTextModel(CONFIG, n_outputs=1)._hash_word(longest)
        assert len(ids) == 8 * 70
        per_entry = sys.getsizeof(ids) + sys.getsizeof(longest) + 104  # + dict slot
        assert 2 * fasttext_module._ID_TABLE_GENERATION_WORDS * per_entry < 8 << 20


# ---------------------------------------------------------------------- #
# (d) Not part of the model: pickles, fingerprints, threads
# ---------------------------------------------------------------------- #
class TestTableIsNotModelState:
    def test_pickle_does_not_grow_and_round_trip_scores_identically(self):
        model = FastTextModel(CONFIG, n_outputs=3)
        cold = len(pickle.dumps(model))
        batch = [_page(seed) for seed in range(8)]
        scores = model.predict(batch)
        assert model._recent_word_ids
        assert len(pickle.dumps(model)) == cold
        clone = pickle.loads(pickle.dumps(model))
        assert clone._recent_word_ids == {} and clone._old_word_ids == {}
        assert np.array_equal(clone.predict(batch), scores)
        assert model._recent_word_ids  # pickling left the live table alone

    def test_weights_fingerprint_ignores_the_table(self):
        from repro.ml.quality_model import ParserQualityPredictor

        predictor = ParserQualityPredictor(["a", "b"], backend="fasttext", fasttext_config=CONFIG)
        cold = predictor.weights_fingerprint()
        predictor.predict([_page(3)])
        assert predictor.weights_fingerprint() == cold

    def test_eight_threads_sharing_one_model_score_exactly(self, monkeypatch):
        # A small bound keeps generations turning over while threads race.
        monkeypatch.setattr(fasttext_module, "_ID_TABLE_GENERATION_WORDS", 16)
        model = FastTextModel(CONFIG, n_outputs=3)
        texts = [_page(seed, n_words=30) for seed in range(24)]
        expected = naive_predict(model, texts)
        results: dict[int, np.ndarray] = {}
        barrier = threading.Barrier(8)

        def score(worker: int) -> None:
            order = np.random.default_rng(worker).permutation(len(texts))
            barrier.wait(timeout=10)
            rows = np.empty_like(expected)
            for _ in range(3):
                rows[order] = model.predict([texts[i] for i in order])
            results[worker] = rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=score, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(8))
        for rows in results.values():
            assert np.array_equal(rows, expected)
        assert len(model._recent_word_ids) <= 16 + 8  # a racing insert may overshoot by one each
