"""Feature extraction for the CLS I / CLS II stages and the SVC baselines.

* :class:`TextStatisticsExtractor` computes cheap aggregate statistics of the
  PyMuPDF-extracted text (character counts, whitespace ratios, non-alphabetic
  ratios, scrambled-word indicators, math-glyph density, ...): the 18-feature
  vector the annotators and CLS I's calibration read, and the seven of them
  that CLS I's rules read (:class:`ValidityStatistics`), from the same pass.
  The features are deliberately interpretable and fast to compute, as the
  paper stresses.
* :class:`MetadataFeaturizer` turns document metadata (publisher, category,
  year, PDF format, producer) into a fixed-width vector via one-hot encoding
  of known categories plus hashing for unseen values — the input of CLS II and
  of the Table 4 SVC baselines.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.documents import lexicon
from repro.documents.metadata import DocumentMetadata
from repro.utils.hashing import stable_hash

_VOWELS = frozenset("aeiou")
_MATH_GLYPHS = set("∂∇Σ∫∞αβγλμσθφωε·×√^_{}\\=+")
_WHITESPACE = set(" \t\n\r")  # what ``whitespace_ratio`` counts, not ``str.isspace``

# Character classes of a code point, as bit flags in one ``uint8``.
_ALPHA, _DIGIT, _UPPER, _MATH, _SPACE, _NON_ASCII = 1, 2, 4, 8, 16, 32
#: The class counts the statistics read: characters with any of these flags set.
_COUNTED = (_SPACE, _ALPHA, _NON_ASCII, _DIGIT, _ALPHA | _DIGIT | _SPACE, _UPPER, _MATH)
#: Row ``i`` picks the bins of a histogram over the 64 flag combinations
#: that ``_COUNTED[i]`` sums.
_COUNT_BINS = ((np.arange(64) & np.array(_COUNTED)[:, None]) != 0).astype(np.int64)
_BMP = 0x10000


def _char_class(char: str) -> int:
    """Class flags of one character, from the ``str`` predicates themselves."""
    return (
        (_ALPHA if char.isalpha() else 0)
        | (_DIGIT if char.isdigit() else 0)
        | (_UPPER if char.isupper() else 0)
        | (_MATH if char in _MATH_GLYPHS else 0)
        | (_SPACE if char in _WHITESPACE else 0)
        | (_NON_ASCII if ord(char) > 127 else 0)
    )


# Built on first use, never at import: ``import repro`` is in every run's
# start-up time.
@functools.cache
def _bmp_class_table() -> np.ndarray:
    """:func:`_char_class` of every code point below ``_BMP`` (64 KB)."""
    table = np.fromiter(map(_char_class, map(chr, range(_BMP))), dtype=np.uint8, count=_BMP)
    table.flags.writeable = False
    return table


@functools.cache
def _known_terms() -> frozenset[str]:
    return frozenset(lexicon.all_scientific_terms()) | frozenset(lexicon.ACADEMIC_NOUNS)


def _repeated_runs(code_points: np.ndarray) -> int:
    r"""Maximal runs of at least 4 equal code points other than ``"\n"``.

    Exactly what ``re.findall(r"(.)\1{3,}", text)`` finds: ``.`` is anything
    but a newline, and the greedy repeat takes a run whole.  ``code_points``
    is not empty.
    """
    starts = np.flatnonzero(np.concatenate(([True], code_points[1:] != code_points[:-1])))
    run_lengths = np.diff(starts, append=len(code_points))
    return np.count_nonzero((run_lengths >= 4) & (code_points[starts] != ord("\n")))


def _char_classes(code_points: np.ndarray) -> np.ndarray:
    """Class flags of each code point: one table look-up, exact for all of Unicode.

    ``code_points`` is not empty.  Astral code points are rare, so they are
    looked for only when the largest code point is one.
    """
    classes = _bmp_class_table().take(np.minimum(code_points, _BMP - 1))
    if code_points.max() >= _BMP:
        for astral in np.unique(code_points[code_points >= _BMP]):
            classes[code_points == astral] = _char_class(chr(astral))
    return classes


#: Names of the features produced by :class:`TextStatisticsExtractor`, in order.
TEXT_FEATURE_NAMES: tuple[str, ...] = (
    "n_characters_log",
    "n_words_log",
    "mean_word_length",
    "whitespace_ratio",
    "alpha_ratio",
    "digit_ratio",
    "punctuation_ratio",
    "uppercase_ratio",
    "non_ascii_ratio",
    "math_glyph_ratio",
    "vowel_free_word_ratio",
    "long_word_ratio",
    "single_char_word_ratio",
    "repeated_char_run_ratio",
    "line_length_mean",
    "lexicon_hit_ratio",
    "unique_word_ratio",
    "hyphen_linebreak_ratio",
)


@dataclass(frozen=True)
class ValidityStatistics:
    """The seven statistics CLS I's rules read, of one text window.

    Each is the same number as the :data:`TEXT_FEATURE_NAMES` entry of that
    name (``n_words`` is the count whose ``log1p`` is ``n_words_log``).
    """

    n_words: int
    alpha_ratio: float
    whitespace_ratio: float
    non_ascii_ratio: float
    vowel_free_word_ratio: float
    single_char_word_ratio: float
    lexicon_hit_ratio: float


def _one_pass(
    text: str,
) -> tuple[ValidityStatistics, np.ndarray, list[int], collections.Counter, set[str]]:
    """Character classes in one histogram, each distinct word once.

    ``text`` is not empty.  A distinct word of ``Counter(text.split())`` is
    lowered once, and its count weighs it in every word statistic.  Returns
    the :class:`ValidityStatistics` and what ``extract`` reads besides: the
    code points, the class counts, the word counts and the lowered forms.
    """
    # ``surrogatepass``: a lone surrogate is one code point, classed like any other.
    code_points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    class_counts = (_COUNT_BINS @ np.bincount(_char_classes(code_points), minlength=64)).tolist()
    words = text.split()
    word_counts = collections.Counter(words)
    vowel_free = single_char = 0
    forms = set()  # what the lexicon is matched against
    for word, count in word_counts.items():
        lowered = word.lower()
        forms.add(lowered.strip(".,;:()"))
        if len(word) == 1:
            single_char += count
        elif len(word) >= 4 and word.isascii() and word.isalpha() and _VOWELS.isdisjoint(lowered):
            vowel_free += count  # scrambled-word indicator: [A-Za-z]{4,} without a vowel
    n_chars, n_words = len(text), max(1, len(words))
    n_space, n_alpha, n_non_ascii = class_counts[:3]
    statistics = ValidityStatistics(
        n_words=len(words),
        alpha_ratio=n_alpha / n_chars,
        whitespace_ratio=n_space / n_chars,
        non_ascii_ratio=n_non_ascii / n_chars,
        vowel_free_word_ratio=vowel_free / n_words,
        single_char_word_ratio=single_char / n_words,
        lexicon_hit_ratio=len(forms & _known_terms()) / n_words,
    )
    return statistics, code_points, class_counts, word_counts, forms


@dataclass(frozen=True)
class TextStatisticsExtractor:
    """Aggregate statistics of extracted text (the CLS I feature map)."""

    max_chars: int = 6000

    @property
    def n_features(self) -> int:
        return len(TEXT_FEATURE_NAMES)

    def validity_statistics(self, text: str) -> ValidityStatistics:
        """What CLS I's rules read of the first ``max_chars`` characters."""
        text = text[: self.max_chars]
        if not text:
            return ValidityStatistics(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return _one_pass(text)[0]

    def extract(self, text: str) -> np.ndarray:
        """Feature vector of one text (all features finite, roughly unit scale)."""
        text = text[: self.max_chars]
        if not text:
            return np.zeros(self.n_features, dtype=np.float64)
        statistics, code_points, class_counts, word_counts, forms = _one_pass(text)
        n_digit, n_alnum_space, n_upper, n_math = class_counts[3:]
        n_chars, n_words = len(text), max(1, statistics.n_words)
        lengths = np.fromiter(map(len, word_counts), dtype=np.int64, count=len(word_counts))
        weights = np.fromiter(word_counts.values(), dtype=np.int64, count=len(word_counts))
        lines = [ln for ln in text.split("\n") if ln.strip()]
        line_length_mean = float(np.mean([len(ln) for ln in lines])) if lines else 0.0
        return np.asarray(
            [
                math.log1p(n_chars),
                math.log1p(statistics.n_words),
                int(lengths @ weights) / n_words,
                statistics.whitespace_ratio,
                statistics.alpha_ratio,
                n_digit / n_chars,
                (n_chars - n_alnum_space) / n_chars,
                n_upper / n_chars,
                statistics.non_ascii_ratio,
                n_math / n_chars,
                statistics.vowel_free_word_ratio,
                int(weights[lengths > 18].sum()) / n_words,
                statistics.single_char_word_ratio,
                _repeated_runs(code_points) / max(1, len(lines)),
                line_length_mean / 100.0,
                statistics.lexicon_hit_ratio,
                len(forms) / n_words,
                text.count("-\n") / max(1, len(lines)),
            ],
            dtype=np.float64,
        )

    def extract_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Feature matrix ``[n_texts, n_features]``."""
        if not texts:
            return np.zeros((0, self.n_features), dtype=np.float64)
        return np.stack([self.extract(t) for t in texts], axis=0)


@dataclass
class MetadataFeaturizer:
    """One-hot (plus hashed fallback) featurisation of document metadata.

    Parameters
    ----------
    fields:
        Which metadata fields to include.  Table 4 evaluates several subsets
        (format, producer, year, publisher, (sub-)category), so the featurizer
        is field-configurable.
    hash_buckets:
        Number of hashed buckets used for values outside the known
        vocabularies (e.g. unseen producers).
    """

    fields: tuple[str, ...] = ("publisher", "domain", "subcategory", "year", "pdf_format", "producer")
    hash_buckets: int = 16
    _vocab: dict[str, tuple[str, ...]] = field(default_factory=dict, init=False, repr=False)

    _KNOWN_VOCABULARIES: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: {
            "publisher": lexicon.PUBLISHERS,
            "domain": lexicon.DOMAINS,
            "subcategory": tuple(s for subs in lexicon.SUBCATEGORIES.values() for s in subs),
            "pdf_format": lexicon.PDF_FORMATS,
            "producer": lexicon.PRODUCERS,
        },
        init=False,
        repr=False,
    )

    def __post_init__(self) -> None:
        valid = set(self._KNOWN_VOCABULARIES) | {"year", "n_pages", "title"}
        unknown = [f for f in self.fields if f not in valid]
        if unknown:
            raise ValueError(f"unknown metadata fields: {unknown}")
        self._vocab = {f: self._KNOWN_VOCABULARIES[f] for f in self.fields if f in self._KNOWN_VOCABULARIES}

    @property
    def feature_names(self) -> list[str]:
        """Names of the output features, in order."""
        names: list[str] = []
        for field_name in self.fields:
            if field_name == "year":
                names.extend(["year_normalized", "year_pre2005", "year_pre2015"])
            elif field_name == "n_pages":
                names.append("n_pages_log")
            elif field_name == "title":
                names.extend([f"title_hash_{i}" for i in range(self.hash_buckets)])
            else:
                names.extend([f"{field_name}={v}" for v in self._vocab[field_name]])
                names.append(f"{field_name}=<other>")
        return names

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def extract(self, metadata: DocumentMetadata) -> np.ndarray:
        """Feature vector of one metadata record."""
        parts: list[np.ndarray] = []
        for field_name in self.fields:
            value = getattr(metadata, field_name)
            if field_name == "year":
                year = float(value)
                parts.append(
                    np.asarray(
                        [(year - 2010.0) / 15.0, float(year < 2005), float(year < 2015)],
                        dtype=np.float64,
                    )
                )
            elif field_name == "n_pages":
                parts.append(np.asarray([math.log1p(float(value))], dtype=np.float64))
            elif field_name == "title":
                buckets = np.zeros(self.hash_buckets, dtype=np.float64)
                for word in str(value).lower().split():
                    buckets[stable_hash("title", word) % self.hash_buckets] += 1.0
                total = buckets.sum()
                parts.append(buckets / total if total > 0 else buckets)
            else:
                vocab = self._vocab[field_name]
                onehot = np.zeros(len(vocab) + 1, dtype=np.float64)
                value = str(value)
                if value in vocab:
                    onehot[vocab.index(value)] = 1.0
                else:
                    onehot[-1] = 1.0
                parts.append(onehot)
        return np.concatenate(parts)

    def extract_batch(self, metadatas: Sequence[DocumentMetadata]) -> np.ndarray:
        """Feature matrix ``[n_documents, n_features]``."""
        if not metadatas:
            return np.zeros((0, self.n_features), dtype=np.float64)
        return np.stack([self.extract(m) for m in metadatas], axis=0)
