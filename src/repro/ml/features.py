"""Feature extraction for the CLS I / CLS II stages and the SVC baselines.

* :class:`TextStatisticsExtractor` computes the cheap aggregate statistics of
  the PyMuPDF-extracted text that CLS I uses to judge validity (character
  counts, whitespace ratios, non-alphabetic ratios, scrambled-word indicators,
  math-glyph density, ...).  The features are deliberately interpretable and
  fast to compute, as the paper stresses.
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
_ALPHA, _DIGIT, _UPPER, _MATH, _SPACE = 1, 2, 4, 8, 16
#: The class counts ``extract`` reads: characters with any of these flags set.
_COUNTED = (_SPACE, _ALPHA, _DIGIT, _ALPHA | _DIGIT | _SPACE, _UPPER, _MATH)
#: Row ``i`` picks the bins of a histogram over the 32 flag combinations
#: that ``_COUNTED[i]`` sums.
_COUNT_BINS = ((np.arange(32) & np.array(_COUNTED)[:, None]) != 0).astype(np.int64)
_BMP = 0x10000


def _char_class(char: str) -> int:
    """Class flags of one character, from the ``str`` predicates themselves."""
    return (
        (_ALPHA if char.isalpha() else 0)
        | (_DIGIT if char.isdigit() else 0)
        | (_UPPER if char.isupper() else 0)
        | (_MATH if char in _MATH_GLYPHS else 0)
        | (_SPACE if char in _WHITESPACE else 0)
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
class TextStatisticsExtractor:
    """Aggregate statistics of extracted text (the CLS I feature map)."""

    max_chars: int = 6000

    @property
    def feature_names(self) -> tuple[str, ...]:
        return TEXT_FEATURE_NAMES

    @property
    def n_features(self) -> int:
        return len(TEXT_FEATURE_NAMES)

    def __call__(self, text: str) -> np.ndarray:
        return self.extract(text)

    def extract(self, text: str) -> np.ndarray:
        """Feature vector of one text (all features finite, roughly unit scale)."""
        text = text[: self.max_chars]
        n_chars = len(text)
        if n_chars == 0:
            return np.zeros(self.n_features, dtype=np.float64)
        # ``surrogatepass``: a lone surrogate is one code point, classed like any other.
        chars = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        n_space, n_alpha, n_digit, n_alnum_space, n_upper, n_math = (
            _COUNT_BINS @ np.bincount(_char_classes(chars), minlength=32)
        ).tolist()

        # Word statistics once per distinct word, weighted by its count.
        words = text.split()
        counts = collections.Counter(words)
        n_words = max(1, len(words))
        lengths = np.fromiter(map(len, counts), dtype=np.int64, count=len(counts))
        weights = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        # Scrambled-word indicator: [A-Za-z]{4,} words without a vowel.
        vowel_free = sum(
            c
            for w, c in counts.items()
            if len(w) >= 4 and w.isascii() and w.isalpha() and _VOWELS.isdisjoint(w.lower())
        )
        lines = [ln for ln in text.split("\n") if ln.strip()]
        line_length_mean = float(np.mean([len(ln) for ln in lines])) if lines else 0.0
        hyphen_breaks = text.count("-\n")

        lowercase_words = {w.lower().strip(".,;:()") for w in counts}
        lexicon_hits = len(lowercase_words & _known_terms())

        features = np.asarray(
            [
                math.log1p(n_chars),
                math.log1p(len(words)),
                int(lengths @ weights) / n_words,
                n_space / n_chars,
                n_alpha / n_chars,
                n_digit / n_chars,
                (n_chars - n_alnum_space) / n_chars,
                n_upper / n_chars,
                np.count_nonzero(chars > 127) / n_chars,
                n_math / n_chars,
                vowel_free / n_words,
                int(weights[lengths > 18].sum()) / n_words,
                int(weights[lengths == 1].sum()) / n_words,
                _repeated_runs(chars) / max(1, len(lines)),
                line_length_mean / 100.0,
                lexicon_hits / n_words,
                len(lowercase_words) / n_words,
                hyphen_breaks / max(1, len(lines)),
            ],
            dtype=np.float64,
        )
        return features

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
