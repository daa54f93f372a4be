"""Exact and near-duplicate detection for assembled datasets.

Scientific collections overlap heavily (preprint servers, publisher mirrors,
revised versions), and duplicate text skews LLM training.  This module
provides

* exact duplicate grouping over a whitespace/case-normalised hash, and
* near-duplicate detection with MinHash signatures over word shingles and an
  LSH banding index, so that candidate pairs are found without comparing every
  pair of documents.

Everything is deterministic: hashes come from :mod:`repro.utils.hashing`, and
the MinHash permutations are fixed affine maps over a 61-bit Mersenne prime.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.datasets.records import ParsedRecord
from repro.utils.hashing import stable_hash

#: Modulus of the MinHash permutations (a Mersenne prime, 2^61 - 1).
_MERSENNE_61 = (1 << 61) - 1


def normalize_for_dedup(text: str) -> str:
    """Canonical form used for duplicate detection (case and whitespace folded).

    Equal to ``re.sub(r"\\s+", " ", text.strip().lower())`` for every string
    (``str.split`` and ``\\s`` agree on what whitespace is) without the regex
    scan.  Cache keys and dedup fingerprints hash this string, so
    ``tests/datasets/test_dedup.py`` keeps the regex form as the reference.
    """
    return " ".join(text.lower().split())


def content_fingerprint(text: str) -> int:
    """Stable 64-bit fingerprint of the normalised text (exact-dup key)."""
    return stable_hash("dedup-fingerprint", normalize_for_dedup(text))


def exact_duplicate_groups(texts: Sequence[str]) -> list[list[int]]:
    """Indices of texts sharing a fingerprint, for groups of size ≥ 2."""
    groups: dict[int, list[int]] = defaultdict(list)
    for index, text in enumerate(texts):
        groups[content_fingerprint(text)].append(index)
    return [members for members in groups.values() if len(members) >= 2]


def word_shingles(text: str, k: int = 5) -> set[int]:
    """Hashed ``k``-word shingles of the normalised text.

    Texts shorter than ``k`` words produce a single shingle over all words so
    that even tiny documents have a non-empty shingle set.
    """
    if k < 1:
        raise ValueError("k must be positive")
    words = normalize_for_dedup(text).split()
    if not words:
        return set()
    if len(words) < k:
        return {stable_hash("shingle", " ".join(words))}
    return {
        stable_hash("shingle", " ".join(words[i : i + k]))
        for i in range(len(words) - k + 1)
    }


def jaccard_similarity(a: set[int], b: set[int]) -> float:
    """Exact Jaccard similarity of two shingle sets."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    intersection = len(a & b)
    union = len(a) + len(b) - intersection
    return intersection / union


@dataclass(frozen=True)
class MinHasher:
    """MinHash signatures with fixed affine permutations.

    Attributes
    ----------
    n_hashes:
        Signature length; more hashes give better Jaccard estimates.
    seed:
        Seed of the permutation coefficients.
    """

    n_hashes: int = 96
    seed: int = 13

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        a = rng.integers(1, _MERSENNE_61, size=self.n_hashes, dtype=np.int64)
        b = rng.integers(0, _MERSENNE_61, size=self.n_hashes, dtype=np.int64)
        return a, b

    def signature(self, shingles: set[int]) -> np.ndarray:
        """MinHash signature of one shingle set (``n_hashes`` int64 values)."""
        if not shingles:
            return np.full(self.n_hashes, _MERSENNE_61, dtype=np.int64)
        a, b = self._coefficients()
        values = np.asarray(sorted(shingles), dtype=np.uint64) % _MERSENNE_61
        # (n_hashes, n_shingles) permuted values; min over shingles.
        permuted = (
            a[:, None].astype(np.uint64) * values[None, :] + b[:, None].astype(np.uint64)
        ) % _MERSENNE_61
        return permuted.min(axis=1).astype(np.int64)


class LshIndex:
    """Banded LSH index over MinHash signatures.

    Signatures are split into ``n_bands`` bands of equal width; documents that
    collide in at least one band become candidate pairs.  With 96 hashes and
    16 bands (width 6) the collision probability crosses 50 % near a Jaccard
    similarity of ``(1/16)^(1/6) ≈ 0.63``.
    """

    def __init__(self, n_hashes: int = 96, n_bands: int = 16) -> None:
        if n_hashes % n_bands != 0:
            raise ValueError("n_hashes must be divisible by n_bands")
        self.n_hashes = n_hashes
        self.n_bands = n_bands
        self.band_width = n_hashes // n_bands
        self._buckets: dict[tuple[int, int], list[str]] = defaultdict(list)
        self._signatures: dict[str, np.ndarray] = {}

    def add(self, key: str, signature: np.ndarray) -> None:
        """Index one document's signature under ``key``."""
        if signature.shape != (self.n_hashes,):
            raise ValueError(f"signature must have length {self.n_hashes}")
        if key in self._signatures:
            raise KeyError(f"key {key!r} already indexed")
        self._signatures[key] = signature
        for band in range(self.n_bands):
            chunk = signature[band * self.band_width : (band + 1) * self.band_width]
            bucket = (band, stable_hash("lsh-band", band, *chunk.tolist()))
            self._buckets[bucket].append(key)

    def __len__(self) -> int:
        return len(self._signatures)

    def candidate_pairs(self) -> set[tuple[str, str]]:
        """All (key_a, key_b) pairs that collide in at least one band."""
        pairs: set[tuple[str, str]] = set()
        for members in self._buckets.values():
            if len(members) < 2:
                continue
            ordered = sorted(members)
            for i in range(len(ordered)):
                for j in range(i + 1, len(ordered)):
                    pairs.add((ordered[i], ordered[j]))
        return pairs


@dataclass
class DedupReport:
    """Outcome of duplicate detection over a record collection."""

    kept: list[ParsedRecord] = field(default_factory=list)
    dropped: list[ParsedRecord] = field(default_factory=list)
    clusters: list[list[str]] = field(default_factory=list)

    @property
    def n_input(self) -> int:
        return len(self.kept) + len(self.dropped)

    @property
    def duplicate_rate(self) -> float:
        """Fraction of input records dropped as duplicates."""
        if self.n_input == 0:
            return 0.0
        return len(self.dropped) / self.n_input

    def summary(self) -> dict[str, object]:
        return {
            "n_input": self.n_input,
            "n_kept": len(self.kept),
            "n_dropped": len(self.dropped),
            "n_clusters": len(self.clusters),
            "duplicate_rate": round(self.duplicate_rate, 4),
        }


class NearDuplicateDetector:
    """Finds duplicate clusters and keeps one representative per cluster.

    Within each cluster the representative is the record with the highest
    quality estimate (unknown quality ranks lowest), breaking ties by token
    count and then document id — so re-parses of the same content keep the
    best available version.
    """

    def __init__(
        self,
        similarity_threshold: float = 0.8,
        shingle_size: int = 5,
        n_hashes: int = 96,
        n_bands: int = 16,
    ) -> None:
        if not 0.0 < similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must lie in (0, 1]")
        self.similarity_threshold = similarity_threshold
        self.shingle_size = shingle_size
        self.hasher = MinHasher(n_hashes=n_hashes)
        self.n_bands = n_bands

    # ------------------------------------------------------------------ #
    @staticmethod
    def _preference_key(record: ParsedRecord) -> tuple[float, int, str]:
        quality = record.quality if record.quality is not None else -1.0
        return (quality, record.n_tokens, record.doc_id)

    def _cluster(self, edges: Iterable[tuple[str, str]], keys: Sequence[str]) -> list[list[str]]:
        """Connected components over duplicate edges (union-find)."""
        parent = {key: key for key in keys}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: str, y: str) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx

        for a, b in edges:
            union(a, b)
        components: dict[str, list[str]] = defaultdict(list)
        for key in keys:
            components[find(key)].append(key)
        return [sorted(members) for members in components.values() if len(members) >= 2]

    # ------------------------------------------------------------------ #
    def find_duplicates(self, records: Sequence[ParsedRecord]) -> DedupReport:
        """Detect duplicates and pick one representative per cluster."""
        report = DedupReport()
        if not records:
            return report
        by_id: dict[str, ParsedRecord] = {}
        for record in records:
            if record.doc_id in by_id:
                raise ValueError(f"duplicate doc_id in input: {record.doc_id!r}")
            by_id[record.doc_id] = record

        shingles = {r.doc_id: word_shingles(r.text, k=self.shingle_size) for r in records}
        index = LshIndex(n_hashes=self.hasher.n_hashes, n_bands=self.n_bands)
        for record in records:
            index.add(record.doc_id, self.hasher.signature(shingles[record.doc_id]))

        # Exact duplicates are always edges; candidate pairs are verified with
        # the true Jaccard similarity of their shingle sets.
        edges: list[tuple[str, str]] = []
        for group in exact_duplicate_groups([r.text for r in records]):
            ids = [records[i].doc_id for i in group]
            edges.extend((ids[0], other) for other in ids[1:])
        for key_a, key_b in index.candidate_pairs():
            similarity = jaccard_similarity(shingles[key_a], shingles[key_b])
            if similarity >= self.similarity_threshold:
                edges.append((key_a, key_b))

        clusters = self._cluster(edges, [r.doc_id for r in records])
        report.clusters = clusters
        dropped_ids: set[str] = set()
        for cluster in clusters:
            members = [by_id[doc_id] for doc_id in cluster]
            keep = max(members, key=self._preference_key)
            dropped_ids.update(m.doc_id for m in members if m.doc_id != keep.doc_id)
        for record in records:
            if record.doc_id in dropped_ids:
                report.dropped.append(record)
            else:
                report.kept.append(record)
        return report
