"""Document metadata model and sampling.

Metadata is the input to the CLS II classifier ("metadata-driven;
regression-based" in Figure 2) and to the SVC baselines of Table 4: publisher,
scientific (sub-)category, publication year, PDF format version, and the
producing tool.  The sampling priors live in :mod:`repro.documents.lexicon`.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from repro.documents import lexicon
from repro.utils.rng import DrawStream, WeightedTable, replayed


@dataclass(frozen=True)
class DocumentMetadata:
    """Bibliographic and technical metadata of a document."""

    title: str
    publisher: str
    domain: str
    subcategory: str
    year: int
    pdf_format: str
    producer: str
    n_pages: int
    keywords: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        """Plain-dictionary form (used by serialization and featurizers)."""
        d = asdict(self)
        d["keywords"] = list(self.keywords)
        return d

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "DocumentMetadata":
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        payload["keywords"] = tuple(payload.get("keywords", ()))  # type: ignore[arg-type]
        return cls(**payload)  # type: ignore[arg-type]


def _producer_table(scanner: float, distiller: float, pdftex: float = 1.0) -> WeightedTable:
    weights = dict(lexicon.PRODUCER_WEIGHTS)
    weights["scanner_firmware"] *= scanner
    weights["legacy_distiller"] *= distiller
    weights["pdftex"] *= pdftex
    return WeightedTable.of(weights)


def _domain_table(affinity: dict[str, float]) -> WeightedTable:
    valid = {d: w for d, w in affinity.items() if d in lexicon.DOMAINS and w > 0}
    return WeightedTable.of(valid) if valid else _DOMAINS


_PUBLISHERS = WeightedTable.of(lexicon.PUBLISHER_WEIGHTS)
_DOMAINS = WeightedTable.of(lexicon.DOMAIN_WEIGHTS)
_PUBLISHER_DOMAINS = {
    publisher: _domain_table(affinity)
    for publisher, affinity in lexicon.PUBLISHER_DOMAIN_AFFINITY.items()
}
_FORMATS = WeightedTable.of(lexicon.FORMAT_WEIGHTS)
_PRODUCERS_BEFORE_2005 = _producer_table(scanner=6.0, distiller=4.0, pdftex=0.5)
_PRODUCERS_BEFORE_2015 = _producer_table(scanner=2.0, distiller=2.0)
_PRODUCERS = WeightedTable.of(lexicon.PRODUCER_WEIGHTS)


def sample_publisher(rng: np.random.Generator | DrawStream) -> str:
    """Sample a publisher from the corpus prior."""
    with replayed(rng) as draws:
        return draws.weighted(_PUBLISHERS)


def sample_domain(rng: np.random.Generator | DrawStream, publisher: str) -> str:
    """Sample a scientific domain conditioned on the publisher."""
    with replayed(rng) as draws:
        return draws.weighted(_PUBLISHER_DOMAINS.get(publisher, _DOMAINS))


def sample_producer(rng: np.random.Generator | DrawStream, year: int) -> str:
    """Sample a producing tool, biased towards scanners for old documents."""
    if year < 2005:
        table = _PRODUCERS_BEFORE_2005
    elif year < 2015:
        table = _PRODUCERS_BEFORE_2015
    else:
        table = _PRODUCERS
    with replayed(rng) as draws:
        return draws.weighted(table)


def sample_year(rng: np.random.Generator | DrawStream) -> int:
    """Sample a publication year.

    The paper focuses on recent documents (to avoid training-data leakage into
    the ViT parsers) but retains a tail of older material whose metadata and
    text layers are of lower quality.
    """
    with replayed(rng) as draws:
        u = draws.random()
        if u < 0.70:
            return draws.integers(2019, 2025)
        if u < 0.90:
            return draws.integers(2010, 2019)
        return draws.integers(1995, 2010)


def make_title(rng: np.random.Generator | DrawStream, domain: str) -> str:
    """Generate a plausible paper title for a domain."""
    terms = lexicon.DOMAIN_TERMS[domain]
    with replayed(rng) as draws:
        pattern = draws.integers(0, 3)
        t1, t2 = draws.picks(terms, 2)
        adj = draws.pick(lexicon.ACADEMIC_ADJECTIVES)
        noun = draws.pick(lexicon.ACADEMIC_NOUNS)
    if pattern == 0:
        title = f"A {adj} {noun} for {t1} {t2}"
    elif pattern == 1:
        title = f"On the {t1} of {t2}: a {adj} {noun}"
    else:
        title = f"{t1.capitalize()}-driven {noun} of {t2}"
    return title[0].upper() + title[1:]


def sample_metadata(rng: np.random.Generator | DrawStream, n_pages: int) -> DocumentMetadata:
    """Sample a complete, internally consistent metadata record."""
    with replayed(rng) as draws:
        publisher = sample_publisher(draws)
        domain = sample_domain(draws, publisher)
        subcategory = draws.pick(lexicon.SUBCATEGORIES[domain])
        year = sample_year(draws)
        producer = sample_producer(draws, year)
        pdf_format = draws.weighted(_FORMATS)
        title = make_title(draws, domain)
        terms = lexicon.DOMAIN_TERMS[domain]
        picked = draws.sample(len(terms), draws.integers(3, 7))
    return DocumentMetadata(
        title=title,
        publisher=publisher,
        domain=domain,
        subcategory=subcategory,
        year=year,
        pdf_format=pdf_format,
        producer=producer,
        n_pages=n_pages,
        keywords=tuple(terms[i] for i in picked),
    )
