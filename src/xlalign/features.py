"""Language-pair predictors: training-data aggregates, phylogeny/typology
agreement flags, text overlaps, and typological cosine distances.

Missing inputs (absent typological vectors, unavailable texts) surface as
``None`` fields rather than imputed zeros; downstream fits drop incomplete
rows listwise.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .corpus import LanguageMeta, WordOrder
from .knn import _squared_norm, cosine

# the training-data counts and the agreement flags, whose cells read 0 or 1
COUNT_FEATURES = ("combined_sentences", "combined_in_family", "combined_in_subfamily")
BINARY_FEATURES = ("same_family", "same_subfamily", "same_word_order", "same_polysynthesis")

_DIST_FIELDS = {
    "syntax": "syntactic_dist",
    "phonology": "phonological_dist",
    "inventory": "inventory_dist",
    "geography": "geographic_dist",
}


class TrainingCounts(NamedTuple):
    in_family: int
    in_subfamily: int


@dataclass(frozen=True)
class PairFeatureVector:
    """The 13 predictors for one language pair. ``None`` marks missing data."""

    combined_sentences: int
    combined_in_family: int
    combined_in_subfamily: int
    same_family: int
    same_subfamily: int
    same_word_order: int
    same_polysynthesis: int
    token_overlap: float | None
    char_overlap: float | None
    syntactic_dist: float | None
    phonological_dist: float | None
    inventory_dist: float | None
    geographic_dist: float | None

    def __post_init__(self):
        for name in COUNT_FEATURES:
            value = getattr(self, name)
            if value is None or value < 0 or value % 1:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.combined_in_subfamily > self.combined_in_family:
            raise ValueError("combined_in_subfamily exceeds combined_in_family")
        for name in BINARY_FEATURES:
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")
        for name in ("token_overlap", "char_overlap"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0 + 1e-9:
                raise ValueError(f"{name} outside [0, 1]")
        for name in _DIST_FIELDS.values():
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 2.0 + 1e-9:
                raise ValueError(f"{name} outside [0, 2]")

    def as_dict(self) -> dict[str, float | int | None]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}


FEATURE_NAMES = tuple(f.name for f in fields(PairFeatureVector))


def _unit_counts(text: str, unit: str) -> Counter:
    """The multiset of ``unit`` items of ``text`` that ``_counts_jaccard`` compares:
    ``unit="char"`` counts Unicode code points of the NFC-normalized text,
    whitespace excluded; ``unit="token"`` counts whitespace-split tokens of
    pre-tokenized input."""
    if unit == "char":
        # count every code point in C, then drop the few whitespace keys
        counts = Counter(unicodedata.normalize("NFC", text))
        for c in [c for c in counts if c.isspace()]:
            del counts[c]
        return counts
    if unit == "token":
        return Counter(text.split())
    raise ValueError(f"unknown overlap unit {unit!r}")


def _counts_jaccard(counts: Mapping[str, Counter], lang_a: str, lang_b: str, unit: str) -> float:
    """Weighted Jaccard overlap of two languages' ``_unit_counts``: the ratio of
    summed per-element minimum counts to summed maximum counts. A language
    whose text has no ``unit`` is refused by name, ``lang_a`` first."""
    for lang in (lang_a, lang_b):
        if not counts[lang]:
            raise ValueError(f"language {lang!r}: text empty after {unit} segmentation")
    count_a, count_b = counts[lang_a], counts[lang_b]
    # a Counter's & and | keep each element's minimum and maximum count
    return sum((count_a & count_b).values()) / sum((count_a | count_b).values())


def _unit_counts_by_language(
    texts: Mapping[str, str] | None, unit: str, langs: Iterable[str]
) -> dict[str, Counter] | None:
    """Each of ``langs`` that has a text, mapped to its ``unit`` counts; None
    without texts. Counted once, they serve every pair of the languages."""
    if texts is None:
        return None
    return {lang: _unit_counts(texts[lang], unit) for lang in langs if lang in texts}


def typological_distance(va, vb) -> float:
    """Cosine distance (1 - cosine similarity) between two typology vectors."""
    va = np.asarray(va, dtype=np.float64)
    vb = np.asarray(vb, dtype=np.float64)
    if va.shape != vb.shape:
        raise ValueError(f"vector dimension mismatch: {va.shape} vs {vb.shape}")
    return 1.0 - cosine(va, vb)


def _check_typology_vectors(metas: Iterable[LanguageMeta]) -> None:
    """Refuse a typology vector that no cosine distance can use, naming its
    language and kind: one with a non-finite entry, one whose norm is 0 as
    ``knn.cosine`` tests it (so a norm that underflows counts too), or one
    whose squared norm overflows. Two vectors with finite squared norms have
    a finite product of norms and, by Cauchy-Schwarz, a dot product none of
    whose partial sums overflows, so ``knn.cosine`` is finite on them."""
    for meta in metas:
        for kind, vec in meta.typo_vectors.items():
            _, problem = _squared_norm(vec)
            if problem:
                raise ValueError(f"language {meta.lang!r}: {kind} vector has {problem}")


def training_aggregates(table: Mapping[str, LanguageMeta]) -> dict[str, TrainingCounts]:
    """In-family and in-subfamily training totals for every language.

    Subfamilies are keyed by (family, subfamily) so a subfamily total can
    never exceed its family total.
    """
    family_sums: dict[str, int] = {}
    subfamily_sums: dict[tuple[str, str], int] = {}
    for meta in table.values():
        family_sums[meta.family] = family_sums.get(meta.family, 0) + meta.train_sentences
        key = (meta.family, meta.subfamily)
        subfamily_sums[key] = subfamily_sums.get(key, 0) + meta.train_sentences
    return {
        lang: TrainingCounts(
            in_family=family_sums[meta.family],
            in_subfamily=subfamily_sums[(meta.family, meta.subfamily)],
        )
        for lang, meta in table.items()
    }


def pair_features(
    ma: LanguageMeta,
    mb: LanguageMeta,
    aggregates: Mapping[str, TrainingCounts],
    char_texts: Mapping[str, str] | None = None,
    token_texts: Mapping[str, str] | None = None,
) -> PairFeatureVector:
    """Derive the 13-feature vector for one language pair.

    Word-order agreement requires both orders to be known: an UNKNOWN operand
    never counts as agreement, not even with another UNKNOWN. Overlap features
    are computed only when both languages have text in the given mapping.
    """
    langs = (ma.lang, mb.lang)
    return _pair_features_from_counts(
        ma, mb, aggregates,
        _unit_counts_by_language(char_texts, "char", langs),
        _unit_counts_by_language(token_texts, "token", langs),
    )


def _pair_features_from_counts(
    ma: LanguageMeta,
    mb: LanguageMeta,
    aggregates: Mapping[str, TrainingCounts],
    char_counts: Mapping[str, Counter] | None,
    token_counts: Mapping[str, Counter] | None,
) -> PairFeatureVector:
    """``pair_features`` with the texts already counted by
    ``_unit_counts_by_language``, so a table of pairs counts each text once.
    The overlaps are the same: both sum integer counts."""
    agg_a = aggregates[ma.lang]
    agg_b = aggregates[mb.lang]

    def overlap(counts: Mapping[str, Counter] | None, unit: str) -> float | None:
        if counts is None or ma.lang not in counts or mb.lang not in counts:
            return None
        return _counts_jaccard(counts, ma.lang, mb.lang, unit)

    same_word_order = int(
        ma.word_order != WordOrder.UNKNOWN
        and mb.word_order != WordOrder.UNKNOWN
        and ma.word_order == mb.word_order
    )
    return PairFeatureVector(
        combined_sentences=ma.train_sentences + mb.train_sentences,
        combined_in_family=agg_a.in_family + agg_b.in_family,
        combined_in_subfamily=agg_a.in_subfamily + agg_b.in_subfamily,
        same_family=int(ma.family == mb.family),
        same_subfamily=int(ma.family == mb.family and ma.subfamily == mb.subfamily),
        same_word_order=same_word_order,
        same_polysynthesis=int(ma.polysynthetic == mb.polysynthetic),
        token_overlap=overlap(token_counts, "token"),
        char_overlap=overlap(char_counts, "char"),
        **{name: typological_distance(ma.typo_vectors[kind], mb.typo_vectors[kind])
           if kind in ma.typo_vectors and kind in mb.typo_vectors else None
           for kind, name in _DIST_FIELDS.items()},
    )
