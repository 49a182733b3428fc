import itertools
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlalign.corpus import LanguageMeta, WordOrder
from xlalign.features import (
    FEATURE_NAMES,
    PairFeatureVector,
    _unit_counts,
    pair_features,
    training_aggregates,
    typological_distance,
)
from xlalign.pipeline import (
    METRIC_NAMES,
    AlignmentMetrics,
    build_pair_feature_table,
    per_language_metrics,
)


def meta(lang, family="fam", subfamily="sub", order=WordOrder.SVO, poly=False, train=0, vectors=None):
    return LanguageMeta(
        lang=lang, family=family, subfamily=subfamily, word_order=order,
        polysynthetic=poly, train_sentences=train, typo_vectors=vectors or {},
    )


def jaccard(a, b, unit):
    """The ``unit`` overlap that the pair feature table gives two languages
    whose texts are ``a`` and ``b``."""
    texts = {"aaa": a, "bbb": b}
    table = {lang: meta(lang) for lang in texts}
    vector = build_pair_feature_table(table, **{f"{unit}_texts": texts})[("aaa", "bbb")]
    return getattr(vector, f"{unit}_overlap")


def test_jaccard_examples():
    assert jaccard("abc", "abc", "char") == 1.0
    assert jaccard("abc", "xyz", "char") == 0.0
    assert jaccard("aab", "abb", "char") == 0.5


def test_jaccard_token_unit_and_whitespace():
    assert jaccard("a b", "b a", "token") == 1.0
    assert jaccard("a  b\tc", "abc", "char") == 1.0  # whitespace excluded
    assert jaccard("der hund", "der katze", "token") == pytest.approx(1 / 3)


def test_jaccard_nfc_normalization():
    composed = "café"
    decomposed = "café"
    assert jaccard(composed, decomposed, "char") == 1.0


def test_jaccard_errors():
    with pytest.raises(ValueError, match="empty after"):
        jaccard("   ", "abc", "char")
    with pytest.raises(ValueError, match="unknown overlap unit"):
        _unit_counts("a", "word")


@given(st.text(alphabet="abcd", min_size=1, max_size=30),
       st.text(alphabet="abcd", min_size=1, max_size=30))
def test_jaccard_bounds_and_identity(a, b):
    value = jaccard(a, b, "char")
    assert 0.0 <= value <= 1.0
    assert jaccard(a, a, "char") == 1.0
    if value == 1.0:
        assert sorted(a) == sorted(b)


def _ref_char_counts(text):
    # frozen copy of the per-character generator that _unit_counts replaced
    return Counter(c for c in unicodedata.normalize("NFC", text) if not c.isspace())


# every isspace code point, named ones first: ASCII, the information
# separators \x1c-\x1f, NEL, NBSP, the line separator and the ideographic space
SPACES = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000" + "".join(
    chr(i) for i in range(0x110000) if chr(i).isspace()
)
# combining marks that NFC folds into a precomposed letter (e + acute, A +
# ring, Hangul jamo) or keeps apart (a + dot below + macron, a bare mark)
MARKS = "e\u0301A\u030a\u1100\u1161a\u0323\u0304\u0301x\u20dd"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=SPACES + MARKS + "abé", max_size=60))
def test_char_counts_match_the_generator(text):
    ours = _unit_counts(text, "char")
    reference = _ref_char_counts(text)
    assert ours == reference
    assert list(ours) == list(reference)
    assert list(ours.values()) == list(reference.values())


def test_char_counts_match_the_generator_on_every_space():
    text = "".join(f"{m}{s}" for m, s in itertools.zip_longest(MARKS * 3, SPACES, fillvalue="q"))
    assert set(SPACES) <= set(text)
    ours = _unit_counts(text, "char")
    assert list(ours.items()) == list(_ref_char_counts(text).items())
    assert not any(c.isspace() for c in ours)


def ref_multiset_jaccard(a, b, unit):
    # frozen copy of the two-text implementation
    if unit == "char":
        items_a = [c for c in unicodedata.normalize("NFC", a) if not c.isspace()]
        items_b = [c for c in unicodedata.normalize("NFC", b) if not c.isspace()]
    elif unit == "token":
        items_a = a.split()
        items_b = b.split()
    else:
        raise ValueError(f"unknown overlap unit {unit!r}")
    if not items_a or not items_b:
        raise ValueError(f"text empty after {unit} segmentation")
    count_a = Counter(items_a)
    count_b = Counter(items_b)
    intersection = sum(min(count_a[e], count_b[e]) for e in count_a.keys() & count_b.keys())
    union = sum(max(count_a[e], count_b[e]) for e in count_a.keys() | count_b.keys())
    return intersection / union


def _outcome(compute):
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


LANGS = ("aaa", "bbb", "ccc", "ddd")
# letters, a combining accent (NFC folds "e\u0301"), and whitespace, so a
# text can be empty after segmentation
texts_st = st.dictionaries(
    st.sampled_from(LANGS),
    st.text(alphabet="abe\u0301\u00e9 \t\n", max_size=40),
)


@settings(max_examples=200, deadline=None)
@given(texts_st, texts_st)
def test_pair_table_overlaps_equal_two_text_jaccard(char_texts, token_texts):
    """Counting each language once gives every pair the overlaps that the
    two-text function gives, or the first pair's error, token before char."""
    table = {lang: meta(lang) for lang in LANGS}

    def reference():
        out = {}
        for a, b in itertools.combinations(LANGS, 2):
            out[(a, b)] = tuple(
                ref_multiset_jaccard(texts[a], texts[b], unit)
                if a in texts and b in texts else None
                for texts, unit in ((token_texts, "token"), (char_texts, "char"))
            )
        return out

    def ours():
        rows = build_pair_feature_table(table, char_texts, token_texts)
        return {pair: (v.token_overlap, v.char_overlap) for pair, v in rows.items()}

    expected = _outcome(reference)
    assert _outcome(ours) == expected
    if isinstance(expected, dict):
        aggregates = training_aggregates(table)
        for (a, b), overlaps in expected.items():
            vector = pair_features(table[a], table[b], aggregates, char_texts, token_texts)
            assert (vector.token_overlap, vector.char_overlap) == overlaps


def test_typological_distance_cases():
    v = np.array([1.0, 2.0, 3.0])
    assert typological_distance(v, v) == pytest.approx(0.0, abs=1e-12)
    assert typological_distance([1, 0], [0, 1]) == 1.0
    assert typological_distance(v, -v) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="dimension mismatch"):
        typological_distance([1, 0], [1, 0, 0])
    with pytest.raises(ValueError, match="zero-norm"):
        typological_distance([0, 0], [1, 0])


def test_training_aggregates():
    table = {
        "a": meta("a", family="F1", subfamily="S1", train=100),
        "b": meta("b", family="F1", subfamily="S2", train=50),
        "c": meta("c", family="F2", subfamily="S1", train=25),
        "z": meta("z", family="F1", subfamily="S1", train=0),
    }
    agg = training_aggregates(table)
    assert agg["a"].in_family == 150
    assert agg["b"].in_family == 150
    assert agg["c"] == (25, 25)  # singleton family
    # zero-shot language in a populated family still has in-family mass
    assert agg["z"].in_family == 150 and table["z"].train_sentences == 0
    # same subfamily label under different families must not leak across
    assert agg["a"].in_subfamily == 100
    assert agg["c"].in_subfamily == 25


def test_pair_features_hand_sums():
    # a and b sit in different families, each with a 25-sentence relative
    table = {
        "a": meta("a", family="F1", train=100),
        "c": meta("c", family="F1", train=25),
        "b": meta("b", family="F2", train=50),
        "d": meta("d", family="F2", train=25),
    }
    agg = training_aggregates(table)
    vector = pair_features(table["a"], table["b"], agg)
    assert vector.combined_sentences == 150
    assert vector.combined_in_family == 200
    assert vector.same_family == 0


def test_pair_features_flags():
    agg = training_aggregates({
        "a": meta("a", subfamily="S1"),
        "b": meta("b", subfamily="S2"),
    })
    v = pair_features(meta("a", subfamily="S1"), meta("b", subfamily="S2"), agg)
    assert v.same_family == 1 and v.same_subfamily == 0
    poly = pair_features(meta("a", poly=True), meta("b", poly=True), agg)
    assert poly.same_polysynthesis == 1
    both_not = pair_features(meta("a"), meta("b"), agg)
    assert both_not.same_polysynthesis == 1


def test_pair_features_unknown_word_order_never_agrees():
    agg = training_aggregates({"a": meta("a"), "b": meta("b")})
    unknown = pair_features(
        meta("a", order=WordOrder.UNKNOWN), meta("b", order=WordOrder.UNKNOWN), agg
    )
    assert unknown.same_word_order == 0
    half = pair_features(meta("a", order=WordOrder.UNKNOWN), meta("b"), agg)
    assert half.same_word_order == 0


def test_pair_features_missing_data_is_none_not_zero():
    va = {"syntax": np.array([1.0, 0.0])}
    agg = training_aggregates({"a": meta("a"), "b": meta("b")})
    v = pair_features(meta("a", vectors=va), meta("b"), agg)
    assert v.syntactic_dist is None
    assert v.token_overlap is None and v.char_overlap is None
    with_texts = pair_features(
        meta("a"), meta("b"), agg,
        char_texts={"a": "abc", "b": "abd"}, token_texts={"a": "x y", "b": "y z"},
    )
    assert with_texts.char_overlap == pytest.approx(0.5)
    assert with_texts.token_overlap == pytest.approx(1 / 3)


def test_pair_features_symmetry():
    rng = np.random.default_rng(0)
    table = {
        "a": meta("a", family="F1", subfamily="S1", order=WordOrder.SOV, poly=True, train=7,
                  vectors={"syntax": rng.uniform(size=3), "geography": rng.uniform(size=2)}),
        "b": meta("b", family="F2", subfamily="S1", order=WordOrder.VSO, train=11,
                  vectors={"syntax": rng.uniform(size=3), "geography": rng.uniform(size=2)}),
    }
    agg = training_aggregates(table)
    texts = {"a": "ab ba", "b": "ba ca"}
    ab = pair_features(table["a"], table["b"], agg, texts, texts)
    ba = pair_features(table["b"], table["a"], agg, texts, texts)
    assert ab == ba


def test_pair_feature_vector_invariants():
    kwargs = dict(
        combined_sentences=10, combined_in_family=20, combined_in_subfamily=15,
        same_family=1, same_subfamily=0, same_word_order=0, same_polysynthesis=1,
        token_overlap=0.5, char_overlap=None, syntactic_dist=0.2,
        phonological_dist=None, inventory_dist=None, geographic_dist=1.5,
    )
    vector = PairFeatureVector(**kwargs)
    assert list(vector.as_dict()) == list(FEATURE_NAMES)
    with pytest.raises(ValueError, match="exceeds"):
        PairFeatureVector(**{**kwargs, "combined_in_subfamily": 25})
    with pytest.raises(ValueError, match="outside"):
        PairFeatureVector(**{**kwargs, "token_overlap": 1.5})
    with pytest.raises(ValueError, match="0 or 1"):
        PairFeatureVector(**{**kwargs, "same_family": 2})


def test_per_language_metrics():
    m1 = AlignmentMetrics(f1=0.2, avg_margin=1.0, svg=2.0, econd_hm=3.0, gh=0.1)
    m2 = AlignmentMetrics(f1=0.4, avg_margin=1.2, svg=4.0, econd_hm=5.0, gh=0.3)
    per_lang = per_language_metrics({("a", "b"): m1, ("a", "c"): m2})
    assert per_lang["b"] == m1  # single pair: metrics verbatim
    assert per_lang["a"].f1 == pytest.approx(0.3)
    assert per_lang["a"].svg == pytest.approx(3.0)

    constant = per_language_metrics({("a", "b"): m1, ("a", "c"): m1, ("b", "c"): m1})
    assert constant["a"] == m1
    with pytest.raises(ValueError, match="no pair metrics given"):
        per_language_metrics({})


def test_per_language_metrics_sums_in_pair_order():
    """Each mean is the sum from 0.0 over the language's pairs, in pair
    order, divided by their count: the bits zero-shot's JSON is written from."""
    rng = np.random.default_rng(5)
    langs = [f"l{i}" for i in range(6)]
    rows = {
        pair: AlignmentMetrics(f1=rng.uniform(), avg_margin=rng.normal(), svg=rng.uniform(0, 5),
                               econd_hm=1 + rng.uniform(0, 50), gh=rng.uniform())
        for pair in itertools.combinations(langs, 2)
    }
    per_lang = per_language_metrics(rows)
    assert list(per_lang) == langs
    for lang in langs:
        members = [m.as_dict() for pair, m in rows.items() if lang in pair]
        for name in METRIC_NAMES:
            total = 0.0
            for values in members:
                total += values[name]
            assert getattr(per_lang[lang], name) == total / len(members)
