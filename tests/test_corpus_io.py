import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from xlalign.corpus import (
    BitextPair,
    Corpus,
    EmbeddingMatrix,
    LanguageMeta,
    WordOrder,
    _parse_binary_matrix,
    align_pair,
    load_corpus,
    load_embeddings,
    load_language_table,
    save_embeddings,
)
from xlalign.knn import unit_rows


def test_text_parse_plain(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 0 0\n0 1 0\n")
    m = load_embeddings(path)
    assert m.n_rows == 2 and m.dim == 3
    assert m.ids == ("0", "1")
    np.testing.assert_array_equal(m.data, [[1, 0, 0], [0, 1, 0]])


def test_text_parse_with_ids(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("#id:MAT_1_1 0.5 0.25\n#id:MAT_1_2 1 2\n")
    m = load_embeddings(path)
    assert m.ids == ("MAT_1_1", "MAT_1_2")


def test_text_inconsistent_ids_rejected(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("#id:a 1 0\n0 1\n")
    with pytest.raises(ValueError, match="all rows or none"):
        load_embeddings(path)


def test_text_ragged_row_rejected(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 0 0 0\n1 2 3\n")
    with pytest.raises(ValueError, match="expected 4"):
        load_embeddings(path)


def test_binary_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
    m = EmbeddingMatrix("deu", data, tuple(f"v{i}" for i in range(7)))
    path = tmp_path / "m.xemb"
    save_embeddings(m, path)
    back = load_embeddings(path)
    assert back.lang == "m"
    assert back.ids == m.ids
    assert (back.data == m.data).all()


def test_binary_parse_leaves_the_float64_conversion_to_the_matrix(tmp_path):
    """The parser hands over the stored float32 values, so the matrix's own
    copy is the one conversion to float64; it is exact."""
    data = np.random.default_rng(1).standard_normal((4, 3)).astype(np.float32)
    path = tmp_path / "m.xemb"
    save_embeddings(EmbeddingMatrix("m", data), path)
    parsed, _ = _parse_binary_matrix(path)
    assert parsed.dtype == np.float32
    back = load_embeddings(path)
    assert back.data.dtype == np.float64
    assert (back.data == data).all()


def test_binary_without_id_block(tmp_path):
    m = EmbeddingMatrix("x", np.eye(3))
    raw = tmp_path / "m.xemb"
    save_embeddings(m, raw)
    blob = raw.read_bytes()
    headerless = tmp_path / "noids.xemb"
    headerless.write_bytes(blob[: 13 + 3 * 3 * 4])
    back = load_embeddings(headerless)
    assert back.ids == ("0", "1", "2")


def test_binary_truncated_and_trailing(tmp_path):
    m = EmbeddingMatrix("x", np.eye(3))
    path = tmp_path / "m.xemb"
    save_embeddings(m, path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.xemb"
    bad.write_bytes(blob[:-3])
    with pytest.raises(ValueError, match="truncated id block"):
        load_embeddings(bad)
    bad.write_bytes(blob[:-1])  # the last id's length, but not its byte
    with pytest.raises(ValueError, match="truncated id entry"):
        load_embeddings(bad)
    bad.write_bytes(blob[:4] + b"\x02" + blob[5:])
    with pytest.raises(ValueError, match="unsupported version 2"):
        load_embeddings(bad)
    bad.write_bytes(blob[:20])  # a 13-byte header and 7 of the 36 payload bytes
    with pytest.raises(ValueError, match="payload shorter than 3x3 header promises"):
        load_embeddings(bad)
    bad.write_bytes(blob + b"xx")
    with pytest.raises(ValueError, match="trailing|truncated"):
        load_embeddings(bad)
    bad.write_bytes(b"YEMB" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        load_embeddings(bad)
    bad.write_bytes(blob[:5] + (0).to_bytes(4, "little") + blob[9:13])  # a header of 0 rows
    message = f"{bad}: embedding matrix needs at least one row"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_embeddings(bad)


def test_nan_and_zero_rows_rejected(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 nan\n2 3\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_embeddings(path)
    for zero_row in ("0 0", "1e-170 -1e-170"):  # the second row's norm underflows to 0
        path.write_text(f"{zero_row}\n1 2\n")
        with pytest.raises(ValueError, match="all-zero") as excinfo:
            load_embeddings(path)
        assert str(excinfo.value).startswith(f"{path}: ")


def test_rows_whose_squared_norm_overflows_rejected(tmp_path):
    # such a row used to load, and unit_rows turned it into zeros
    data = np.random.default_rng(12).standard_normal((30, 8))
    data[5] *= 1e160
    data[17] = 1e160
    path = tmp_path / "m.txt"
    path.write_text("".join(" ".join(repr(v) for v in row) + "\n" for row in data.tolist()))
    message = f"{path}: embedding row(s) [5, 17] for 'm' have a squared norm that overflows"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_embeddings(path)
        data[5] /= 1e160
        data[17] = 9e153 / np.sqrt(8)  # squares summing just below the overflow
        EmbeddingMatrix("m", data)


def test_zero_norm_rows_rejected_exactly_when_unit_rows_fails():
    # magnitudes around the point where squares underflow (about 1.5e-162)
    rng = np.random.default_rng(11)
    for exponent in np.linspace(-170.0, -150.0, 41):
        for dim in (2, 7, 768):
            row = rng.uniform(0.5, 1.0, dim) * 10.0 ** exponent
            try:
                unit_rows(row[None, :])
            except ValueError:
                with pytest.raises(ValueError, match="all-zero"):
                    EmbeddingMatrix("x", np.stack([row, np.ones(dim)]))
            else:
                EmbeddingMatrix("x", np.stack([row, np.ones(dim)]))


def test_matrix_invariants():
    with pytest.raises(ValueError, match=">= 2"):
        EmbeddingMatrix("x", np.ones((3, 1)))
    for data in (np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match=re.escape(f"must be 2-D, got shape {data.shape}")):
            EmbeddingMatrix("x", data)
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingMatrix("x", np.eye(2), ("a", "a"))
    with pytest.raises(ValueError, match="ids for"):
        EmbeddingMatrix("x", np.eye(2), ("a",))
    m = EmbeddingMatrix("x", np.eye(2))
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0  # loaded matrices are immutable


def test_suffix_alone_picks_the_format(tmp_path):
    m = EmbeddingMatrix("x", np.eye(2), ("a", "b"))
    for name, head in (("m.xemb", b"XEMB"), ("m.dat", b"#id:a "), ("m", b"#id:a ")):
        save_embeddings(m, tmp_path / name)
        assert (tmp_path / name).read_bytes().startswith(head)
        assert load_embeddings(tmp_path / name).ids == ("a", "b")
    with pytest.raises(TypeError):
        load_embeddings(tmp_path / "m.dat", "text")  # lang is keyword-only
    assert load_embeddings(tmp_path / "m.dat", lang="deu").lang == "deu"


def test_binary_text_agreement(tmp_path):
    rng = np.random.default_rng(3)
    m = EmbeddingMatrix("deu", rng.standard_normal((10, 6)))
    save_embeddings(m, tmp_path / "m.xemb")
    save_embeddings(m, tmp_path / "m.txt")
    via_bin = load_embeddings(tmp_path / "m.xemb")
    via_txt = load_embeddings(tmp_path / "m.txt")
    np.testing.assert_allclose(via_bin.data, via_txt.data, atol=1e-6)


def test_load_corpus(tmp_path):
    (tmp_path / "deu.tsv").write_text("1\tein satz\n2\tnoch einer\n3\tdrei\n")
    (tmp_path / "eng.tsv").write_text("2\ta sentence\n\n3\tanother\n4\tfour\n")  # a blank line
    corpus = load_corpus(tmp_path)
    assert corpus.name == tmp_path.name
    assert set(corpus.documents) == {"deu", "eng"}
    assert corpus.documents["deu"]["2"] == "noch einer"
    assert corpus.documents["eng"] == {"2": "a sentence", "3": "another", "4": "four"}


def test_load_corpus_errors(tmp_path):
    (tmp_path / "deu.tsv").write_text("")
    with pytest.raises(ValueError, match="no verses"):
        load_corpus(tmp_path)
    (tmp_path / "deu.tsv").write_text("MAT_1_1\ta\nMAT_1_1\tb\n")
    with pytest.raises(ValueError, match="duplicate verse"):
        load_corpus(tmp_path)
    (tmp_path / "deu.tsv").write_text("only one field\n")
    with pytest.raises(ValueError, match="verse_id<TAB>text"):
        load_corpus(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no .tsv"):
        load_corpus(empty)
    with pytest.raises(ValueError, match="^document 'deu' has no verses$"):
        Corpus("c", {"eng": {"1": "a"}, "deu": {}})


def test_align_pair_intersection():
    a = EmbeddingMatrix("a", np.eye(3), ("a", "b", "c"))
    b = EmbeddingMatrix("b", np.eye(3), ("b", "c", "d"))
    pair = align_pair(a, b)
    assert pair.gold == ((1, 0), (2, 1))


def test_align_pair_identity_and_disjoint():
    m = EmbeddingMatrix("a", np.eye(4))
    pair = align_pair(m, m)
    assert pair.gold == tuple((i, i) for i in range(4))
    other = EmbeddingMatrix("b", np.eye(4), ("w", "x", "y", "z"))
    with pytest.raises(ValueError, match="no shared"):
        align_pair(m, other)


def test_align_pair_symmetric():
    rng = np.random.default_rng(1)
    a = EmbeddingMatrix("a", rng.standard_normal((5, 3)), ("p", "q", "r", "s", "t"))
    b = EmbeddingMatrix("b", rng.standard_normal((4, 3)), ("q", "s", "u", "p"))
    fwd = align_pair(a, b).gold
    rev = align_pair(b, a).gold
    assert sorted((j, i) for i, j in fwd) == sorted(rev)


def test_bitext_pair_invariants():
    a = EmbeddingMatrix("a", np.eye(3), ("x", "y", "z"))
    wide = EmbeddingMatrix("w", np.eye(3, 4), ("x", "y", "z"))
    with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 4$"):
        BitextPair(a, wide)
    other = EmbeddingMatrix("o", np.eye(3), ("u", "v", "w"))
    with pytest.raises(ValueError, match="^no shared verse ids between 'a' and 'o'$"):
        BitextPair(a, other)


def _reference_align_pair(ea, eb):
    # frozen copy of the gold alignment `align_pair` computed before the pair
    # derived its own
    if ea.dim != eb.dim:
        raise ValueError(f"dimension mismatch: {ea.dim} vs {eb.dim}")
    index_a = {vid: i for i, vid in enumerate(ea.ids)}
    index_b = {vid: j for j, vid in enumerate(eb.ids)}
    shared = sorted(set(index_a) & set(index_b))
    if not shared:
        raise ValueError(f"no shared verse ids between {ea.lang!r} and {eb.lang!r}")
    gold = tuple((index_a[vid], index_b[vid]) for vid in shared)
    return gold


# one side of a pair: its ids in file order, drawn in any order and from a
# small alphabet with non-ASCII letters so that sides overlap in part; or a
# row count n > 10, whose matrix gets the default ids "0" ... "n-1", where
# "10" sorts before "2"
_PAIR_SIDES = st.one_of(
    st.lists(st.one_of(st.text(alphabet="ab1é", min_size=1, max_size=2),
                       st.integers(0, 29).map(str)),
             min_size=1, max_size=20, unique=True).map(tuple),
    st.integers(11, 30),
)


def _side_matrix(lang, side):
    ids = () if isinstance(side, int) else side
    return EmbeddingMatrix(lang, np.ones((len(ids) or side, 2)), ids)


@settings(max_examples=300, deadline=None)
@given(side_a=_PAIR_SIDES, side_b=_PAIR_SIDES)
@example(side_a=("a", "b"), side_b=("é", "1"))
@example(side_a=12, side_b=("11", "3", "x", "10", "2"))
@example(side_a=("ß", "é", "a"), side_b=("a", "ß"))
def test_bitext_pair_gold_equals_the_reference_alignment(side_a, side_b):
    a, b = _side_matrix("a", side_a), _side_matrix("b", side_b)
    try:
        expected = _reference_align_pair(a, b)
    except ValueError as error:
        with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
            align_pair(a, b)
    else:
        assert align_pair(a, b).gold == expected


@pytest.mark.parametrize("kwargs, message", [
    ({"train_sentences": -1}, "negative train_sentences for 'deu'"),
    # a misspelled kind used to be accepted, and every distance of it read as missing
    ({"typo_vectors": {"syntx": [0.1, 0.2]}},
     "unknown typology kind 'syntx' for 'deu' (the kinds are syntax, phonology, inventory,"
     " geography)"),
], ids=["negative-train", "unknown-kind"])
def test_language_meta_refuses(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LanguageMeta("deu", "IE", "Germanic", **kwargs)


def test_language_table_parse(tmp_path):
    path = tmp_path / "langs.tsv"
    path.write_text(
        "lang\tfamily\tsubfamily\tword_order\tpolysynthetic\ttrain_sentences\tsyntax_vec\n"
        "deu\tIndo-European\tGermanic\tSOV\tfalse\t120000\t0.1,0.2\n"
        "ikt\tEskimo-Aleut\tInuit\t\ttrue\t0\t\n"
        "fra\tIndo-European\tRomance\tSVO\tfalse\t5000\n"  # short: the vector cell reads empty
    )
    table = load_language_table(path)
    meta = table["deu"]
    assert meta.family == "Indo-European"
    assert meta.word_order is WordOrder.SOV
    assert meta.polysynthetic is False
    assert meta.train_sentences == 120000
    np.testing.assert_array_equal(meta.typo_vectors["syntax"], [0.1, 0.2])
    assert table["ikt"].word_order is WordOrder.UNKNOWN
    assert "syntax" not in table["ikt"].typo_vectors
    assert table["fra"].train_sentences == 5000 and table["fra"].typo_vectors == {}


_VECTOR_HEADER = "lang\tfamily\tsubfamily\tword_order\tpolysynthetic\ttrain_sentences\tsyntax_vec\tgeo_vec"
_DEU_ROW = "deu\tf\ts\tSOV\tfalse\t10\t0.1,0.2\t1,2,3"
_DEU = ("f", "s", "SOV", False, 10, {"syntax": [0.1, 0.2], "geography": [1.0, 2.0, 3.0]})


@pytest.mark.parametrize(
    "rows, expected",
    [
        # a str is the message after "<path>:", a dict the parsed table
        (["xxx\tf\ts\tXYZ\tfalse\t10"], "2: invalid word order 'XYZ'"),
        (["xxx\tf\ts\tSVO\tmaybe\t10"], "2: malformed boolean 'maybe'"),
        # quoted stripped, as the word order is
        (["xxx\tf\ts\tSVO\t maybe \t10"], "2: malformed boolean 'maybe'"),
        (["xxx\tf\ts\tSVO\tfalse\t-5"], "2: negative train_sentences"),
        (["xxx\tf\ts\tSVO\tfalse\tmany"], "2: malformed train_sentences"),
        (["\tf\ts\tSVO\tfalse\t10"], "2: empty language code"),
        (["xxx\t\ts\tSVO\tfalse\t10"], "2: empty family"),
        (["xxx\tf\t \tSVO\tfalse\t10"], "2: empty subfamily"),
        (["xxx\tf\ts\tSVO\tfalse\t"], "2: empty train_sentences"),
        (["xxx\tf\ts\tSVO\tfalse"], "2: empty train_sentences"),
        (["xxx\tf\ts\tSVO\tfalse\t10\t0.1,x"], "2: malformed syntax_vec"),
        (["xxx\tf\ts\tSVO\tfalse\t10\t0.1\t1\textra"], "2: 9 cells for 8 columns"),
        # the checks run in one order: width, lang, duplicate, empty cells,
        # word order, count, vectors, boolean
        ([_DEU_ROW, "deu\tf\ts\tXYZ\tmaybe\tmany\t0.1,x"], "3: duplicate language 'deu'"),
        (["\tf\t\tXYZ\tmaybe\t-1\t0.1,x"], "2: empty language code"),
        (["xxx\tf\t\tXYZ\tmaybe\t-1\t0.1,x"], "2: empty subfamily"),
        (["xxx\tf\ts\tXYZ\tmaybe\tmany\t0.1,x"], "2: invalid word order 'XYZ'"),
        (["xxx\tf\ts\tSVO\tmaybe\tmany\t0.1,x"], "2: malformed train_sentences"),
        (["xxx\tf\ts\tSVO\tmaybe\t-1\t0.1,x"], "2: negative train_sentences"),
        (["xxx\tf\ts\tSVO\tmaybe\t1\t0.1,x\t1,y"], "2: malformed syntax_vec"),
        (["xxx\tf\ts\tSVO\tmaybe\t1\t0.1\t1,y"], "2: malformed geo_vec"),
        ([_DEU_ROW, "b\tf\ts\tSVO\tnope\t1\t0.1,0.2,0.3"], "3: syntax_vec has 3 entries, expected 2"),
        ([_DEU_ROW, "b\tf\ts\tSVO\tnope\t1\t0.1,0.2\t4,5"], "3: geo_vec has 2 entries, expected 3"),
        (["", _DEU_ROW, "", "xxx\tf\ts\tXYZ\tfalse\t10"], "5: invalid word order 'XYZ'"),
        # every cell is stripped
        ([" deu \t f \t s \t SOV \t FALSE \t 10 \t 0.1, 0.2 \t 1 ,2,3 "], {"deu": _DEU}),
        (["xxx\tf\ts\tUNKNOWN\t1\t0", "yyy\tf\ts\t\tTrue\t+7", "zzz\tf\ts\tOSV\t0\t1_0"],
         {"xxx": ("f", "s", "UNKNOWN", True, 0, {}), "yyy": ("f", "s", "UNKNOWN", True, 7, {}),
          "zzz": ("f", "s", "OSV", False, 10, {})}),
        # a short row's missing cells read as empty
        ([_DEU_ROW, "fra\tf\ts\tSVO\tfalse\t5000", "ita\tf\ts\tSVO\t0\t5\t0.3,0.4"],
         {"deu": _DEU, "fra": ("f", "s", "SVO", False, 5000, {}),
          "ita": ("f", "s", "SVO", False, 5, {"syntax": [0.3, 0.4]})}),
    ],
)
def test_language_table_rows_parse_or_fail_with_file_and_line(tmp_path, rows, expected):
    path = tmp_path / "langs.tsv"
    path.write_text("\n".join([_VECTOR_HEADER, *rows]) + "\n")
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            load_language_table(path)
        assert str(err.value) == f"{path}:{expected}"
    else:
        table = load_language_table(path)
        assert all(meta.lang == lang for lang, meta in table.items())
        assert {lang: (meta.family, meta.subfamily, meta.word_order.value, meta.polysynthetic,
                       meta.train_sentences, {k: v.tolist() for k, v in meta.typo_vectors.items()})
                for lang, meta in table.items()} == expected


def test_language_table_errors_name_the_file_line(tmp_path):
    """Blank lines are skipped but still counted: the bad row is line 4."""
    path = tmp_path / "lt.tsv"
    path.write_text(
        "lang\tfamily\tsubfamily\tword_order\tpolysynthetic\ttrain_sentences\n"
        "\n"
        "deu\tf\ts\tSOV\tfalse\t10\n"
        "xxx\tf\ts\tXYZ\tfalse\t10\n"
    )
    with pytest.raises(ValueError) as err:
        load_language_table(path)
    assert str(err.value) == f"{path}:4: invalid word order 'XYZ'"


def test_language_table_structure_errors(tmp_path):
    path = tmp_path / "langs.tsv"
    path.write_text("\n")
    with pytest.raises(ValueError, match="empty table"):
        load_language_table(path)
    path.write_text("lang\tfamily\tsubfamily\tword_order\tpolysynthetic\ttrain_sentences\n")
    with pytest.raises(ValueError, match="table has no language rows"):
        load_language_table(path)
    path.write_text("lang\tfamily\tsubfamily\tword_order\tpolysynthetic\n")
    with pytest.raises(ValueError, match="missing column"):
        load_language_table(path)
    path.write_text(
        "lang\tfamily\tsubfamily\tword_order\tpolysynthetic\ttrain_sentences\tbogus\nx\tf\ts\tSVO\tfalse\t1\ty\n"
    )
    with pytest.raises(ValueError, match="unknown column"):
        load_language_table(path)
    path.write_text(
        "lang\tfamily\tsubfamily\tword_order\tpolysynthetic\ttrain_sentences\tsyntax_vec\n"
        "a\tf\ts\tSVO\tfalse\t1\t0.1,0.2\n"
        "b\tf\ts\tSVO\tfalse\t1\t0.1,0.2,0.3\n"
    )
    with pytest.raises(ValueError, match="expected 2"):
        load_language_table(path)
    path.write_text(
        "lang\tfamily\tsubfamily\tword_order\tpolysynthetic\ttrain_sentences\n"
        "a\tf\ts\tSVO\tfalse\t1\na\tf\ts\tSVO\tfalse\t1\n"
    )
    with pytest.raises(ValueError, match="duplicate language"):
        load_language_table(path)
