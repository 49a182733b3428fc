"""Differential tests of the table codec: the pair-table, plot and mining
writers and the pair-table readers against a frozen copy of the per-table
code they replaced. Both sides must write the same bytes, read back equal
rows, and refuse a malformed file with the same exception and message."""

import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import xlalign as xa
from xlalign import pipeline
from xlalign.cli import main
from xlalign.pipeline import METRIC_NAMES, AlignmentMetrics

from conftest import write_language_table

FEATURE_NAMES = xa.FEATURE_NAMES
COUNT_FEATURES = ("combined_sentences", "combined_in_family", "combined_in_subfamily")
BINARY_FEATURES = ("same_family", "same_subfamily", "same_word_order", "same_polysynthesis")
BOUNDED_FEATURES = {"token_overlap": 1.0, "char_overlap": 1.0, "syntactic_dist": 2.0,
                    "phonological_dist": 2.0, "inventory_dist": 2.0, "geographic_dist": 2.0}


# ------------------------------------------------- reference implementation
# A frozen copy of the per-table writers and readers, kept as the oracle.
# Since the readers refuse a repeated pair and a language paired with itself
# and give a malformed row its line number, the copy does the same; since the
# writers refuse to write either kind of pair, so does the copy. Since the
# features reader refuses a non-finite cell, as the metrics reader does, and
# a binary feature's cell that does not read 0 or 1, the copy does the same.
# Since the features reader refuses any row that no PairFeatureVector holds
# (a count that is empty, negative or fractional, a subfamily count above the
# family count, an overlap outside [0, 1], a distance outside [0, 2]), so
# does the copy.

def _ref_fmt(x):
    return f"{x:.12g}"


def _ref_check_language_codes(*langs):
    for lang in langs:
        if "," in lang or len((lang + ".").splitlines()) > 1:
            raise ValueError(f"language code {lang!r} contains a comma or line break")


def _ref_check_written_pair(rows, a, b):
    if a == b:
        raise ValueError(f"{a},{b}: a language paired with itself")
    if sum(set(pair) == {a, b} for pair in rows) > 1:
        raise ValueError(f"{a},{b}: pair given in both orders")


def ref_write_metrics_csv(rows, path):
    lines = ["lang_a,lang_b," + ",".join(METRIC_NAMES)]
    for (lang_a, lang_b) in sorted(rows):
        _ref_check_language_codes(lang_a, lang_b)
        _ref_check_written_pair(rows, lang_a, lang_b)
        metrics = rows[(lang_a, lang_b)]
        values = ",".join(_ref_fmt(getattr(metrics, name)) for name in METRIC_NAMES)
        lines.append(f"{lang_a},{lang_b},{values}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ref_check_pair(path, lineno, cells, first_line):
    a, b = cells[0], cells[1]
    if a == b:
        raise ValueError(f"{path}:{lineno}: {a},{b}: a language paired with itself")
    key = tuple(sorted((a, b)))
    if key in first_line:
        raise ValueError(f"{path}:{lineno}: {a},{b}: pair already on line {first_line[key]}")
    first_line[key] = lineno


def ref_read_metrics_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "lang_a,lang_b," + ",".join(METRIC_NAMES):
        raise ValueError(f"{path}: unexpected metrics header")
    rows = {}
    first_line = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2 + len(METRIC_NAMES):
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
        _ref_check_pair(path, lineno, cells, first_line)
        key = (cells[0], cells[1])
        try:
            rows[key] = AlignmentMetrics(**{
                name: float(cells[2 + i]) for i, name in enumerate(METRIC_NAMES)
            })
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {cells[0]},{cells[1]}: {exc}") from None
    return rows


def ref_write_features_csv(rows, path):
    lines = ["lang_a,lang_b," + ",".join(FEATURE_NAMES)]
    for (lang_a, lang_b) in sorted(rows):
        _ref_check_language_codes(lang_a, lang_b)
        _ref_check_written_pair(rows, lang_a, lang_b)
        vector = rows[(lang_a, lang_b)].as_dict()
        cells = []
        for name in FEATURE_NAMES:
            value = vector[name]
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(_ref_fmt(value))
            else:
                cells.append(str(value))
        lines.append(f"{lang_a},{lang_b}," + ",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def ref_read_features_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "lang_a,lang_b," + ",".join(FEATURE_NAMES):
        raise ValueError(f"{path}: unexpected features header")
    rows = {}
    first_line = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2 + len(FEATURE_NAMES):
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
        _ref_check_pair(path, lineno, cells, first_line)
        try:
            row = {
                name: (float(cells[2 + i]) if cells[2 + i] != "" else None)
                for i, name in enumerate(FEATURE_NAMES)
            }
            for name, value in row.items():
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"{name} is not finite: {value}")
            for name in COUNT_FEATURES:
                if row[name] is None or row[name] < 0 or row[name] != int(row[name]):
                    raise ValueError(f"{name} must be a non-negative integer, got {row[name]!r}")
            if row["combined_in_subfamily"] > row["combined_in_family"]:
                raise ValueError("combined_in_subfamily exceeds combined_in_family")
            for name in BINARY_FEATURES:
                if row[name] not in (0.0, 1.0):
                    raise ValueError(f"{name} must be 0 or 1")
            for name, top in BOUNDED_FEATURES.items():
                if row[name] is not None and not 0.0 <= row[name] <= top + 1e-9:
                    raise ValueError(f"{name} outside [0, {top:g}]")
            rows[(cells[0], cells[1])] = row
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {cells[0]},{cells[1]}: {exc}") from None
    return rows


def ref_write_plot_csv(rows, header, path):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_ref_fmt(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def ref_write_mined_tsv(pairs, path):
    lines = ["row_a\trow_b\tmargin"]
    for row_a, row_b, margin in pairs:
        lines.append(f"{row_a}\t{row_b}\t{margin:.12g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ------------------------------------------------------------- strategies

_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# mostly legal codes, sometimes one with a comma or a line break
_CODES = st.text(st.characters(), max_size=4) | st.text(
    st.sampled_from(",\t ab" + _LINE_BREAKS) | st.characters(), max_size=3
)
_TWELVE_DIGITS = st.integers(10**11, 10**12 - 1).map(lambda m: m / 10**12)
_SPECIALS = st.sampled_from([0.0, -0.0, 1e-300, 0.1 + 0.2, 1 / 3, 123456.789012])


def _values(lo, hi):
    """Ints, floats and the special cases the 12-digit format must keep,
    all within [lo, hi]."""
    return (
        st.integers(math.ceil(lo), math.floor(min(hi, 10**15)))
        | st.floats(lo, hi)
        | _TWELVE_DIGITS.filter(lambda v: lo <= v <= hi)
        | _SPECIALS.filter(lambda v: lo <= v <= hi)
    )


_METRICS = st.builds(
    AlignmentMetrics, f1=_values(0, 1), avg_margin=_values(-1e300, 1e300),
    svg=_values(0, 1e300), econd_hm=_values(1, 1e300), gh=_values(0, 1e300),
)


@st.composite
def _feature_vectors(draw):
    in_family = draw(st.integers(0, 10**12))
    binary = {name: draw(st.integers(0, 1)) for name in pipeline.ANOVA_FACTORS}
    optional = {
        name: draw(st.none() | _values(0, 1))
        for name in ("token_overlap", "char_overlap", "syntactic_dist", "phonological_dist",
                     "inventory_dist", "geographic_dist")
    }
    return xa.PairFeatureVector(
        combined_sentences=draw(st.integers(0, 10**12)), combined_in_family=in_family,
        combined_in_subfamily=draw(st.integers(0, in_family)), **binary, **optional,
    )


def _outcome(call, *args):
    """("ok", result) or ("raised", exception type, message)."""
    try:
        return ("ok", call(*args))
    except Exception as exc:  # the comparison is over any exception
        return ("raised", type(exc), str(exc))


def _written(write, *args, name="table.csv"):
    """What ``write`` leaves: the file's bytes (None if absent) plus its outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        outcome = _outcome(write, *args, path)
        return (path.read_bytes() if path.exists() else None), outcome[0], outcome[2:]


def _encodes(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _assert_writes_like_reference(new, ref, texts):
    """``new == ref``, unless a cell text holds a lone surrogate, which UTF-8
    cannot encode. The reference opened its file before encoding and left it
    empty; the writer must raise and leave no file."""
    if all(map(_encodes, texts)):
        assert new == ref
    else:
        assert new[:2] == (None, "raised")


# ------------------------------------------------------------------ writers

@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(_CODES, _CODES), _METRICS, max_size=5))
def test_metrics_writer_matches_reference(rows):
    _assert_writes_like_reference(_written(pipeline.write_metrics_csv, rows),
                                  _written(ref_write_metrics_csv, rows), sum(rows, ()))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(_CODES, _CODES), _feature_vectors(), max_size=5))
def test_features_writer_matches_reference(rows):
    _assert_writes_like_reference(_written(pipeline.write_features_csv, rows),
                                  _written(ref_write_features_csv, rows), sum(rows, ()))


_PLAIN_TEXT = st.text(st.characters(blacklist_characters="," + _LINE_BREAKS), max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_PLAIN_TEXT, _PLAIN_TEXT | st.integers(), _values(-1e300, 1e300)),
                max_size=6))
def test_plot_writer_matches_reference(rows):
    header = ("factor", "level", "mean")
    new = _written(pipeline.write_plot_csv, rows, header)
    texts = [cell for row in rows for cell in row if isinstance(cell, str)]
    _assert_writes_like_reference(new, _written(ref_write_plot_csv, rows, header), texts)
    assert new[1] == ("ok" if all(map(_encodes, texts)) else "raised")


def _write_mined_tsv(pairs, path):
    pipeline._write_table(pairs, ("row_a", "row_b", "margin"), path, sep="\t")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                          st.floats(allow_nan=False) | _SPECIALS | _TWELVE_DIGITS),
                max_size=6))
def test_mined_tsv_matches_reference(pairs):
    new = _written(_write_mined_tsv, pairs, name="pairs.tsv")
    assert new == _written(ref_write_mined_tsv, pairs, name="pairs.tsv")
    assert new[1] == "ok"


@pytest.mark.parametrize("sep, cell", [
    (",", "A, B"), (",", "a\nb"), (",", "a b"), ("\t", "a\tb"), ("\t", "a\rb"),
])
def test_table_writer_rejects_a_cell_that_breaks_the_table(tmp_path, sep, cell):
    path = tmp_path / "t.txt"
    with pytest.raises(ValueError, match=re.escape(repr(cell))):
        pipeline._write_table([("ok", 1.5), (cell, 2.0)], ("x", "y"), path, sep=sep)
    assert not path.exists()


def test_table_writer_leaves_no_file_for_a_cell_utf8_cannot_encode(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(UnicodeEncodeError):
        pipeline.write_plot_csv([("ok", 1.5), ("a\udcff", 2.0)], ("x", "y"), path)
    assert not path.exists()


# ------------------------------------------------------------------ readers

# lines that break a table in every way the readers check: wrong cell
# counts, empty and non-numeric cells, metric values out of range
_JUNK_LINES = st.text(st.sampled_from("ab,,,0.5-1e9x "), max_size=40)


@st.composite
def _damaged(draw, table, write):
    """A table written by the reference writer, then maybe given a junk
    line, a dropped line, a replaced header, a repeated row, its pair maybe
    swapped, or a row whose second language is its first."""
    # the readers read UTF-8 files, which cannot hold a lone surrogate
    text = _PLAIN_TEXT.filter(_encodes)
    rows = draw(st.dictionaries(st.tuples(text, text), table, max_size=4))
    # the writers refuse the pairs the readers refuse; the actions below make them
    rows = {(a, b): v for (a, b), v in rows.items() if a != b and (b, a) not in rows}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(["insert", "drop", "header", "repeat", "self"]))
        at = draw(st.integers(0, len(lines)))
        if action == "repeat" and len(lines) > 1:
            cells = lines[draw(st.integers(1, len(lines) - 1))].split(",")
            if draw(st.booleans()):
                cells[:2] = cells[1::-1]
            lines.insert(max(at, 1), ",".join(cells))
        elif action == "self" and len(lines) > 1:
            row = draw(st.integers(1, len(lines) - 1))
            cells = lines[row].split(",")
            lines[row] = ",".join([cells[0], cells[0], *cells[2:]])
        elif action == "insert":
            lines.insert(at, draw(_JUNK_LINES))
        elif action == "drop" and lines:
            del lines[min(at, len(lines) - 1)]
        elif action == "header" and lines:
            lines[0] = draw(_JUNK_LINES)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _read_both(text, read, ref_read):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8")
        return _outcome(read, path), _outcome(ref_read, path)


@settings(max_examples=200, deadline=None)
@given(_damaged(_METRICS, ref_write_metrics_csv))
def test_metrics_reader_matches_reference(text):
    new, ref = _read_both(text, pipeline.read_metrics_csv, ref_read_metrics_csv)
    assert new == ref


@settings(max_examples=200, deadline=None)
@given(_damaged(_feature_vectors(), ref_write_features_csv))
def test_features_reader_matches_reference(text):
    new, ref = _read_both(text, pipeline.read_features_csv, ref_read_features_csv)
    assert new == ref


_METRICS_HEADER = "lang_a,lang_b," + ",".join(METRIC_NAMES)
_FEATURES_HEADER = "lang_a,lang_b," + ",".join(FEATURE_NAMES)


def _features_row(**cells):
    """A features table of one a,b row: ``cells`` as given, every other cell 1."""
    return _FEATURES_HEADER + "\na,b," + ",".join(str(cells.get(n, 1)) for n in FEATURE_NAMES) + "\n"


@pytest.mark.parametrize("read, ref_read, text, message", [
    (pipeline.read_metrics_csv, ref_read_metrics_csv, "lang_a,lang_b,f1\n",
     "unexpected metrics header"),
    (pipeline.read_metrics_csv, ref_read_metrics_csv, "",
     "unexpected metrics header"),
    (pipeline.read_features_csv, ref_read_features_csv, _METRICS_HEADER + "\n",
     "unexpected features header"),
    (pipeline.read_metrics_csv, ref_read_metrics_csv,
     _METRICS_HEADER + "\na,b,0.5,1,1,2\n", ":2: malformed row 'a,b,0.5,1,1,2'"),
    (pipeline.read_features_csv, ref_read_features_csv,
     _FEATURES_HEADER + "\na,b" + ",1" * 12 + "\n", ":2: malformed row"),
    # the first bad row in file order decides the error
    (pipeline.read_metrics_csv, ref_read_metrics_csv,
     _METRICS_HEADER + "\na,b,0.5,x,1,2,0.1\na,c,0.5\n", "could not convert string to float: 'x'"),
    (pipeline.read_features_csv, ref_read_features_csv,
     _FEATURES_HEADER + "\na,b" + ",1" * 12 + ",x\na,c,1\n",
     "could not convert string to float: 'x'"),
    (pipeline.read_metrics_csv, ref_read_metrics_csv,
     _METRICS_HEADER + "\na,c,0.5\na,b,0.5,x,1,2,0.1\n", ":2: malformed row 'a,c,0.5'"),
    (pipeline.read_features_csv, ref_read_features_csv,
     _FEATURES_HEADER + "\na,b" + ",1" * 12 + ",1e999\n",
     f":2: a,b: {FEATURE_NAMES[-1]} is not finite: inf"),
    (pipeline.read_features_csv, ref_read_features_csv,
     _FEATURES_HEADER + "\na,b" + ",1" * 5 + ",0.5" + ",1" * 7 + "\n",
     ":2: a,b: same_word_order must be 0 or 1"),
    (pipeline.read_features_csv, ref_read_features_csv,
     _FEATURES_HEADER + "\na,b" + ",1" * 3 + "," + ",1" * 9 + "\n",
     ":2: a,b: same_family must be 0 or 1"),
    # rows no PairFeatureVector holds, so write_features_csv never writes them
    (pipeline.read_features_csv, ref_read_features_csv, _features_row(char_overlap=7.5),
     ":2: a,b: char_overlap outside [0, 1]"),
    (pipeline.read_features_csv, ref_read_features_csv, _features_row(syntactic_dist=9),
     ":2: a,b: syntactic_dist outside [0, 2]"),
    (pipeline.read_features_csv, ref_read_features_csv, _features_row(combined_sentences=-3),
     ":2: a,b: combined_sentences must be a non-negative integer, got -3.0"),
    (pipeline.read_features_csv, ref_read_features_csv, _features_row(combined_sentences=2.5),
     ":2: a,b: combined_sentences must be a non-negative integer, got 2.5"),
    (pipeline.read_features_csv, ref_read_features_csv,
     _features_row(combined_in_family=2, combined_in_subfamily=5),
     ":2: a,b: combined_in_subfamily exceeds combined_in_family"),
    # an empty count cell is named, not a TypeError from comparing None
    (pipeline.read_features_csv, ref_read_features_csv, _features_row(combined_in_family=""),
     ":2: a,b: combined_in_family must be a non-negative integer, got None"),
])
def test_readers_raise_like_reference(read, ref_read, text, message):
    new, ref = _read_both(text, read, ref_read)
    assert new == ref
    assert new[:2] == ("raised", ValueError) and message in new[2]


@pytest.mark.parametrize("read, header, tail", [
    (pipeline.read_metrics_csv, _METRICS_HEADER, ",0.5,1,1,2,0.1"),
    (pipeline.read_features_csv, _FEATURES_HEADER, ",1" * 13),
])
@pytest.mark.parametrize("rows, message", [
    (["a,b{}", "a,c{}", "a,b{}"], "4: a,b: pair already on line 2"),
    (["a,b{}", "b,a{}"], "3: b,a: pair already on line 2"),
    (["a,c{}", "b,b{}"], "3: b,b: a language paired with itself"),
    (["a,b{}", "a,c,0.5"], "3: malformed row 'a,c,0.5'"),
])
def test_readers_refuse_a_row_naming_its_line(tmp_path, read, header, tail, rows, message):
    """Two rows for one pair, in either order, used to read back as the last
    row or as two pairs; a malformed row used to give no line."""
    text = "\n".join([header, *(row.format(tail) for row in rows)]) + "\n"
    ref_read = {pipeline.read_metrics_csv: ref_read_metrics_csv,
                pipeline.read_features_csv: ref_read_features_csv}[read]
    new, ref = _read_both(text, read, ref_read)
    assert new == ref
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path}:{message}"


# --------------------------------------------------------------- as written

_SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
_TWELVE_DIGIT_INTS = st.integers(-(10**12) + 1, 10**12 - 1)
_BEYOND_2_53 = st.integers(2**53 + 1, 2**80) | st.integers(-(2**80), -(2**53) - 1)
_WRITTEN = (st.none() | st.floats() | _SUBNORMALS | _SPECIALS | _TWELVE_DIGITS
            | _TWELVE_DIGIT_INTS)


def _read_back(value):
    """What the readers return for a cell that ``_write_table`` wrote from
    ``value``: the six optional cells of a ``features.csv`` row for ``None``,
    else the ``avg_margin`` cell of a ``metrics.csv`` row, the one cell of
    either table that holds any finite number. The other cells hold values
    the readers accept."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        if value is None:
            row = [None if name in BOUNDED_FEATURES else 1 for name in FEATURE_NAMES]
            pipeline._write_table([("a", "b", *row)], ("lang_a", "lang_b", *FEATURE_NAMES), path)
            back = pipeline.read_features_csv(path)[("a", "b")]
            return [back[name] for name in BOUNDED_FEATURES]
        row = [value if name == "avg_margin" else 1 for name in METRIC_NAMES]
        pipeline._write_table([("a", "b", *row)], ("lang_a", "lang_b", *METRIC_NAMES), path)
        return [pipeline.read_metrics_csv(path)[("a", "b")].avg_margin]


def _refused(value):
    """Whether ``value`` is a non-finite float, whose cell
    ``read_metrics_csv`` refuses, naming its column."""
    if not (isinstance(value, float) and not math.isfinite(value)):
        return False
    with pytest.raises(ValueError, match=re.escape(f"avg_margin is not finite: {value}")):
        _read_back(value)
    return True


# repr tells -0.0 from 0.0
@settings(max_examples=300, deadline=None)
@given(_WRITTEN)
def test_as_written_is_the_value_its_cell_reads_back_as(value):
    if _refused(value):
        return
    assert {repr(v) for v in _read_back(value)} == {repr(pipeline._as_written(value))}


@settings(max_examples=300, deadline=None)
@given(_WRITTEN | _BEYOND_2_53 | st.integers())
def test_as_written_gives_the_same_value_through_its_cell(value):
    """Idempotent, and the same on a value and on what its cell reads back
    as. An int of 13 or more digits reads back exact, so it is the one value
    ``_as_written`` takes at 12 digits rather than as its cell holds it."""
    written = pipeline._as_written(value)
    assert repr(pipeline._as_written(written)) == repr(written)
    if _refused(value):
        return
    assert {repr(pipeline._as_written(v)) for v in _read_back(value)} == {repr(written)}


# --------------------------------------------------------------- zero-shot

def test_zero_shot_plot_rejects_a_family_name_with_a_comma(tmp_path, capsys):
    langs = [f"z{i}" for i in range(4)]
    families = ["A, B", "A, B", "C", "C"]
    languages = write_language_table(tmp_path / "languages.tsv", [
        {"lang": lang, "family": family, "word_order": order, "train_sentences": 0}
        for lang, family, order in zip(langs, families, ["SVO", "SOV", "SVO", "SOV"])
    ])
    assert xa.load_language_table(languages)["z0"].family == "A, B"
    metrics = tmp_path / "metrics.csv"
    pipeline.write_metrics_csv({
        (a, b): AlignmentMetrics(f1=0.1 * (i + 1), avg_margin=1.0, svg=1.0, econd_hm=2.0, gh=0.5)
        for i, (a, b) in enumerate((a, b) for a in langs for b in langs if a < b)
    }, metrics)
    plot = tmp_path / "plot.csv"
    code = main(["zero-shot", "--metrics", str(metrics), "--languages", str(languages),
                 "--out", str(tmp_path / "zs.json"), "--plot-out", str(plot)])
    assert code == 1
    assert "'A, B'" in capsys.readouterr().err
    assert not plot.exists() and not (tmp_path / "zs.json").exists()
