"""Differential tests of the text embedding parser against a frozen copy of
the per-token ``float()`` loop it replaced. Both must give bitwise-equal
arrays and equal ids, or fail with the same message, which names the file
and, for a bad line, its line number. The deliberate differences are
asserted on their own: ``_`` digit separators and non-ASCII digits are
errors, and a byte-order mark at the start of the file is ignored."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from xlalign import corpus
from xlalign.corpus import EmbeddingMatrix, _parse_text_matrix, load_embeddings, save_embeddings


# ------------------------------------------------- reference implementation

def ref_parse_text_matrix(path):
    rows = []
    ids = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0].startswith("#id:"):
                row_id = tokens[0][4:]
                if not row_id:
                    raise ValueError(f"{path}:{lineno}: empty row id")
                ids.append(row_id)
                tokens = tokens[1:]
            try:
                values = [float(t) for t in tokens]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if ids and len(ids) != len(rows):
        raise ValueError(f"{path}: id annotations must cover all rows or none")
    dim = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != dim:
            raise ValueError(f"{path}: row {i} has {len(row)} values, expected {dim}")
    return np.array(rows, dtype=np.float64), (tuple(ids) if ids else None)


# ------------------------------------------------------------------ helpers

def outcome(parse, path):
    """What a parser makes of ``path``: the exact bits and ids, or the error."""
    try:
        data, ids = parse(path)
    except ValueError as exc:
        return ("error", str(exc))
    assert data.dtype == np.float64
    return ("ok", data.shape, data.view(np.int64).tobytes(), ids)


def same_outcome(content: str):
    """Both parsers' outcome on a file holding ``content``; an error must
    name the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_bytes(content.encode("utf-8"))  # keep \r and \r\n as written
        ours, ref = outcome(_parse_text_matrix, path), outcome(ref_parse_text_matrix, path)
        assert ours == ref
        if ours[0] == "error":
            assert ours[1].startswith(f"{path}:")
        return ours


def formats(x: float) -> list[str]:
    out = [f"{x:.17g}", f"{x:.9g}", f"{x:.3e}", repr(x), f"{x:.17G}", f"{x:+.12g}"]
    if math.isfinite(x):
        out.append(f"{x:.6f}")
    return out


SEPARATORS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2009", "\u3000"]
NEWLINES = ["\n", "\r\n", "\r"]
BLANKS = ["", "   ", "\t", " \x0c \u3000 "]

finite = st.floats(allow_nan=False, allow_infinity=False)
extreme = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, 0.1, 1 / 3, 9007199254740993.0, 1e23, 8.98846567431158e307,
])
doubles = finite | extreme | st.builds(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0],
    st.integers(0, 2**64 - 1),
)


@st.composite
def text_matrix(draw):
    """A well-formed text matrix: random doubles in one of several formats
    per cell, any whitespace separator, blank lines, optional ids."""
    n_rows = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 5))
    with_ids = draw(st.booleans())
    newline = draw(st.sampled_from(NEWLINES))
    lines = []
    for i in range(n_rows):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(BLANKS)))
        cells = [draw(st.sampled_from(formats(draw(doubles)))) for _ in range(dim)]
        if with_ids:
            cells.insert(0, f"#id:v{draw(st.integers(0, 10**6))}_{i}")
        seps = [draw(st.sampled_from(SEPARATORS)) for _ in range(len(cells) + 1)]
        lead = seps[0] if draw(st.booleans()) else ""
        body = "".join(c + s for c, s in zip(cells, seps[1:]))
        lines.append(lead + (body if draw(st.booleans()) else body.rstrip()))
    text = newline.join(lines)
    return text + newline if draw(st.booleans()) else text


# -------------------------------------------------------------------- tests

@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text_matrix())
def test_well_formed_files_parse_bitwise_equal(content):
    assert same_outcome(content)[0] == "ok"


DAMAGE = [
    ("bad token", lambda cells: cells[:-1] + ["1.0x"]),
    ("comma", lambda cells: cells[:-1] + ["1,5"]),
    ("hex", lambda cells: cells[:-1] + ["0x1p3"]),
    ("stray id", lambda cells: cells + ["#id:late"]),
    ("nul", lambda cells: cells[:-1] + ["1\x00"]),
    ("short row", lambda cells: cells[:-1]),
    ("long row", lambda cells: cells + ["1"]),
    ("id only", lambda cells: [c for c in cells if c.startswith("#id:")] or ["#id:only"]),
    ("empty id", lambda cells: ["#id:"] + [c for c in cells if not c.startswith("#id:")]),
    ("drop id", lambda cells: [c for c in cells if not c.startswith("#id:")]),
    ("add id", lambda cells: ["#id:extra"] + [c for c in cells if not c.startswith("#id:")]),
]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text_matrix(), st.data())
def test_damaged_files_fail_or_parse_alike(content, data):
    """Damage one or two lines of a valid file; both parsers must agree on
    the bits or on the message."""
    lines = content.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for _ in range(data.draw(st.integers(1, 2))):
        at = data.draw(st.integers(0, len(lines) - 1))
        _, damage = data.draw(st.sampled_from(DAMAGE))
        lines[at] = " ".join(damage(lines[at].split()))
    same_outcome("\n".join(lines))


@pytest.mark.parametrize("content", [
    "1 2\n3 4\n",                                  # plain
    "#id:a 1 2\r\n#id:b 3 4\r\n",                  # CRLF
    "#id:a 1 2\r#id:b 3 4",                        # bare CR, no final newline
    "\n\n  \t\n1\t2\n\x0c\n3\x0b4\n\n",            # blank lines, odd whitespace
    "7.5 -0.0\n",                                  # a single row
    "1\n2\n3\n",                                   # a single column
    "#id:x 2.5\n",                                 # a single cell
    "nan -nan inf -inf\nNaN +Infinity -INF 1e500\n",  # non-finite spellings
    "1e-400 -1e-400 4.9406564584124654e-324 2.4703282292062328e-324\n",
    "1 2\n\ufeff3 4\n",                           # a byte-order mark past the start is no whitespace
    "",                                            # no rows
    " \n\t\n",                                     # blank lines only
    "#id:a\n#id:b\n",                              # id-only lines only
    "#id:a 1 2\n#id:b\n",                          # one id-only line
    "#id:a\n#id:b 1 2\n",                          # an id-only first line
    "#id:a 1 2\n#id: 3 4\n",                       # an empty id
    "#id:a 1 x\n#id: 3 4\n",                       # a bad token before an empty id
    "#id: 1 2\n#id:b 1 x\n",                       # an empty id before a bad token
    "#id:a 1 2\n3 4\n",                            # ids on some rows only
    "1 2\n#id:b 3 4\n",
    "1 2 3\n4 5\n6 x\n",                           # a bad token after a ragged row
    "1 2 3\n4 5\n#id:c 6 7 8\n",                   # ragged and partial ids
    "1 2\n3 4 #5\n",                               # no comment syntax
    "1 2\n'3' 4\n",                                # no quoting
    "#id:a#id:b 1 2\n",                            # an id may hold '#'
    "#ID:a 1 2\n",                                 # the prefix is case-sensitive
])
def test_edge_cases_match_the_float_loop(content):
    same_outcome(content)


@pytest.mark.parametrize("token", ["1_0", "1_000.5", "1e1_0", "\u0661", "1\u0662", "\uff13", "\u0663.5"])
def test_digit_separators_and_non_ascii_digits_are_errors(tmp_path, token):
    path = tmp_path / "m.txt"
    path.write_text(f"#id:a 1 2\n#id:b 3 {token}\n", encoding="utf-8")
    float(token)  # the old per-token float() accepted it
    with pytest.raises(ValueError) as info:
        _parse_text_matrix(path)
    assert str(info.value) == f"{path}:2: could not convert string to float: {token!r}"
    with pytest.raises(ValueError, match=":2: could not convert"):
        load_embeddings(path)


def test_a_leading_byte_order_mark_is_ignored(tmp_path):
    """The float loop read it as part of the first token and failed."""
    path = tmp_path / "m.txt"
    path.write_text("1 2\n", encoding="utf-8")
    plain = outcome(_parse_text_matrix, path)
    path.write_text("\ufeff1 2\n", encoding="utf-8")
    assert outcome(_parse_text_matrix, path) == plain
    assert outcome(ref_parse_text_matrix, path) == (
        "error", f"{path}:1: could not convert string to float: '\\ufeff1'")


@pytest.mark.parametrize("content, error", [
    ("#id:a 1 2\n#id:b 3 4\n", None),
    ("#id:a 1 2\n#id:b 3 x\n", ":2: could not convert string to float: 'x'"),
    ("#id:a 1 2\n#id: 3 4\n", ":2: empty row id"),
    ("#id:a 1 2\n3 4\n", ": id annotations must cover all rows or none"),
    ("1 2\n3 4 5\n", ": row 1 has 3 values, expected 2"),
])
def test_a_text_matrix_is_opened_once(tmp_path, monkeypatch, content, error):
    """A file that fails is diagnosed from the lines its one pass kept."""
    path = tmp_path / "m.txt"
    path.write_text(content, encoding="utf-8")
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(corpus, "open", counting_open, raising=False)
    if error is None:
        assert load_embeddings(path).ids == ("a", "b")
    else:
        with pytest.raises(ValueError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path}{error}"
    assert opened == [path]


def test_saved_matrix_round_trips_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((40, 16)) * 10.0 ** rng.integers(-300, 300, size=(40, 16))
    matrix = EmbeddingMatrix("deu", data, tuple(f"MAT_{i}" for i in range(40)))
    save_embeddings(matrix, tmp_path / "deu.txt")
    back = load_embeddings(tmp_path / "deu.txt")
    assert back.ids == matrix.ids
    assert back.data.view(np.int64).tobytes() == matrix.data.view(np.int64).tobytes()
