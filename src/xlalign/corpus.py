"""Ingestion of embedding matrices, multiparallel corpora, and language metadata.

File formats:

* Binary matrix (``.xemb``): magic bytes ``XEMB``, version byte ``0x01``,
  uint32-LE row count, uint32-LE dimensionality, ``n_rows * dim`` IEEE-754
  little-endian float32 values row-major, then an optional trailing ID block
  (one uint32-LE byte length + UTF-8 payload per row).
* Text matrix: one row per line, whitespace-separated decimals (ASCII, or
  ``nan``/``inf`` as ``float`` reads them; no ``_`` digit separators). A
  line may carry its row ID as a first token of the form ``#id:<verse-id>``;
  ID annotations must be all-or-nothing across the file.
* Corpus document: ``<lang>.tsv``, two tab-separated columns (verse_id, text),
  UTF-8, no header row.
* Language table: TSV with header ``lang family subfamily word_order
  polysynthetic train_sentences`` plus optional vector columns ``syntax_vec``,
  ``phonology_vec``, ``inventory_vec``, ``geo_vec`` (comma-separated decimals).

A UTF-8 byte-order mark at the start of a text file is ignored, and a byte
that is not UTF-8 is refused with its file and line.

Matrices are held as float64 internally regardless of on-disk precision, and
loaded objects are immutable: they can safely be shared across threads.
"""

from __future__ import annotations

import codecs
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

# every text reader decodes with this codec, so a leading UTF-8 byte-order
# mark is dropped; the writers write plain UTF-8
READ_ENCODING = "utf-8-sig"

XEMB_MAGIC = b"XEMB"
XEMB_VERSION = 0x01

_HEADER = struct.Struct("<4sBII")
_U32 = struct.Struct("<I")

VECTOR_COLUMNS = {
    "syntax_vec": "syntax",
    "phonology_vec": "phonology",
    "inventory_vec": "inventory",
    "geo_vec": "geography",
}

_TABLE_COLUMNS = ("lang", "family", "subfamily", "word_order", "polysynthetic", "train_sentences")


class WordOrder(str, Enum):
    """Dominant constituent order: the six S/O/V permutations plus UNKNOWN."""

    SVO = "SVO"
    SOV = "SOV"
    VSO = "VSO"
    VOS = "VOS"
    OVS = "OVS"
    OSV = "OSV"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A language-tagged matrix of sentence embeddings with row IDs.

    Rows are validated on construction: every row must be finite with a
    nonzero computed norm and a finite sum of squares, IDs must be unique,
    and the matrix must have at least one row and at least two columns.
    ``ids`` defaults to ``"0" .. "n_rows-1"`` when omitted.
    """

    lang: str
    data: np.ndarray
    ids: tuple[str, ...] = ()

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"embedding data must be 2-D, got shape {data.shape}")
        n_rows, dim = data.shape
        if n_rows < 1:
            raise ValueError("embedding matrix needs at least one row")
        if dim < 2:
            raise ValueError(f"embedding dimensionality must be >= 2, got {dim}")
        if not np.isfinite(data).all():
            raise ValueError(f"non-finite entry in embeddings for {self.lang!r}")
        # knn.unit_rows rejects a row whose norm is 0, which includes tiny
        # nonzero entries whose squares underflow. A sum of squares is 0
        # exactly when every square is, in any summation order, so this is
        # the same test without a matrix-sized temporary. A row whose sum of
        # squares overflows would normalize to zeros.
        squares = np.einsum("ij,ij->i", data, data)
        zero_rows = np.flatnonzero(squares == 0.0)
        if zero_rows.size:
            raise ValueError(
                f"all-zero embedding row(s) {zero_rows[:5].tolist()} for {self.lang!r}"
                " (a row whose norm underflows to 0 counts as zero)"
            )
        huge_rows = np.flatnonzero(np.isinf(squares))
        if huge_rows.size:
            raise ValueError(f"embedding row(s) {huge_rows[:5].tolist()} for {self.lang!r}"
                             " have a squared norm that overflows")
        ids = tuple(self.ids) if self.ids else tuple(str(i) for i in range(n_rows))
        if len(ids) != n_rows:
            raise ValueError(f"{len(ids)} ids for {n_rows} rows")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate row ids in embeddings for {self.lang!r}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "ids", ids)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class BitextPair:
    """Two embedding matrices plus the gold row alignment between them.

    ``gold`` is the identity over the shared verse IDs, listed in ascending
    (lexicographic) ID order. Rows outside the intersection stay in the
    matrices and act as distractors during mining.
    """

    mat_a: EmbeddingMatrix
    mat_b: EmbeddingMatrix
    gold: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.mat_a.dim != self.mat_b.dim:
            raise ValueError(f"dimension mismatch: {self.mat_a.dim} vs {self.mat_b.dim}")
        gold = tuple((int(i), int(j)) for i, j in self.gold)
        rows_a, rows_b = self.mat_a.n_rows, self.mat_b.n_rows
        ids_a, ids_b = self.mat_a.ids, self.mat_b.ids
        for i, j in gold:
            if not (0 <= i < rows_a and 0 <= j < rows_b):
                raise ValueError(f"gold pair ({i}, {j}) out of range")
            if ids_a[i] != ids_b[j]:
                raise ValueError(f"gold pair ({i}, {j}) links different verse ids")
        gold_ids = [ids_a[i] for i, _ in gold]
        if gold_ids != sorted(gold_ids):
            raise ValueError("gold pairs must be sorted by verse id")
        object.__setattr__(self, "gold", gold)


@dataclass(frozen=True)
class Corpus:
    """A named collection of per-language verse maps (verse_id -> text)."""

    name: str
    documents: dict[str, dict[str, str]]

    def __post_init__(self):
        for lang, verses in self.documents.items():
            if not verses:
                raise ValueError(f"document {lang!r} has no verses")


@dataclass(frozen=True)
class LanguageMeta:
    """Per-language metadata: phylogeny, typology, and training-data counts.
    ``typo_vectors`` is keyed by the kinds of ``VECTOR_COLUMNS``."""

    lang: str
    family: str
    subfamily: str
    word_order: WordOrder = WordOrder.UNKNOWN
    polysynthetic: bool = False
    train_sentences: int = 0
    typo_vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.train_sentences < 0:
            raise ValueError(f"negative train_sentences for {self.lang!r}")
        vectors = {}
        for kind, vec in self.typo_vectors.items():
            if kind not in VECTOR_COLUMNS.values():
                raise ValueError(f"unknown typology kind {kind!r} for {self.lang!r}"
                                 f" (the kinds are {', '.join(VECTOR_COLUMNS.values())})")
            arr = np.array(vec, dtype=np.float64)
            arr.flags.writeable = False
            vectors[kind] = arr
        object.__setattr__(self, "typo_vectors", vectors)


def _text_lines(path: Path) -> Iterator[str]:
    """The lines of the text file ``path``, one at a time, as ``open`` with
    ``READ_ENCODING`` reads them. A byte that is not UTF-8 is refused as
    ``<path>:<line>: not UTF-8 text``; only then is the file read again, to
    find the line."""
    try:
        with open(path, encoding=READ_ENCODING) as fh:
            yield from fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            data = data[: exc.start]
        # bytes split lines where text mode does, at \r\n, \r and \n
        line = len((data + b".").splitlines())
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None


def _parse_text_matrix(path: Path) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """One pass over the lines takes off the ``#id:`` tokens, then one
    ``np.loadtxt`` call parses every value. Both round a decimal the way
    ``float`` does. A file that fails is diagnosed from the lines that pass
    kept, so the file is opened once either way."""
    # (line number, #id: value or None, rest of the line) of each nonblank line
    lines: list[tuple[int, str | None, str]] = []
    for lineno, line in enumerate(_text_lines(path), start=1):
        head = line.split(None, 1)
        if not head:
            continue
        if head[0].startswith("#id:"):
            lines.append((lineno, head[0][4:], head[1] if len(head) > 1 else ""))
        else:
            lines.append((lineno, None, line))
    if not lines:
        raise ValueError(f"{path}: no data rows")
    ids = [row_id for _, row_id, _ in lines if row_id is not None]
    bodies = [rest for _, _, rest in lines]
    try:
        # loadtxt skips an empty body (an id-only line), so the row count
        # below catches one; when every body is empty there is nothing to parse
        data = (
            np.loadtxt(bodies, dtype=np.float64, comments=None, ndmin=2)
            if any(bodies)
            else np.empty((len(bodies), 0))
        )
    except ValueError:
        data = None
    ids_ok = not ids or (len(ids) == len(bodies) and all(ids))
    if data is None or len(data) != len(bodies) or not ids_ok:
        raise ValueError(_text_matrix_error(path, lines))
    return data, (tuple(ids) if ids else None)


def _is_decimal(token: str) -> bool:
    """Whether ``np.loadtxt`` parses ``token``: what ``float`` accepts, minus
    ``_`` digit separators and non-ASCII digits."""
    try:
        float(token)
    except ValueError:
        return False
    return token.isascii() and "_" not in token


def _text_matrix_error(path: Path, lines: Sequence[tuple[int, str | None, str]]) -> str:
    """The message for the first fault of a text matrix that failed to parse,
    from the lines ``_parse_text_matrix`` kept: an empty id or a bad token in
    line order, then ids on some rows only, then the first row whose length
    differs from the first row's."""
    lengths: list[int] = []
    for lineno, row_id, rest in lines:
        if row_id == "":
            return f"{path}:{lineno}: empty row id"
        tokens = rest.split()
        for token in tokens:
            if not _is_decimal(token):
                return f"{path}:{lineno}: could not convert string to float: {token!r}"
        lengths.append(len(tokens))
    if 0 < sum(row_id is not None for _, row_id, _ in lines) < len(lines):
        return f"{path}: id annotations must cover all rows or none"
    for i, n in enumerate(lengths):
        if n != lengths[0]:
            return f"{path}: row {i} has {n} values, expected {lengths[0]}"
    return f"{path}: unparseable text matrix"


def _parse_binary_matrix(path: Path) -> tuple[np.ndarray, tuple[str, ...] | None]:
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, n_rows, dim = _HEADER.unpack_from(blob, 0)
    if magic != XEMB_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != XEMB_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    offset = _HEADER.size
    payload = n_rows * dim * 4
    if len(blob) < offset + payload:
        raise ValueError(f"{path}: payload shorter than {n_rows}x{dim} header promises")
    # float32 as stored: EmbeddingMatrix takes it to float64, exactly, in its one copy
    data = np.frombuffer(blob, dtype="<f4", count=n_rows * dim, offset=offset)
    data = data.reshape(n_rows, dim)
    offset += payload
    ids: tuple[str, ...] | None = None
    if offset < len(blob):
        parsed = []
        for row in range(n_rows):
            if offset + _U32.size > len(blob):
                raise ValueError(f"{path}: truncated id block")
            (length,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            if offset + length > len(blob):
                raise ValueError(f"{path}: truncated id entry")
            try:
                parsed.append(blob[offset : offset + length].decode("utf-8"))
            except UnicodeDecodeError:
                raise ValueError(f"{path}: id of row {row} is not UTF-8") from None
            offset += length
        if offset != len(blob):
            raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after id block")
        ids = tuple(parsed)
    return data, ids


def load_embeddings(path: str | Path, *, lang: str | None = None) -> EmbeddingMatrix:
    """Load an embedding matrix from ``path``: the binary format for a
    ``.xemb`` suffix, the text format for any other suffix.

    Args:
        path: File to read.
        lang: Language code to tag the matrix with; defaults to the file stem.

    Returns:
        The parsed matrix with rows in file order. Row IDs default to
        ``"0" .. "n-1"`` when the file carries none.

    Raises:
        ValueError: On malformed content, dimension mismatches, NaN/Inf
            entries, rows whose norm is 0 (or underflows to 0) or whose
            squared norm overflows, or duplicate IDs. Each names the file.
    """
    path = Path(path)
    parse = _parse_binary_matrix if path.suffix == ".xemb" else _parse_text_matrix
    data, ids = parse(path)
    try:
        return EmbeddingMatrix(lang=lang or path.stem, data=data, ids=ids or ())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_embeddings(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Write ``matrix`` with its IDs to ``path``: binary for a ``.xemb`` suffix,
    else text, which refuses an ID that is empty or holds whitespace."""
    path = Path(path)
    if path.suffix == ".xemb":
        parts = [_HEADER.pack(XEMB_MAGIC, XEMB_VERSION, matrix.n_rows, matrix.dim)]
        parts.append(matrix.data.astype("<f4").tobytes())
        for row_id in matrix.ids:
            raw = row_id.encode("utf-8")
            parts.append(_U32.pack(len(raw)) + raw)
        path.write_bytes(b"".join(parts))
    else:
        for row, row_id in enumerate(matrix.ids):  # the loader splits at str.isspace()
            if row_id.split() != [row_id]:
                raise ValueError(f"{path}: id {row_id!r} of row {row} is empty or holds whitespace")
        with open(path, "w", encoding="utf-8") as fh:
            for row_id, row in zip(matrix.ids, matrix.data):
                values = " ".join(f"{v:.17g}" for v in row)
                fh.write(f"#id:{row_id} {values}\n")


def load_corpus(directory: str | Path) -> Corpus:
    """Load a directory of ``<lang>.tsv`` verse files into a :class:`Corpus`
    named after the directory.

    Raises:
        ValueError: If the directory holds no documents, a document is empty,
            a line is not two tab-separated fields, or a verse ID repeats.
    """
    directory = Path(directory)
    documents: dict[str, dict[str, str]] = {}
    for path in sorted(directory.glob("*.tsv")):
        lang = path.stem
        verses: dict[str, str] = {}
        for lineno, line in enumerate(_text_lines(path), start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'verse_id<TAB>text'")
            verse_id, text = parts
            if verse_id in verses:
                raise ValueError(f"{path}:{lineno}: duplicate verse id {verse_id!r}")
            verses[verse_id] = text
        if not verses:
            raise ValueError(f"{path}: document has no verses")
        documents[lang] = verses
    if not documents:
        raise ValueError(f"{directory}: no .tsv documents found")
    return Corpus(name=directory.name, documents=documents)


def align_pair(ea: EmbeddingMatrix, eb: EmbeddingMatrix) -> BitextPair:
    """Build the gold identity alignment over the shared verse IDs of two matrices.

    Rows whose IDs appear on only one side are kept in the matrices (they act
    as distractors in mining) but get no gold pair.

    Raises:
        ValueError: If the dimensionalities differ or no verse ID is shared.
    """
    if ea.dim != eb.dim:
        raise ValueError(f"dimension mismatch: {ea.dim} vs {eb.dim}")
    index_a = {vid: i for i, vid in enumerate(ea.ids)}
    index_b = {vid: j for j, vid in enumerate(eb.ids)}
    shared = sorted(set(index_a) & set(index_b))
    if not shared:
        raise ValueError(f"no shared verse ids between {ea.lang!r} and {eb.lang!r}")
    gold = tuple((index_a[vid], index_b[vid]) for vid in shared)
    return BitextPair(mat_a=ea, mat_b=eb, gold=gold)


def load_language_table(path: str | Path) -> dict[str, LanguageMeta]:
    """Parse the language-metadata TSV into a ``lang -> LanguageMeta`` map.

    A missing word-order cell maps to ``UNKNOWN``; missing vector cells are
    recorded as absent rather than zero-filled. An empty ``family``,
    ``subfamily`` or ``train_sentences`` cell is refused. Typological vectors
    of the same kind must share a dimensionality across all languages. A
    column named twice in the header is refused.
    """
    path = Path(path)
    # (line number in the file, text) of each nonblank line
    lines = [(n, line.rstrip("\n")) for n, line in enumerate(_text_lines(path), start=1)]
    lines = [(n, line) for n, line in lines if line]
    if not lines:
        raise ValueError(f"{path}: empty table")
    header = lines[0][1].split("\t")
    for col in _TABLE_COLUMNS:
        if col not in header:
            raise ValueError(f"{path}: missing column {col!r}")
    for col in header:
        if col not in _TABLE_COLUMNS and col not in VECTOR_COLUMNS:
            raise ValueError(f"{path}: unknown column {col!r}")
        if header.count(col) > 1:
            raise ValueError(f"{path}: column {col!r} appears more than once")

    table: dict[str, LanguageMeta] = {}
    vector_dims: dict[str, int] = {}
    for lineno, line in lines[1:]:
        where = f"{path}:{lineno}"
        cells = line.split("\t")
        if len(cells) > len(header):
            raise ValueError(f"{where}: {len(cells)} cells for {len(header)} columns")
        # column name -> stripped cell; a short row's missing cells read as empty
        row = {col: cells[i].strip() if i < len(cells) else "" for i, col in enumerate(header)}
        lang = row["lang"]
        if not lang:
            raise ValueError(f"{where}: empty language code")
        if lang in table:
            raise ValueError(f"{where}: duplicate language {lang!r}")
        for column in ("family", "subfamily", "train_sentences"):
            if not row[column]:
                raise ValueError(f"{where}: empty {column}")
        try:
            word_order = WordOrder(row["word_order"] or WordOrder.UNKNOWN)
        except ValueError:
            raise ValueError(f"{where}: invalid word order {row['word_order']!r}") from None
        try:
            train = int(row["train_sentences"])
        except ValueError:
            raise ValueError(f"{where}: malformed train_sentences") from None
        if train < 0:
            raise ValueError(f"{where}: negative train_sentences")
        vectors: dict[str, np.ndarray] = {}
        for column, kind in VECTOR_COLUMNS.items():
            if not row.get(column):
                continue
            try:
                vec = np.array([float(t) for t in row[column].split(",")], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{where}: malformed {column}") from None
            expected = vector_dims.setdefault(kind, vec.size)
            if vec.size != expected:
                raise ValueError(f"{where}: {column} has {vec.size} entries, expected {expected}")
            vectors[kind] = vec
        polysynthetic = {"true": True, "1": True, "false": False, "0": False}.get(
            row["polysynthetic"].lower())
        if polysynthetic is None:
            raise ValueError(f"{where}: malformed boolean {row['polysynthetic']!r}")
        table[lang] = LanguageMeta(
            lang=lang,
            family=row["family"],
            subfamily=row["subfamily"],
            word_order=word_order,
            polysynthetic=polysynthetic,
            train_sentences=train,
            typo_vectors=vectors,
        )
    if not table:
        raise ValueError(f"{path}: table has no language rows")
    return table
