"""End-to-end orchestration: pair-metric sweeps, feature tables, analysis
reports, and plot-data exports.

A run is driven by a plain ``key = value`` config file (see README). Outputs
are deterministic: pairs are processed in canonical order regardless of the
worker schedule, floats are formatted identically on every run, and JSON is
written with sorted keys, so identical configs and inputs produce
byte-identical files. Every run setting comes from the config alone, and a
language reads one embedding file per document directory.

Every analysis reads the values the CSVs hold: ``report`` analyzes its
``metrics.csv`` and ``features.csv`` as read back, as ``analyze`` and
``zero-shot`` do, so its analysis files are theirs. They change with the BLAS
thread count only where a metric's 12th significant digit does.
``make_analysis_dataset`` also rounds each value with ``_as_written``, so that
rows held in memory (``perfbench/replay.py``) give the dataset their CSVs give.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import features as feats
from . import isomorphism as iso
from . import stats
from .corpus import (
    Corpus,
    EmbeddingMatrix,
    LanguageMeta,
    WordOrder,
    _text_lines,
    align_pair,
    load_corpus,
    load_embeddings,
    load_language_table,
)
from .mining import _PairTables, retrieval_f1

ANOVA_FACTORS = feats.BINARY_FEATURES
ANCOVA_FACTORS = ("same_word_order", "same_polysynthesis")
ANCOVA_COVARIATES = feats.COUNT_FEATURES
SEMIPARTIAL_FEATURES = (
    "combined_in_family",
    "syntactic_dist",
    "phonological_dist",
    "inventory_dist",
    "geographic_dist",
)

_WORD_ORDER_CLASS = {
    WordOrder.SVO: "subject_initial",
    WordOrder.SOV: "subject_initial",
    WordOrder.VSO: "verb_initial",
    WordOrder.VOS: "verb_initial",
    WordOrder.OVS: "object_initial",
    WordOrder.OSV: "object_initial",
}


def _check_finite(row: Mapping[str, float | None]) -> dict[str, float | None]:
    """``row`` as a dict; a NaN or infinite value (``None`` is neither) is refused."""
    for name, value in row.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value}")
    return dict(row)


@dataclass(frozen=True)
class AlignmentMetrics:
    """The five dependent variables for one language pair."""

    f1: float
    avg_margin: float
    svg: float
    econd_hm: float
    gh: float

    def __post_init__(self):
        _check_finite(self.as_dict())
        if not 0.0 <= self.f1 <= 1.0:
            raise ValueError(f"f1 outside [0, 1]: {self.f1}")
        if self.svg < 0.0 or self.gh < 0.0:
            raise ValueError("svg and gh must be non-negative")
        if self.econd_hm < 1.0 - 1e-9:
            raise ValueError(f"econd_hm below 1: {self.econd_hm}")

    def as_dict(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in METRIC_NAMES}


METRIC_NAMES = tuple(f.name for f in fields(AlignmentMetrics))


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for an end-to-end run."""

    embeddings: tuple[Path, ...]
    out: Path
    corpus: tuple[Path, ...] = ()
    languages: Path | None = None
    k: int = 4
    gh_max_points: int = 500
    folds: int = 10
    seed: int | None = None
    analyses: tuple[str, ...] = ()
    workers: int = 1
    char_doc: str | None = None
    token_doc: str | None = None

    def __post_init__(self):
        if not self.embeddings:
            raise ValueError("at least one embeddings directory is required")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.gh_max_points < 1:
            raise ValueError("gh_max_points must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        unknown = [a for a in self.analyses if a not in ANALYSES and a != "zero_shot"]
        if unknown:
            raise ValueError(f"unknown analyses: {unknown}")
        _check_analysis_settings(self.analyses, self.folds, self.seed)
        needs_features = [a for a in self.analyses if a != "zero_shot"]
        if needs_features and self.languages is None:
            raise ValueError(f"analyses {needs_features} require a language table")
        if needs_features and not self.corpus:
            raise ValueError(
                f"analyses {needs_features} require corpus directories for the overlap features"
            )
        if "zero_shot" in self.analyses and self.languages is None:
            raise ValueError("zero_shot analysis requires a language table")
        # a corpus is named after its directory, as load_corpus names it
        names = [Path(d).name for d in self.corpus]
        if len(set(names)) < len(names):
            raise ValueError(f"corpus directories must have distinct names, got {names}")
        for key in ("char_doc", "token_doc"):
            if getattr(self, key) not in (None, *names):
                raise ValueError(f"{key} must be one of {names}, got {getattr(self, key)!r}")


def load_config(path: str | Path) -> RunConfig:
    """Parse a ``key = value`` config file (``#`` starts a comment line)."""
    path = Path(path)
    return _config_from_raw(path, _read_config_file(path))


def _read_config_file(path: Path) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(_text_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def _config_from_raw(path: Path, raw: Mapping[str, str]) -> RunConfig:
    """``RunConfig`` from the keys present; each value is parsed by its field's
    annotation. Lists are comma-separated, paths are relative to the config
    file, and an empty path is unset: an optional one keeps its default, and
    an empty ``out`` is a missing one."""
    known = {f.name: f for f in fields(RunConfig)}
    unknown = set(raw) - set(known)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    raw = {key: value for key, value in raw.items() if value or not known[key].type.startswith("Path")}
    missing = [name for name, f in known.items() if f.default is MISSING and name not in raw]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(map(repr, missing))}")

    def parse(key: str, value: str):
        kind = known[key].type
        if kind.startswith("tuple"):
            items = tuple(v.strip() for v in value.split(",") if v.strip())
            return tuple(path.parent / v for v in items) if "Path" in kind else items
        if "Path" in kind:
            return path.parent / value
        if "int" in kind:
            try:
                return int(value)
            except ValueError:
                raise ValueError(f"{path}: {key} must be an integer") from None
        return value

    return RunConfig(**{key: parse(key, value) for key, value in raw.items()})


def worker_count(requested: int) -> int:
    """The pair sweep's thread count: ``workers`` as the config gives it."""
    return requested


_Side = tuple[iso.SingularSpectrum, iso.PersistenceDiagram]


def _rows_side(m: EmbeddingMatrix, rows: Sequence[int], gh_max_points: int) -> _Side:
    """The spectrum and the diagram of ``m``'s rows ``rows``, in that order."""
    sub = EmbeddingMatrix(m.lang, m.data[list(rows)], tuple(m.ids[i] for i in rows))
    return iso.singular_values(sub), iso.persistence_diagram_0d(sub, gh_max_points)


def _pair_metrics(
    mat_a: EmbeddingMatrix,
    mat_b: EmbeddingMatrix,
    k: int,
    side: Callable[[EmbeddingMatrix, tuple[int, ...]], _Side],
) -> AlignmentMetrics:
    """``compute_pair_metrics``, taking each side's spectrum and diagram from
    ``side(matrix, gold_rows)``."""
    pair = align_pair(mat_a, mat_b)
    tables = _PairTables(mat_a, mat_b, k)
    f1 = retrieval_f1(tables.intersection(), pair.gold).f1
    avg = tables.average_margin(pair.gold)
    spectra, diagrams = zip(*map(side, (mat_a, mat_b), zip(*pair.gold)))
    return AlignmentMetrics(
        f1=f1,
        avg_margin=avg,
        svg=iso._log_gap(*spectra),
        econd_hm=iso.condition_harmonic_mean(*map(iso.effective_condition_number, spectra)),
        gh=iso.bottleneck_distance(*diagrams),
    )


def compute_pair_metrics(
    mat_a: EmbeddingMatrix, mat_b: EmbeddingMatrix, k: int = 4, gh_max_points: int = 500
) -> AlignmentMetrics:
    """All five metrics for one pair of embedding matrices (one document).

    Retrieval mines over the full matrices (rows outside the gold alignment
    act as distractors); the isomorphism measures are computed on the
    row-aligned submatrices.
    """
    return _pair_metrics(mat_a, mat_b, k, lambda mat, rows: _rows_side(mat, rows, gh_max_points))


def _metric_means(members: Iterable[AlignmentMetrics]) -> dict[str, float]:
    """Per-metric arithmetic mean over a group of metric records."""
    members = list(members)
    return {name: float(np.mean([getattr(m, name) for m in members])) for name in METRIC_NAMES}


@dataclass
class SweepResult:
    """Per-pair metrics plus a record of everything that was skipped."""

    rows: dict[tuple[str, str], AlignmentMetrics]
    failed_languages: dict[str, str] = field(default_factory=dict)
    failed_pairs: dict[tuple[str, str], str] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.failed_languages or self.failed_pairs)


def _embedding_files(directory: Path) -> dict[str, list[Path]]:
    if not directory.is_dir():
        raise ValueError(f"embeddings entry {directory} is not a directory")
    files: dict[str, list[Path]] = {}
    for path in sorted([*directory.glob("*.txt"), *directory.glob("*.xemb")]):
        files.setdefault(path.stem, []).append(path)
    return files


def run_pair_metrics(config: RunConfig) -> SweepResult:
    """Compute the five metrics for every unordered language pair.

    With several embedding directories (one per document), metrics are
    averaged per-metric across documents. A language with a missing or
    unreadable file, two files in one directory (``.txt`` and ``.xemb``), a
    matrix of fewer than ``k`` rows or a code the CSV outputs cannot hold, or
    a pair whose computation fails, is recorded and skipped without aborting
    the sweep.

    The files are loaded before the pair loop, but there is no per-language
    stage that computes spectra or diagrams. Every side's spectrum and
    persistence diagram are those of its gold rows, as in
    ``compute_pair_metrics``. A side whose partner holds every verse id of its
    language, in any file order, reads them from one entry per (document,
    language), which the first pair that needs it computes; later pairs wait
    for it. A failing entry is computed once, and every pair that needs it
    fails with its error.
    """
    per_dir_files = [_embedding_files(d) for d in config.embeddings]
    return _sweep_pairs(config, *_load_sweep_languages(config, per_dir_files))


def _load_sweep_languages(
    config: RunConfig, per_dir_files: Sequence[Mapping[str, list[Path]]]
) -> tuple[SweepResult, dict[str, list[EmbeddingMatrix]]]:
    """The sweep's load stage, over each directory's ``_embedding_files``: the
    result so far and, in sorted order, each usable language's matrices, one
    per document. A language with a missing or unreadable file, two files in
    one directory, a matrix of fewer than ``k`` rows (every pair of it would
    fail) or a code the CSV outputs cannot hold goes to the result's
    ``failed_languages`` instead, with no matrix kept."""
    all_langs = sorted(set().union(*per_dir_files))
    if not all_langs:
        raise ValueError("no embedding files found")

    result = SweepResult(rows={})
    loaded: dict[str, list[EmbeddingMatrix]] = {}
    for lang in all_langs:
        try:
            _check_language_codes(lang)
            matrices = []
            for directory, files in zip(config.embeddings, per_dir_files):
                paths = files.get(lang, [])
                if not paths:
                    raise ValueError(f"missing embedding file in {directory}")
                if len(paths) > 1:
                    raise ValueError(f"two embedding files: {' and '.join(map(str, paths))}")
                matrix = load_embeddings(paths[0], lang=lang)
                if matrix.n_rows < config.k:
                    raise ValueError(f"{paths[0]}: {matrix.n_rows} rows, fewer than k = {config.k}")
                matrices.append(matrix)
            loaded[lang] = matrices
        except (ValueError, OSError) as exc:
            result.failed_languages[lang] = str(exc)
    return result, loaded


def _sweep_pairs(
    config: RunConfig, result: SweepResult, loaded: Mapping[str, Sequence[EmbeddingMatrix]]
) -> SweepResult:
    """The sweep's pair loop, over what ``_load_sweep_languages`` returned."""
    pairs = list(itertools.combinations(loaded, 2))
    gh = config.gh_max_points
    # one entry per (document, language); the lock guards only the dict, so
    # different entries still compute in parallel
    entries: dict[tuple[int, str], Future] = {}
    lock = threading.Lock()

    def side(d: int, mat: EmbeddingMatrix, rows: tuple[int, ...]) -> _Side:
        # gold rows ascend by unique verse id, so every side that holds all of
        # its matrix's rows holds them in one order, whatever the partner
        if len(rows) != mat.n_rows:
            return _rows_side(mat, rows, gh)
        new = Future()
        with lock:
            entry = entries.setdefault((d, mat.lang), new)
        if entry is new:
            try:
                new.set_result(_rows_side(mat, rows, gh))
            except BaseException as exc:  # every later side re-raises it too
                new.set_exception(exc)
                raise
        return entry.result()

    def guarded(pair: tuple[str, str]) -> AlignmentMetrics | Exception:
        lang_a, lang_b = pair
        try:
            per_doc = [
                _pair_metrics(mat_a, mat_b, config.k, functools.partial(side, d))
                for d, (mat_a, mat_b) in enumerate(zip(loaded[lang_a], loaded[lang_b]))
            ]
            return AlignmentMetrics(**_metric_means(per_doc))
        except (ValueError, np.linalg.LinAlgError) as exc:
            return exc

    # the pairs run in the pool at every worker count; map() keeps their canonical order
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        for pair, outcome in zip(pairs, pool.map(guarded, pairs)):
            if isinstance(outcome, Exception):
                result.failed_pairs[pair] = str(outcome)
            else:
                result.rows[pair] = outcome
    return result


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _breaks_cell(text: str, sep: str) -> bool:
    """Whether ``text`` holds ``sep`` or a line break: tables are read back by
    splitting on line breaks and separators, so it cannot be one cell."""
    return sep in text or len((text + ".").splitlines()) > 1


def _check_language_codes(*langs: str) -> None:
    """Reject a language code that cannot be a cell of the metrics and
    features CSVs: one with a comma or line break, or with a lone surrogate,
    which UTF-8 cannot encode (a file name that is not valid UTF-8 gives one)."""
    for lang in langs:
        if _breaks_cell(lang, ","):
            raise ValueError(f"language code {lang!r} contains a comma or line break")
        try:
            lang.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"language code {lang!r} cannot be encoded as UTF-8") from None


def _cell(value) -> str:
    """The table cell of ``value``: a float goes through ``_fmt``, ``None``
    becomes an empty cell and anything else goes through ``str``."""
    return "" if value is None else _fmt(value) if isinstance(value, float) else str(value)


def _as_written(value) -> float | None:
    """The number an analysis sees for a table value: what the cell of
    ``float(value)`` reads back as. ``None`` stays ``None``.

    Applied to what a cell reads back as, it gives what it gave for the value
    the cell was written from, so ``report``'s rows and the rows ``analyze``
    reads from its CSVs give the same numbers. That is why an int goes in as
    a float: its own cell reads back exact, so an int of 13 or more digits
    would change when taken again."""
    return None if value is None else float(_cell(float(value)))


def _write_table(
    rows: Iterable[Sequence], header: Sequence[str], path: str | Path, sep: str = ","
) -> None:
    """Write ``header`` and one ``sep``-joined line per row of ``_cell``
    texts. A cell that holds ``sep`` or a line break is rejected, and the
    text is encoded before the file is opened, so a rejected table, or one
    with a cell UTF-8 cannot encode, leaves no file."""
    lines = [sep.join(header)]
    for row in rows:
        cells = []
        for value in row:
            cell = _cell(value)
            if _breaks_cell(cell, sep):
                raise ValueError(f"cell {cell!r} contains {sep!r} or a line break")
            cells.append(cell)
        lines.append(sep.join(cells))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _write_pair_csv(
    rows: Mapping[tuple[str, str], object], names: Sequence[str], path: str | Path
) -> None:
    """Write a ``lang_a,lang_b,<names>`` table: pairs in sorted order, then
    each record's ``as_dict()`` values. A pair the readers refuse, a language
    paired with itself or a pair given in both orders, raises first."""
    pairs = sorted(rows)
    for a, b in pairs:
        _check_language_codes(a, b)
        if a == b:
            raise ValueError(f"{a},{b}: a language paired with itself")
        if (b, a) in rows:
            raise ValueError(f"{a},{b}: pair given in both orders")
    table = [(*pair, *map(rows[pair].as_dict().get, names)) for pair in pairs]
    _write_table(table, ("lang_a", "lang_b", *names), path)


def _read_pair_csv(
    path: str | Path, names: Sequence[str], kind: str, convert: Callable[[dict], object]
) -> dict:
    """Read a ``lang_a,lang_b,<names>`` table into ``(lang_a, lang_b) ->
    convert(cells)``, where ``cells`` maps each name to its cell string. A
    row with the wrong cell count, a language paired with itself, a pair
    already read in either order, or a cell that ``convert`` rejects is
    refused with a message that starts ``path:line:``."""
    lines = "".join(_text_lines(path)).splitlines()
    if not lines or lines[0] != ",".join(("lang_a", "lang_b", *names)):
        raise ValueError(f"{path}: unexpected {kind} header")
    rows = {}
    first_line: dict[frozenset, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2 + len(names):
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
        where = f"{path}:{lineno}: {cells[0]},{cells[1]}"
        if cells[0] == cells[1]:
            raise ValueError(f"{where}: a language paired with itself")
        seen = first_line.setdefault(frozenset(cells[:2]), lineno)
        if seen != lineno:
            raise ValueError(f"{where}: pair already on line {seen}")
        try:
            rows[(cells[0], cells[1])] = convert(dict(zip(names, cells[2:])))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return rows


def write_metrics_csv(rows: Mapping[tuple[str, str], AlignmentMetrics], path: str | Path) -> None:
    _write_pair_csv(rows, METRIC_NAMES, path)


def read_metrics_csv(path: str | Path) -> dict[tuple[str, str], AlignmentMetrics]:
    return _read_pair_csv(
        path, METRIC_NAMES, "metrics",
        lambda cells: AlignmentMetrics(**{name: float(c) for name, c in cells.items()}),
    )


def write_features_csv(
    rows: Mapping[tuple[str, str], feats.PairFeatureVector], path: str | Path
) -> None:
    _write_pair_csv(rows, feats.FEATURE_NAMES, path)


def read_features_csv(path: str | Path) -> dict[tuple[str, str], dict[str, float | None]]:
    """Read a features table; each row must make a ``PairFeatureVector``, as
    every row ``write_features_csv`` writes does."""

    def row(cells: Mapping[str, str]) -> dict[str, float | None]:
        values = _check_finite({name: float(c) if c != "" else None for name, c in cells.items()})
        return feats.PairFeatureVector(**values).as_dict()

    return _read_pair_csv(path, feats.FEATURE_NAMES, "features", row)


def corpus_texts(corpus: Corpus) -> dict[str, str]:
    """Concatenate each document's verses (in verse-ID order) into one text."""
    return {
        lang: "\n".join(text for _, text in sorted(verses.items()))
        for lang, verses in corpus.documents.items()
    }


def _overlap_texts(char_dir: str | Path | None, token_dir: str | Path | None) -> tuple:
    """The ``corpus_texts`` of the character- and token-overlap corpus
    directories (``None`` for one not given). The reads are keyed on the
    resolved path, so a directory given for both is read once, however spelled."""
    keys = [Path(d).resolve() if d else None for d in (char_dir, token_dir)]
    texts = {}
    for key, d in zip(keys, (char_dir, token_dir)):
        if d and key not in texts:
            texts[key] = corpus_texts(load_corpus(d))
    return texts.get(keys[0]), texts.get(keys[1])


def build_pair_feature_table(
    table: Mapping[str, LanguageMeta],
    char_texts: Mapping[str, str] | None = None,
    token_texts: Mapping[str, str] | None = None,
    languages: Sequence[str] | None = None,
) -> dict[tuple[str, str], feats.PairFeatureVector]:
    """Feature vectors for every unordered pair of languages in the table."""
    aggregates = feats.training_aggregates(table)
    langs = sorted(languages) if languages is not None else sorted(table)
    missing = [lang for lang in langs if lang not in table]
    if missing:
        raise ValueError(f"languages missing from table: {missing}")
    feats._check_typology_vectors(table[lang] for lang in langs)
    char_counts = feats._unit_counts_by_language(char_texts, "char", langs)
    token_counts = feats._unit_counts_by_language(token_texts, "token", langs)
    return {
        (a, b): feats._pair_features_from_counts(
            table[a], table[b], aggregates, char_counts, token_counts
        )
        for a, b in itertools.combinations(langs, 2)
    }


@dataclass
class AnalysisDataset:
    """Joined, listwise-complete design matrix for the analysis modes, and
    the count of pairs that only the metrics or only the features table holds."""

    X: np.ndarray
    dvs: dict[str, np.ndarray]
    n_common: int
    n_used: int
    n_metrics_only: int = 0
    n_features_only: int = 0

    @property
    def n_dropped(self) -> int:
        return self.n_common - self.n_used

    def report(self, mode: str, **fields) -> dict:
        """A dataset mode's report: its ``mode``, the pairs it used and dropped,
        each nonzero count of pairs only one table holds, then ``fields``."""
        one_table = {"n_metrics_only": self.n_metrics_only, "n_features_only": self.n_features_only}
        return {
            "mode": mode,
            "n_used": self.n_used,
            "n_dropped": self.n_dropped,
            **{name: n for name, n in one_table.items() if n},
            **fields,
        }


def _check_complete_pair(rows: Sequence[Mapping[str, float | None]]) -> int:
    """The count of complete pairs among feature rows, at least one; refuse
    nonempty rows that hold none, naming each feature that no row has."""
    complete = sum(all(row[name] is not None for name in feats.FEATURE_NAMES) for row in rows)
    if not complete:
        absent = [name for name in feats.FEATURE_NAMES if all(row[name] is None for row in rows)]
        message = "every pair has at least one missing feature"
        raise ValueError(f"{message}; no pair has {', '.join(absent)}" if absent else message)
    return complete


def make_analysis_dataset(
    features_map: Mapping[tuple[str, str], Mapping[str, float | None]],
    metrics_map: Mapping[tuple[str, str], AlignmentMetrics],
) -> AnalysisDataset:
    """Join features and metrics on the pair key and drop incomplete rows
    listwise (the dropped count is reported, never silently imputed).

    Every value enters the design matrix and the DVs as ``_as_written`` gives
    it, the value its ``features.csv`` or ``metrics.csv`` cell reads back as.
    Only ``perfbench/replay.py`` needs that: it passes rows held in memory and
    must write ``analyze``'s bytes (``tests/test_bench_replay.py``). ROADMAP
    item 2 retires the replay, and the rounding with it."""
    for kind, table in (("metrics", metrics_map), ("features", features_map)):
        if not table:
            raise ValueError(f"the {kind} table has no pairs")
    common = sorted(set(features_map) & set(metrics_map))
    if not common:
        raise ValueError("no pairs shared between features and metrics")
    _check_complete_pair([features_map[pair] for pair in common])
    kept: list[tuple[str, str]] = []
    rows: list[list[float]] = []
    for pair in common:
        vector = features_map[pair]
        values = [vector[name] for name in feats.FEATURE_NAMES]
        if any(v is None for v in values):
            continue
        kept.append(pair)
        rows.append([_as_written(v) for v in values])
    X = np.array(rows, dtype=np.float64)
    dvs = {
        name: np.array([_as_written(getattr(metrics_map[p], name)) for p in kept],
                       dtype=np.float64)
        for name in METRIC_NAMES
    }
    return AnalysisDataset(X=X, dvs=dvs, n_common=len(common), n_used=len(kept),
                           n_metrics_only=len(metrics_map) - len(common),
                           n_features_only=len(features_map) - len(common))


def _pearson_table(
    columns: Mapping[str, Sequence[float | None]], dvs: Mapping[str, np.ndarray]
) -> dict[str, dict[str, float | None]]:
    """``{metric: {feature: r}}`` over the rows where the feature is not ``None``
    (pairwise deletion); ``r`` is ``None`` where Pearson is undefined: fewer
    than 3 such rows, or a constant side."""
    kept = {
        name: (
            np.array([v is not None for v in col], dtype=bool),
            np.array([v for v in col if v is not None], dtype=np.float64),
        )
        for name, col in columns.items()
    }
    table: dict[str, dict[str, float | None]] = {}
    for metric, y in dvs.items():
        row = table[metric] = {}
        for name, (rows, x) in kept.items():
            try:
                row[name] = stats.pearson(x, y[rows])
            except ValueError:
                row[name] = None
    return table


def analyze_corr(dataset: AnalysisDataset) -> dict:
    """Pearson correlations of every feature with every metric, plus
    semi-partial correlations holding combined training data constant for
    the dependent variable."""
    columns = dict(zip(feats.FEATURE_NAMES, dataset.X.T.tolist()))
    pearson_block = _pearson_table(columns, dataset.dvs)
    r_fc = _pearson_table(
        {name: columns[name] for name in SEMIPARTIAL_FEATURES},
        {"combined_sentences": np.array(columns["combined_sentences"])},
    )["combined_sentences"]
    semi_block: dict[str, dict[str, float | None]] = {}
    for metric, r in pearson_block.items():
        r_cy = r["combined_sentences"]
        semi_block[metric] = {
            name: None
            if None in (r[name], r_fc[name], r_cy) or abs(r_cy) >= 1.0
            else stats.semipartial(r[name], r_fc[name], r_cy)
            for name in SEMIPARTIAL_FEATURES
        }
    return dataset.report(
        "corr",
        n_pairs=dataset.n_common,
        pearson=pearson_block,
        semipartial_vs_combined_sentences=semi_block,
    )


def analyze_search(dataset: AnalysisDataset, folds: int, seed: int) -> dict:
    report = stats.feature_search_report(
        dataset.X, dataset.dvs, feats.FEATURE_NAMES, folds=folds, seed=seed
    )
    per_dv = {
        dv: {
            "best_features": list(report.per_dv_best[dv]),
            "adj_r2": report.per_dv_adj_r2[dv],
            "n_skipped": report.n_skipped,
        }
        for dv in report.per_dv_best
    }
    return dataset.report(
        "search",
        folds=folds,
        seed=seed,
        n_models_per_dv=2 ** len(feats.FEATURE_NAMES) - 1,
        per_dv=per_dv,
        tallies=dict(report.tallies),
    )


def analyze_ablate(dataset: AnalysisDataset, folds: int, seed: int) -> dict:
    per_dv = {
        metric: {"baseline_adj_r2": r.baseline_adj_r2, "delta_adj_r2": r.deltas, "rank": r.ranks}
        for metric, r in stats.ablation_single_step(
            dataset.X, dataset.dvs, feats.FEATURE_NAMES, folds=folds, seed=seed).items()
    }
    # the ranks are integers, so each sum is exact in any order
    average_rank = {name: sum(entry["rank"][name] for entry in per_dv.values()) / len(per_dv)
                    for name in feats.FEATURE_NAMES}
    return dataset.report(
        "ablate",
        folds=folds,
        seed=seed,
        per_dv=per_dv,
        average_rank=average_rank,
        ranking=sorted(feats.FEATURE_NAMES, key=lambda name: (average_rank[name], name)),
    )


def _anova_json(result: stats.AnovaResult) -> dict:
    finite = math.isfinite(result.f_stat)
    return {
        "f_stat": result.f_stat if finite else None,
        "infinite_f": not finite,
        "p_value": result.p_value,
        "eta_p2": result.eta_p2,
        "df_effect": result.df_effect,
        "df_error": result.df_error,
    }


def _tukey_json(groups: Sequence[Sequence[float]], labels: Sequence[str]) -> list[dict] | None:
    """Tukey HSD comparisons, each as the dict of its fields, or None where
    the test is undefined."""
    try:
        return [asdict(c) for c in stats.tukey_hsd(groups, labels)]
    except ValueError:
        return None


def _f_test_table(
    factors: Iterable[str], metrics: Collection[str], test: Callable[[str, str], dict]
) -> dict[str, dict[str, dict]]:
    """``{factor: {metric: test(factor, metric)}}``, where a cell whose test
    raises ``ValueError`` reads ``{"skipped": reason}``."""

    def cell(factor: str, metric: str) -> dict:
        try:
            return test(factor, metric)
        except ValueError as exc:
            return {"skipped": str(exc)}

    return {factor: {metric: cell(factor, metric) for metric in metrics} for factor in factors}


def analyze_anova(dataset: AnalysisDataset) -> dict:
    """One-way ANOVA of each metric grouped by each binary pair feature,
    with Tukey HSD comparisons where the test is defined."""

    def test(factor: str, metric: str) -> dict:
        col = dataset.X[:, feats.FEATURE_NAMES.index(factor)]
        levels = sorted(set(col.tolist()))
        if len(levels) < 2:
            raise ValueError(f"factor {factor} has a single level")
        groups = [dataset.dvs[metric][col == level] for level in levels]
        labels = [str(int(level)) for level in levels]
        entry = _anova_json(stats.anova_oneway(groups))
        entry["group_means"] = {label: float(np.mean(group)) for label, group in zip(labels, groups)}
        entry["group_sizes"] = {label: int(group.size) for label, group in zip(labels, groups)}
        entry["tukey"] = _tukey_json(groups, labels)
        return entry

    return dataset.report("anova", factors=_f_test_table(ANOVA_FACTORS, dataset.dvs, test))


def analyze_ancova(dataset: AnalysisDataset) -> dict:
    """ANCOVA of word-order and polysynthesis agreement with the three
    training-data features as covariates."""
    cov_idx = [feats.FEATURE_NAMES.index(name) for name in ANCOVA_COVARIATES]
    covariates = dataset.X[:, cov_idx]
    labels = {
        factor: [str(int(v)) for v in dataset.X[:, feats.FEATURE_NAMES.index(factor)]]
        for factor in ANCOVA_FACTORS
    }

    def test(factor: str, metric: str) -> dict:
        if len(set(labels[factor])) < 2:
            raise ValueError(f"factor {factor} has a single level")
        return _anova_json(stats.ancova(dataset.dvs[metric], labels[factor], covariates))

    return dataset.report(
        "ancova",
        covariates=list(ANCOVA_COVARIATES),
        factors=_f_test_table(ANCOVA_FACTORS, dataset.dvs, test),
    )


def _varying_columns(dataset: AnalysisDataset) -> tuple[list[str], np.ndarray, list[str]]:
    # standardization is undefined for constant columns; drop them and name them
    constant = stats.constant_columns(dataset.X)
    names = [name for name, c in zip(feats.FEATURE_NAMES, constant) if not c]
    return names, dataset.X[:, ~constant], [n for n in feats.FEATURE_NAMES if n not in names]


def analyze_pca(dataset: AnalysisDataset) -> dict:
    names, X, constant = _varying_columns(dataset)
    if len(names) < 2:
        raise ValueError("fewer than two varying features; PCA not meaningful")
    result = stats.pca(X)
    loadings = {
        name: [float(result.components[c, i]) for c in range(result.components.shape[0])]
        for i, name in enumerate(names)
    }
    return dataset.report(
        "pca",
        constant_features=constant,
        explained_variance=[float(v) for v in result.explained_variance],
        explained_variance_ratio=[float(v) for v in result.explained_variance_ratio],
        loadings=loadings,
    )


def analyze_pcr(dataset: AnalysisDataset, folds: int, seed: int) -> dict:
    names, X, constant = _varying_columns(dataset)
    if len(names) < 1:
        raise ValueError("no varying features; PCR not meaningful")
    per_dv = {
        metric: {"adj_r2_by_components": list(r.adj_r2_by_components),
                 "best_components": r.best_components}
        for metric, r in stats.pcr(X, dataset.dvs, folds=folds, seed=seed).items()
    }
    return dataset.report(
        "pcr",
        constant_features=constant,
        folds=folds,
        seed=seed,
        per_dv=per_dv,
        average_best_components=float(np.mean([e["best_components"] for e in per_dv.values()])),
    )


class _Mode(NamedTuple):
    """One dataset analysis mode: its function, whether it takes folds and a
    seed, the fewest complete pairs it runs on (a seeded mode also takes 2 per
    fold), and the schema of each field its report adds to the header, every
    one of them required."""

    analyze: Callable[..., dict]
    seeded: bool
    min_pairs: int
    fields: dict[str, dict]


# ``zero_shot``, the one further mode, reads the metrics and language table
# instead; ``search`` and ``ablate`` fit every feature, ``pcr`` at least 1 component
ANALYSES: dict[str, _Mode] = {
    "corr": _Mode(analyze_corr, False, 1, {
        "n_pairs": {"type": "integer"},
        "pearson": {"type": "object"},
        "semipartial_vs_combined_sentences": {"type": "object"},
    }),
    "search": _Mode(analyze_search, True, len(feats.FEATURE_NAMES) + 2, {
        "n_models_per_dv": {"const": 2 ** len(feats.FEATURE_NAMES) - 1},
        "per_dv": {"type": "object"},
        "tallies": {"type": "object"},
    }),
    "ablate": _Mode(analyze_ablate, True, len(feats.FEATURE_NAMES) + 2, {
        "per_dv": {"type": "object"},
        "average_rank": {"type": "object"},
        "ranking": {"type": "array", "items": {"type": "string"}},
    }),
    "anova": _Mode(analyze_anova, False, 1, {
        "factors": {"type": "object"},
    }),
    "ancova": _Mode(analyze_ancova, False, 1, {
        "covariates": {"type": "array", "items": {"type": "string"}},
        "factors": {"type": "object"},
    }),
    "pca": _Mode(analyze_pca, False, 2, {
        "constant_features": {"type": "array", "items": {"type": "string"}},
        "explained_variance": {"type": "array", "items": {"type": "number"}},
        "explained_variance_ratio": {"type": "array", "items": {"type": "number"}},
        "loadings": {"type": "object"},
    }),
    "pcr": _Mode(analyze_pcr, True, 3, {
        "constant_features": {"type": "array", "items": {"type": "string"}},
        "per_dv": {"type": "object"},
        "average_best_components": {"type": "number"},
    }),
}


def _check_analysis_settings(modes: Iterable[str], folds: int, seed: int | None) -> None:
    """Refuse settings no analysis of ``modes`` runs under: fewer than 2
    folds, a negative seed, or no seed when a mode takes one in ``ANALYSES``."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    seeded = [mode for mode in modes if mode in ANALYSES and ANALYSES[mode].seeded]
    if seed is None and seeded:
        raise ValueError(f"seed is required for mode {seeded[0]!r}")


def _check_pair_count(modes: Iterable[str], folds: int, n: int, held_by: str) -> None:
    """Refuse ``n`` complete pairs when a dataset mode of ``modes`` needs more:
    its row's ``min_pairs``, and for a seeded row ``stats.cv_min_rows`` at
    ``folds``. The message ends in ``held_by`` and ``n`` ("the feature table
    has 3") and says where the need comes from."""
    k = len(feats.FEATURE_NAMES)
    for mode in [mode for mode in modes if mode in ANALYSES]:
        row = ANALYSES[mode]
        need = row.min_pairs
        why = [f"{k} features + 2"] if row.min_pairs == k + 2 else []
        if row.seeded:
            need = stats.cv_min_rows(row.min_pairs - 2, folds)
            why.append(f"2 per fold at folds = {folds}")
        if n < need:
            why = f" ({', and '.join(why)})" if why else ""
            raise ValueError(f"mode {mode!r} needs at least {need} complete pairs{why}; {held_by} {n}")


def run_analysis(mode: str, dataset: AnalysisDataset, folds: int, seed: int | None) -> dict:
    """Run one dataset analysis mode from ``ANALYSES``, checking its settings
    and its pair count first."""
    row = ANALYSES[mode]
    _check_analysis_settings([mode], folds, seed)
    _check_pair_count([mode], folds, dataset.n_used, "the two tables share")
    return row.analyze(dataset, folds, seed) if row.seeded else row.analyze(dataset)


def group_metrics_by_word_order_class(
    metrics_map: Mapping[tuple[str, str], AlignmentMetrics],
    table: Mapping[str, LanguageMeta],
) -> dict:
    """Split pairs into similar vs different word-order-class groups and
    average each metric per group. Pairs with an unknown class are excluded."""
    groups: dict[str, list[AlignmentMetrics]] = {"similar": [], "different": []}
    excluded = 0
    for (lang_a, lang_b), metrics in metrics_map.items():
        meta_a = table.get(lang_a)
        meta_b = table.get(lang_b)
        cls_a = _WORD_ORDER_CLASS.get(meta_a.word_order) if meta_a else None
        cls_b = _WORD_ORDER_CLASS.get(meta_b.word_order) if meta_b else None
        if cls_a is None or cls_b is None:
            excluded += 1
            continue
        groups["similar" if cls_a == cls_b else "different"].append(metrics)
    out: dict = {"excluded_pairs": excluded}
    for label, members in groups.items():
        if members:
            out[label] = {"n_pairs": len(members), "means": _metric_means(members)}
        else:
            out[label] = {"n_pairs": 0, "means": None}
    return out


def per_language_metrics(
    pair_metrics: Mapping[tuple[str, str], AlignmentMetrics],
) -> dict[str, AlignmentMetrics]:
    """Each language's mean of every metric over the pairs it appears in,
    summed in pair order from 0.0."""
    if not pair_metrics:
        raise ValueError("no pair metrics given")
    sums: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for pair, metrics in pair_metrics.items():
        for lang in pair:
            total = sums.get(lang, [0.0] * len(METRIC_NAMES))
            sums[lang] = [s + v for s, v in zip(total, metrics.as_dict().values())]
            counts[lang] = counts.get(lang, 0) + 1
    return {lang: AlignmentMetrics(**{n: s / counts[lang] for n, s in zip(METRIC_NAMES, total)})
            for lang, total in sums.items()}


def _is_zero_shot(meta: LanguageMeta) -> bool:
    """Whether a language has no training data: the zero-shot partition."""
    return meta.train_sentences == 0


def run_zero_shot_analysis(
    metrics_map: Mapping[tuple[str, str], AlignmentMetrics],
    table: Mapping[str, LanguageMeta],
    features_map: Mapping[tuple[str, str], Mapping[str, float | None]] | None = None,
) -> dict:
    """Analyses over the zero-shot partitions.

    Simple case: languages with no training data; per-language metrics are
    grouped by word order, polysynthesis, and family, and tested with ANOVA
    (plus Tukey for word order). Double case: pairs whose members both lack
    training data; features are correlated with metrics over those pairs.
    An empty partition is reported as skipped rather than an error.
    Metrics and features are taken as given, unrounded.
    """
    report: dict = {"mode": "zero_shot"}
    known_pairs = {pair: m for pair, m in metrics_map.items() if set(pair) <= table.keys()}
    report["n_pairs_unknown_language"] = len(metrics_map) - len(known_pairs)

    zs_langs = sorted({lang for pair in known_pairs for lang in pair if _is_zero_shot(table[lang])})
    simple: dict = {"n_languages": len(zs_langs), "languages": zs_langs}
    if not zs_langs:
        simple["skipped"] = "no zero-shot languages"
    else:
        per_lang = per_language_metrics(known_pairs)
        rows = {lang: per_lang[lang] for lang in zs_langs if lang in per_lang}
        factor_values = {
            "word_order": {
                lang: table[lang].word_order.value
                for lang in rows
                if table[lang].word_order != WordOrder.UNKNOWN
            },
            "polysynthetic": {lang: str(int(table[lang].polysynthetic)) for lang in rows},
            "family": {lang: table[lang].family for lang in rows},
        }
        # factor -> level -> languages, levels in sorted order
        grouped = {
            factor: {
                level: [lang for lang in value_of if value_of[lang] == level]
                for level in sorted(set(value_of.values()))
            }
            for factor, value_of in factor_values.items()
        }

        def test(factor: str, metric: str) -> dict:
            groups = [[getattr(rows[lang], metric) for lang in langs]
                      for langs in grouped[factor].values()]
            entry = _anova_json(stats.anova_oneway(groups))
            if factor == "word_order":
                entry["tukey"] = _tukey_json(groups, list(grouped[factor]))
            return entry

        simple["anova"] = _f_test_table(grouped, METRIC_NAMES, test)
        simple["group_means"] = {
            factor: {level: _metric_means(rows[lang] for lang in langs)
                     for level, langs in by_level.items()}
            for factor, by_level in grouped.items()
        }
    report["simple"] = simple

    double_pairs = sorted(
        pair for pair in known_pairs if all(_is_zero_shot(table[lang]) for lang in pair)
    )
    double: dict = {"n_pairs": len(double_pairs)}
    if not double_pairs:
        double["skipped"] = "no double zero-shot pairs"
    elif features_map is None:
        double["skipped"] = "no feature table supplied"
    else:
        rows_of = [features_map.get(pair, {}) for pair in double_pairs]
        double["pearson"] = _pearson_table(
            {feature: [row.get(feature) for row in rows_of] for feature in feats.FEATURE_NAMES},
            {name: np.array([getattr(known_pairs[p], name) for p in double_pairs])
             for name in METRIC_NAMES},
        )
    report["double"] = double
    return report


def run_case_study_compare(
    metrics_a: Mapping[tuple[str, str], AlignmentMetrics],
    metrics_b: Mapping[tuple[str, str], AlignmentMetrics],
    table: Mapping[str, LanguageMeta] | None = None,
) -> dict:
    """Side-by-side comparison of two metric runs over the same pair set.

    Deltas are B minus A per pair and per metric. When a language table is
    given, word-order-class group means are reported for both sides as well.
    """
    if set(metrics_a) != set(metrics_b):
        only_a = sorted(set(metrics_a) - set(metrics_b))[:3]
        only_b = sorted(set(metrics_b) - set(metrics_a))[:3]
        raise ValueError(f"pair sets differ (A-only {only_a}, B-only {only_b})")
    if not metrics_a:
        raise ValueError("no pairs to compare: both metric tables are empty")
    pairs = sorted(metrics_a)
    per_pair = []
    for lang_a, lang_b in pairs:
        ma = metrics_a[(lang_a, lang_b)]
        mb = metrics_b[(lang_a, lang_b)]
        per_pair.append(
            {
                "lang_a": lang_a,
                "lang_b": lang_b,
                **{name: float(getattr(mb, name) - getattr(ma, name)) for name in METRIC_NAMES},
            }
        )
    report = {
        "mode": "compare",
        "n_pairs": len(pairs),
        "mean_a": _metric_means(metrics_a.values()),
        "mean_b": _metric_means(metrics_b.values()),
        "mean_delta": {
            name: float(
                np.mean([row[name] for row in per_pair])
            )
            for name in METRIC_NAMES
        },
        "per_pair_delta": per_pair,
    }
    if table is not None:
        report["word_order_groups"] = {
            "a": group_metrics_by_word_order_class(metrics_a, table),
            "b": group_metrics_by_word_order_class(metrics_b, table),
        }
    else:
        report["word_order_groups"] = None
    return report


def write_json(obj: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
    )


def write_plot_csv(rows: Sequence[tuple], header: Sequence[str], path: str | Path) -> None:
    """A plot-data CSV for external plotting tools: ``header``, then ``rows``.
    Its one use is ``plot_zero_shot_groups.csv``, whose header is
    ``factor,level,metric,mean``."""
    _write_table(rows, header, path)


def _zero_shot_plot_rows(report: dict) -> list[tuple]:
    rows: list[tuple] = []
    means = report.get("simple", {}).get("group_means", {})
    for factor in sorted(means):
        for level in sorted(means[factor]):
            for metric in METRIC_NAMES:
                rows.append((factor, level, metric, means[factor][level][metric]))
    return rows


def write_zero_shot_report(report: dict, path: str | Path, plot_path: str | Path | None) -> None:
    """Write the zero-shot JSON report and, if asked, its group-means plot CSV.
    The plot goes first, so a plot the CSV writer refuses leaves neither file."""
    if plot_path:
        write_plot_csv(_zero_shot_plot_rows(report), ("factor", "level", "metric", "mean"), plot_path)
    write_json(report, path)


def _check_zero_shot_families(table: Mapping[str, LanguageMeta], langs: Iterable[str]) -> None:
    """Refuse a zero-shot language among ``langs``, the languages the sweep
    loaded, whose family the zero-shot plot CSV cannot hold as a cell."""
    for lang in langs:
        meta = table.get(lang)
        if meta is not None and _is_zero_shot(meta) and _breaks_cell(meta.family, ","):
            raise ValueError(
                f"zero-shot language {lang!r} has family {meta.family!r}, which contains"
                " a comma or line break and cannot be a cell of the zero-shot plot CSV"
            )


def run_report(config_path: str | Path) -> int:
    """Full pipeline: parse the config file, read every input, build the
    feature table and write ``features.csv``, sweep metrics and write
    ``metrics.csv``, then analyze both CSVs as read back. Returns the exit
    code (0 ok, 2 when some languages or pairs were skipped). A fatal error
    is recorded under ``fatal`` in ``run_summary.json`` and re-raised; a
    file that cannot be read or names no ``out`` leaves no summary.

    Every file name a run can write under ``out`` is deleted first, so no
    file of an earlier run stays beside this run's."""
    path = Path(config_path)
    raw = _read_config_file(path)
    out = path.parent / raw["out"] if raw.get("out") else None  # an empty out is a missing one
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        for name in ("run_summary.json", "metrics.csv", "features.csv", "plot_zero_shot_groups.csv",
                     *(f"analysis_{mode}.json" for mode in (*ANALYSES, "zero_shot"))):
            (out / name).unlink(missing_ok=True)

    # a run that stops before the sweep ends leaves the empty result on record
    config = None
    sweep = SweepResult(rows={})
    analyses: list[str] = []
    unlisted: list[str] = []  # loaded languages the table has no row for
    stage: dict = {"stage": "config", "mode": None}
    try:
        config = _config_from_raw(path, raw)
        stage = {"stage": "preflight", "mode": None}
        # the embeddings directories are listed first, then every input is read before the first pair
        per_dir_files = [_embedding_files(d) for d in config.embeddings]
        table = char_texts = token_texts = None
        if config.languages is not None:
            table = load_language_table(config.languages)
            if config.corpus:
                # only the two chosen directories
                by_name = {Path(d).name: d for d in config.corpus}
                char_texts, token_texts = _overlap_texts(
                    by_name.get(config.char_doc, config.corpus[0]),
                    by_name.get(config.token_doc, config.corpus[-1]))
        sweep, matrices = _load_sweep_languages(config, per_dir_files)
        if table is not None:
            unlisted = sorted(matrices.keys() - table.keys())
        if len(matrices) < 2:
            n_langs = len(matrices) + len(sweep.failed_languages)
            raise ValueError(f"{len(matrices)} of {n_langs} languages loaded; a pair needs two")
        if "zero_shot" in config.analyses:
            _check_zero_shot_families(table, matrices)
        if table is not None:
            listed = sorted(matrices.keys() & table.keys())
            # every pair of the loaded languages the table lists, as if each pair succeeds
            features_map = build_pair_feature_table(table, char_texts, token_texts, listed)
            if any(mode in ANALYSES for mode in config.analyses):
                if len(listed) < 2:
                    names = f" ({', '.join(listed)})" if listed else ""
                    raise ValueError(f"{config.languages} lists {len(listed)} of the"
                                     f" {len(matrices)} loaded languages{names}; a pair needs two")
                # no sweep can keep more complete pairs than the table holds
                n_complete = _check_complete_pair([vec.as_dict() for vec in features_map.values()])
                _check_pair_count(config.analyses, config.folds, n_complete, "the feature table has")
            write_features_csv(features_map, out / "features.csv")

        stage = {"stage": "sweep", "mode": None}
        _sweep_pairs(config, sweep, matrices)
        write_metrics_csv(sweep.rows, out / "metrics.csv")

        # shared by every mode; each needs the language table, so both CSVs exist
        metrics_map = feature_rows = dataset = None
        for mode in dict.fromkeys(config.analyses):
            stage = {"stage": "analysis", "mode": mode}
            if metrics_map is None:
                metrics_map = read_metrics_csv(out / "metrics.csv")
                feature_rows = read_features_csv(out / "features.csv")
            if mode == "zero_shot":
                write_zero_shot_report(
                    run_zero_shot_analysis(metrics_map, table, feature_rows),
                    out / "analysis_zero_shot.json",
                    out / "plot_zero_shot_groups.csv",
                )
            else:
                if dataset is None:
                    dataset = make_analysis_dataset(feature_rows, metrics_map)
                write_json(run_analysis(mode, dataset, config.folds, config.seed),
                           out / f"analysis_{mode}.json")
            analyses.append(mode)
    except Exception as exc:
        if out is None:
            raise
        # the sweep and the analyses already written stay on record
        summary = _run_summary(config, sweep, analyses, unlisted)
        summary["fatal"] = {**stage, "error": str(exc)}
        write_json(summary, out / "run_summary.json")
        raise
    write_json(_run_summary(config, sweep, analyses, unlisted), out / "run_summary.json")
    return 2 if sweep.partial else 0


def _run_summary(
    config: RunConfig | None, sweep: SweepResult, analyses: list[str], unlisted: list[str]
) -> dict:
    """The run summary; a config that failed to load leaves its settings null."""
    summary = {
        "mode": "summary",
        "languages": sorted({lang for pair in sweep.rows for lang in pair}),
        "n_pairs": len(sweep.rows),
        "failed_languages": {k: v for k, v in sorted(sweep.failed_languages.items())},
        "failed_pairs": {f"{a}/{b}": v for (a, b), v in sorted(sweep.failed_pairs.items())},
        "analyses": analyses,
        **{name: None if config is None else getattr(config, name)
           for name in ("k", "gh_max_points", "folds", "seed")},
    }
    if unlisted:
        summary["languages_missing_from_table"] = unlisted
    return summary


_ANOVA_ENTRY_SCHEMA = {
    "type": "object",
    "properties": {
        "f_stat": {"type": ["number", "null"]},
        "infinite_f": {"type": "boolean"},
        "p_value": {"type": "number", "minimum": 0, "maximum": 1},
        "eta_p2": {"type": "number", "minimum": 0, "maximum": 1},
        "df_effect": {"type": "integer"},
        "df_error": {"type": "integer"},
    },
    "required": ["f_stat", "p_value", "eta_p2", "df_effect", "df_error"],
}

def _dataset_schema(mode: str) -> dict:
    """The schema of a dataset mode's report: the header ``AnalysisDataset.report``
    writes, with ``folds`` and ``seed`` exactly where the mode's ``ANALYSES``
    row is seeded, then the row's ``fields``, every one of them required."""
    row = ANALYSES[mode]
    seeded = {"folds": {"type": "integer", "minimum": 2},
              "seed": {"type": "integer", "minimum": 0}} if row.seeded else {}
    count = {"type": "integer", "minimum": 1}
    return {
        "type": "object",
        "required": ["mode", "n_used", "n_dropped", *seeded, *row.fields],
        "properties": {
            "mode": {"const": mode},
            "n_used": count,
            "n_dropped": {"type": "integer", "minimum": 0},
            # written only when nonzero
            "n_metrics_only": count,
            "n_features_only": count,
            **seeded,
            **row.fields,
        },
    }


REPORT_SCHEMAS: dict[str, dict] = {
    **{mode: _dataset_schema(mode) for mode in ANALYSES},
    "zero_shot": {
        "type": "object",
        "required": ["mode", "simple", "double"],
        "properties": {
            "mode": {"const": "zero_shot"},
            "simple": {"type": "object"},
            "double": {"type": "object"},
        },
    },
    "compare": {
        "type": "object",
        "required": ["mode", "n_pairs", "mean_a", "mean_b", "mean_delta",
                      "per_pair_delta", "word_order_groups"],
        "properties": {
            "mode": {"const": "compare"},
            "n_pairs": {"type": "integer"},
            "per_pair_delta": {"type": "array"},
            "word_order_groups": {"type": ["object", "null"]},
        },
    },
    "summary": {
        "type": "object",
        "required": ["mode", "languages", "n_pairs", "failed_languages",
                      "failed_pairs", "analyses"],
        "properties": {
            "mode": {"const": "summary"},
            "languages": {"type": "array", "items": {"type": "string"}},
            "n_pairs": {"type": "integer"},
            "languages_missing_from_table": {"type": "array", "items": {"type": "string"}},
            "fatal": {"type": "object", "required": ["stage", "mode", "error"]},
        },
    },
    "anova_entry": _ANOVA_ENTRY_SCHEMA,
}
