import argparse
import dataclasses
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import xlalign as xa
from xlalign import pipeline, special, stats
from xlalign.cli import _COMMANDS, _build_parser, main
from xlalign.corpus import LanguageMeta, WordOrder
from xlalign.pipeline import (
    ANALYSES,
    AlignmentMetrics,
    METRIC_NAMES,
    REPORT_SCHEMAS,
    RunConfig,
    analyze_ablate,
    analyze_ancova,
    analyze_anova,
    analyze_corr,
    analyze_pca,
    analyze_pcr,
    analyze_search,
    build_pair_feature_table,
    compute_pair_metrics,
    group_metrics_by_word_order_class,
    load_config,
    make_analysis_dataset,
    read_features_csv,
    read_metrics_csv,
    run_case_study_compare,
    run_pair_metrics,
    run_zero_shot_analysis,
    write_features_csv,
    write_metrics_csv,
)

import conftest
from conftest import (
    assert_close_json, build_workspace, count_scored_models, per_metric_ablation, per_metric_pcr,
)


def synthetic_metrics(value: float = 0.5) -> AlignmentMetrics:
    return AlignmentMetrics(f1=value, avg_margin=1.0, svg=1.0, econd_hm=2.0, gh=0.5)


# ------------------------------------------------------------------- config

def test_load_config(workspace):
    config = load_config(workspace["config"])
    assert config.k == 4 and config.folds == 3 and config.seed == 17
    assert len(config.embeddings) == 2
    assert config.analyses == ("corr", "anova", "ancova", "pca", "zero_shot")


def test_config_validation(tmp_path):
    with pytest.raises(ValueError, match="seed is required for mode 'search'"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, corpus=(tmp_path,),
                  languages=tmp_path / "l.tsv", analyses=("search",))
    with pytest.raises(ValueError, match="language table"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, analyses=("corr",))
    with pytest.raises(ValueError, match="corpus"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, languages=tmp_path / "l.tsv",
                  analyses=("corr",))
    with pytest.raises(ValueError, match="k must be"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, k=0)
    with pytest.raises(ValueError, match="gh_max_points must be >= 1"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, gh_max_points=0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, workers=0)
    with pytest.raises(ValueError, match="folds must be >= 2, got 1"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, folds=1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, seed=-1)
    with pytest.raises(ValueError, match="zero_shot analysis requires a language table"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, analyses=("zero_shot",))
    with pytest.raises(ValueError, match="unknown analyses"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, analyses=("tsne",))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("out = results\nmystery = 1\nembeddings = e\n")
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(cfg)
    cfg.write_text("embeddings = e\n")
    with pytest.raises(ValueError, match="missing 'out'"):
        load_config(cfg)
    cfg.write_text("out = results\n")
    with pytest.raises(ValueError, match="missing 'embeddings'"):
        load_config(cfg)
    with pytest.raises(ValueError, match="char_doc must be one of"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, char_doc="matthew")  # no corpus
    with pytest.raises(ValueError, match="token_doc must be one of"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path, corpus=(tmp_path / "matthew",),
                  token_doc="john")
    with pytest.raises(ValueError, match="distinct names"):
        RunConfig(embeddings=(tmp_path,), out=tmp_path,
                  corpus=(tmp_path / "a" / "matthew", tmp_path / "b" / "matthew"))


def test_readme_config_example_loads(tmp_path):
    """The README's run-config example is a config load_config accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    config = tmp_path / "run.cfg"
    config.write_text(blocks[0], encoding="utf-8")
    assert load_config(config) == RunConfig(
        embeddings=(tmp_path / "emb/matthew", tmp_path / "emb/john"),
        corpus=(tmp_path / "texts/matthew", tmp_path / "texts/john"),
        languages=tmp_path / "languages.tsv", k=4, gh_max_points=500, folds=10, seed=17,
        analyses=("corr", "search", "ablate", "anova", "ancova", "pca", "pcr", "zero_shot"),
        workers=4, out=tmp_path / "results",
    )


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    """The README's Library use block runs as written, on two saved matrices."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    rng = np.random.default_rng(3)
    deu = rng.standard_normal((12, 8))
    eng = deu + 0.1 * rng.standard_normal(deu.shape)
    xa.save_embeddings(xa.EmbeddingMatrix("deu", deu), tmp_path / "deu.xemb")
    xa.save_embeddings(xa.EmbeddingMatrix("eng", eng), tmp_path / "eng.xemb")
    monkeypatch.chdir(tmp_path)
    exec(blocks[0], {})
    printed = [float(value) for value in capsys.readouterr().out.split()]
    assert len(printed) == 5 and all(np.isfinite(printed))


def test_readme_cli_lines_parse():
    """Each ``xlalign`` line of the README's CLI block is a command line the
    parser accepts, and the block shows every subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## CLI\n\n```bash\n(.*?)```", readme, flags=re.S)
    commands = [line.split("#")[0].split()[1:] for line in block.splitlines()
                if line.startswith("xlalign ")]
    for argv in commands:
        _build_parser().parse_args(argv)  # exits on a line it refuses
    assert sorted(argv[0] for argv in commands) == sorted(_COMMANDS)


def test_public_names_are_frozen():
    """An export change shows up as a change of this list."""
    public = sorted(name for name, value in vars(xa).items()
                    if not name.startswith("_") and not isinstance(value, type(xa)))
    assert public == [
        "AlignmentMetrics", "AnovaResult", "BitextPair", "Corpus", "EmbeddingMatrix",
        "FEATURE_NAMES", "LanguageMeta", "METRIC_NAMES", "MinedAlignment", "NeighborList",
        "PairFeatureVector", "PersistenceDiagram", "RetrievalScore", "RunConfig",
        "SingularSpectrum", "WordOrder", "ablation_single_step", "adjusted_r2", "align_pair",
        "ancova", "anova_oneway", "average_margin", "bottleneck_distance", "compute_pair_metrics",
        "cosine", "econd_hm", "effective_condition_number", "effective_rank",
        "feature_search_report", "gh_distance", "group_metrics_by_word_order_class", "knn_search",
        "load_config", "load_corpus", "load_embeddings", "load_language_table",
        "mine_intersection", "pair_features", "pca", "pcr", "pearson",
        "per_language_metrics", "persistence_diagram_0d", "retrieval_f1", "run_case_study_compare",
        "run_pair_metrics", "run_report", "run_zero_shot_analysis", "save_embeddings",
        "semipartial", "singular_values", "svg", "training_aggregates", "tukey_hsd",
        "typological_distance",
    ]


# the text matrix reader has its own case in tests/test_text_matrix.py
_TEXT_READERS = {
    "config": ("run.cfg", "embeddings = e\nout = results\n", load_config),
    "language-table": (
        "langs.tsv",
        "lang\tfamily\tsubfamily\tword_order\tpolysynthetic\ttrain_sentences\n"
        "deu\tIE\tGermanic\tSOV\tfalse\t120000\n",
        xa.load_language_table,
    ),
    "metrics-csv": ("m.csv", "lang_a,lang_b," + ",".join(METRIC_NAMES) + "\ndeu,eng,0.5,1,1,2,0.5\n",
                    read_metrics_csv),
    "corpus": ("deu.tsv", "100001\tein satz\n", lambda path: xa.load_corpus(path.parent).documents),
}


@pytest.mark.parametrize("reader", list(_TEXT_READERS))
def test_text_readers_ignore_a_leading_byte_order_mark(tmp_path, reader):
    """A UTF-8 byte-order mark used to become part of the first key, cell,
    value or verse id; each file reads as it does without one."""
    name, text, read = _TEXT_READERS[reader]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    plain = read(path)
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(path) == plain


def test_config_parses_each_key_by_its_field(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("embeddings = e1, e2,\nout = .\nlanguages = l.tsv\nseed = 3\nworkers = 2\n"
                   "corpus = t/matthew\nchar_doc = matthew\nanalyses = corr , anova\n")
    assert load_config(cfg) == RunConfig(
        embeddings=(tmp_path / "e1", tmp_path / "e2"), out=tmp_path, languages=tmp_path / "l.tsv",
        seed=3, workers=2, corpus=(tmp_path / "t" / "matthew",), char_doc="matthew",
        analyses=("corr", "anova"),
    )
    cfg.write_text("embeddings = e\nout = results\nlanguages = \n")  # an empty path is unset
    assert load_config(cfg) == RunConfig(embeddings=(tmp_path / "e",), out=tmp_path / "results")
    # so an empty out is a missing one; it used to name the config file's directory
    cfg.write_text("embeddings = e\nout = \n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}: missing 'out'$"):
        load_config(cfg)


def test_config_refuses_corpus_directories_with_one_name(workspace):
    """Corpora are named after their directories, so two directories with
    one name leave char_doc/token_doc ambiguous: a lookup by name would take
    the features from the last of them."""
    root = workspace["root"]
    shutil.copytree(root / "texts" / "john", root / "other" / "matthew")
    config = workspace["config"]
    config.write_text(config.read_text().replace(
        "corpus = texts/matthew, texts/john", "corpus = texts/matthew, other/matthew"))
    with pytest.raises(ValueError, match="distinct names"):
        load_config(config)


def test_report_loads_only_the_chosen_corpora(workspace, monkeypatch):
    root, config = workspace["root"], workspace["config"]
    assert main(["report", "--config", str(config)]) == 0
    expected = (root / "results" / "features.csv").read_bytes()
    # a third, missing directory: with token_doc set it is never read
    config.write_text(config.read_text().replace(
        "corpus = texts/matthew, texts/john",
        "corpus = texts/matthew, texts/john, emb/nothing\nchar_doc = matthew\ntoken_doc = john"))
    loads = _CallCounter(pipeline.load_corpus)
    monkeypatch.setattr(pipeline, "load_corpus", loads)
    assert main(["report", "--config", str(config)]) == 0
    assert loads.calls == 2
    assert (root / "results" / "features.csv").read_bytes() == expected


def _corpus_dir(path: Path) -> None:
    path.mkdir(parents=True)
    (path / "deu.tsv").write_text("MAT_1\tIm Anfang\nMAT_2\twar das Wort\n", encoding="utf-8")
    (path / "eng.tsv").write_text("MAT_1\tIn the beginning\nMAT_2\twas the Word\n", encoding="utf-8")


@pytest.mark.parametrize("spelling", ["t/matthew/", "t/../t/matthew", "./t/matthew", "link"])
def test_overlap_texts_reads_a_directory_once_however_spelled(tmp_path, monkeypatch, spelling):
    monkeypatch.chdir(tmp_path)
    _corpus_dir(tmp_path / "t" / "matthew")
    (tmp_path / "link").symlink_to(tmp_path / "t" / "matthew", target_is_directory=True)
    loads = _CallCounter(pipeline.load_corpus)
    monkeypatch.setattr(pipeline, "load_corpus", loads)
    char_texts, token_texts = pipeline._overlap_texts("t/matthew", spelling)
    assert loads.calls == 1
    assert char_texts is token_texts
    assert char_texts == pipeline.corpus_texts(xa.load_corpus(tmp_path / "t" / "matthew"))
    # two directories are two reads, and an unset one is None
    _corpus_dir(tmp_path / "t" / "john")
    assert pipeline._overlap_texts("t/john", spelling)[0] is not char_texts
    assert loads.calls == 3
    assert pipeline._overlap_texts(None, spelling) == (None, char_texts)


# ------------------------------------------------------------------- metrics

def test_compute_pair_metrics_identical_pair():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((25, 8))
    a = xa.EmbeddingMatrix("a", data)
    b = xa.EmbeddingMatrix("b", data.copy())
    metrics = compute_pair_metrics(a, b, k=4, gh_max_points=25)
    assert metrics.f1 == 1.0
    assert metrics.svg == 0.0
    assert metrics.gh == 0.0
    assert metrics.econd_hm >= 1.0


def test_alignment_metrics_invariants():
    with pytest.raises(ValueError, match="f1"):
        AlignmentMetrics(f1=1.5, avg_margin=1.0, svg=0.0, econd_hm=1.0, gh=0.0)
    with pytest.raises(ValueError, match="econd"):
        AlignmentMetrics(f1=0.5, avg_margin=1.0, svg=0.0, econd_hm=0.5, gh=0.0)


@pytest.mark.parametrize("name", METRIC_NAMES)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_alignment_metrics_reject_non_finite_values(name, value):
    fields = {**synthetic_metrics().as_dict(), name: value}
    with pytest.raises(ValueError, match=re.escape(f"{name} is not finite: {value}")):
        AlignmentMetrics(**fields)


@pytest.mark.parametrize("column, cell, message", [
    ("svg", "nan", "svg is not finite: nan"),
    ("svg", "-0.5", "svg and gh must be non-negative"),
    ("gh", "-0.5", "svg and gh must be non-negative"),
])
def test_cli_analyze_names_a_bad_metric_and_writes_no_json(
    analysis_csvs, tmp_path, capsys, column, cell, message
):
    lines = (analysis_csvs / "metrics.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[2 + METRIC_NAMES.index(column)] = cell
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("\n".join([*lines[:3], ",".join(cells), *lines[4:]]) + "\n")
    out = tmp_path / "corr.json"
    assert main(["analyze", "--features", str(analysis_csvs / "features.csv"),
                 "--metrics", str(metrics), "--mode", "corr", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"xlalign: error: {metrics}:4: {cells[0]},{cells[1]}: {message}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_cli_analyze_names_a_non_finite_feature_and_writes_no_json(
    analysis_csvs, tmp_path, capsys, cell
):
    lines = (analysis_csvs / "features.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[2 + xa.FEATURE_NAMES.index("char_overlap")] = cell
    features = tmp_path / "features.csv"
    features.write_text("\n".join([*lines[:3], ",".join(cells), *lines[4:]]) + "\n")
    out = tmp_path / "corr.json"
    assert main(["analyze", "--features", str(features),
                 "--metrics", str(analysis_csvs / "metrics.csv"), "--mode", "corr",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"xlalign: error: {features}:4: {cells[0]},{cells[1]}: char_overlap is not finite:"
        f" {float(cell)}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--mode", "ablate", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["--mode", "corr", "--folds", "1"], "folds must be >= 2, got 1"),
    (["--mode", "search"], "seed is required for mode 'search'"),
])
def test_cli_analyze_refuses_a_bad_seed_or_fold_count_before_reading(
    tmp_path, capsys, flags, message
):
    """The bounds and the seed rule RunConfig sets for report. The tables
    named do not exist, so the error is the flag's only if it comes before
    either is opened."""
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--features", str(tmp_path / "features.csv"),
                 "--metrics", str(tmp_path / "metrics.csv"), *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"xlalign: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["anova", "ancova"])
@pytest.mark.parametrize("cell", ["0.5", "2", ""])
def test_cli_analyze_refuses_a_binary_feature_that_is_not_0_or_1(
    analysis_csvs, tmp_path, capsys, mode, cell
):
    """A same_word_order cell of 0.5 used to be a third ANOVA level and a 0
    to ANCOVA, and both modes exited 0."""
    lines = (analysis_csvs / "features.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[2 + xa.FEATURE_NAMES.index("same_word_order")] = cell
    features = tmp_path / "features.csv"
    features.write_text("\n".join([*lines[:3], ",".join(cells), *lines[4:]]) + "\n")
    out = tmp_path / f"{mode}.json"
    assert main(["analyze", "--features", str(features),
                 "--metrics", str(analysis_csvs / "metrics.csv"), "--mode", mode,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"xlalign: error: {features}:4: {cells[0]},{cells[1]}: same_word_order must be 0 or 1\n"
    )
    assert not out.exists()


def test_run_pair_metrics_counts_and_failures(workspace):
    config = load_config(workspace["config"])
    sweep = run_pair_metrics(config)
    assert len(sweep.rows) == 6  # C(4, 2)
    assert not sweep.partial

    # remove one language's file from one document: language skipped, sweep continues
    (workspace["root"] / "emb" / "john" / "fra.xemb").unlink()
    sweep = run_pair_metrics(config)
    assert "fra" in sweep.failed_languages
    assert len(sweep.rows) == 3  # C(3, 2)
    assert sweep.partial

    # corrupt file: same isolation
    (workspace["root"] / "emb" / "john" / "quc.xemb").write_bytes(b"XEMBgarbage")
    sweep = run_pair_metrics(config)
    assert "quc" in sweep.failed_languages
    assert len(sweep.rows) == 1


def test_run_pair_metrics_fails_a_language_with_fewer_than_k_rows(workspace):
    """Each pair of such a language used to fail on its own, with ``k=4 out
    of range [1, 3]``; the language now fails at load, naming the file."""
    path = workspace["root"] / "emb" / "john" / "quc.xemb"
    m = xa.load_embeddings(path)
    xa.save_embeddings(xa.EmbeddingMatrix("quc", m.data[:3], m.ids[:3]), path)
    sweep = run_pair_metrics(load_config(workspace["config"]))
    assert sweep.failed_languages == {"quc": f"{path}: 3 rows, fewer than k = 4"}
    assert sweep.failed_pairs == {}
    assert sorted(sweep.rows) == [("deu", "eng"), ("deu", "fra"), ("eng", "fra")]


def test_load_stage_keeps_no_matrix_of_a_language_that_fails(workspace):
    """A language whose second document fails to load leaves no matrix of
    its first document behind."""
    (workspace["root"] / "emb" / "john" / "quc.xemb").write_bytes(b"XEMBgarbage")
    config = load_config(workspace["config"])
    result, loaded = pipeline._load_sweep_languages(
        config, [pipeline._embedding_files(d) for d in config.embeddings])
    assert list(result.failed_languages) == ["quc"]
    assert list(loaded) == ["deu", "eng", "fra"]
    assert all(len(matrices) == 2 for matrices in loaded.values())


def test_run_pair_metrics_skips_csv_breaking_language_codes(workspace, tmp_path):
    config = load_config(workspace["config"])
    for doc in ("matthew", "john"):
        emb = workspace["root"] / "emb" / doc
        shutil.copy(emb / "deu.xemb", emb / "a,b.xemb")
        # a file name that is not valid UTF-8: its code holds a lone surrogate
        shutil.copy(emb / "deu.xemb", emb / os.fsdecode(b"x\xff.xemb"))
    sweep = run_pair_metrics(config)
    assert "'a,b'" in sweep.failed_languages["a,b"]
    assert "cannot be encoded as UTF-8" in sweep.failed_languages["x\udcff"]
    assert len(sweep.rows) == 6  # the four valid languages
    write_metrics_csv(sweep.rows, tmp_path / "m.csv")
    assert set(read_metrics_csv(tmp_path / "m.csv")) == set(sweep.rows)


def test_run_pair_metrics_parallel_matches_serial(workspace):
    config = load_config(workspace["config"])
    serial = run_pair_metrics(config)
    parallel = run_pair_metrics(
        RunConfig(**{**config.__dict__, "workers": 4})
    )
    assert serial.rows == parallel.rows


def test_run_pair_metrics_rejects_underflowing_rows_at_load(workspace):
    # every entry is nonzero, but the row's norm underflows to 0
    for doc in ("matthew", "john"):
        ref = xa.load_embeddings(workspace["root"] / "emb" / doc / "deu.xemb")
        lines = [" ".join(["#id:" + vid] + [repr(v) for v in row])
                 for vid, row in zip(ref.ids, ref.data.tolist())]
        lines[3] = " ".join(["#id:" + ref.ids[3]] + ["1e-170"] * ref.dim)
        (workspace["root"] / "emb" / doc / "tiny.txt").write_text("\n".join(lines) + "\n")
    sweep = run_pair_metrics(load_config(workspace["config"]))
    assert list(sweep.failed_languages) == ["tiny"]
    assert "'tiny'" in sweep.failed_languages["tiny"]
    assert str(workspace["root"] / "emb" / "matthew" / "tiny.txt") in sweep.failed_languages["tiny"]
    assert sweep.failed_pairs == {}
    assert len(sweep.rows) == 6  # the four valid languages


class _CallCounter:
    """Counts calls of a function, from any thread, while passing them through."""

    def __init__(self, func):
        self.func = func
        self.calls = 0
        self.lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self.lock:
            self.calls += 1
        return self.func(*args, **kwargs)


def _count_isometry_calls(monkeypatch) -> tuple[_CallCounter, _CallCounter]:
    svd = _CallCounter(np.linalg.svd)
    diagram = _CallCounter(pipeline.iso.persistence_diagram_0d)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(pipeline.iso, "persistence_diagram_0d", diagram)
    return svd, diagram


def test_run_pair_metrics_isolates_a_failing_language_spectrum(workspace, monkeypatch):
    singular_values = pipeline.iso.singular_values
    attempts = []

    def failing(m):
        if m.lang == "quc":
            attempts.append(m.lang)
            raise np.linalg.LinAlgError("SVD did not converge")
        return singular_values(m)

    monkeypatch.setattr(pipeline.iso, "singular_values", failing)
    config = load_config(workspace["config"])
    for workers in (1, 2):
        attempts.clear()
        sweep = run_pair_metrics(dataclasses.replace(config, workers=workers))
        # quc's whole matrix is every pair's quc side: its first document is
        # attempted once, and its three pairs all fail with that error
        assert len(attempts) == 1
        assert sweep.failed_pairs == {
            pair: "SVD did not converge" for pair in [("deu", "quc"), ("eng", "quc"), ("fra", "quc")]
        }
        assert len(sweep.rows) == 3


def test_run_pair_metrics_runs_pairs_in_the_pool_at_one_worker(workspace, monkeypatch):
    """One schedule at every worker count: with ``workers = 1`` the pairs run
    on the pool's thread, not on the calling one."""
    pair_metrics = pipeline._pair_metrics
    threads = []

    def recording(*args):
        threads.append(threading.current_thread())
        return pair_metrics(*args)

    monkeypatch.setattr(pipeline, "_pair_metrics", recording)
    config = dataclasses.replace(load_config(workspace["config"]), workers=1)
    assert not run_pair_metrics(config).partial
    assert threads and threading.main_thread() not in threads


def _mixed_coverage_workspace(root: Path) -> RunConfig:
    """Two documents, four languages: two with every verse, one with a strict
    subset of them, and one that lacks verses and has verses nobody else has."""
    rng = np.random.default_rng(3)
    verses = [f"V{i:03d}" for i in range(30)]
    coverage = {
        "full1": verses,
        "full2": verses,
        "part": [v for i, v in enumerate(verses) if i not in (12, 17, 22)],
        # its own verses sort first, so none of its rows line up with a prefix
        "ragged": ["A000", "A001"] + [v for i, v in enumerate(verses) if i not in (1, 3)],
    }
    dirs = []
    for doc in ("matthew", "john"):
        base = dict(zip(["A000", "A001"] + verses, rng.standard_normal((32, 6))))
        emb = root / doc
        emb.mkdir(parents=True)
        for lang, ids in coverage.items():
            data = np.array([base[v] for v in ids]) + 0.1 * rng.standard_normal((len(ids), 6))
            xa.save_embeddings(xa.EmbeddingMatrix(lang, data, tuple(ids)), emb / f"{lang}.xemb")
        dirs.append(emb)
    return RunConfig(embeddings=tuple(dirs), out=root / "out", k=3, gh_max_points=10)


def _public_path_rows(config: RunConfig) -> dict[tuple[str, str], AlignmentMetrics]:
    """Every pair's per-document mean of public ``compute_pair_metrics`` calls."""
    mats = {
        (d, path.stem): xa.load_embeddings(path)
        for d, directory in enumerate(config.embeddings)
        for path in sorted(directory.glob("*.xemb"))
    }
    docs = range(len(config.embeddings))
    return {
        (a, b): AlignmentMetrics(**pipeline._metric_means(
            compute_pair_metrics(mats[(d, a)], mats[(d, b)], config.k, config.gh_max_points)
            for d in docs
        ))
        for a, b in itertools.combinations(sorted({lang for _, lang in mats}), 2)
    }


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_run_pair_metrics_matches_public_pair_metrics(tmp_path, monkeypatch, workers):
    config = dataclasses.replace(_mixed_coverage_workspace(tmp_path), workers=workers)
    expected = _public_path_rows(config)
    svd, diagram = _count_isometry_calls(monkeypatch)
    sweep = run_pair_metrics(config)
    assert not sweep.partial
    assert sweep.rows == expected
    # per document, one whole-matrix entry each for full1, full2 and part,
    # and 8 sides from their own gold rows (the public path takes 12)
    assert (svd.calls, diagram.calls) == (2 * 11, 2 * 11)


def test_run_pair_metrics_bypasses_a_permuted_language(tmp_path, monkeypatch):
    config = _mixed_coverage_workspace(tmp_path)
    # full1's verses in another file order: the partners have all of them,
    # but its gold rows are not its rows in order, so it never reuses
    rng = np.random.default_rng(5)
    for directory in config.embeddings:
        full = xa.load_embeddings(directory / "full1.xemb")
        order = rng.permutation(full.n_rows)
        data = full.data[order] + 0.1 * rng.standard_normal(full.data.shape)
        ids = tuple(full.ids[i] for i in order)
        xa.save_embeddings(xa.EmbeddingMatrix("perm", data, ids), directory / "perm.xemb")
    expected = _public_path_rows(config)
    svd, diagram = _count_isometry_calls(monkeypatch)
    sweep = run_pair_metrics(config)
    assert not sweep.partial
    assert sweep.rows == expected
    # per document, one whole-matrix entry each for full1, full2 and part,
    # and 13 sides of the ten pairs from their own gold rows: every perm side
    # among them
    assert (svd.calls, diagram.calls) == (2 * 16, 2 * 16)


def test_run_pair_metrics_decomposes_once_per_language(workspace, monkeypatch):
    svd, diagram = _count_isometry_calls(monkeypatch)
    sweep = run_pair_metrics(load_config(workspace["config"]))
    assert len(sweep.rows) == 6
    assert (svd.calls, diagram.calls) == (8, 8)  # 4 languages x 2 documents


def test_run_pair_metrics_aligns_each_pair_document_once(workspace, monkeypatch):
    align = _CallCounter(pipeline.align_pair)
    monkeypatch.setattr(pipeline, "align_pair", align)
    sweep = run_pair_metrics(dataclasses.replace(load_config(workspace["config"]), workers=2))
    assert len(sweep.rows) == 6
    assert align.calls == 6 * 2  # pairs x documents


def test_metrics_csv_round_trip(tmp_path):
    rows = {
        ("deu", "eng"): synthetic_metrics(0.25),
        ("deu", "fra"): synthetic_metrics(0.75),
    }
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, path)
    assert read_metrics_csv(path) == rows
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError, match="header"):
        read_metrics_csv(bad)


@pytest.mark.parametrize("code", ["a,b", "a\nb", "a\r", "a\u2028b", "a\udcff"])
def test_csv_writers_reject_csv_breaking_language_codes(tmp_path, code):
    message = re.escape(f"language code {code!r}")
    with pytest.raises(ValueError, match=message):
        write_metrics_csv({("deu", code): synthetic_metrics()}, tmp_path / "m.csv")
    table = {
        lang: LanguageMeta(lang=lang, family="F", subfamily="S", train_sentences=1)
        for lang in ("deu", code)
    }
    with pytest.raises(ValueError, match=message):
        write_features_csv(build_pair_feature_table(table), tmp_path / "f.csv")
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("pairs, message", [
    ([("deu", "eng"), ("fra", "fra")], "fra,fra: a language paired with itself"),
    ([("eng", "deu"), ("deu", "fra"), ("deu", "eng")], "deu,eng: pair given in both orders"),
], ids=["self-pair", "both-orders"])
def test_csv_writers_refuse_a_pair_the_readers_refuse(tmp_path, pairs, message):
    """The writers used to write these tables, which their readers refuse."""
    table = {
        lang: LanguageMeta(lang=lang, family="F", subfamily="S", train_sentences=1)
        for lang in ("deu", "eng")
    }
    vector = build_pair_feature_table(table)[("deu", "eng")]
    for write, record in ((write_metrics_csv, synthetic_metrics()),
                          (write_features_csv, vector)):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError) as info:
            write(dict.fromkeys(pairs, record), path)
        assert str(info.value) == message
        assert not path.exists()


def test_features_csv_round_trip(tmp_path):
    table = {
        "a": LanguageMeta(lang="a", family="F", subfamily="S", word_order=WordOrder.SVO,
                          train_sentences=10),
        "b": LanguageMeta(lang="b", family="F", subfamily="S", word_order=WordOrder.SOV,
                          train_sentences=5),
    }
    rows = build_pair_feature_table(table)
    path = tmp_path / "f.csv"
    write_features_csv(rows, path)
    back = read_features_csv(path)
    vector = back[("a", "b")]
    assert vector["combined_sentences"] == 15.0
    assert vector["token_overlap"] is None  # no texts supplied
    assert vector["same_family"] == 1.0


# Every character str.splitlines splits on, written out here rather than
# taken from the writer, so the property checks the writer's rule.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_CODES = st.text(st.sampled_from(",ab" + _LINE_BREAKS) | st.characters(), max_size=3)
_METRICS = st.builds(
    AlignmentMetrics, f1=st.floats(0, 1),
    avg_margin=st.floats(allow_nan=False, allow_infinity=False),
    svg=st.floats(0, 1e300), econd_hm=st.floats(1, 1e300), gh=st.floats(0, 1e300),
)


@st.composite
def _feature_vectors(draw):
    in_family = draw(st.integers(0, 10**12))
    binary = {name: draw(st.integers(0, 1)) for name in pipeline.ANOVA_FACTORS}
    fractions = {
        name: draw(st.none() | st.floats(0, 1)) for name in ("token_overlap", "char_overlap")
    }
    distances = {
        name: draw(st.none() | st.floats(0, 2))
        for name in ("syntactic_dist", "phonological_dist", "inventory_dist", "geographic_dist")
    }
    return xa.PairFeatureVector(
        combined_sentences=draw(st.integers(0, 10**12)), combined_in_family=in_family,
        combined_in_subfamily=draw(st.integers(0, in_family)), **binary, **fractions, **distances,
    )


def _encodes(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _round_trip(write, read, rows):
    """The rows read back, or None after checking that the writer refused a
    language code with a comma, a line break or a lone surrogate, a language
    paired with itself or a pair given in both orders, and wrote no file.
    Every table the writer accepts reads back."""
    codes = [code for pair in rows for code in pair]
    breaks = any(set(code) & set("," + _LINE_BREAKS) or not _encodes(code) for code in codes)
    repeats = len({frozenset(pair) for pair in rows if len(set(pair)) == 2}) < len(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        if breaks or repeats:
            with pytest.raises(ValueError, match="contains a comma or line break|cannot be "
                               "encoded as UTF-8|paired with itself|given in both orders"):
                write(rows, path)
            assert not path.exists()
            return None
        write(rows, path)
        return read(path)


def _as_written(rows):
    """Each row's values as the CSVs hold them: floats at 12 significant
    digits, integers exactly, a missing value as None."""
    def cell(value):
        if value is None:
            return None
        return float(f"{value:.12g}") if isinstance(value, float) else float(value)
    return {pair: {name: cell(v) for name, v in r.as_dict().items()} for pair, r in rows.items()}


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.tuples(_CODES, _CODES), _METRICS, max_size=4))
def test_metrics_csv_round_trip_property(rows):
    read = _round_trip(write_metrics_csv, read_metrics_csv, rows)
    if read is not None:
        assert {pair: m.as_dict() for pair, m in read.items()} == _as_written(rows)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.tuples(_CODES, _CODES), _feature_vectors(), max_size=4))
def test_features_csv_round_trip_property(rows):
    read = _round_trip(write_features_csv, read_features_csv, rows)
    if read is not None:
        assert read == _as_written(rows)


# ------------------------------------------------------------------ analyses

@pytest.fixture(scope="module")
def analysis_dataset():
    rng = np.random.default_rng(77)
    langs = [f"l{i:02d}" for i in range(10)]
    table = {}
    for i, lang in enumerate(langs):
        table[lang] = LanguageMeta(
            lang=lang,
            family=f"F{i % 3}",
            subfamily=f"S{i % 2}",
            word_order=WordOrder.SVO if i % 2 else WordOrder.VSO,
            polysynthetic=(i % 4 == 0),
            train_sentences=int(rng.integers(0, 1000)),
            typo_vectors={
                "syntax": rng.uniform(size=3),
                "phonology": rng.uniform(size=3),
                "inventory": rng.uniform(size=3),
                "geography": rng.uniform(size=2),
            },
        )
    texts = {lang: f"{lang} word{i % 3} shared text" for i, lang in enumerate(langs)}
    vectors = build_pair_feature_table(table, texts, texts)
    features_map = {pair: vec.as_dict() for pair, vec in vectors.items()}
    metrics_map = {}
    for pair, vec in features_map.items():
        signal = 1e-6 * vec["combined_sentences"] + 0.2 * vec["same_word_order"]
        noise = 0.05 * rng.standard_normal()
        f1 = float(np.clip(0.3 + signal + noise, 0.0, 1.0))
        metrics_map[pair] = AlignmentMetrics(
            f1=f1,
            avg_margin=1.0 + signal + noise,
            svg=max(2.0 - signal + noise, 0.0),
            econd_hm=max(3.0 - signal, 1.0),
            gh=max(0.5 - signal + 0.01 * rng.standard_normal(), 0.0),
        )
    return make_analysis_dataset(features_map, metrics_map), table, metrics_map, features_map, vectors


def _validate(report, mode):
    jsonschema.validate(report, REPORT_SCHEMAS[mode])
    # reports must be strict JSON end to end
    json.loads(json.dumps(report, allow_nan=False))


def test_analyze_corr(analysis_dataset):
    dataset, *_ = analysis_dataset
    report = analyze_corr(dataset)
    _validate(report, "corr")
    assert set(report["pearson"]) == set(METRIC_NAMES)
    assert set(report["pearson"]["f1"]) == set(xa.FEATURE_NAMES)
    r = report["pearson"]["f1"]["same_word_order"]
    assert r is not None and r > 0  # planted positive association


def test_analyze_search_and_ablate(analysis_dataset, monkeypatch):
    dataset, *_ = analysis_dataset
    scored = count_scored_models(monkeypatch)
    report = analyze_search(dataset, folds=3, seed=5)
    _validate(report, "search")
    assert report["n_models_per_dv"] == 8191
    # one pass scores each subset once, for every dependent variable at once
    assert len(scored) == report["n_models_per_dv"]
    assert set(report["tallies"]) == set(xa.FEATURE_NAMES)

    scored.clear()
    ablate = analyze_ablate(dataset, folds=3, seed=5)
    _validate(ablate, "ablate")
    # the full model and the 13 leave-one-out models, each scored once for every metric
    assert len(scored) == 14
    assert len(ablate["ranking"]) == 13
    for metric in METRIC_NAMES:
        assert sorted(ablate["per_dv"][metric]["rank"].values()) == list(range(1, 14))


def test_analyze_ablate_and_pcr_match_the_per_metric_loop(analysis_dataset, monkeypatch):
    """One engine for every metric against the loop it replaced, which built
    an engine (and for pcr a PCA) per metric: the ranks, the ranking and the
    best component counts agree exactly, and every float within 1e-14."""
    dataset, *_ = analysis_dataset
    settings = [(folds, seed) for folds in (3, 5) for seed in (5, 6, 7)]
    ours = [[analyze_ablate(dataset, *s), analyze_pcr(dataset, *s)] for s in settings]
    monkeypatch.setattr(stats, "ablation_single_step", per_metric_ablation)
    monkeypatch.setattr(stats, "pcr", per_metric_pcr)
    reference = [[analyze_ablate(dataset, *s), analyze_pcr(dataset, *s)] for s in settings]
    assert_close_json(ours, reference, 1e-14)


def test_analyze_search_reports_skipped_subsets(analysis_dataset):
    dataset, *_ = analysis_dataset
    X = dataset.X.copy()
    X[:, 1] = X[:, 0]  # every subset holding both columns is rank deficient
    report = analyze_search(dataclasses.replace(dataset, X=X), folds=3, seed=5)
    _validate(report, "search")
    assert set(report["per_dv"]) == set(METRIC_NAMES)
    for entry in report["per_dv"].values():
        assert entry["n_skipped"] > 0
        assert not set(xa.FEATURE_NAMES[:2]) <= set(entry["best_features"])


def test_analyze_ablate_with_a_constant_feature(analysis_dataset):
    dataset, *_ = analysis_dataset
    X = dataset.X.copy()
    X[:, xa.FEATURE_NAMES.index("same_family")] = 1.0  # every pair in one family
    ablate = analyze_ablate(dataclasses.replace(dataset, X=X), folds=3, seed=5)
    _validate(ablate, "ablate")
    for metric in METRIC_NAMES:
        assert sorted(ablate["per_dv"][metric]["rank"].values()) == list(range(1, 14))


def test_analyze_anova_ancova(analysis_dataset):
    dataset, *_ = analysis_dataset
    report = analyze_anova(dataset)
    _validate(report, "anova")
    entry = report["factors"]["same_word_order"]["f1"]
    jsonschema.validate(entry, REPORT_SCHEMAS["anova_entry"])
    assert set(entry["group_means"]) == {"0", "1"}
    assert entry["p_value"] < 0.05  # planted word-order effect

    ancova_report = analyze_ancova(dataset)
    _validate(ancova_report, "ancova")
    assert list(ancova_report["covariates"]) == list(pipeline.ANCOVA_COVARIATES)
    entry = ancova_report["factors"]["same_word_order"]["f1"]
    assert entry["p_value"] < 0.05  # effect survives covariate adjustment


def test_analyze_pca_pcr(analysis_dataset):
    dataset, *_ = analysis_dataset
    report = analyze_pca(dataset)
    _validate(report, "pca")
    n_comp = len(report["explained_variance_ratio"])
    for name, loads in report["loadings"].items():
        assert len(loads) == n_comp
    assert sum(report["explained_variance_ratio"]) == pytest.approx(1.0, abs=1e-9)

    pcr_report = analyze_pcr(dataset, folds=3, seed=5)
    _validate(pcr_report, "pcr")
    for metric in METRIC_NAMES:
        best = pcr_report["per_dv"][metric]["best_components"]
        assert 1 <= best <= n_comp


def test_analyze_pca_pcr_refuse_too_few_varying_features(analysis_dataset):
    dataset, *_ = analysis_dataset
    one_varies = dataset.X.copy()
    one_varies[:, 1:] = 1.0
    with pytest.raises(ValueError, match="fewer than two varying features"):
        analyze_pca(dataclasses.replace(dataset, X=one_varies))
    assert analyze_pcr(dataclasses.replace(dataset, X=one_varies), folds=3, seed=5)[
        "constant_features"] == list(xa.FEATURE_NAMES[1:])
    with pytest.raises(ValueError, match="no varying features"):
        analyze_pcr(dataclasses.replace(dataset, X=np.ones_like(dataset.X)), folds=3, seed=5)


def test_make_analysis_dataset_drops_incomplete():
    features_map = {
        ("a", "b"): dict.fromkeys(xa.FEATURE_NAMES, 1.0),
        ("a", "c"): {**dict.fromkeys(xa.FEATURE_NAMES, 1.0), "syntactic_dist": None},
    }
    metrics_map = {("a", "b"): synthetic_metrics(0.25), ("a", "c"): synthetic_metrics(0.5),
                   ("b", "c"): synthetic_metrics(0.75)}
    dataset = make_analysis_dataset(features_map, metrics_map)
    assert dataset.n_common == 2
    assert dataset.n_used == 1
    assert dataset.n_dropped == 1
    assert (dataset.n_metrics_only, dataset.n_features_only) == (1, 0)  # ("b", "c")
    # the one kept row is ("a", "b")'s
    assert dataset.X.shape == (1, len(xa.FEATURE_NAMES))
    assert dataset.dvs["f1"].tolist() == [0.25]

    with pytest.raises(ValueError, match="no pairs shared between features and metrics"):
        make_analysis_dataset(features_map, {("b", "c"): synthetic_metrics()})
    # an empty table is named, the metrics table first
    for features, metrics in (({}, {}), (features_map, {})):
        with pytest.raises(ValueError, match="^the metrics table has no pairs$"):
            make_analysis_dataset(features, metrics)
    with pytest.raises(ValueError, match="^the features table has no pairs$"):
        make_analysis_dataset({}, metrics_map)
    with pytest.raises(ValueError, match="every pair has at least one missing feature"):
        make_analysis_dataset({("a", "c"): features_map[("a", "c")]}, metrics_map)


@pytest.mark.parametrize("mode, folds, seed, message", [
    ("corr", 1, None, "folds must be >= 2, got 1"),
    ("anova", 3, -1, "seed must be >= 0, got -1"),
    ("pcr", 3, None, "seed is required for mode 'pcr'"),
])
def test_run_analysis_refuses_what_report_and_analyze_refuse(
    analysis_dataset, mode, folds, seed, message
):
    """One rule and one message for every mode, whichever entry point runs it."""
    dataset, *_ = analysis_dataset
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pipeline.run_analysis(mode, dataset, folds, seed)


# ----------------------------------------------------------------- zero-shot

def test_zero_shot_all_trained_skips():
    table = {
        "a": LanguageMeta(lang="a", family="F", subfamily="S", train_sentences=10),
        "b": LanguageMeta(lang="b", family="F", subfamily="S", train_sentences=20),
    }
    report = run_zero_shot_analysis({("a", "b"): synthetic_metrics()}, table)
    _validate(report, "zero_shot")
    assert report["simple"]["skipped"] == "no zero-shot languages"
    assert report["double"]["skipped"] == "no double zero-shot pairs"


def test_zero_shot_partition_sizes():
    langs = ["a", "b", "c", "d", "e"]
    zero = {"a", "b", "c"}
    table = {
        lang: LanguageMeta(lang=lang, family="F", subfamily="S",
                           word_order=WordOrder.SVO if i % 2 else WordOrder.SOV,
                           train_sentences=0 if lang in zero else 100)
        for i, lang in enumerate(langs)
    }
    metrics = {pair: synthetic_metrics() for pair in itertools.combinations(langs, 2)}
    features_map = {pair: dict.fromkeys(xa.FEATURE_NAMES, 1.0) for pair in metrics}
    report = run_zero_shot_analysis(metrics, table, features_map)
    assert report["simple"]["n_languages"] == 3
    assert report["double"]["n_pairs"] == 3  # C(3, 2)
    _validate(report, "zero_shot")


def test_zero_shot_planted_word_order_effect():
    rng = np.random.default_rng(9)
    langs = [f"z{i}" for i in range(10)]
    orders = ["VSO"] * 5 + ["SVO"] * 5
    table = {
        lang: LanguageMeta(lang=lang, family="fam" + order, subfamily="s",
                           word_order=WordOrder(order), train_sentences=0)
        for lang, order in zip(langs, orders)
    }
    rows = {}
    for a, b in itertools.combinations(langs, 2):
        n_vso = (orders[langs.index(a)] == "VSO") + (orders[langs.index(b)] == "VSO")
        f1 = float(np.clip(0.2 + 0.15 * n_vso + 0.01 * rng.standard_normal(), 0.0, 1.0))
        rows[(a, b)] = AlignmentMetrics(f1=f1, avg_margin=1.0, svg=1.0, econd_hm=2.0, gh=0.5)
    report = run_zero_shot_analysis(rows, table)
    entry = report["simple"]["anova"]["word_order"]["f1"]
    assert entry["p_value"] < 0.05
    assert entry["tukey"][0]["p_value"] < 0.05


def test_zero_shot_takes_metrics_unrounded():
    """The group means used to come from each metric rounded to 12
    significant digits, as its ``metrics.csv`` cell holds it."""
    table = {lang: LanguageMeta(lang=lang, family="F", subfamily="S", train_sentences=0)
             for lang in ("a", "b")}
    f1 = 0.1234567890123456
    report = run_zero_shot_analysis({("a", "b"): synthetic_metrics(f1)}, table)
    assert report["simple"]["group_means"]["family"]["F"]["f1"] == f1


# ------------------------------------------------------------------- compare

def test_compare_identity_and_direction():
    rows_a = {("x", "y"): synthetic_metrics(0.3), ("x", "z"): synthetic_metrics(0.4)}
    same = run_case_study_compare(rows_a, rows_a)
    _validate(same, "compare")
    assert all(abs(row["f1"]) == 0.0 for row in same["per_pair_delta"])

    rows_b = {pair: synthetic_metrics(m.f1 + 0.2) for pair, m in rows_a.items()}
    improved = run_case_study_compare(rows_a, rows_b)
    assert improved["mean_delta"]["f1"] == pytest.approx(0.2)

    with pytest.raises(ValueError, match="pair sets differ"):
        run_case_study_compare(rows_a, {("x", "y"): synthetic_metrics()})


def test_cli_compare_refuses_two_tables_with_no_pairs(tmp_path, capsys):
    """A header-only metrics.csv is what report writes when every pair
    fails. Two of them used to give numpy's empty-mean warnings and then a
    JSON error about nan."""
    empty = tmp_path / "metrics.csv"
    write_metrics_csv({}, empty)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--a", str(empty), "--b", str(empty), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "xlalign: error: no pairs to compare: both metric tables are empty\n"
    )
    assert not out.exists()


_ORDERS = {"vso": "VSO", "vos": "VOS", "svo": "SVO", "sov": "SOV", "ovs": "OVS", "osv": "OSV",
           "unk": "", "unk2": ""}


@pytest.mark.parametrize("pairs, similar, different", [
    # each class's two orders agree; a pair with an unknown order is left out
    ([("vos", "vso"), ("sov", "svo"), ("osv", "ovs"), ("unk", "vso")], 3, 0),
    # the three classes differ from each other; two unknown orders do not agree
    ([("svo", "vso"), ("ovs", "svo"), ("ovs", "vos"), ("unk", "unk2")], 0, 3),
])
def test_cli_compare_groups_pairs_by_word_order_class(tmp_path, pairs, similar, different):
    languages = conftest.write_language_table(
        tmp_path / "languages.tsv",
        [{"lang": lang, "word_order": order} for lang, order in _ORDERS.items()],
    )
    for name, value in (("a", 0.25), ("b", 0.75)):
        write_metrics_csv({pair: synthetic_metrics(value) for pair in pairs},
                          tmp_path / f"{name}.csv")
    out = tmp_path / "cmp.json"
    assert main(["compare", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                 "--languages", str(languages), "--out", str(out)]) == 0
    groups = json.loads(out.read_text())["word_order_groups"]
    for name, value in (("a", 0.25), ("b", 0.75)):
        assert groups[name]["excluded_pairs"] == 1
        for label, n_pairs in (("similar", similar), ("different", different)):
            means = synthetic_metrics(value).as_dict() if n_pairs else None
            assert groups[name][label] == {"n_pairs": n_pairs, "means": means}


def test_word_order_grouping_counts():
    langs = [f"l{i}" for i in range(12)]
    table = {
        lang: LanguageMeta(lang=lang, family="F", subfamily="S",
                           word_order=WordOrder.VSO if i < 6 else WordOrder.SVO)
        for i, lang in enumerate(langs)
    }
    metrics = {pair: synthetic_metrics() for pair in itertools.combinations(langs, 2)}
    grouped = group_metrics_by_word_order_class(metrics, table)
    assert grouped["similar"]["n_pairs"] == 30
    assert grouped["different"]["n_pairs"] == 36
    assert grouped["excluded_pairs"] == 0


# ----------------------------------------------------------------------- cli

def test_cli_report_and_determinism(workspace, tmp_path):
    code = main(["report", "--config", str(workspace["config"])])
    assert code == 0
    out = workspace["root"] / "results"
    summary = json.loads((out / "run_summary.json").read_text())
    _validate(summary, "summary")
    assert summary["n_pairs"] == 6
    assert "languages_missing_from_table" not in summary  # every language has a row

    for mode in ("corr", "anova", "ancova", "pca", "zero_shot"):
        report = json.loads((out / f"analysis_{mode}.json").read_text())
        _validate(report, mode)

    # second run into a fresh directory: byte-identical artifacts
    second = build_workspace(tmp_path / "again")
    assert main(["report", "--config", str(second["config"])]) == 0
    for name in sorted(p.name for p in out.iterdir()):
        assert (out / name).read_bytes() == (second["root"] / "results" / name).read_bytes()


def _every_analysis_workspace(root: Path) -> dict:
    """The 7-language workspace, large enough for search, ablate and pcr,
    with every analysis selected, zero_shot included."""
    ws = build_workspace(root, langs=(*conftest.WORKSPACE_LANGS, *conftest.EXTRA_LANGS))
    config = ws["config"]
    config.write_text(config.read_text().replace(
        "analyses = corr, anova, ancova, pca, zero_shot",
        "analyses = " + ", ".join([*ANALYSES, "zero_shot"]),
    ))
    return ws


def test_cli_report_is_byte_identical_across_hash_seeds(tmp_path):
    """Separate interpreters with different string hashing write the same
    bytes in every analysis."""
    outputs = []
    for hash_seed in ("1", "2"):
        ws = _every_analysis_workspace(tmp_path / hash_seed)
        config = ws["config"]
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "xlalign", "report", "--config",
                                 str(config)], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        out = ws["root"] / "results"
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    # metrics, features and summary; one JSON per mode; the zero-shot JSON and plot
    assert len(outputs[0]) == 3 + len(ANALYSES) + 2
    assert outputs[0] == outputs[1]


def test_cli_report_writes_what_analyze_and_zero_shot_write_from_its_csvs(tmp_path):
    """Every analysis file of ``report`` is byte-identical to ``analyze`` (same
    folds and seed) and ``zero-shot`` run on ``report``'s own CSVs."""
    config = _every_analysis_workspace(tmp_path / "ws")["config"]
    assert main(["report", "--config", str(config)]) == 0
    cfg = load_config(config)
    out = cfg.out
    csvs = ["--metrics", str(out / "metrics.csv"), "--features", str(out / "features.csv")]
    again = tmp_path / "again"
    again.mkdir()
    for mode in ANALYSES:
        assert main(["analyze", *csvs, "--mode", mode, "--folds", str(cfg.folds),
                     "--seed", str(cfg.seed), "--out", str(again / f"analysis_{mode}.json")]) == 0
    assert main(["zero-shot", *csvs, "--languages", str(cfg.languages),
                 "--out", str(again / "analysis_zero_shot.json"),
                 "--plot-out", str(again / "plot_zero_shot_groups.csv")]) == 0
    written = sorted(p.name for p in again.iterdir())
    assert len(written) == len(ANALYSES) + 2
    for name in written:
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def test_two_group_tukey_skips_the_quadrature(analysis_dataset, workspace, monkeypatch):
    quadrature = _CallCounter(special._normal_range_cdf)
    monkeypatch.setattr(special, "_normal_range_cdf", quadrature)
    dataset, *_ = analysis_dataset
    _validate(analyze_anova(dataset), "anova")
    config = workspace["config"]
    config.write_text(config.read_text().replace(
        "analyses = corr, anova, ancova, pca, zero_shot", "analyses = corr, anova"
    ))
    assert main(["report", "--config", str(config)]) == 0
    assert quadrature.calls == 0


def test_three_zero_shot_word_orders_use_the_quadrature(monkeypatch):
    quadrature = _CallCounter(special._normal_range_cdf)
    monkeypatch.setattr(special, "_normal_range_cdf", quadrature)
    rng = np.random.default_rng(11)
    langs = [f"z{i}" for i in range(9)]
    orders = ["VSO", "SVO", "SOV"] * 3
    table = {
        lang: LanguageMeta(lang=lang, family="F", subfamily="s",
                           word_order=WordOrder(order), train_sentences=0)
        for lang, order in zip(langs, orders)
    }
    rows = {pair: synthetic_metrics(float(rng.uniform(0.1, 0.9)))
            for pair in itertools.combinations(langs, 2)}
    report = run_zero_shot_analysis(rows, table)
    assert len(report["simple"]["anova"]["word_order"]["f1"]["tukey"]) == 3
    assert quadrature.calls >= 1


def test_cli_report_partial_failure_exit_code(workspace):
    (workspace["root"] / "emb" / "john" / "fra.xemb").unlink()
    assert main(["report", "--config", str(workspace["config"])]) == 2
    summary = json.loads((workspace["root"] / "results" / "run_summary.json").read_text())
    assert "fra" in summary["failed_languages"]


def test_cli_report_skips_a_language_with_two_embedding_files(workspace, monkeypatch):
    """With ``fra.txt`` beside ``fra.xemb``, the sweep used to read the
    ``.xemb`` file alone and record nothing."""
    john = workspace["root"] / "emb" / "john"
    xa.save_embeddings(xa.load_embeddings(john / "fra.xemb"), john / "fra.txt")
    seen = []

    def align(ea, eb):
        seen.append((ea.lang, eb.lang))
        return xa.align_pair(ea, eb)

    monkeypatch.setattr(pipeline, "align_pair", align)
    assert main(["report", "--config", str(workspace["config"])]) == 2
    summary = json.loads((workspace["root"] / "results" / "run_summary.json").read_text())
    assert list(summary["failed_languages"]) == ["fra"]
    assert summary["failed_languages"]["fra"] == (
        f"two embedding files: {john / 'fra.txt'} and {john / 'fra.xemb'}"
    )
    assert summary["n_pairs"] == 3 and seen and not any("fra" in pair for pair in seen)


def test_cli_report_refuses_a_repeated_table_column_before_the_sweep(
    workspace, capsys, monkeypatch
):
    """A second ``train_sentences`` column used to be ignored: its 99999
    read back as the first column's count."""
    table = workspace["root"] / "languages.tsv"
    lines = table.read_text().splitlines()
    lines = [lines[0] + "\ttrain_sentences"] + [line + "\t99999" for line in lines[1:]]
    table.write_text("\n".join(lines) + "\n")
    align = _CallCounter(pipeline.align_pair)
    monkeypatch.setattr(pipeline, "align_pair", align)
    assert main(["report", "--config", str(workspace["config"])]) == 1
    results = workspace["root"] / "results"
    summary = json.loads((results / "run_summary.json").read_text())
    assert summary["fatal"] == {
        "stage": "preflight", "mode": None,
        "error": f"{table}: column 'train_sentences' appears more than once",
    }
    assert capsys.readouterr().err == f"xlalign: error: {summary['fatal']['error']}\n"
    assert align.calls == 0 and not (results / "metrics.csv").exists()


def test_cli_report_refuses_a_feature_table_with_no_complete_pair_before_the_sweep(
    workspace, capsys, monkeypatch
):
    """A table without the four typology vectors used to run the whole sweep
    and write both CSVs, then exit 1 at stage ``analysis``."""
    table = workspace["root"] / "languages.tsv"
    table.write_text("".join("\t".join(line.split("\t")[:6]) + "\n"
                             for line in table.read_text().splitlines()))
    align = _CallCounter(pipeline.align_pair)
    monkeypatch.setattr(pipeline, "align_pair", align)
    assert main(["report", "--config", str(workspace["config"])]) == 1
    results = workspace["root"] / "results"
    summary = json.loads((results / "run_summary.json").read_text())
    assert summary["fatal"] == {
        "stage": "preflight", "mode": None,
        "error": "every pair has at least one missing feature; no pair has syntactic_dist,"
                 " phonological_dist, inventory_dist, geographic_dist",
    }
    assert capsys.readouterr().err == f"xlalign: error: {summary['fatal']['error']}\n"
    assert align.calls == 0
    assert sorted(p.name for p in results.iterdir()) == ["run_summary.json"]
    # zero_shot analyzes no joined dataset, so a zero_shot-only run still sweeps
    _edit_config(workspace["config"], "analyses = corr, anova, ancova, pca, zero_shot",
                 "analyses = zero_shot")
    assert main(["report", "--config", str(workspace["config"])]) == 0
    assert align.calls > 0
    assert json.loads((results / "run_summary.json").read_text())["analyses"] == ["zero_shot"]


def test_cli_features_and_report_name_the_language_of_a_blank_text(
    workspace, tmp_path, capsys, monkeypatch
):
    """A text with no character used to fail with ``text empty after char
    segmentation``, naming no language, and ``report`` only after the sweep."""
    root = workspace["root"]
    text = root / "texts" / "matthew" / "eng.tsv"
    text.write_text("".join(line.split("\t")[0] + "\t \n" for line in text.read_text().splitlines()))
    message = "language 'eng': text empty after char segmentation"
    out = tmp_path / "features.csv"
    assert main(["features", "--languages", str(root / "languages.tsv"),
                 "--char-corpus", str(root / "texts" / "matthew"),
                 "--token-corpus", str(root / "texts" / "john"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"xlalign: error: {message}\n" and not out.exists()
    align = _CallCounter(pipeline.align_pair)
    monkeypatch.setattr(pipeline, "align_pair", align)
    assert main(["report", "--config", str(workspace["config"])]) == 1
    assert capsys.readouterr().err == f"xlalign: error: {message}\n"
    summary = json.loads((root / "results" / "run_summary.json").read_text())
    assert summary["fatal"] == {"stage": "preflight", "mode": None, "error": message}
    assert align.calls == 0


@pytest.mark.parametrize("command", ["metrics", "mine"])
def test_cli_pair_commands_refuse_a_dimension_mismatch(workspace, tmp_path, capsys, command):
    deu = workspace["root"] / "emb" / "matthew" / "deu.xemb"
    matrix = xa.load_embeddings(deu)
    narrow = tmp_path / "narrow.xemb"
    xa.save_embeddings(xa.EmbeddingMatrix("narrow", matrix.data[:, 1:], matrix.ids), narrow)
    pair = {"metrics": ["--pair", str(deu), str(narrow)],
            "mine": ["--src", str(deu), "--tgt", str(narrow)]}[command]
    out = tmp_path / "out"
    assert main([command, *pair, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"xlalign: error: dimension mismatch: {matrix.dim} vs {matrix.dim - 1}\n"
    )
    assert not out.exists()


def test_cli_single_pair_commands(workspace, tmp_path, capsys):
    emb = workspace["root"] / "emb" / "matthew"
    out_json = tmp_path / "m.json"
    assert main(["metrics", "--pair", str(emb / "deu.xemb"), str(emb / "eng.xemb"),
                 "--k", "0", "--out", str(out_json)]) == 1
    assert capsys.readouterr().err == "xlalign: error: k=0 out of range [1, 36]\n"
    assert not out_json.exists()
    code = main(["metrics", "--pair", str(emb / "deu.xemb"), str(emb / "eng.xemb"),
                 "--gh-max-points", "30", "--out", str(out_json)])
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert sorted(payload) == sorted(METRIC_NAMES)

    out_tsv = tmp_path / "pairs.tsv"
    code = main(["mine", "--src", str(emb / "deu.xemb"), "--tgt", str(emb / "eng.xemb"),
                 "--k", "4", "--out", str(out_tsv)])
    assert code == 0
    lines = out_tsv.read_text().splitlines()
    assert lines[0] == "row_a\trow_b\tmargin"
    assert len(lines) == 37  # one pair per source row at n=36

    back_tsv = tmp_path / "back.tsv"
    assert main(["mine", "--src", str(emb / "deu.xemb"), "--tgt", str(emb / "eng.xemb"),
                 "--direction", "backward", "--out", str(back_tsv)]) == 0
    rows = [tuple(map(int, line.split("\t")[:2])) for line in back_tsv.read_text().splitlines()[1:]]
    assert len({b for _, b in rows}) == len(rows) == 36  # one pair per target row
    assert rows == sorted(rows)  # ordered by row_a

    fwd_tsv = tmp_path / "forward.tsv"
    assert main(["mine", "--src", str(emb / "deu.xemb"), "--tgt", str(emb / "eng.xemb"),
                 "--direction", "forward", "--out", str(fwd_tsv)]) == 0
    tables = xa.mining._PairTables(xa.load_embeddings(emb / "deu.xemb"),
                                   xa.load_embeddings(emb / "eng.xemb"), 4)
    rows = [(int(a), int(b), float(m))
            for a, b, m in (line.split("\t") for line in fwd_tsv.read_text().splitlines()[1:])]
    assert [a for a, _, _ in rows] == list(range(36))  # one pair per source row
    assert rows == [(a, b, float(f"{m:.12g}")) for a, b, m in tables.mine(0)]


def test_cli_features_analyze_zero_shot_compare(workspace, tmp_path, monkeypatch):
    root = workspace["root"]
    features_csv = tmp_path / "features.csv"
    code = main([
        "features", "--languages", str(root / "languages.tsv"),
        "--char-corpus", str(root / "texts" / "matthew"),
        "--token-corpus", str(root / "texts" / "john"),
        "--out", str(features_csv),
    ])
    assert code == 0
    assert len(read_features_csv(features_csv)) == 6
    # one flag per corpus: there is no --corpus for both, and a directory
    # given for both is read once, however it is spelled
    matthew = str(root / "texts" / "matthew")
    with pytest.raises(SystemExit):
        main(["features", "--languages", str(root / "languages.tsv"),
              "--corpus", matthew, "--out", str(tmp_path / "shared.csv")])
    loads = _CallCounter(pipeline.load_corpus)
    monkeypatch.setattr(pipeline, "load_corpus", loads)
    assert main(["features", "--languages", str(root / "languages.tsv"), "--char-corpus",
                 matthew, "--token-corpus", matthew, "--out", str(tmp_path / "shared.csv")]) == 0
    assert loads.calls == 1
    assert main(["features", "--languages", str(root / "languages.tsv"), "--char-corpus",
                 matthew, "--token-corpus", matthew + "/", "--out", str(tmp_path / "slash.csv")]) == 0
    assert loads.calls == 2
    assert (tmp_path / "slash.csv").read_bytes() == (tmp_path / "shared.csv").read_bytes()

    assert main(["report", "--config", str(workspace["config"])]) == 0
    metrics_csv = root / "results" / "metrics.csv"

    out = tmp_path / "corr.json"
    assert main(["analyze", "--features", str(features_csv), "--metrics", str(metrics_csv),
                 "--mode", "corr", "--out", str(out)]) == 0
    _validate(json.loads(out.read_text()), "corr")

    with pytest.raises(SystemExit):
        main(["analyze", "--features", str(features_csv), "--metrics", str(metrics_csv),
              "--mode", "bogus", "--out", str(out)])
    assert main(["analyze", "--features", str(features_csv), "--metrics", str(metrics_csv),
                 "--mode", "search", "--out", str(out)]) == 1  # missing --seed

    zs_out = tmp_path / "zs.json"
    assert main(["zero-shot", "--metrics", str(metrics_csv),
                 "--languages", str(root / "languages.tsv"),
                 "--features", str(features_csv), "--out", str(zs_out),
                 "--plot-out", str(tmp_path / "zs_plot.csv")]) == 0
    _validate(json.loads(zs_out.read_text()), "zero_shot")
    assert (tmp_path / "zs_plot.csv").read_text().splitlines()[0] == "factor,level,metric,mean"

    cmp_out = tmp_path / "cmp.json"
    assert main(["compare", "--a", str(metrics_csv), "--b", str(metrics_csv),
                 "--languages", str(root / "languages.tsv"), "--out", str(cmp_out)]) == 0
    report = json.loads(cmp_out.read_text())
    _validate(report, "compare")
    # deu/eng/fra are subject-initial, quc verb-initial: C(3,2) similar pairs
    assert report["word_order_groups"]["a"]["similar"]["n_pairs"] == 3
    assert report["word_order_groups"]["a"]["different"]["n_pairs"] == 3


def test_analysis_table_drives_cli_and_schemas():
    subcommands = next(a for a in _build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    mode_arg = next(a for a in subcommands.choices["analyze"]._actions if a.dest == "mode")
    assert set(mode_arg.choices) == set(ANALYSES)
    assert set(ANALYSES) | {"zero_shot"} <= set(REPORT_SCHEMAS)


@pytest.fixture(scope="module")
def analysis_csvs(analysis_dataset, tmp_path_factory):
    _, _, metrics_map, _, vectors = analysis_dataset
    root = tmp_path_factory.mktemp("analysis_csvs")
    write_features_csv(vectors, root / "features.csv")
    write_metrics_csv(metrics_map, root / "metrics.csv")
    return root


@pytest.mark.parametrize("mode", list(ANALYSES))
def test_cli_analyze_every_mode(analysis_csvs, mode):
    out = analysis_csvs / f"{mode}.json"
    assert main(["analyze", "--features", str(analysis_csvs / "features.csv"),
                 "--metrics", str(analysis_csvs / "metrics.csv"), "--mode", mode,
                 "--folds", "3", "--seed", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    _validate(report, mode)
    assert report["n_used"] == 45
    # every mode's schema requires the header AnalysisDataset.report writes,
    # and folds and seed exactly where the mode takes them
    schema = REPORT_SCHEMAS[mode]
    with pytest.raises(jsonschema.ValidationError, match="'n_dropped' is a required property"):
        jsonschema.validate({k: v for k, v in report.items() if k != "n_dropped"}, schema)
    seeded = ANALYSES[mode][1]
    assert [key in schema["required"] for key in ("folds", "seed")] == [seeded, seeded]


def test_cli_analyze_counts_the_pairs_only_one_table_holds(analysis_dataset, tmp_path):
    """No mode used to say that a pair of one table was missing from the other."""
    _, _, metrics_map, _, vectors = analysis_dataset
    metrics_only, features_only = sorted(metrics_map)[:2]
    write_features_csv({p: v for p, v in vectors.items() if p != metrics_only},
                       tmp_path / "features.csv")
    write_metrics_csv({p: m for p, m in metrics_map.items() if p != features_only},
                      tmp_path / "metrics.csv")
    for mode in ANALYSES:
        out = tmp_path / f"{mode}.json"
        assert main(["analyze", "--features", str(tmp_path / "features.csv"),
                     "--metrics", str(tmp_path / "metrics.csv"), "--mode", mode,
                     "--folds", "3", "--seed", "5", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        _validate(report, mode)
        assert [report[key] for key in ("n_used", "n_metrics_only", "n_features_only")] == [43, 1, 1]


@pytest.mark.parametrize("mode", ["pca", "pcr"])
def test_cli_analyze_drops_a_feature_column_of_one_float_value(analysis_csvs, tmp_path, mode):
    """A column of 0.1 in every row used to make pca and pcr exit 1 with
    ``zero-variance column cannot be standardized``: its std was rounding
    noise above 0, so the mode kept it, and pca called it constant. It is
    now dropped, as a column of 0 is."""
    header, *rows = (analysis_csvs / "features.csv").read_text().splitlines()
    col = header.split(",").index("geographic_dist")
    reports = {}
    for value in ("0.1", "0"):
        features = tmp_path / f"features_{value}.csv"
        cells = [row.split(",") for row in rows]
        features.write_text("\n".join(
            [header, *(",".join([*c[:col], value, *c[col + 1:]]) for c in cells)]) + "\n")
        out = tmp_path / f"{mode}_{value}.json"
        assert main(["analyze", "--features", str(features),
                     "--metrics", str(analysis_csvs / "metrics.csv"), "--mode", mode,
                     "--folds", "3", "--seed", "5", "--out", str(out)]) == 0
        reports[value] = out.read_bytes()
    assert reports["0.1"] == reports["0"]
    assert json.loads(reports["0"])["constant_features"] == ["geographic_dist"]


def test_cli_analyze_anova_skips_a_factor_of_singleton_groups(analysis_dataset, tmp_path):
    _, _, metrics_map, features_map, vectors = analysis_dataset
    # two complete pairs, one in a shared family and one not: both groups of
    # same_family hold one value, so its F test is undefined
    pairs = [next(p for p, row in features_map.items() if row["same_family"] == level)
             for level in (1.0, 0.0)]
    write_features_csv({p: vectors[p] for p in pairs}, tmp_path / "features.csv")
    write_metrics_csv({p: metrics_map[p] for p in pairs}, tmp_path / "metrics.csv")
    out = tmp_path / "anova.json"
    assert main(["analyze", "--features", str(tmp_path / "features.csv"),
                 "--metrics", str(tmp_path / "metrics.csv"), "--mode", "anova",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    _validate(report, "anova")
    assert report["factors"]["same_family"] == {
        metric: {"skipped": "at least one group needs two or more values"} for metric in METRIC_NAMES
    }


NO_ZERO_SHOT = ("analyses = corr, anova, ancova, pca, zero_shot", "analyses = corr, anova")


@pytest.mark.parametrize("edits, stage, mode, analyses, n_pairs", [
    # search needs at least 15 complete pairs, and the table of 4 languages has 6
    ([("analyses = corr, anova, ancova, pca, zero_shot", "analyses = corr, search")],
     "preflight", None, [], 0),
    ([("out = results", "char_doc = luke\nout = results")], "config", None, [], 0),
    ([("embeddings = emb/matthew, emb/john", "embeddings = ")],
     "config", None, [], 0),  # RunConfig refuses an empty list
    ([("corpus = texts/matthew, texts/john", "corpus = texts/matthew, emb/matthew")],
     "config", None, [], 0),  # two corpus directories named matthew
    ([("embeddings = emb/matthew, emb/john", "embeddings = texts/matthew")],
     "preflight", None, [], 0),  # no embedding files found
    ([NO_ZERO_SHOT, ("corpus = texts/matthew, texts/john", "corpus = texts/matthew, texts/luke")],
     "preflight", None, [], 0),  # no such corpus directory
    ([NO_ZERO_SHOT, ("languages = languages.tsv", "languages = texts/matthew/deu.tsv")],
     "preflight", None, [], 0),  # not a language table
    ([("k = 4", "k = 5000")], "preflight", None, [], 0),  # every matrix has fewer than k rows
    ([("k = 4", "k = four")], "config", None, [], 0),
    ([("k = 4", "k = 4\nmystery = 1")], "config", None, [], 0),
    ([("folds = 3", "folds = 1")], "config", None, [], 0),  # RunConfig refuses it
    # numpy's generators refuse a negative seed, so RunConfig does
    ([("seed = 17", "seed = -1")], "config", None, [], 0),
], ids=["preflight-pair-count", "config-char-doc", "config-no-embeddings", "config-corpus-names",
        "preflight-embeddings", "preflight-corpus", "preflight-table", "preflight-k", "config-integer",
        "config-key", "config-check", "config-negative-seed"])
def test_cli_report_fatal_error_keeps_summary(
    workspace, capsys, monkeypatch, edits, stage, mode, analyses, n_pairs
):
    config = workspace["config"]
    text = config.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    config.write_text(text)
    align = _CallCounter(pipeline.align_pair)
    monkeypatch.setattr(pipeline, "align_pair", align)
    assert main(["report", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    results = workspace["root"] / "results"
    summary = json.loads((results / "run_summary.json").read_text())
    _validate(summary, "summary")
    assert summary["n_pairs"] == n_pairs
    assert summary["analyses"] == analyses
    assert summary["fatal"]["stage"] == stage and summary["fatal"]["mode"] == mode
    assert err == f"xlalign: error: {summary['fatal']['error']}\n"
    if stage in ("config", "preflight"):
        # nothing of the sweep ran
        assert align.calls == 0 and not (results / "metrics.csv").exists()
        assert summary["languages"] == [] and summary["failed_pairs"] == {}
    if stage == "config":
        assert summary["failed_languages"] == {}
        assert [summary[key] for key in ("k", "gh_max_points", "folds", "seed")] == [None] * 4


def test_cli_refuses_too_few_complete_pairs_for_a_mode(workspace, capsys, monkeypatch):
    """A feature table with too few complete pairs for a cross-validated mode
    used to fail that mode only after the whole sweep, with a message about
    the engine's row count. The preflight now refuses it, and analyze on
    such tables gives the same message."""
    config = workspace["config"]
    _edit_config(config, "analyses = corr, anova, ancova, pca, zero_shot", "analyses = corr, ablate")
    align = _CallCounter(pipeline.align_pair)
    monkeypatch.setattr(pipeline, "align_pair", align)
    assert main(["report", "--config", str(config)]) == 1
    results = workspace["root"] / "results"
    summary = json.loads((results / "run_summary.json").read_text())
    need = "needs at least 15 complete pairs (13 features + 2, and 2 per fold at folds = 3)"
    assert summary["fatal"] == {"stage": "preflight", "mode": None,
                                "error": f"mode 'ablate' {need}; the feature table has 6"}
    assert align.calls == 0 and sorted(p.name for p in results.iterdir()) == ["run_summary.json"]
    capsys.readouterr()

    monkeypatch.undo()
    _edit_config(config, "analyses = corr, ablate", "analyses = corr")
    assert main(["report", "--config", str(config)]) == 0
    csvs = ["--metrics", str(results / "metrics.csv"), "--features", str(results / "features.csv")]
    for mode, folds, message in (
        ("search", 3, f"mode 'search' {need}; the two tables share 6"),
        ("pcr", 4, "mode 'pcr' needs at least 8 complete pairs (2 per fold at folds = 4);"
                   " the two tables share 6"),
    ):
        out = workspace["root"] / f"{mode}.json"
        assert main(["analyze", "--mode", mode, "--folds", str(folds), "--seed", "17", *csvs,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"xlalign: error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("analyses", ["analyses = corr, anova, ancova, pca, zero_shot",
                                      "analyses = "])
def test_cli_report_refuses_an_embeddings_entry_that_is_not_a_directory_first(
    workspace, capsys, monkeypatch, analyses
):
    """A mistyped document directory used to fail every language and then
    the analysis, or, with no analysis selected, to exit 2 with an empty
    metrics.csv. It is now refused before any input file is read."""
    config = workspace["config"]
    text = config.read_text().replace("emb/matthew, emb/john", "emb/matthew, emb/jon")
    config.write_text(text.replace("analyses = corr, anova, ancova, pca, zero_shot", analyses))
    reads = {name: _CallCounter(getattr(pipeline, name))
             for name in ("load_embeddings", "load_language_table", "load_corpus")}
    for name, counter in reads.items():
        monkeypatch.setattr(pipeline, name, counter)
    assert main(["report", "--config", str(config)]) == 1
    results = workspace["root"] / "results"
    summary = json.loads((results / "run_summary.json").read_text())
    _validate(summary, "summary")
    jon = workspace["root"] / "emb" / "jon"
    assert summary["fatal"] == {"stage": "preflight", "mode": None,
                                "error": f"embeddings entry {jon} is not a directory"}
    assert capsys.readouterr().err == f"xlalign: error: {summary['fatal']['error']}\n"
    assert {name: c.calls for name, c in reads.items()} == dict.fromkeys(reads, 0)
    assert not (results / "metrics.csv").exists()


def test_cli_report_stops_at_preflight_when_fewer_than_two_languages_load(
    workspace, capsys, monkeypatch
):
    for lang in ("deu", "eng", "fra"):
        (workspace["root"] / "emb" / "john" / f"{lang}.xemb").unlink()
    align = _CallCounter(pipeline.align_pair)
    monkeypatch.setattr(pipeline, "align_pair", align)
    assert main(["report", "--config", str(workspace["config"])]) == 1
    results = workspace["root"] / "results"
    summary = json.loads((results / "run_summary.json").read_text())
    _validate(summary, "summary")
    assert summary["fatal"]["stage"] == "preflight" and summary["fatal"]["mode"] is None
    assert "1 of 4 languages loaded" in summary["fatal"]["error"]
    missing = f"missing embedding file in {workspace['root'] / 'emb' / 'john'}"
    assert summary["failed_languages"] == dict.fromkeys(("deu", "eng", "fra"), missing)
    assert (summary["n_pairs"], summary["languages"], summary["analyses"]) == (0, [], [])
    assert align.calls == 0 and not (results / "metrics.csv").exists()


@pytest.mark.parametrize("edit", [
    ("out = results", ""),  # no out
    ("k = 4", "k 4"),  # a line that is not 'key = value'
    ("k = 4", "k = 4\nk = 5"),  # a duplicate key
], ids=["no-out", "syntax", "duplicate"])
def test_cli_report_writes_no_summary_without_a_parsed_out(workspace, capsys, edit):
    config = workspace["config"]
    config.write_text(config.read_text().replace(*edit))
    assert main(["report", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith(f"xlalign: error: {config}")
    assert not (workspace["root"] / "results").exists()


def _edit_config(config: Path, old: str, new: str) -> None:
    text = config.read_text()
    assert old in text
    config.write_text(text.replace(old, new))


def test_cli_report_rerun_replaces_the_whole_file_set(workspace):
    """A rerun into the same ``out`` used to leave the first run's
    analysis files beside a summary that does not list them."""
    config = workspace["config"]
    results = workspace["root"] / "results"
    assert main(["report", "--config", str(config)]) == 0
    (results / "notes.txt").write_text("kept\n")  # not a name a run writes
    _edit_config(config, "analyses = corr, anova, ancova, pca, zero_shot", "analyses = corr")
    assert main(["report", "--config", str(config)]) == 0
    assert sorted(p.name for p in results.iterdir()) == [
        "analysis_corr.json", "features.csv", "metrics.csv", "notes.txt", "run_summary.json"]
    assert json.loads((results / "run_summary.json").read_text())["analyses"] == ["corr"]


def test_cli_report_rerun_that_fails_leaves_no_earlier_analysis(workspace, capsys):
    """With every pair failing, the rerun stops at the analysis stage; the
    first run's analysis files used to stay beside its empty tables, and the
    error read as if the two tables shared no pair."""
    config = workspace["config"]
    results = workspace["root"] / "results"
    assert main(["report", "--config", str(config)]) == 0
    # each language's john verses get ids no other language has, so every
    # pair fails in the pair loop, with no shared verse ids
    for lang in workspace["langs"]:
        path = workspace["root"] / "emb" / "john" / f"{lang}.xemb"
        m = xa.load_embeddings(path)
        xa.save_embeddings(xa.EmbeddingMatrix(lang, m.data, [f"{lang}{i}" for i in m.ids]), path)
    assert main(["report", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "xlalign: error: the metrics table has no pairs\n"
    assert sorted(p.name for p in results.iterdir()) == [
        "features.csv", "metrics.csv", "run_summary.json"]
    summary = json.loads((results / "run_summary.json").read_text())
    assert summary["fatal"] == {"stage": "analysis", "mode": "corr",
                                "error": "the metrics table has no pairs"}
    assert summary["n_pairs"] == 0 and summary["analyses"] == []
    # analyze on the tables that run left names the same fault
    assert main(["analyze", "--mode", "corr", "--metrics", str(results / "metrics.csv"),
                 "--features", str(results / "features.csv"),
                 "--out", str(workspace["root"] / "corr.json")]) == 1
    assert capsys.readouterr().err == "xlalign: error: the metrics table has no pairs\n"


@pytest.mark.parametrize("edit", [
    ("out = results", ""),
    ("k = 4", "k 4"),
    # an empty out used to name the config file's directory, and the run
    # replaced the files of an earlier run there
    ("out = results", "out ="),
], ids=["no-out", "syntax", "empty-out"])
def test_cli_report_that_cannot_name_out_keeps_an_earlier_run(workspace, edit):
    config = workspace["config"]
    results = workspace["root"] / "results"
    assert main(["report", "--config", str(config)]) == 0
    before = {p.name: p.read_bytes() for p in results.iterdir()}
    _edit_config(config, *edit)
    assert main(["report", "--config", str(config)]) == 1
    assert {p.name: p.read_bytes() for p in results.iterdir()} == before


def test_cli_report_names_languages_missing_from_the_table(workspace):
    """A language with embeddings but no table row drops out of every
    feature analysis; the summary used to say nothing of it."""
    table = workspace["root"] / "languages.tsv"
    table.write_text("".join(line for line in table.read_text().splitlines(keepends=True)
                             if not line.startswith("deu\t")))
    assert main(["report", "--config", str(workspace["config"])]) == 0
    results = workspace["root"] / "results"
    summary = json.loads((results / "run_summary.json").read_text())
    _validate(summary, "summary")
    assert summary["languages_missing_from_table"] == ["deu"]
    assert summary["n_pairs"] == 6
    corr = json.loads((results / "analysis_corr.json").read_text())
    assert (corr["n_pairs"], corr["n_dropped"]) == (3, 0)
    # the three pairs of deu are in metrics.csv only, and every mode says so
    for mode in ("corr", "anova", "ancova", "pca"):
        report = json.loads((results / f"analysis_{mode}.json").read_text())
        _validate(report, mode)
        assert report["n_metrics_only"] == 3 and "n_features_only" not in report
    zero_shot = json.loads((results / "analysis_zero_shot.json").read_text())
    assert zero_shot["n_pairs_unknown_language"] == 3


def test_cli_report_counts_a_failed_pair_that_features_csv_holds(workspace):
    """A pair the sweep fails between two languages it keeps is in
    features.csv but not in metrics.csv; no analysis used to say so."""
    for lang, rows in (("deu", slice(0, 18)), ("eng", slice(18, 36))):
        path = workspace["root"] / "emb" / "john" / f"{lang}.xemb"
        m = xa.load_embeddings(path)
        xa.save_embeddings(xa.EmbeddingMatrix(lang, m.data[rows], m.ids[rows]), path)
    assert main(["report", "--config", str(workspace["config"])]) == 2
    results = workspace["root"] / "results"
    summary = json.loads((results / "run_summary.json").read_text())
    assert list(summary["failed_pairs"]) == ["deu/eng"]
    for mode in ("corr", "anova", "ancova", "pca"):
        report = json.loads((results / f"analysis_{mode}.json").read_text())
        _validate(report, mode)
        assert report["n_features_only"] == 1 and "n_metrics_only" not in report


def test_report_interrupted_leaves_no_summary(workspace, monkeypatch):
    """An interrupt is no fatal error to record: it leaves no summary that
    could read as a finished run."""
    def interrupt(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(pipeline, "align_pair", interrupt)
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_report(workspace["config"])
    assert (workspace["root"] / "results").is_dir()
    assert not (workspace["root"] / "results" / "run_summary.json").exists()


def test_cli_report_refuses_a_zero_shot_family_with_a_comma_before_the_sweep(
    workspace, capsys, monkeypatch
):
    table = workspace["root"] / "languages.tsv"
    table.write_text(table.read_text().replace("\tMayan\t", "\tMayan, K\t"))
    align = _CallCounter(pipeline.align_pair)
    monkeypatch.setattr(pipeline, "align_pair", align)
    assert main(["report", "--config", str(workspace["config"])]) == 1
    err = capsys.readouterr().err
    results = workspace["root"] / "results"
    summary = json.loads((results / "run_summary.json").read_text())
    _validate(summary, "summary")
    assert align.calls == 0
    assert not (results / "metrics.csv").exists()
    assert summary["fatal"]["stage"] == "preflight" and summary["fatal"]["mode"] is None
    assert "'quc'" in summary["fatal"]["error"] and "'Mayan, K'" in summary["fatal"]["error"]
    assert (summary["n_pairs"], summary["analyses"]) == (0, [])
    assert err == f"xlalign: error: {summary['fatal']['error']}\n"


@pytest.mark.parametrize("spoil", [
    lambda path: path.unlink(),
    lambda path: path.write_bytes(b"XEMBgarbage"),
], ids=["missing", "unreadable"])
def test_cli_report_keeps_a_zero_shot_family_with_a_comma_the_sweep_skips(
    workspace, capsys, spoil
):
    """A zero-shot language that fails to load in some document never
    reaches the zero-shot plot, so its family passes the preflight."""
    table = workspace["root"] / "languages.tsv"
    table.write_text(table.read_text().replace("\tMayan\t", "\tMayan, K\t"))
    spoil(workspace["root"] / "emb" / "john" / "quc.xemb")
    assert main(["report", "--config", str(workspace["config"])]) == 2
    results = workspace["root"] / "results"
    summary = json.loads((results / "run_summary.json").read_text())
    _validate(summary, "summary")
    assert "fatal" not in summary and "zero_shot" in summary["analyses"]
    assert list(summary["failed_languages"]) == ["quc"]
    assert "Mayan" not in (results / "plot_zero_shot_groups.csv").read_text()


def test_cli_fatal_error_exit_code(tmp_path):
    assert main(["metrics", "--pair", "nope.xemb", "also-nope.xemb",
                 "--out", str(tmp_path / "x.json")]) == 1


def test_cli_module_entry_point(workspace, tmp_path):
    emb = workspace["root"] / "emb" / "matthew"
    result = subprocess.run(
        [sys.executable, "-m", "xlalign", "metrics", "--pair",
         str(emb / "deu.xemb"), str(emb / "eng.xemb"),
         "--gh-max-points", "20", "--out", str(tmp_path / "m.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "m.json").read_text())["f1"] >= 0.0
