"""Traced replay of a workload's jobs through xlalign's public functions.

The replay does the work of ``xlalign report`` (sweeps) or of the CLI
``features`` / ``analyze`` / ``zero-shot`` sequence (analysis workload) one
public call at a time, with a span around every call into a layer. Spans stay
in memory and are written once at the end. The replay writes its tables with
the program's own writers, so the benchmark can require them to be
byte-identical to the untraced job's outputs.

Spans come from this file only; xlalign itself is not instrumented.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from xlalign import features as feats
from xlalign import isomorphism as iso
from xlalign import pipeline
from xlalign.corpus import EmbeddingMatrix, align_pair, load_corpus, load_embeddings, load_language_table
from xlalign.knn import knn_search
from xlalign.mining import average_margin, mine_intersection, retrieval_f1

ANALYZE = {
    "corr": lambda ds, cfg: pipeline.analyze_corr(ds),
    "search": lambda ds, cfg: pipeline.analyze_search(ds, cfg["folds"], cfg["seed"]),
    "ablate": lambda ds, cfg: pipeline.analyze_ablate(ds, cfg["folds"], cfg["seed"]),
    "anova": lambda ds, cfg: pipeline.analyze_anova(ds),
    "ancova": lambda ds, cfg: pipeline.analyze_ancova(ds),
    "pca": lambda ds, cfg: pipeline.analyze_pca(ds),
    "pcr": lambda ds, cfg: pipeline.analyze_pcr(ds, cfg["folds"], cfg["seed"]),
}
ZERO_SHOT_PLOT_HEADER = ("factor", "level", "metric", "mean")


class Tracer:
    """In-memory spans: [name, start, end, parent index, pair id, extra].

    Each thread keeps its own stack of open spans; a span opened on a pool
    thread names its parent explicitly.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, pair: str | None = None, parent: int | None = None, **extra):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None:
            parent = stack[-1] if stack else -1
        if pair is None and parent >= 0:
            pair = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, pair, extra]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def call(self, name: str, fn, *args, pair: str | None = None, extra: dict | None = None, **kwargs):
        with self.span(name, pair, **(extra or {})):
            return fn(*args, **kwargs)


# --- sweeps: the work of `xlalign report` -------------------------------------


def _embedding_files(directory: Path) -> dict[str, Path]:
    # the directory listing run_pair_metrics uses: text files, then .xemb
    files = {p.stem: p for p in sorted(directory.glob("*.txt"))}
    files.update({p.stem: p for p in sorted(directory.glob("*.xemb"))})
    return files


def _pair_doc(t: Tracer, mat_a: EmbeddingMatrix, mat_b: EmbeddingMatrix, k: int, gh_max_points: int):
    pair = t.call("corpus.align_pair", align_pair, mat_a, mat_b)
    mined = t.call("mining.mine_intersection", mine_intersection, mat_a, mat_b, k)
    f1 = t.call("mining.retrieval_f1", retrieval_f1, mined, pair.gold).f1
    avg = t.call("mining.average_margin", average_margin, pair, k)
    rows_a = [i for i, _ in pair.gold]
    rows_b = [j for _, j in pair.gold]
    sub_a = EmbeddingMatrix(lang=mat_a.lang, data=mat_a.data[rows_a], ids=tuple(mat_a.ids[i] for i in rows_a))
    sub_b = EmbeddingMatrix(lang=mat_b.lang, data=mat_b.data[rows_b], ids=tuple(mat_b.ids[j] for j in rows_b))
    svg = t.call("isomorphism.svg", iso.svg, sub_a, sub_b)
    econd = t.call("isomorphism.econd_hm", iso.econd_hm, sub_a, sub_b)
    diag_a = t.call("isomorphism.persistence_diagram_0d", iso.persistence_diagram_0d, sub_a, gh_max_points)
    diag_b = t.call("isomorphism.persistence_diagram_0d", iso.persistence_diagram_0d, sub_b, gh_max_points)
    gh = t.call("isomorphism.bottleneck_distance", iso.bottleneck_distance, diag_a, diag_b)
    return pipeline.AlignmentMetrics(f1=f1, avg_margin=avg, svg=svg, econd_hm=econd, gh=gh)


def replay_report(t: Tracer, config_path: str, out: Path) -> dict:
    """Replay ``run_report`` for a sweep config; returns what the probes need."""
    config = t.call("pipeline.load_config", pipeline.load_config, config_path)
    out.mkdir(parents=True, exist_ok=True)
    loaded: dict[tuple[int, str], EmbeddingMatrix] = {}
    with t.span("pipeline.sweep") as sweep_span:
        per_dir = [_embedding_files(d) for d in config.embeddings]
        langs = sorted(set().union(*per_dir))
        for lang in langs:
            for d, files in enumerate(per_dir):
                path = files[lang]
                loaded[(d, lang)] = t.call(
                    "corpus.load_embeddings", load_embeddings, path, lang=lang,
                    extra={"bytes": path.stat().st_size},
                )

        def one_pair(pair):
            lang_a, lang_b = pair
            per_doc = []
            for d in range(len(per_dir)):
                with t.span("pipeline.pair", pair=f"{lang_a}/{lang_b}/doc{d}", parent=sweep_span):
                    per_doc.append(
                        _pair_doc(t, loaded[(d, lang_a)], loaded[(d, lang_b)], config.k, config.gh_max_points)
                    )
            return pipeline.AlignmentMetrics(
                **{name: float(np.mean([getattr(m, name) for m in per_doc])) for name in pipeline.METRIC_NAMES}
            )

        # the same schedule as run_pair_metrics: a thread pool when workers > 1
        pairs = list(itertools.combinations(langs, 2))
        n_workers = pipeline.worker_count(config.workers)
        if n_workers > 1 and len(pairs) > 1:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                rows = dict(zip(pairs, pool.map(one_pair, pairs)))
        else:
            rows = {pair: one_pair(pair) for pair in pairs}
    t.call("pipeline.write_outputs", pipeline.write_metrics_csv, rows, out / "metrics.csv")

    table = t.call("corpus.load_language_table", load_language_table, config.languages)
    corpora = [t.call("corpus.load_corpus", load_corpus, d) for d in config.corpus]
    texts = t.call("pipeline.corpus_texts", lambda: {c.name: pipeline.corpus_texts(c) for c in corpora})
    names = [c.name for c in corpora]
    char_texts = texts[config.char_doc or names[0]]
    token_texts = texts[config.token_doc or names[-1]]
    feature_langs = sorted({lang for pair in rows for lang in pair} & set(table))
    features_map = _pair_features(t, table, feature_langs, char_texts, token_texts)
    t.call("pipeline.write_outputs", pipeline.write_features_csv, features_map, out / "features.csv")

    cfg = {"folds": config.folds, "seed": config.seed}
    for mode in dict.fromkeys(config.analyses):
        feature_rows = {pair: vec.as_dict() for pair, vec in features_map.items()}
        dataset = t.call("pipeline.make_analysis_dataset", pipeline.make_analysis_dataset, feature_rows, rows)
        report = t.call(f"stats.{mode}", ANALYZE[mode], dataset, cfg)
        t.call("pipeline.write_outputs", pipeline.write_json, report, out / f"analysis_{mode}.json")
    return {"config": config, "loaded": loaded, "langs": langs, "n_docs": len(config.embeddings)}


def _pair_features(t: Tracer, table, langs, char_texts, token_texts):
    aggregates = t.call("features.training_aggregates", feats.training_aggregates, table)
    return {
        (a, b): t.call(
            "features.pair_features", feats.pair_features, table[a], table[b], aggregates,
            char_texts, token_texts, pair=f"{a}/{b}",
        )
        for a, b in itertools.combinations(langs, 2)
    }


# --- analysis workload: the CLI features / analyze / zero-shot sequence ------


def replay_cli(t: Tracer, jobs: list[list[str]], out: Path) -> None:
    """Replay each CLI call of the analysis workload with the arguments the
    untraced job passed, writing under ``out`` instead of the job's paths."""
    for argv in jobs:
        opts = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "features":
            with t.span("cli.features"):
                table = t.call("corpus.load_language_table", load_language_table, opts["--languages"])
                char_texts = pipeline.corpus_texts(t.call("corpus.load_corpus", load_corpus, opts["--char-corpus"]))
                token_texts = pipeline.corpus_texts(t.call("corpus.load_corpus", load_corpus, opts["--token-corpus"]))
                rows = _pair_features(t, table, sorted(table), char_texts, token_texts)
                t.call("pipeline.write_outputs", pipeline.write_features_csv, rows, out / "features.csv")
        elif argv[0] == "analyze":
            mode = opts["--mode"]
            with t.span(f"cli.analyze.{mode}"):
                features_map = t.call("pipeline.read_features_csv", pipeline.read_features_csv, out / "features.csv")
                metrics_map = t.call("pipeline.read_metrics_csv", pipeline.read_metrics_csv, opts["--metrics"])
                dataset = t.call(
                    "pipeline.make_analysis_dataset", pipeline.make_analysis_dataset, features_map, metrics_map
                )
                cfg = {"folds": int(opts["--folds"]), "seed": int(opts["--seed"])}
                report = t.call(f"stats.{mode}", ANALYZE[mode], dataset, cfg)
                t.call("pipeline.write_outputs", pipeline.write_json, report, out / f"analysis_{mode}.json")
        elif argv[0] == "zero-shot":
            with t.span("cli.zero_shot"):
                metrics_map = t.call("pipeline.read_metrics_csv", pipeline.read_metrics_csv, opts["--metrics"])
                table = t.call("corpus.load_language_table", load_language_table, opts["--languages"])
                features_map = t.call("pipeline.read_features_csv", pipeline.read_features_csv, out / "features.csv")
                report = t.call(
                    "stats.zero_shot", pipeline.run_zero_shot_analysis, metrics_map, table, features_map
                )
                t.call("pipeline.write_outputs", pipeline.write_json, report, out / "analysis_zero_shot.json")
                # the CLI's own plot-row helper, so the plot file is the same bytes
                plot_rows = pipeline._zero_shot_plot_rows(report)
                t.call(
                    "pipeline.write_outputs", pipeline.write_plot_csv, plot_rows, ZERO_SHOT_PLOT_HEADER,
                    out / "plot_zero_shot_groups.csv",
                )
        else:
            raise ValueError(f"no replay for CLI command {argv[0]!r}")


# --- probes run after the replay ---------------------------------------------


def knn_probes(t: Tracer, replayed: dict) -> None:
    """One ``knn_search`` per pair-document; FLOPs are computed as
    2 * n_queries * n_targets * dim, not counted."""
    config, loaded = replayed["config"], replayed["loaded"]
    for lang_a, lang_b in itertools.combinations(replayed["langs"], 2):
        for d in range(replayed["n_docs"]):
            a, b = loaded[(d, lang_a)], loaded[(d, lang_b)]
            flop = 2 * a.n_rows * b.n_rows * a.dim
            t.call("knn.knn_search", knn_search, a, b, config.k, pair=f"{lang_a}/{lang_b}/doc{d}", extra={"flop": flop})


def sweep_probes(t: Tracer, replayed: dict) -> dict:
    """Time the public ``run_pair_metrics`` with the config's worker count
    and, when that is above one, with a single worker for the speedup."""
    config = replayed["config"]
    start = time.perf_counter()
    sweep = t.call("pipeline.run_pair_metrics", pipeline.run_pair_metrics, config)
    seconds = time.perf_counter() - start
    result = {
        "seconds": seconds,
        "pairs": len(sweep.rows),
        "failed": len(sweep.failed_pairs) + len(sweep.failed_languages),
        "workers": config.workers,
        "speedup": 1.0,
    }
    if config.workers > 1:
        serial = dataclasses.replace(config, workers=1)
        start = time.perf_counter()
        t.call("pipeline.run_pair_metrics.serial", pipeline.run_pair_metrics, serial)
        result["speedup"] = (time.perf_counter() - start) / seconds
    return result
