"""Command-line interface.

Subcommands: ``mine``, ``metrics``, ``features``, ``analyze``, ``zero-shot``,
``compare``, ``report``. Exit codes: 0 on success, 2 on partial failure (some
pairs skipped during a sweep), 1 on fatal error.
"""

from __future__ import annotations

import argparse
import sys

from . import mining, pipeline
from .corpus import load_embeddings, load_language_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlalign",
        description="Cross-lingual embedding alignment and isomorphism toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="margin-score bitext mining for one pair")
    p_mine.add_argument("--src", required=True, help="source embedding file")
    p_mine.add_argument("--tgt", required=True, help="target embedding file")
    p_mine.add_argument("--k", type=int, default=4, help="neighborhood size (default 4)")
    p_mine.add_argument(
        "--direction", choices=["forward", "backward", "intersection"], default="intersection"
    )
    p_mine.add_argument("--out", required=True, help="output TSV (row_a, row_b, margin)")

    p_metrics = sub.add_parser("metrics", help="all five metrics for one embedding pair")
    p_metrics.add_argument("--pair", nargs=2, required=True, metavar=("A", "B"))
    p_metrics.add_argument("--k", type=int, default=4)
    p_metrics.add_argument("--gh-max-points", type=int, default=500)
    p_metrics.add_argument("--out", required=True, help="output JSON")

    p_feat = sub.add_parser("features", help="13-feature vectors for every language pair")
    p_feat.add_argument("--languages", required=True, help="language metadata TSV")
    p_feat.add_argument("--char-corpus", help="corpus directory for character overlap")
    p_feat.add_argument("--token-corpus", help="corpus directory for token overlap")
    p_feat.add_argument("--out", required=True, help="output CSV")

    p_analyze = sub.add_parser("analyze", help="statistical analysis of features vs metrics")
    p_analyze.add_argument("--features", required=True, help="features CSV")
    p_analyze.add_argument("--metrics", required=True, help="metrics CSV")
    p_analyze.add_argument("--mode", required=True, choices=list(pipeline.ANALYSES))
    p_analyze.add_argument("--folds", type=int, default=10)
    seeded = [mode for mode, row in pipeline.ANALYSES.items() if row.seeded]
    p_analyze.add_argument("--seed", type=int, help="required for " + "/".join(seeded))
    p_analyze.add_argument("--out", required=True, help="output JSON")

    p_zero = sub.add_parser("zero-shot", help="analyses over the zero-shot partitions")
    p_zero.add_argument("--metrics", required=True, help="metrics CSV")
    p_zero.add_argument("--languages", required=True, help="language metadata TSV")
    p_zero.add_argument("--features", help="features CSV (enables double-zero-shot correlations)")
    p_zero.add_argument("--out", required=True, help="output JSON")
    p_zero.add_argument("--plot-out", help="optional plot-data CSV of group means")

    p_cmp = sub.add_parser("compare", help="side-by-side comparison of two metric runs")
    p_cmp.add_argument("--a", required=True, help="baseline metrics CSV")
    p_cmp.add_argument("--b", required=True, help="variant metrics CSV")
    p_cmp.add_argument("--languages", help="language TSV for word-order grouping")
    p_cmp.add_argument("--out", required=True, help="output JSON")

    p_report = sub.add_parser("report", help="full end-to-end run from a config file")
    p_report.add_argument("--config", required=True, help="run config file")

    return parser


def _cmd_mine(args) -> int:
    tables = mining._PairTables(load_embeddings(args.src), load_embeddings(args.tgt), args.k)
    if args.direction == "forward":
        rows = tables.mine(0)
    elif args.direction == "backward":
        rows = sorted(tables.mine(1))  # one row per target row, ordered by row_a
    else:
        rows = tables.intersection().pairs
    pipeline._write_table(rows, ("row_a", "row_b", "margin"), args.out, sep="\t")
    return 0


def _cmd_metrics(args) -> int:
    mat_a = load_embeddings(args.pair[0])
    mat_b = load_embeddings(args.pair[1])
    metrics = pipeline.compute_pair_metrics(
        mat_a, mat_b, k=args.k, gh_max_points=args.gh_max_points
    )
    pipeline.write_json(metrics.as_dict(), args.out)
    return 0


def _cmd_features(args) -> int:
    table = load_language_table(args.languages)
    texts = pipeline._overlap_texts(args.char_corpus, args.token_corpus)
    rows = pipeline.build_pair_feature_table(table, *texts)
    pipeline.write_features_csv(rows, args.out)
    return 0


def _cmd_analyze(args) -> int:
    # RunConfig's rules, checked before either table is read
    pipeline._check_analysis_settings([args.mode], args.folds, args.seed)
    features_map = pipeline.read_features_csv(args.features)
    metrics_map = pipeline.read_metrics_csv(args.metrics)
    dataset = pipeline.make_analysis_dataset(features_map, metrics_map)
    pipeline.write_json(pipeline.run_analysis(args.mode, dataset, args.folds, args.seed), args.out)
    return 0


def _cmd_zero_shot(args) -> int:
    metrics_map = pipeline.read_metrics_csv(args.metrics)
    table = load_language_table(args.languages)
    features_map = pipeline.read_features_csv(args.features) if args.features else None
    report = pipeline.run_zero_shot_analysis(metrics_map, table, features_map)
    pipeline.write_zero_shot_report(report, args.out, args.plot_out)
    return 0


def _cmd_compare(args) -> int:
    metrics_a = pipeline.read_metrics_csv(args.a)
    metrics_b = pipeline.read_metrics_csv(args.b)
    table = load_language_table(args.languages) if args.languages else None
    report = pipeline.run_case_study_compare(metrics_a, metrics_b, table)
    pipeline.write_json(report, args.out)
    return 0


def _cmd_report(args) -> int:
    return pipeline.run_report(args.config)


_COMMANDS = {
    "mine": _cmd_mine,
    "metrics": _cmd_metrics,
    "features": _cmd_features,
    "analyze": _cmd_analyze,
    "zero-shot": _cmd_zero_shot,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"xlalign: error: {exc}", file=sys.stderr)
        return 1
