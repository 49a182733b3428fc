"""Independent reference implementations and output checks.

Nothing here calls xlalign's numerical code. The oracle reads the generated
input files with its own parsers and recomputes the five pair metrics with
different algorithms from the program's:

* top-k by a full ``argsort`` of the similarity matrix (the program blocks
  and sorts per block);
* spectra from ``scipy.linalg.svdvals``;
* persistence deaths from ``scipy.sparse.csgraph.minimum_spanning_tree`` over
  ``scipy.spatial.distance.pdist`` distances (the program runs its own Prim);
* the bottleneck distance by a search over candidate costs with a perfect
  matching test from ``scipy.sparse.csgraph.maximum_bipartite_matching`` on
  the diagonal-augmented bipartite graph (the program uses a greedy test).

Overlaps, Pearson r and one-way F are recomputed with numpy/scipy.stats. The
only things taken from xlalign are ``REPORT_SCHEMAS`` for schema validation.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import struct
import unicodedata
from pathlib import Path

import jsonschema
import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.stats
from scipy.sparse.csgraph import maximum_bipartite_matching, minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from workloads import METRIC_NAMES

REL_TOL = 1e-9
ABS_TOL = 1e-12  # only for values that are themselves within rounding of zero
SPECTRUM_REL_TOL = 1e-12


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class Checks:
    """Tally of correctness checks; each failure keeps a one-line reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# --- input readers ----------------------------------------------------------


def read_matrix(path: str) -> tuple[np.ndarray, list[str]]:
    p = Path(path)
    if p.suffix == ".xemb":
        blob = p.read_bytes()
        n_rows, dim = struct.unpack_from("<II", blob, 5)
        offset = 13 + 4 * n_rows * dim
        data = np.frombuffer(blob, dtype="<f4", count=n_rows * dim, offset=13).reshape(n_rows, dim)
        ids = []
        for _ in range(n_rows):
            (length,) = struct.unpack_from("<I", blob, offset)
            ids.append(blob[offset + 4 : offset + 4 + length].decode("utf-8"))
            offset += 4 + length
        return data.astype(np.float64), ids
    ids, rows = [], []
    for line in p.read_text(encoding="utf-8").splitlines():
        head, _, rest = line.partition(" ")
        ids.append(head[len("#id:") :])
        rows.append(rest)
    return np.array([r.split() for r in rows], dtype=np.float64), ids


def read_tsv_text(path: Path) -> str:
    verses = [line.split("\t", 1) for line in path.read_text(encoding="utf-8").splitlines() if line]
    return "\n".join(text for _, text in sorted(verses))


def read_csv_table(path: Path) -> tuple[list[str], dict[tuple[str, str], list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0][2:], {(r[0], r[1]): r[2:] for r in rows[1:]}


# --- pair metrics -----------------------------------------------------------


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x * x).sum(axis=1))[:, None]


def _topk(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(sims, order, axis=1)


def _mine(sims: np.ndarray, idx: np.ndarray, own_sums: np.ndarray, other_sums: np.ndarray, k: int):
    """Per query row, the candidate with the highest margin (ties: lower index)."""
    picked = []
    for q in range(sims.shape[0]):
        best = None
        for t in sorted(idx[q].tolist()):
            margin = 2.0 * k * sims[q, t] / (own_sums[q] + other_sums[t])
            if best is None or margin > best[1]:
                best = (t, margin)
        picked.append(best[0])
    return picked


def _spectrum(x: np.ndarray) -> np.ndarray:
    s = scipy.linalg.svdvals(x)
    return s[s >= SPECTRUM_REL_TOL * s[0]]


def _econd(s: np.ndarray) -> float:
    w = s / s.sum()
    rank = int(math.floor(math.exp(float(-(w * np.log(w)).sum())) + 1e-9))
    rank = min(max(rank, 1), s.size)
    return float(s[0] / s[rank - 1])


def _deaths(x: np.ndarray, max_points: int) -> np.ndarray:
    cloud = _unit(x)[:max_points]
    tree = minimum_spanning_tree(squareform(pdist(cloud)))
    if tree.nnz != cloud.shape[0] - 1:
        raise ValueError("coincident points: spanning tree lost zero-length edges")
    return np.sort(tree.data)


def _matchable(a: np.ndarray, b: np.ndarray, t: float) -> bool:
    # rows: points of a, then diagonal copies of b; columns: points of b, then
    # diagonal copies of a. A perfect matching exists iff bottleneck <= t.
    n, m = a.size, b.size
    dense = np.zeros((n + m, m + n), dtype=bool)
    dense[:n, :m] = np.abs(a[:, None] - b[None, :]) <= t
    dense[np.arange(n), m + np.arange(n)] = a / 2.0 <= t
    dense[n + np.arange(m), np.arange(m)] = b / 2.0 <= t
    dense[n:, m:] = True
    match = maximum_bipartite_matching(scipy.sparse.csr_matrix(dense), perm_type="column")
    return bool((match >= 0).all())


def bottleneck(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0 and b.size == 0:
        return 0.0
    parts = [np.zeros(1), a / 2.0, b / 2.0, np.abs(a[:, None] - b[None, :]).ravel()]
    candidates = np.unique(np.concatenate(parts))
    lo, hi = 0, candidates.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _matchable(a, b, float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def pair_doc_metrics(path_a: str, path_b: str, k: int, gh_max_points: int) -> dict[str, float]:
    """The five metrics of one pair on one document, from the input files."""
    xa, ids_a = read_matrix(path_a)
    xb, ids_b = read_matrix(path_b)
    ua, ub = _unit(xa), _unit(xb)
    sims = np.clip(ua @ ub.T, -1.0, 1.0)
    fwd_idx, fwd_sim = _topk(sims, k)
    bwd_idx, bwd_sim = _topk(np.ascontiguousarray(sims.T), k)
    sums_a, sums_b = fwd_sim.sum(axis=1), bwd_sim.sum(axis=1)
    forward = set(enumerate(_mine(sims, fwd_idx, sums_a, sums_b, k)))
    backward = {(i, j) for j, i in enumerate(_mine(sims.T, bwd_idx, sums_b, sums_a, k))}
    mined = forward & backward

    row_b = {vid: j for j, vid in enumerate(ids_b)}
    gold = [(i, row_b[vid]) for i, vid in sorted(enumerate(ids_a), key=lambda p: p[1]) if vid in row_b]
    correct = len(mined & set(gold))
    precision = correct / len(mined) if mined else 0.0
    recall = correct / len(gold)
    f1 = 2 * precision * recall / (precision + recall) if correct else 0.0
    gi = np.array([i for i, _ in gold])
    gj = np.array([j for _, j in gold])
    avg_margin = float(np.mean(2.0 * k * sims[gi, gj] / (sums_a[gi] + sums_b[gj])))

    sub_a, sub_b = xa[gi], xb[gj]
    sa, sb = _spectrum(sub_a), _spectrum(sub_b)
    n = min(sa.size, sb.size)
    svg = float(np.sum((np.log(sa[:n]) - np.log(sb[:n])) ** 2))
    ka, kb = _econd(sa), _econd(sb)
    gh = bottleneck(_deaths(sub_a, gh_max_points), _deaths(sub_b, gh_max_points))
    return {"f1": f1, "avg_margin": avg_margin, "svg": svg, "econd_hm": 2 * ka * kb / (ka + kb), "gh": gh}


def check_pair_metrics(checks: Checks, manifest: dict, out: Path, pairs: list[tuple[str, str]]) -> None:
    """Recompute the sampled pairs from the input files and compare every
    metric in ``metrics.csv`` (the mean over documents) within tolerance."""
    names, rows = read_csv_table(out / "metrics.csv")
    files = manifest["embedding_files"]
    for lang_a, lang_b in pairs:
        per_doc = [
            pair_doc_metrics(files[lang_a][d], files[lang_b][d], manifest["k"], manifest["gh_max_points"])
            for d in range(len(manifest["docs"]))
        ]
        row = rows.get((lang_a, lang_b))
        for i, name in enumerate(names):
            expected = float(np.mean([m[name] for m in per_doc]))
            got = float(row[i]) if row else math.nan
            checks.check(close(got, expected), f"{lang_a}/{lang_b} {name}: program {got!r}, oracle {expected!r}")


# --- features and statistics -------------------------------------------------


def overlap(a: str, b: str, unit: str) -> float:
    if unit == "char":
        items_a = [c for c in unicodedata.normalize("NFC", a) if not c.isspace()]
        items_b = [c for c in unicodedata.normalize("NFC", b) if not c.isspace()]
    else:
        items_a, items_b = a.split(), b.split()
    vocab, inverse = np.unique(np.array(items_a + items_b), return_inverse=True)
    count_a = np.bincount(inverse[: len(items_a)], minlength=vocab.size)
    count_b = np.bincount(inverse[len(items_a) :], minlength=vocab.size)
    return float(np.minimum(count_a, count_b).sum() / np.maximum(count_a, count_b).sum())


def check_overlaps(checks: Checks, manifest: dict, out: Path, pairs: list[tuple[str, str]]) -> None:
    names, rows = read_csv_table(out / "features.csv")
    char_dir, token_dir = Path(manifest["corpus_dirs"][0]), Path(manifest["corpus_dirs"][-1])
    for lang_a, lang_b in pairs:
        row = rows[(lang_a, lang_b)]
        for unit, directory in (("char", char_dir), ("token", token_dir)):
            expected = overlap(read_tsv_text(directory / f"{lang_a}.tsv"), read_tsv_text(directory / f"{lang_b}.tsv"), unit)
            got = float(row[names.index(f"{unit}_overlap")])
            checks.check(close(got, expected), f"{lang_a}/{lang_b} {unit}_overlap: program {got!r}, oracle {expected!r}")


def _complete_rows(out: Path, metrics_csv: Path) -> tuple[list[str], np.ndarray, dict[str, np.ndarray]]:
    feature_names, features = read_csv_table(out / "features.csv")
    _, metrics = read_csv_table(metrics_csv)
    keys = [key for key in sorted(set(features) & set(metrics)) if "" not in features[key]]
    X = np.array([[float(v) for v in features[key]] for key in keys])
    dvs = {name: np.array([float(metrics[key][i]) for key in keys]) for i, name in enumerate(METRIC_NAMES)}
    return feature_names, X, dvs


def check_statistics(checks: Checks, out: Path, metrics_csv: Path, rng: np.random.Generator, samples: int) -> None:
    """Sampled Pearson r (analysis_corr.json) and one-way F
    (analysis_anova.json) against scipy.stats on the listwise-complete rows."""
    feature_names, X, dvs = _complete_rows(out, metrics_csv)
    corr = json.loads((out / "analysis_corr.json").read_text())
    cells = [(m, f) for m in METRIC_NAMES for f in feature_names if corr["pearson"][m][f] is not None]
    for i in rng.choice(len(cells), size=min(samples, len(cells)), replace=False):
        metric, feature = cells[i]
        expected = scipy.stats.pearsonr(X[:, feature_names.index(feature)], dvs[metric]).statistic
        got = corr["pearson"][metric][feature]
        checks.check(close(got, float(expected)), f"pearson {feature}~{metric}: program {got!r}, oracle {expected!r}")
    anova = json.loads((out / "analysis_anova.json").read_text())
    cells = [
        (factor, m)
        for factor, per_metric in anova["factors"].items()
        for m, entry in per_metric.items()
        if entry.get("f_stat") is not None
    ]
    for i in rng.choice(len(cells), size=min(samples, len(cells)), replace=False):
        factor, metric = cells[i]
        col = X[:, feature_names.index(factor)]
        groups = [dvs[metric][col == level] for level in np.unique(col)]
        expected = scipy.stats.f_oneway(*groups).statistic
        got = anova["factors"][factor][metric]["f_stat"]
        checks.check(close(got, float(expected)), f"anova F {factor}~{metric}: program {got!r}, oracle {expected!r}")


# --- whole-output checks -----------------------------------------------------


def _csv_rows(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines()) - 1


def _schema_error(report: dict, schema: dict) -> str | None:
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return exc.message
    return None


def check_outputs(checks: Checks, manifest: dict, out: Path, schemas: dict) -> None:
    """Schemas, row counts and pair counts of one finished job's outputs."""
    n_pairs = manifest["n_pairs"]
    for mode in manifest["analyses"]:
        path = out / f"analysis_{mode}.json"
        if not checks.check(path.is_file(), f"missing {path.name}"):
            continue
        report = json.loads(path.read_text())
        error = _schema_error(report, schemas[mode])
        checks.check(error is None, f"{path.name} fails its schema: {error}")
        if mode != "zero_shot":
            checks.check(
                report.get("n_used") == manifest["n_complete_pairs"],
                f"{path.name}: n_used {report.get('n_used')} != {manifest['n_complete_pairs']}",
            )
    checks.check(_csv_rows(out / "features.csv") == n_pairs, f"features.csv rows != {n_pairs}")
    if "config" in manifest:
        checks.check(_csv_rows(out / "metrics.csv") == n_pairs, f"metrics.csv rows != {n_pairs}")
        summary = json.loads((out / "run_summary.json").read_text())
        error = _schema_error(summary, schemas["summary"])
        checks.check(error is None, f"run_summary.json fails its schema: {error}")
        checks.check(
            summary["n_pairs"] == n_pairs and not summary["failed_pairs"] and not summary["failed_languages"],
            f"run_summary.json: {summary['n_pairs']} pairs, failures {summary['failed_pairs']}",
        )


def sample_pairs(manifest: dict, rng: np.random.Generator, count: int) -> list[tuple[str, str]]:
    pairs = list(itertools.combinations(manifest["languages"], 2))
    return [pairs[i] for i in sorted(rng.choice(len(pairs), size=min(count, len(pairs)), replace=False))]
