"""Shared fixtures: synthetic workspaces, independent oracles, and a summary
hook that prints one pass/fail line per acceptance criterion."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest

import xlalign as xa
from xlalign import stats


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def knn_sort_oracle(queries: np.ndarray, targets: np.ndarray, k: int) -> list[list[tuple[int, float]]]:
    """Full-sort k-NN oracle: cosines via per-row matvec against raw rows
    (a different arithmetic path from the kernel's normalized blocked matmul)
    and an explicit (-cosine, index) sort for the tie-break."""
    out = []
    t_norms = np.linalg.norm(targets, axis=1)
    for q in queries:
        sims = np.clip(targets @ q / (np.linalg.norm(q) * t_norms), -1.0, 1.0).tolist()
        order = sorted(range(len(targets)), key=lambda j: (-sims[j], j))[:k]
        out.append([(j, sims[j]) for j in order])
    return out


def bottleneck_brute_force(deaths_a, deaths_b) -> float:
    """Exhaustive minimum over all partial matchings (small diagrams only)."""
    a = list(deaths_a)
    b = list(deaths_b)
    best = np.inf
    for r in range(min(len(a), len(b)) + 1):
        for subset_a in itertools.combinations(range(len(a)), r):
            for subset_b in itertools.permutations(range(len(b)), r):
                matched = {i: j for i, j in zip(subset_a, subset_b)}
                cost = 0.0
                for i, x in enumerate(a):
                    cost = max(cost, abs(x - b[matched[i]]) if i in matched else x / 2.0)
                used_b = set(matched.values())
                for j, y in enumerate(b):
                    if j not in used_b:
                        cost = max(cost, y / 2.0)
                best = min(best, cost)
    return float(best)


def count_scored_models(monkeypatch) -> list:
    """A list that gets the feature subset of every model the cross-validation
    engine scores from now on (``stats._FoldGrams.scores`` is patched)."""
    scored = []
    scores = stats._FoldGrams.scores

    def counted(self, subsets):
        scored.extend(subsets)
        return scores(self, subsets)

    monkeypatch.setattr(stats._FoldGrams, "scores", counted)
    return scored


class PerMetricFoldGrams:
    """The cross-validation engine as it was when ablation and PCR built one
    per dependent variable, with the same arithmetic, kept as the reference
    for the one-pass engine: its single right-hand side rounds differently
    from the stacked one, by the last bits only."""

    def __init__(self, X, Y, folds: int, seed: int):
        X = np.asarray(X, dtype=np.float64)
        n, k = X.shape
        Y = np.column_stack([np.asarray(Y, dtype=np.float64)])
        if n <= k + 1:
            raise ValueError(f"need n > k + 1, got n={n}, k={k}")
        if Y.shape[0] != n:
            raise ValueError(f"{Y.shape[0]} target values for {n} rows")
        centered = X - X.mean(axis=0)
        scale = centered.std(axis=0, ddof=1)
        flat = scale <= n * np.finfo(np.float64).eps * np.abs(X).max(initial=0.0)
        aug = np.hstack([np.ones((n, 1)), centered / np.where(flat, 1.0, scale)])
        Y = Y - Y.mean(axis=0)
        self.n = n
        blocks = []
        for test_idx in stats._cv_folds(n, folds, seed):
            a_tr, y_tr = np.delete(aug, test_idx, axis=0), np.delete(Y, test_idx, axis=0)
            a_te, y_te = aug[test_idx], Y[test_idx]
            blocks.append((a_tr.T @ a_tr, a_tr.T @ y_tr, a_te.T @ a_te, a_te.T @ y_te,
                           (y_te**2).sum(axis=0), ((y_te - y_te.mean(axis=0)) ** 2).sum(axis=0)))
        self.g_tr, self.c_tr, self.g_te, self.c_te, self.yy_te, sst = map(np.stack, zip(*blocks))
        self.constant_te = sst == 0.0
        self.sst = np.where(self.constant_te, 1.0, sst)

    def score(self, features) -> float:
        cols = np.concatenate([[0], np.asarray(features, dtype=np.intp) + 1])
        block = (slice(None), cols[:, None], cols)
        fits = [np.linalg.lstsq(g, c, rcond=None) for g, c in zip(self.g_tr[block], self.c_tr[:, cols])]
        beta = np.stack([fit[0] for fit in fits])
        sse = self.yy_te + (beta * (self.g_te[block] @ beta - 2.0 * self.c_te[:, cols])).sum(axis=1)
        sse = np.maximum(sse, 0.0)
        fold_r2 = np.where(self.constant_te, sse < 1e-24, 1.0 - sse / self.sst)
        return float(stats.adjusted_r2(fold_r2.mean(axis=0), self.n, cols.size - 1)[0])


def per_metric_ablation(X, dvs, names, folds, seed) -> dict[str, stats.AblationResult]:
    """Single-step ablation with one engine, and one fold split, per metric."""
    k = X.shape[1]
    results = {}
    for dv, y in dvs.items():
        grams = PerMetricFoldGrams(X, y, folds, seed)
        baseline = grams.score(range(k))
        deltas = {name: baseline - grams.score([j for j in range(k) if j != i])
                  for i, name in enumerate(names)}
        remaining, ranks = list(range(k)), {}
        while remaining:
            i = remaining.pop(stats._first_best([deltas[names[j]] for j in remaining]))
            ranks[names[i]] = len(ranks) + 1
        results[dv] = stats.AblationResult(baseline_adj_r2=baseline, deltas=deltas, ranks=ranks)
    return results


def per_metric_pcr(X, dvs, folds, seed) -> dict[str, stats.PCRResult]:
    """PCR with one PCA, one engine and one fold split per metric."""
    results = {}
    for dv, y in dvs.items():
        scores = stats.pca(X).scores
        grams = PerMetricFoldGrams(scores, y, folds, seed)
        values = tuple(grams.score(range(j)) for j in range(1, scores.shape[1] + 1))
        results[dv] = stats.PCRResult(adj_r2_by_components=values,
                                      best_components=stats._first_best(values) + 1)
    return results


def assert_close_json(ours, reference, tol: float) -> None:
    """``ours`` has the keys, order and non-float values of ``reference``,
    and each float is within ``tol`` of the reference's."""
    if isinstance(reference, float):
        assert isinstance(ours, float) and abs(ours - reference) <= tol, (ours, reference)
    elif isinstance(reference, dict):
        assert list(ours) == list(reference)
        for key in reference:
            assert_close_json(ours[key], reference[key], tol)
    elif isinstance(reference, (list, tuple)):
        assert type(ours) is type(reference) and len(ours) == len(reference)
        for a, b in zip(ours, reference):
            assert_close_json(a, b, tol)
    else:
        assert type(ours) is type(reference) and ours == reference, (ours, reference)


def write_language_table(path: Path, rows: list[dict]) -> Path:
    header = ["lang", "family", "subfamily", "word_order", "polysynthetic", "train_sentences",
              "syntax_vec", "phonology_vec", "inventory_vec", "geo_vec"]
    lines = ["\t".join(header)]
    for row in rows:
        cells = [
            row["lang"], row.get("family", "fam"), row.get("subfamily", "sub"),
            row.get("word_order", "SVO"),
            str(row.get("polysynthetic", False)).lower(),
            str(row.get("train_sentences", 0)),
        ]
        for key in ("syntax_vec", "phonology_vec", "inventory_vec", "geo_vec"):
            value = row.get(key)
            cells.append(",".join(f"{v:.6f}" for v in value) if value is not None else "")
        lines.append("\t".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


WORKSPACE_LANGS = ("deu", "eng", "fra", "quc")


# further zero-shot Mayan languages, for runs that need more pairs and a
# zero-shot word-order factor with three levels
EXTRA_LANGS = {"kek": "VSO", "mam": "SOV", "tzo": "SVO"}


def build_workspace(root: Path, seed: int = 42,
                    langs: tuple[str, ...] = WORKSPACE_LANGS) -> dict:
    """Small but complete run directory: two documents, four languages
    (``langs`` may add those of ``EXTRA_LANGS``), embeddings (.xemb with
    verse IDs), corpus TSVs, language table, config."""
    rng = np.random.default_rng(seed)
    orders = {"deu": "SOV", "eng": "SVO", "fra": "SVO", "quc": "VSO", **EXTRA_LANGS}
    fams = {"deu": ("IE", "Germanic"), "eng": ("IE", "Germanic"),
            "fra": ("IE", "Romance"), "quc": ("Mayan", "Core"),
            **{lang: ("Mayan", "Core") for lang in EXTRA_LANGS}}
    train = {"deu": 120000, "eng": 500000, "fra": 80000, "quc": 0,
             **dict.fromkeys(EXTRA_LANGS, 0)}
    words = {"deu": "hund katze haus der", "eng": "dog cat house the",
             "fra": "chien chat maison le", "quc": "tzi mes ja ri",
             "kek": "tzi ke ja li", "mam": "txi me ja ri", "tzo": "ts'i mut na li"}
    n, d = 36, 8
    for doc in ("matthew", "john"):
        base = rng.standard_normal((n, d))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        emb_dir = root / "emb" / doc
        txt_dir = root / "texts" / doc
        emb_dir.mkdir(parents=True)
        txt_dir.mkdir(parents=True)
        ids = tuple(f"{doc[:3].upper()}_{i // 10}_{i % 10}" for i in range(n))
        for li, lang in enumerate(langs):
            data = base + 0.05 * (li + 1) * rng.standard_normal((n, d))
            xa.save_embeddings(xa.EmbeddingMatrix(lang, data, ids), emb_dir / f"{lang}.xemb")
            toks = words[lang].split()
            with open(txt_dir / f"{lang}.tsv", "w", encoding="utf-8") as fh:
                for i, vid in enumerate(ids):
                    fh.write(f"{vid}\t{toks[i % 4]} {toks[(i + li) % 4]} shared{i % (li + 2)}\n")
    write_language_table(
        root / "languages.tsv",
        [
            {
                "lang": lang,
                "family": fams[lang][0],
                "subfamily": fams[lang][1],
                "word_order": orders[lang],
                "polysynthetic": lang == "quc",
                "train_sentences": train[lang],
                "syntax_vec": rng.uniform(0.1, 1.0, 4),
                "phonology_vec": rng.uniform(0.1, 1.0, 4),
                "inventory_vec": rng.uniform(0.1, 1.0, 4),
                "geo_vec": rng.uniform(0.1, 1.0, 4),
            }
            for lang in langs
        ],
    )
    config = root / "run.cfg"
    config.write_text(
        "embeddings = emb/matthew, emb/john\n"
        "corpus = texts/matthew, texts/john\n"
        "languages = languages.tsv\n"
        "k = 4\n"
        "gh_max_points = 30\n"
        "folds = 3\n"
        "seed = 17\n"
        "analyses = corr, anova, ancova, pca, zero_shot\n"
        "out = results\n",
        encoding="utf-8",
    )
    return {"root": root, "config": config, "langs": langs}


@pytest.fixture
def workspace(tmp_path):
    return build_workspace(tmp_path)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    acceptance = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call":
                continue
            if "test_acceptance" in report.nodeid:
                acceptance[report.nodeid.split("::")[-1]] = status.upper()
    if acceptance:
        terminalreporter.section("acceptance criteria")
        for name, status in sorted(acceptance.items()):
            line = "PASS" if status == "PASSED" else "FAIL"
            terminalreporter.write_line(f"{line}  {name}")
