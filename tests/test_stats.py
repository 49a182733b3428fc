import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from xlalign import pipeline, special, stats
from xlalign.special import studentized_range_cdf, studentized_range_sf
from xlalign.stats import (
    ablation_single_step,
    adjusted_r2,
    ancova,
    anova_oneway,
    feature_search_report,
    pca,
    pcr,
    pearson,
    semipartial,
    tukey_hsd,
)

from conftest import assert_close_json, count_scored_models, per_metric_ablation, per_metric_pcr


# ---------------------------------------------------------------- special fns

@pytest.mark.parametrize("k, df, message", [
    (1, 12, "k >= 2 groups"),
    (3, 0.5, "df must be >= 1"),
])
def test_studentized_range_refuses_too_few_groups_or_dof(k, df, message):
    with pytest.raises(ValueError, match=message):
        studentized_range_cdf(1.0, k, df)


def test_studentized_range_published_table_value():
    # standard tables: q(alpha=0.05; k=3, df=12) = 3.77
    assert abs(studentized_range_sf(3.77, 3, 12) - 0.05) <= 0.01
    assert studentized_range_cdf(0.0, 3, 12) == 0.0
    assert studentized_range_cdf(50.0, 3, 12) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("df", [5, 40, 500, 5048])
def test_studentized_range_two_groups_closed_form(df):
    # with k = 2 the range is |Z1 - Z2| / s, so P(Q > q) = 2 P(T_df < -q/sqrt(2))
    for q in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0):
        exact = 2.0 * scipy.special.stdtr(df, -q / math.sqrt(2.0))
        assert abs(studentized_range_sf(q, 2, df) - exact) <= 1e-9
        assert studentized_range_cdf(q, 2, df) == 1.0 - studentized_range_sf(q, 2, df)


def _ref_normal_range_cdf(r, k):
    # frozen copy of the quadrature with per-call nodes and temporaries
    z, wz = special._panel_nodes(-8.5, 8.5, 12)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    inner = np.clip(scipy.special.ndtr(z[None, :] + r[:, None])
                    - scipy.special.ndtr(z)[None, :], 0.0, 1.0)
    return np.clip(k * ((inner ** (k - 1) * phi) @ wz), 0.0, 1.0)


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_studentized_range_matches_per_call_quadrature_bitwise(monkeypatch, k):
    rng = np.random.default_rng(k)
    cases = [(q, df) for df in (1, 2, 3, 4, 9, 30, 200, 5000)
             for q in (0.0, *rng.uniform(0.0, 8.5, 3))]
    ours = [studentized_range_cdf(q, k, df) for q, df in cases]
    monkeypatch.setattr(special, "_normal_range_cdf", _ref_normal_range_cdf)
    assert ours == [studentized_range_cdf(q, k, df) for q, df in cases]


# Run in a fresh interpreter: which scipy modules the library loads, and
# the anova's F p-values next to a direct fdtrc call.
_SCIPY_PROBE = """
import itertools, json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import xlalign
loaded["import xlalign"] = scipy_modules()
numpy_polynomial = "numpy.polynomial" in sys.modules
import xlalign.cli
from xlalign import pipeline
loaded["import xlalign.cli"] = scipy_modules()

root = Path(sys.argv[1])
config = xlalign.load_config(root / "run.cfg")
table = xlalign.load_language_table(config.languages)
corpora = [xlalign.load_corpus(directory) for directory in config.corpus]
matrices = {path.stem: xlalign.load_embeddings(path)
            for path in sorted(config.embeddings[0].glob("*.xemb"))}
loaded["loaders"] = scipy_modules()

metrics = {(a, b): pipeline.compute_pair_metrics(matrices[a], matrices[b], k=config.k,
                                                 gh_max_points=config.gh_max_points)
           for a, b in itertools.combinations(sorted(matrices), 2)}
loaded["compute_pair_metrics"] = scipy_modules()

texts = pipeline.corpus_texts(corpora[0])
vectors = pipeline.build_pair_feature_table(table, texts, texts, languages=sorted(matrices))
dataset = pipeline.make_analysis_dataset({k: v.as_dict() for k, v in vectors.items()}, metrics)
pipeline.analyze_corr(dataset)
loaded["analyze_corr"] = scipy_modules()

anova = pipeline.analyze_anova(dataset)
after_anova = scipy_modules()
from scipy.special import fdtrc
f_tests = [(entry["p_value"], float(fdtrc(entry["df_effect"], entry["df_error"], entry["f_stat"])))
           for per_metric in anova["factors"].values() for entry in per_metric.values()
           if "f_stat" in entry and entry["f_stat"] is not None]
print(json.dumps({"loaded": loaded, "numpy_polynomial": numpy_polynomial,
                  "after_anova": after_anova, "f_tests": f_tests}))
"""


def test_import_does_not_load_scipy_stats(workspace):
    # scipy.special alone doubles the start-up time of xlalign and scipy.stats
    # more than doubles it again, so nothing loads scipy until a p-value is
    # computed, and then only scipy.special
    src = str(Path(stats.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(workspace["root"])],
        capture_output=True, text=True, cwd=workspace["root"],
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    for step, modules in probe["loaded"].items():
        assert modules == [], f"{step} loaded {modules}"
    # nor numpy.polynomial, which only the Tukey quadrature's nodes need
    assert not probe["numpy_polynomial"]
    assert "scipy.special" in probe["after_anova"]
    assert "scipy.stats" not in probe["after_anova"]
    assert probe["f_tests"], "the workspace gave the anova no F test"
    for ours, direct in probe["f_tests"]:
        assert ours == direct


# --------------------------------------------------------------- correlations

def test_pearson_examples():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_pearson_errors():
    with pytest.raises(ValueError, match="zero variance"):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError, match="at least 3"):
        pearson([1, 2], [3, 4])
    with pytest.raises(ValueError, match=r"shape mismatch: \(3,\) vs \(4,\)"):
        pearson([1, 2, 3], [1, 2, 3, 4])


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=1000),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_pearson_affine_invariance(seed, scale, shift):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(20)
    y = rng.standard_normal(20)
    base = pearson(x, y)
    assert pearson(scale * x + shift, y) == pytest.approx(base, abs=1e-9)
    assert pearson(-scale * x, y) == pytest.approx(-base, abs=1e-9)


def test_semipartial_examples():
    assert semipartial(0.4, 0.0, 0.0) == 0.4
    assert semipartial(0.25, 0.5, 0.5) == 0.0
    assert semipartial(0.6, 0.5, 0.5) == pytest.approx(0.4041452, abs=1e-7)
    with pytest.raises(ValueError, match="r23"):
        semipartial(0.5, 0.5, 1.0)


# ----------------------------------------------------------------- regression

def test_adjusted_r2_values():
    assert adjusted_r2(1.0, 100, 5) == 1.0
    assert adjusted_r2(0.5, 5050, 13) == pytest.approx(0.4987093, abs=1e-7)
    assert adjusted_r2(0.0, 100, 10) == pytest.approx(-0.1123596, abs=1e-7)
    with pytest.raises(ValueError, match="undefined"):
        adjusted_r2(0.5, 11, 10)


@given(
    st.floats(min_value=-2.0, max_value=0.999),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=30, max_value=5000),
)
def test_adjusted_r2_penalizes(r2, k, n):
    assert adjusted_r2(r2, n, k) < r2


# ------------------------------------------------------------------------- cv

def ablate_one(X, y, folds, seed):
    """Single-step ablation of the one dependent variable ``y``."""
    return ablation_single_step(X, {"y": y}, folds=folds, seed=seed)["y"]


def pcr_one(X, y, folds, seed):
    """PCR of the one dependent variable ``y``."""
    return pcr(X, {"y": y}, folds=folds, seed=seed)["y"]


def cv_adjusted_r2(X, y, folds, seed):
    """Cross-validated adjusted r2 of the full model: the baseline that
    ablation scores every feature's removal against."""
    return ablate_one(X, y, folds, seed).baseline_adj_r2


def test_cv_noiseless_target():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((120, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 4.0
    assert cv_adjusted_r2(X, y, 10, 0) == pytest.approx(1.0, abs=1e-6)


def test_cv_null_data_scores_low():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((500, 13))
    y = rng.standard_normal(500)
    assert cv_adjusted_r2(X, y, 10, 11) <= 0.05


def test_cv_deterministic():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((100, 4))
    y = rng.standard_normal(100)
    assert cv_adjusted_r2(X, y, 10, 3) == cv_adjusted_r2(X, y, 10, 3)


def test_cv_validation():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    with pytest.raises(ValueError, match="2 folds"):
        cv_adjusted_r2(X, y, 1, 0)
    with pytest.raises(ValueError, match="n >= 2"):
        cv_adjusted_r2(X, y, 20, 0)


# --------------------------------------------------------------------- search

def search_one(X, y, folds, seed):
    """Best subset (as feature indices), its score and the skipped-subset
    count of the search for the one dependent variable ``y``."""
    report = feature_search_report(X, {"y": y}, folds=folds, seed=seed)
    best = tuple(int(name[1:]) for name in report.per_dv_best["y"])
    return best, report.per_dv_adj_r2["y"], report.n_skipped


def test_search_planted_single_feature(monkeypatch):
    # cross-validated subset selection over-selects a little by design, so the
    # planted feature must always be found and noise features mostly rejected
    scored = count_scored_models(monkeypatch)
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        X = rng.standard_normal((300, 8))
        y = X[:, 3] + 0.3 * rng.standard_normal(300)
        scored.clear()
        best, _, _ = search_one(X, y, 10, seed)
        assert len(scored) == 2**8 - 1
        assert 3 in best
        assert len(best) <= 3


def test_search_null_data():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((500, 8))
    y = rng.standard_normal(500)
    _, best_adj_r2, _ = search_one(X, y, 10, 11)
    assert best_adj_r2 <= 0.05


def test_search_duplicate_features_tie_break():
    rng = np.random.default_rng(12)
    signal = rng.standard_normal(400)
    noise = rng.standard_normal((400, 2))
    X = np.column_stack([signal, signal, noise])  # f0 and f1 identical
    y = signal + 0.1 * rng.standard_normal(400)
    best, _, n_skipped = search_one(X, y, 10, 12)
    assert best == (0,)
    assert n_skipped > 0  # {f0, f1} and supersets are singular


def test_search_report_tallies():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((200, 4))
    dvs = {
        "m1": X[:, 0] + 0.1 * rng.standard_normal(200),
        "m2": X[:, 0] - X[:, 2] + 0.1 * rng.standard_normal(200),
    }
    report = feature_search_report(X, dvs, ["a", "b", "c", "d"], folds=5, seed=13)
    assert set(report.per_dv_best) == {"m1", "m2"}
    assert all(best for best in report.per_dv_best.values())
    assert sum(report.tallies.values()) == sum(len(v) for v in report.per_dv_best.values())
    assert report.tallies["a"] == 2


# ------------------------------------------------------------------- ablation

def test_ablation_planted_feature_has_largest_delta():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((400, 5))
    y = X[:, 2] + 0.3 * rng.standard_normal(400)
    result = ablate_one(X, y, 10, 14)
    assert result.ranks["f2"] == 1
    assert result.deltas["f2"] > 0


def test_ablation_noise_feature_nonpositive_in_expectation():
    deltas = []
    for seed in range(10):
        rng = np.random.default_rng(40 + seed)
        X = rng.standard_normal((400, 5))
        y = X[:, 0] + 0.3 * rng.standard_normal(400)
        deltas.append(ablate_one(X, y, 10, seed).deltas["f4"])
    assert np.mean(deltas) <= 0.0


def test_ablation_all_irrelevant_near_zero():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((1000, 13))
    y = rng.standard_normal(1000)
    result = ablate_one(X, y, 10, 12)
    assert max(abs(d) for d in result.deltas.values()) <= 0.02
    assert sorted(result.ranks.values()) == list(range(1, 14))


# ----------------------------------------- differential: one CV engine
# The scorers the engine replaced, kept as the reference: a raw-design lstsq
# refit per fold for cv_adjusted_r2, ablation (one np.delete refit per
# feature) and pcr (one refit per prefix), and per-DV raw Gram solves for the
# search, where a singular fold raised and skipped the subset. Selections go
# through the shared tie rule, because the reference's own `>`, argmax and
# sort resolved exact-arithmetic ties by rounding noise.

_DIFF_TOL = 1e-11


def _ref_holdout_r2(aug, y, test_idx):
    mask = np.ones(y.size, dtype=bool)
    mask[test_idx] = False
    beta, *_ = np.linalg.lstsq(aug[mask], y[mask], rcond=None)
    y_te = y[test_idx]
    resid = y_te - aug[test_idx] @ beta
    sse = float(resid @ resid)
    sst = float(((y_te - y_te.mean()) ** 2).sum())
    if sst == 0.0:
        return 1.0 if sse < 1e-24 else 0.0
    return 1.0 - sse / sst


def _ref_cv(X, y, folds, seed):
    n, k = X.shape
    aug = np.hstack([np.ones((n, 1)), X])
    fold_r2 = [_ref_holdout_r2(aug, y, test_idx) for test_idx in stats._cv_folds(n, folds, seed)]
    return adjusted_r2(float(np.mean(fold_r2)), n, k)


def _ref_search(X, y, folds, seed):
    n, k = X.shape
    aug = np.hstack([np.ones((n, 1)), X])
    entries = []
    for test_idx in stats._cv_folds(n, folds, seed):
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        a_tr, y_tr, a_te, y_te = aug[mask], y[mask], aug[test_idx], y[test_idx]
        entries.append((a_tr.T @ a_tr, a_tr.T @ y_tr, a_te.T @ a_te, a_te.T @ y_te,
                         float(y_te @ y_te), float(((y_te - y_te.mean()) ** 2).sum())))
    subsets, scores, n_skipped = [], [], 0
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            cols = np.concatenate([[0], np.asarray(subset) + 1])
            total = 0.0
            try:
                for g_tr, c_tr, g_te, c_te, yy_te, sst in entries:
                    beta = np.linalg.solve(g_tr[np.ix_(cols, cols)], c_tr[cols])
                    sse = yy_te - 2.0 * float(beta @ c_te[cols]) + float(beta @ g_te[np.ix_(cols, cols)] @ beta)
                    sse = max(sse, 0.0)
                    total += (1.0 if sse < 1e-24 else 0.0) if sst == 0.0 else 1.0 - sse / sst
            except np.linalg.LinAlgError:
                n_skipped += 1
                continue
            subsets.append(subset)
            scores.append(adjusted_r2(total / len(entries), n, size))
    best = stats._first_best(scores)
    return subsets[best], scores[best], n_skipped


def _ref_ablation(X, y, folds, seed):
    baseline = _ref_cv(X, y, folds, seed)
    deltas = [baseline - _ref_cv(np.delete(X, i, axis=1), y, folds, seed) for i in range(X.shape[1])]
    remaining, order = list(range(X.shape[1])), []
    while remaining:
        order.append(remaining.pop(stats._first_best([deltas[j] for j in remaining])))
    return baseline, deltas, {f"f{i}": rank for rank, i in enumerate(order, start=1)}


def _ref_pcr(X, y, folds, seed):
    scores = pca(X).scores
    values = [_ref_cv(scores[:, :j], y, folds, seed) for j in range(1, X.shape[1] + 1)]
    return values, stats._first_best(values) + 1


def _random_design(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((120, 5))
    dvs = {
        "planted": X[:, 1] + 0.5 * rng.standard_normal(120),
        "mixed": X[:, 0] - X[:, 3] + rng.standard_normal(120),
        "noise": rng.standard_normal(120),
    }
    return X, dvs


def _copied_design(seed):
    X, dvs = _random_design(seed)
    X[:, 4] = X[:, 0]
    return X, dvs


def _constant_design(seed, value=1.0):
    X, dvs = _random_design(seed)
    X[:, 2] = value
    return X, dvs


def _duplicated_design(seed):
    X, dvs = _random_design(seed)
    X[:, 4] = X[:, 1]
    return X, dvs


_ENGINE_CASES = [(_random_design, s) for s in (0, 1, 2)] + [
    (_copied_design, 3), (_copied_design, 4), (_constant_design, 3), (_duplicated_design, 3),
]


@pytest.mark.parametrize("make, seed", _ENGINE_CASES,
                         ids=[f"{make.__name__[1:]}-{seed}" for make, seed in _ENGINE_CASES])
def test_cv_engine_matches_reference_scorers(make, seed):
    X, dvs = make(seed)
    report = feature_search_report(X, dvs, folds=10, seed=seed)
    ablations = ablation_single_step(X, dvs, folds=10, seed=seed)
    # pca cannot standardize a constant column
    pcrs = pcr(X, dvs, folds=10, seed=seed) if np.ptp(X, axis=0).all() else {}
    tallies = dict.fromkeys(report.tallies, 0)
    for name, y in dvs.items():
        best, score, n_skipped = _ref_search(X, y, 10, seed)
        assert report.per_dv_best[name] == tuple(f"f{i}" for i in best)
        assert report.n_skipped == n_skipped
        assert abs(report.per_dv_adj_r2[name] - score) <= _DIFF_TOL
        for i in best:
            tallies[f"f{i}"] += 1
        single_best, single_score, single_skipped = search_one(X, y, 5, seed + 1)
        best, score, n_skipped = _ref_search(X, y, 5, seed + 1)
        assert (single_best, single_skipped) == (best, n_skipped)
        assert abs(single_score - score) <= _DIFF_TOL

        ablation = ablations[name]
        baseline, deltas, ranks = _ref_ablation(X, y, 10, seed)
        assert ablation.ranks == ranks and list(ablation.ranks) == list(ranks)
        assert abs(ablation.baseline_adj_r2 - baseline) <= _DIFF_TOL
        assert max(abs(ablation.deltas[f"f{i}"] - d) for i, d in enumerate(deltas)) <= _DIFF_TOL
        if pcrs:
            result = pcrs[name]
            values, best_components = _ref_pcr(X, y, 10, seed)
            assert result.best_components == best_components
            assert np.abs(np.array(result.adj_r2_by_components) - values).max() <= _DIFF_TOL
    assert report.tallies == tallies


# the one-pass engine scores every metric as one right-hand side, which
# rounds differently from one metric at a time; the drift measured was below
# 6e-16 on these designs, 2.3e-15 on the pipeline's analysis_dataset fixture
# and 1.3e-15 on the benchmark's analyze_many inputs
_PER_METRIC_TOL = 1e-14


@pytest.mark.parametrize("make, seed", _ENGINE_CASES,
                         ids=[f"{make.__name__[1:]}-{seed}" for make, seed in _ENGINE_CASES])
def test_one_pass_matches_the_per_metric_loop(make, seed):
    X, dvs = make(seed)
    names = [f"f{i}" for i in range(X.shape[1])]
    for folds, fold_seed in ((10, seed), (5, seed + 1)):
        ours = ablation_single_step(X, dvs, folds=folds, seed=fold_seed)
        reference = per_metric_ablation(X, dvs, names, folds, fold_seed)
        assert_close_json({dv: asdict(r) for dv, r in ours.items()},
                          {dv: asdict(r) for dv, r in reference.items()}, _PER_METRIC_TOL)
        if np.ptp(X, axis=0).all():  # pca cannot standardize a constant column
            ours = pcr(X, dvs, folds=folds, seed=fold_seed)
            reference = per_metric_pcr(X, dvs, folds, fold_seed)
            assert_close_json({dv: asdict(r) for dv, r in ours.items()},
                              {dv: asdict(r) for dv, r in reference.items()}, _PER_METRIC_TOL)


@pytest.mark.parametrize("seed", range(10))
def test_tie_rule_prefers_the_earlier_feature(seed):
    # f4 is a copy of f0: in exact arithmetic dropping either one gives the
    # same fit, and every subset holding f4 ties the one holding f0 instead
    X, dvs = _copied_design(seed)
    ablations = ablation_single_step(X, dvs, folds=10, seed=seed)
    for name, y in dvs.items():
        ranks = ablations[name].ranks
        assert ranks["f4"] == ranks["f0"] + 1
        assert 4 not in search_one(X, y, 10, seed)[0]


@pytest.mark.parametrize("make, n_skipped", [
    (_constant_design, 16),
    # the mean of 120 copies of 0.1 rounds away from 0.1, so the centered
    # column is a tiny constant, not zeros; its subsets are still skipped
    (lambda seed: _constant_design(seed, 0.1), 16),
    (_duplicated_design, 8),
], ids=["constant", "constant-0.1", "duplicated"])
def test_rank_deficient_designs_keep_working(make, n_skipped):
    X, dvs = make(3)
    assert search_one(X, dvs["mixed"], 10, 3)[2] == n_skipped
    ablations = ablation_single_step(X, dvs, folds=10, seed=3)
    for name, y in dvs.items():
        # every fold of the full model is rank deficient; it gets its minimum-norm fit
        ablation = ablations[name]
        full = ablation.baseline_adj_r2
        assert math.isfinite(full)
        assert abs(full - _ref_cv(X, y, 10, 3)) <= _DIFF_TOL
        _, deltas, _ = _ref_ablation(X, y, 10, 3)
        assert all(math.isfinite(d) for d in ablation.deltas.values())
        assert max(abs(ablation.deltas[f"f{i}"] - d) for i, d in enumerate(deltas)) <= _DIFF_TOL


def test_fold_split_drawn_once_per_call(monkeypatch):
    """One fold split and one engine for every metric: search, ablate and pcr
    each draw one split, and pcr runs one PCA."""
    calls, pcas = [], []
    folds, pca_once = stats._cv_folds, stats.pca

    def counted(*args):
        calls.append(args)
        return folds(*args)

    def counted_pca(X):
        pcas.append(X)
        return pca_once(X)

    monkeypatch.setattr(stats, "_cv_folds", counted)
    monkeypatch.setattr(stats, "pca", counted_pca)
    rng = np.random.default_rng(16)
    X = rng.standard_normal((60, 13))
    dvs = {name: X[:, i] + rng.standard_normal(60) for i, name in enumerate(pipeline.METRIC_NAMES)}
    feature_search_report(X[:, :4], dvs, folds=3, seed=1)
    assert len(calls) == 1
    ablation_single_step(X, dvs, folds=3, seed=1)
    assert len(calls) == 2
    pcr(X, dvs, folds=3, seed=1)
    assert (len(calls), len(pcas)) == (3, 1)
    dataset = pipeline.AnalysisDataset(X=X, dvs=dvs, n_common=60, n_used=60)
    pipeline.analyze_ablate(dataset, folds=3, seed=1)
    assert len(calls) == 4
    pipeline.analyze_pcr(dataset, folds=3, seed=1)
    assert (len(calls), len(pcas)) == (5, 2)


def _exact_cv_adjusted_r2(X, y, folds, seed):
    """Normal equations on the raw design in exact rational arithmetic."""
    n, k = X.shape
    rows = [[Fraction(1)] + [Fraction(v) for v in X[i]] for i in range(n)]
    ys = [Fraction(v) for v in y]
    total = Fraction(0)
    for test_idx in stats._cv_folds(n, folds, seed):
        test = sorted(test_idx.tolist())
        train = [i for i in range(n) if i not in test]
        system = [[sum(rows[i][a] * rows[i][b] for i in train) for b in range(k + 1)]
                  + [sum(rows[i][a] * ys[i] for i in train)] for a in range(k + 1)]
        for c in range(k + 1):  # Gauss-Jordan elimination, exact
            pivot = next(r for r in range(c, k + 1) if system[r][c] != 0)
            system[c], system[pivot] = system[pivot], system[c]
            for r in range(k + 1):
                if r != c and system[r][c] != 0:
                    f = system[r][c] / system[c][c]
                    system[r] = [x - f * p for x, p in zip(system[r], system[c])]
        beta = [system[i][k + 1] / system[i][i] for i in range(k + 1)]
        mean = sum(ys[i] for i in test) / len(test)
        sse = sum((ys[i] - sum(b * x for b, x in zip(beta, rows[i]))) ** 2 for i in test)
        sst = sum((ys[i] - mean) ** 2 for i in test)
        total += 1 - sse / sst
    return 1 - (1 - total / folds) * (n - 1) / (n - k - 1)


@pytest.mark.parametrize("offset", [0.0, 1000.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cv_exact_with_raw_count_column(seed, offset):
    # a training-sentence count column of 1e5..1e7 next to a unit-scale one,
    # and a target whose mean dwarfs its spread
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.standard_normal(24), rng.integers(100_000, 10_000_000, 24).astype(float)])
    y = offset + 0.5 * X[:, 0] + 2e-7 * X[:, 1] + rng.standard_normal(24)
    exact = _exact_cv_adjusted_r2(X, y, 4, seed)
    assert abs(Fraction(cv_adjusted_r2(X, y, 4, seed)) - exact) <= Fraction(1, 10**13)


# ---------------------------------------------------------------------- anova

def test_anova_identical_groups():
    result = anova_oneway([(1.0, 2.0), (1.0, 2.0)])
    assert result.f_stat == 0.0
    assert result.eta_p2 == 0.0
    assert result.p_value == 1.0


def test_anova_hand_computation():
    result = anova_oneway([(1.0, 2.0), (3.0, 4.0)])
    assert result.f_stat == pytest.approx(8.0, abs=1e-12)
    assert result.eta_p2 == pytest.approx(0.8, abs=1e-12)
    assert (result.df_effect, result.df_error) == (1, 2)
    assert result.p_value == pytest.approx(1 - math.sqrt(0.8), abs=1e-10)


@pytest.mark.parametrize("d", [3, 12, 40, 500, 5047])
def test_anova_f_tail_two_groups_closed_form(d):
    # three groups leave df_effect = 2, where P(F > f) = (1 + 2f/d)^(-d/2)
    sizes = [d // 3 + 1, (d + 1) // 3 + 1, (d + 2) // 3 + 1]
    rng = np.random.default_rng(d)
    noise = [rng.standard_normal(size) for size in sizes]
    noise = [e - e.mean() for e in noise]
    ssw = sum(float(e @ e) for e in noise)
    spread = (-1.0, 0.0, 1.0)
    grand = sum(n * c for n, c in zip(sizes, spread)) / sum(sizes)
    ssb_unit = sum(n * (c - grand) ** 2 for n, c in zip(sizes, spread))
    for f in (0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0):
        # shifting the group means by -t, 0, t sets F to f
        t = math.sqrt(f * 2.0 * (ssw / d) / ssb_unit)
        result = anova_oneway([e + t * c for e, c in zip(noise, spread)])
        assert (result.df_effect, result.df_error) == (2, d)
        exact = math.exp(-(d / 2.0) * math.log1p(2.0 * result.f_stat / d))
        assert abs(result.p_value - exact) <= 1e-13 * exact


def test_anova_p_matches_independent_incomplete_beta():
    result = anova_oneway([(1.0, 2.0), (3.0, 4.0)])
    oracle = scipy.special.betainc(result.df_error / 2, result.df_effect / 2,
                                   result.df_error / (result.df_error + result.df_effect * result.f_stat))
    assert result.p_value == pytest.approx(oracle, abs=1e-6)


def test_anova_infinite_f_distinguished():
    result = anova_oneway([(1.0, 1.0), (2.0, 2.0)])
    assert math.isinf(result.f_stat)
    assert result.p_value == 0.0
    assert result.eta_p2 == 1.0


def test_anova_affine_invariance():
    rng = np.random.default_rng(15)
    groups = [rng.standard_normal(8) + i for i in range(3)]
    base = anova_oneway(groups)
    moved = anova_oneway([5.0 * g - 3.0 for g in groups])
    assert moved.f_stat == pytest.approx(base.f_stat, rel=1e-10)
    assert moved.eta_p2 == pytest.approx(base.eta_p2, rel=1e-10)


def test_anova_validation():
    with pytest.raises(ValueError, match="2 groups"):
        anova_oneway([(1.0, 2.0)])
    with pytest.raises(ValueError, match="two or more"):
        anova_oneway([(1.0,), (2.0,)])
    with pytest.raises(ValueError, match="every group needs at least one value"):
        anova_oneway([(1.0, 2.0), ()])


# --------------------------------------------------------------------- ancova

def test_ancova_matches_anova_without_covariates():
    rng = np.random.default_rng(22)
    g = rng.integers(0, 2, size=300)
    y = 0.5 * g + rng.standard_normal(300)
    plain = anova_oneway([y[g == 0], y[g == 1]])
    adjusted = ancova(y, [str(v) for v in g], None)
    assert adjusted.f_stat == pytest.approx(plain.f_stat, rel=1e-9)
    assert adjusted.eta_p2 == pytest.approx(plain.eta_p2, rel=1e-9)
    assert adjusted.p_value == pytest.approx(plain.p_value, abs=1e-9)
    assert (adjusted.df_effect, adjusted.df_error) == (plain.df_effect, plain.df_error)


def test_ancova_confounded_factor_vanishes():
    rng = np.random.default_rng(21)
    z = rng.standard_normal(400)
    y = 2.0 * z + 0.1 * rng.standard_normal(400)
    labels = ["pos" if v > 0 else "neg" for v in z]
    adjusted = ancova(y, labels, z[:, None])
    assert ancova(y, labels, z) == adjusted  # a 1-D covariate is one column
    plain = anova_oneway([y[np.array(labels) == "pos"], y[np.array(labels) == "neg"]])
    assert plain.eta_p2 > 0.5
    assert adjusted.eta_p2 < 0.05


def test_ancova_independent_covariates_close_to_anova():
    rng = np.random.default_rng(22)
    g = rng.integers(0, 2, size=300)
    y = 0.5 * g + rng.standard_normal(300)
    cov = rng.standard_normal((300, 2))
    plain = anova_oneway([y[g == 0], y[g == 1]])
    adjusted = ancova(y, [str(v) for v in g], cov)
    assert adjusted.f_stat == pytest.approx(plain.f_stat, rel=0.2)


def test_ancova_validation():
    y = np.arange(10.0)
    with pytest.raises(ValueError, match="2 levels"):
        ancova(y, ["a"] * 10, None)
    dup = np.ones((10, 1))
    with pytest.raises(ValueError, match="rank deficient"):
        ancova(y, ["a", "b"] * 5, dup)  # constant covariate collides with intercept
    labels = ["a", "b"] * 5
    collinear = np.array([[1.0 if lab == "b" else 0.0] for lab in labels])
    with pytest.raises(ValueError, match="collinear"):
        ancova(y, labels, collinear)
    with pytest.raises(ValueError, match="factor length must match y"):
        ancova(y, labels[:-1], None)
    with pytest.raises(ValueError, match="covariate rows must match y"):
        ancova(y, labels, np.ones((9, 1)))



# ---------------------------------------------------------------------- tukey

def test_tukey_identical_groups():
    (cmp,) = tukey_hsd([(1.0, 2.0, 3.0), (1.0, 2.0, 3.0)])
    assert cmp.q_stat == 0.0
    assert cmp.p_value == 1.0


def test_tukey_separated_groups():
    rng = np.random.default_rng(30)
    a = np.zeros(3) + 0.01 * rng.standard_normal(3)
    b = np.full(3, 10.0) + 0.01 * rng.standard_normal(3)
    (cmp,) = tukey_hsd([a, b], labels=["lo", "hi"])
    assert cmp.p_value < 0.01
    assert cmp.mean_diff == pytest.approx(10.0, abs=0.1)


def test_tukey_zero_within_variance():
    with pytest.raises(ValueError, match="zero within-group"):
        tukey_hsd([(1.0, 1.0), (2.0, 2.0)])


@pytest.mark.parametrize("df, top", [(1, 497.0), (4, 210.0), (5048, 5.17)])
def test_tukey_two_groups_p_equals_the_f_test_p(df, top):
    # With two groups q^2 / 2 is the F statistic, so both tests give one
    # p-value. A single value shifted away from a centered group of df + 1
    # takes p from about 0.9 down to about 1e-250 (1e-150 at df = 1, where a
    # larger shift overflows F). The two statistics come from different
    # arithmetic and differ by a few ulp, which the tail magnifies by
    # kappa = |d ln p / d ln F|, about 500 at p = 1e-250 and df = 5048.
    noise = np.random.default_rng(df).standard_normal(df + 1)
    noise -= noise.mean()
    noise *= math.sqrt(df / float(noise @ noise))  # unit within-group mean square
    seen = []
    for shift in 2.0 ** np.linspace(-6.0, top, 60):
        groups = [noise, [shift]]
        f_test = anova_oneway(groups)
        (cmp,) = tukey_hsd(groups)
        assert f_test.df_error == df and f_test.p_value > 0.0
        kappa = abs(math.log(scipy.special.fdtrc(1, df, f_test.f_stat * (1.0 + 1e-7)))
                    - math.log(f_test.p_value)) / 1e-7
        tol = 1e-13 + 16.0 * np.finfo(float).eps * kappa
        assert abs(cmp.p_value - f_test.p_value) <= tol * f_test.p_value
        seen.append(f_test.p_value)
    assert max(seen) > 0.5 and min(seen) < (1e-145 if df == 1 else 1e-245)


def test_tukey_pair_count_and_labels():
    rng = np.random.default_rng(31)
    groups = [rng.standard_normal(6) for _ in range(4)]
    comparisons = tukey_hsd(groups)
    assert len(comparisons) == 6
    assert comparisons[0].group_a == "g0"
    with pytest.raises(ValueError, match="one label per group required"):
        tukey_hsd(groups, ["a", "b", "c"])


# ------------------------------------------------------------------------ pca

def test_pca_perfect_line():
    t = np.linspace(-2, 2, 40)
    X = np.column_stack([t, t])
    result = pca(X)
    assert result.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(result.components[0], [math.sqrt(0.5)] * 2, atol=1e-9)


def test_pca_orthonormal_and_reconstruction():
    rng = np.random.default_rng(32)
    X = rng.standard_normal((60, 5))
    result = pca(X)
    gram = result.components @ result.components.T
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-9)
    standardized = (X - result.mean) / result.scale
    np.testing.assert_allclose(result.scores @ result.components, standardized, atol=1e-8)


def test_pca_sign_convention_and_errors():
    rng = np.random.default_rng(33)
    X = rng.standard_normal((40, 4))
    result = pca(X)
    for row in result.components:
        assert row[int(np.argmax(np.abs(row)))] > 0
    X[:, 2] = 5.0
    with pytest.raises(ValueError, match="zero-variance"):
        pca(X)
    with pytest.raises(ValueError, match="n > 1"):
        pca(X[:1])
    X[:, 2] = 1e-170 * np.arange(40)  # it varies, but its std underflows to 0
    with pytest.raises(ValueError, match="zero-variance"):
        pca(X)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6000),
    st.floats(min_value=-1e12, max_value=1e12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_constant_columns_calls_a_column_of_one_value_constant(n, value, seed):
    """The std of a column of one float value is often rounding noise above
    0: the analyses kept such a column as varying, and pca then refused it."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.standard_normal(n), np.full(n, value), rng.standard_normal(n)])
    assert stats.constant_columns(X).tolist() == [n == 1, True, n == 1]
    if n > 1:
        with pytest.raises(ValueError, match="zero-variance"):
            pca(X)
        assert pca(X[:, ::2]).components.shape == (2, 2)


# ------------------------------------------------------------------------ pcr

def test_pcr_planted_first_direction():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((300, 6))
    X[:, 0] = X[:, 0] * 2 + X[:, 1]
    scores = pca(X).scores
    y = scores[:, 0] + 0.3 * rng.standard_normal(300)
    result = pcr_one(X, y, 10, 6)
    assert result.best_components == 1
    assert result.adj_r2_by_components[0] > 0.9


def test_pcr_full_basis_matches_full_feature_cv():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((200, 5))
    y = X @ rng.standard_normal(5) + 0.2 * rng.standard_normal(200)
    result = pcr_one(X, y, 10, 7)
    assert result.adj_r2_by_components[-1] == pytest.approx(cv_adjusted_r2(X, y, 10, 7), abs=1e-6)


def test_pcr_training_r2_monotone():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((150, 6))
    y = X @ rng.standard_normal(6) + rng.standard_normal(150)
    scores = pca(X).scores
    r2s = []
    for j in range(1, 7):
        design = np.column_stack([np.ones(150), scores[:, :j]])
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        r2s.append(1.0 - resid @ resid / ((y - y.mean()) ** 2).sum())
    assert all(later >= earlier - 1e-12 for earlier, later in zip(r2s, r2s[1:]))
