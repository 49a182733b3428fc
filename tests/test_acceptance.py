"""Acceptance suite: one test per release criterion, each at its stated
tolerance. The conftest terminal-summary hook prints a PASS/FAIL line per
criterion at the end of the run."""

import itertools
import math
import time

import numpy as np
import scipy.special

import xlalign as xa
from xlalign import stats
from xlalign.corpus import EmbeddingMatrix, LanguageMeta, WordOrder
from xlalign.isomorphism import PersistenceDiagram, bottleneck_distance
from xlalign.knn import knn_search
from xlalign.mining import mine_intersection, retrieval_f1
from xlalign.pipeline import AlignmentMetrics, group_metrics_by_word_order_class

from conftest import (
    bottleneck_brute_force, build_workspace, count_scored_models, knn_sort_oracle, random_rotation,
)


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_knn_oracle_100_instances_under_5s():
    rng = np.random.default_rng(0)
    search_seconds = 0.0
    for trial in range(100):
        n_q = int(rng.integers(2, 201))
        n_t = int(rng.integers(2, 201))
        d = int(rng.integers(2, 33))
        q = rng.standard_normal((n_q, d))
        t = rng.standard_normal((n_t, d))
        if trial % 4 == 0 and n_t >= 3:
            t[2] = 0.5 * t[0]  # scaled duplicate: exercises the tie-break
        k = int(rng.integers(1, n_t + 1))
        start = time.monotonic()
        got = knn_search(EmbeddingMatrix("q", q), EmbeddingMatrix("t", t), k)
        search_seconds += time.monotonic() - start
        expected = knn_sort_oracle(q, t, k)
        for row, exp in zip(got, expected):
            assert [i for i, _ in row.neighbors] == [i for i, _ in exp]
    assert search_seconds < 5.0


def test_mining_recovery_20_trials():
    # pair = a point cloud and its noisy copy, in a common random frame;
    # a one-sided rotation would make cosine retrieval chance-level
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        base = unit_rows(rng, 500, 64) @ random_rotation(rng, 64)
        src = EmbeddingMatrix("src", base)
        gold = [(i, i) for i in range(500)]
        f1 = {}
        for sigma in (0.01, 0.5):
            tgt = EmbeddingMatrix("tgt", base + sigma * rng.standard_normal((500, 64)))
            mined = mine_intersection(src, tgt, 4)
            f1[sigma] = retrieval_f1(mined, gold).f1
        assert f1[0.01] >= 0.99
        assert f1[0.5] < f1[0.01]


def test_margin_identity_for_exact_copies():
    rng = np.random.default_rng(2)
    data = unit_rows(rng, 60, 16)
    a = EmbeddingMatrix("a", data)
    b = EmbeddingMatrix("b", data.copy())
    pair = xa.align_pair(a, b)
    assert abs(xa.average_margin(pair, 1) - 1.0) <= 1e-9
    assert retrieval_f1(mine_intersection(a, b, 4), pair.gold).f1 == 1.0


def test_svg_scaling_law():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((20, 6))
    a = EmbeddingMatrix("a", data)
    n_retained = len(xa.singular_values(a).values)
    for c in (0.5, 2.0, 10.0):
        scaled = EmbeddingMatrix("b", c * data)
        assert abs(xa.svg(a, scaled) - n_retained * math.log(c) ** 2) <= 1e-8


def test_econd_chain_hand_values():
    assert xa.effective_rank(xa.SingularSpectrum((1.0, 1.0, 1.0, 1.0))) == 4
    assert xa.effective_rank(xa.SingularSpectrum((2.0, 1.0))) == 1
    assert xa.effective_condition_number(xa.SingularSpectrum((2.0, 1.0))) == 1.0
    from xlalign.isomorphism import condition_harmonic_mean
    assert condition_harmonic_mean(1.0, 3.0) == 1.5


def test_bottleneck_oracle_and_triangle():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n1 = int(rng.integers(0, 4))
        n2 = int(rng.integers(0, 7 - n1))
        a = tuple(float(v) for v in rng.uniform(0.0, 3.0, n1))
        b = tuple(float(v) for v in rng.uniform(0.0, 3.0, n2))
        fast = bottleneck_distance(PersistenceDiagram(a), PersistenceDiagram(b))
        assert fast == bottleneck_brute_force(sorted(a), sorted(b))
    for _ in range(1000):
        d1, d2, d3 = (
            PersistenceDiagram(tuple(rng.uniform(0.0, 2.0, int(rng.integers(0, 8)))))
            for _ in range(3)
        )
        ab = bottleneck_distance(d1, d2)
        bc = bottleneck_distance(d2, d3)
        ac = bottleneck_distance(d1, d3)
        assert ac <= ab + bc + 1e-9


def test_gh_rotation_invariance():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((80, 12))
    a = EmbeddingMatrix("a", data)
    for _ in range(20):
        rotated = EmbeddingMatrix("r", data @ random_rotation(rng, 12))
        assert xa.gh_distance(a, rotated) <= 1e-9


def test_statistics_oracles():
    assert abs(xa.pearson([1, 2, 3], [1, 3, 2]) - 0.5) <= 1e-7
    assert abs(xa.semipartial(0.6, 0.5, 0.5) - 0.35 / math.sqrt(0.75)) <= 1e-7
    assert abs(xa.adjusted_r2(0.5, 5050, 13) - (1 - 0.5 * 5049 / 5036)) <= 1e-7
    result = xa.anova_oneway([(1.0, 2.0), (3.0, 4.0)])
    assert abs(result.f_stat - 8.0) <= 1e-7
    assert abs(result.eta_p2 - 0.8) <= 1e-7
    independent = scipy.special.betainc(
        result.df_error / 2.0,
        result.df_effect / 2.0,
        result.df_error / (result.df_error + result.df_effect * result.f_stat),
    )
    assert abs(result.p_value - independent) <= 1e-6


def test_feature_search_protocol(monkeypatch):
    scored = count_scored_models(monkeypatch)
    successes = 0
    sweep_seconds = None
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        X = rng.standard_normal((500, 13))
        y = 2.0 * X[:, 0] - X[:, 1] + 0.5 * rng.standard_normal(500)
        scored.clear()
        start = time.monotonic()
        search = stats.feature_search_report(X, {"y": y}, folds=10, seed=seed)
        if sweep_seconds is None:
            sweep_seconds = time.monotonic() - start
        assert len(scored) == 8191
        ablation = stats.ablation_single_step(X, {"y": y}, folds=10, seed=seed)["y"]
        top_two = set(sorted(ablation.ranks, key=ablation.ranks.get)[:2])
        if {"f0", "f1"} <= set(search.per_dv_best["y"]) and top_two == {"f0", "f1"}:
            successes += 1
    assert successes >= 9
    assert sweep_seconds < 120.0


def test_case_study_word_order_shape():
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        d = 16
        planted = np.diag(0.75 ** np.arange(d))  # subspace transform for one group
        mats, table = {}, {}
        for group, (order, transform) in enumerate(
            [(WordOrder.VSO, None), (WordOrder.SVO, planted)]
        ):
            for i in range(6):
                lang = f"l{group}{i}"
                cloud = rng.standard_normal((120, d))
                mats[lang] = EmbeddingMatrix(lang, cloud if transform is None else cloud @ transform)
                table[lang] = LanguageMeta(lang=lang, family="fam", subfamily="sub",
                                           word_order=order)
        rows = {
            (a, b): AlignmentMetrics(
                f1=0.0, avg_margin=0.0,
                svg=xa.svg(mats[a], mats[b]),
                econd_hm=xa.econd_hm(mats[a], mats[b]),
                gh=xa.gh_distance(mats[a], mats[b]),
            )
            for a, b in itertools.combinations(sorted(mats), 2)
        }
        assert len(rows) == 66
        grouped = group_metrics_by_word_order_class(rows, table)
        assert grouped["similar"]["n_pairs"] == 30
        assert grouped["different"]["n_pairs"] == 36
        if grouped["similar"]["means"]["svg"] < grouped["different"]["means"]["svg"]:
            wins += 1
    assert wins >= 9


def test_end_to_end_determinism(tmp_path):
    first = build_workspace(tmp_path / "one")
    second = build_workspace(tmp_path / "two")
    from xlalign.cli import main
    assert main(["report", "--config", str(first["config"])]) == 0
    assert main(["report", "--config", str(second["config"])]) == 0
    out_a = first["root"] / "results"
    out_b = second["root"] / "results"
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
