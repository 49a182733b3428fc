"""Correlation, cross-validated regression, exhaustive feature search,
ablation, ANOVA/ANCOVA with effect sizes, Tukey post-hoc, and PCA/PCR.

Cross-validated fits shuffle once with a seeded generator, score the held-out
fold of each split with plain r-squared, average the fold scores, and apply
the adjusted-r-squared penalty a single time with the total sample size and
the model's predictor count. One engine, ``_FoldGrams``, scores every such fit
(search, ablation, PCR), for all dependent variables in one pass and from
Gram blocks of the z-scored design, which leaves adjusted r-squared
unchanged and keeps raw count columns well conditioned; a rank-deficient
model gets its minimum-norm fit. Scores within ``_TIE_TOL`` of
the best tie and go to the earlier candidate (smaller subset, lower feature
index, fewer components). All seeded procedures are reproducible bit-for-bit
for a fixed seed and input. A sum that overflows (of squares, a z-scoring
scale, a fold Gram block) raises ``ValueError`` instead of giving a statistic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .special import f_sf, studentized_range_sf

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    p_value: float
    eta_p2: float
    df_effect: int
    df_error: int


@dataclass(frozen=True)
class TukeyComparison:
    group_a: str
    group_b: str
    mean_diff: float
    q_stat: float
    p_value: float


@dataclass(frozen=True)
class FeatureSearchReport:
    """Best subset and its score per dependent variable, appearance tallies,
    and the count of rank-deficient subsets skipped, which is the same for
    every dependent variable."""

    per_dv_best: dict[str, tuple[str, ...]]
    per_dv_adj_r2: dict[str, float]
    tallies: dict[str, int]
    n_skipped: int


@dataclass(frozen=True)
class AblationResult:
    baseline_adj_r2: float
    deltas: dict[str, float]
    ranks: dict[str, int]


@dataclass(frozen=True)
class PCAResult:
    """Principal axes (rows of ``components``), variances, and scores.

    Each component is signed so that its largest-magnitude loading is
    positive; ``scores @ components`` reproduces the standardized data
    ``(X - mean) / scale``.
    """

    components: np.ndarray
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray
    scores: np.ndarray
    mean: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True)
class PCRResult:
    adj_r2_by_components: tuple[float, ...]
    best_components: int


def _finite(what: str, value):
    """``value``, refused when any entry is not finite, as only overflow leaves one."""
    if not np.isfinite(value).all():
        raise ValueError(f"{what} overflows float64")
    return value


def pearson(x, y) -> float:
    """Sample Pearson correlation of two equal-length vectors (n >= 3)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size < 3:
        raise ValueError("pearson needs at least 3 observations")
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        yc = y - y.mean()
        denom = _finite("pearson denominator", math.sqrt(float(xc @ xc) * float(yc @ yc)))
    if denom == 0.0:
        raise ValueError("zero variance in pearson input")
    return float(np.clip(float(xc @ yc) / denom, -1.0, 1.0))


def semipartial(r12: float, r13: float, r23: float) -> float:
    """Semi-partial correlation r_{1(2.3)}: the covariate (3) is partialled
    out of variable 2 only."""
    if abs(r23) >= 1.0:
        raise ValueError("covariate correlation |r23| must be < 1")
    return (r12 - r13 * r23) / math.sqrt(1.0 - r23 * r23)


def adjusted_r2(r2: float, n: int, k: int) -> float:
    """Adjusted r-squared: 1 - (1 - r2)(n - 1)/(n - k - 1)."""
    if n <= k + 1:
        raise ValueError(f"adjusted r2 undefined for n={n}, k={k}")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)


def cv_min_rows(k: int, folds: int) -> int:
    """The fewest rows a cross-validated fit on ``k`` features takes: k + 2,
    as adjusted r-squared needs n > k + 1, and 2 per fold."""
    return max(k + 2, 2 * folds)


def _cv_folds(n: int, folds: int, seed: int) -> list[np.ndarray]:
    if folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), folds)


def _first_best(scores) -> int:
    """Index of the first score within ``_TIE_TOL`` of the maximum."""
    scores = np.asarray(scores, dtype=np.float64)
    return int(np.flatnonzero(scores >= scores.max() - _TIE_TOL)[0])


class _FoldGrams:
    """Per-fold Gram blocks of the z-scored design plus an intercept, with
    every dependent variable as one right-hand side: a feature subset costs
    one small least-squares solve per fold, whatever n is."""

    def __init__(self, X, dvs: Mapping[str, np.ndarray], folds: int, seed: int):
        X = np.asarray(X, dtype=np.float64)
        n, k = X.shape
        Y = np.column_stack([np.asarray(y, dtype=np.float64) for y in dvs.values()])
        if n < cv_min_rows(k, folds):
            raise ValueError(f"need n >= 2*folds and n >= k + 2, got n={n}, k={k}, folds={folds}")
        if Y.shape[0] != n:
            raise ValueError(f"{Y.shape[0]} target values for {n} rows")
        with np.errstate(over="ignore", invalid="ignore"):
            centered = X - X.mean(axis=0)
            scale = _finite("a feature column's z-scoring scale", centered.std(axis=0, ddof=1))
        # a spread at the rounding level of the design's largest entry (a
        # constant column, a null principal component) is not scaled up, so
        # least squares still sees that column as rank deficient
        flat = scale <= n * np.finfo(np.float64).eps * np.abs(X).max(initial=0.0)
        aug = np.hstack([np.ones((n, 1)), centered / np.where(flat, 1.0, scale)])
        self.n = n
        blocks = []
        with np.errstate(over="ignore", invalid="ignore"):
            Y = Y - Y.mean(axis=0)  # else the Gram form of the held-out SSE loses digits to the mean
            for test_idx in _cv_folds(n, folds, seed):
                a_tr, y_tr = np.delete(aug, test_idx, axis=0), np.delete(Y, test_idx, axis=0)
                a_te, y_te = aug[test_idx], Y[test_idx]
                blocks.append((a_tr.T @ a_tr, a_tr.T @ y_tr, a_te.T @ a_te, a_te.T @ y_te,
                               (y_te**2).sum(axis=0), ((y_te - y_te.mean(axis=0)) ** 2).sum(axis=0)))
        self.g_tr, self.c_tr, self.g_te, self.c_te, self.yy_te, sst = (
            _finite("a fold Gram block", np.stack(block)) for block in zip(*blocks))
        self.constant_te = sst == 0.0
        self.sst = np.where(self.constant_te, 1.0, sst)

    def scores(self, subsets: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
        """Adjusted cross-validated r2 of each subset's model (rows) for every
        dependent variable (columns), and whether every fold's fit of each
        subset had full rank (a rank-deficient fold uses its minimum-norm fit)."""
        table = np.empty((len(subsets), self.c_tr.shape[2]))
        full_rank = np.empty(len(subsets), dtype=bool)
        for row, features in enumerate(subsets):
            cols = np.concatenate([[0], np.asarray(features, dtype=np.intp) + 1])
            block = (slice(None), cols[:, None], cols)
            fits = [np.linalg.lstsq(g, c, rcond=None) for g, c in zip(self.g_tr[block], self.c_tr[:, cols])]
            beta = np.stack([fit[0] for fit in fits])
            sse = self.yy_te + (beta * (self.g_te[block] @ beta - 2.0 * self.c_te[:, cols])).sum(axis=1)
            sse = np.maximum(sse, 0.0)
            fold_r2 = np.where(self.constant_te, sse < 1e-24, 1.0 - sse / self.sst)
            table[row] = adjusted_r2(fold_r2.mean(axis=0), self.n, cols.size - 1)
            full_rank[row] = all(fit[2] == cols.size for fit in fits)
        return table, full_rank


def _feature_names(names: Sequence[str] | None, k: int) -> tuple[str, ...]:
    if names is None:
        return tuple(f"f{i}" for i in range(k))
    if len(names) != k:
        raise ValueError(f"{len(names)} names for {k} features")
    return tuple(names)


def feature_search_report(
    X,
    dvs: Mapping[str, np.ndarray],
    feature_names: Sequence[str] | None = None,
    folds: int = 10,
    seed: int = 0,
) -> FeatureSearchReport:
    """Run the exhaustive search for every dependent variable in one pass and
    tally how often each feature lands in a best-subset list.

    Every nonempty feature subset is scored in (size, lexicographic) order. A
    subset with a rank-deficient fold is skipped for every dependent variable
    and counted in ``n_skipped``."""
    X = np.asarray(X, dtype=np.float64)
    k = X.shape[1]
    names = _feature_names(feature_names, k)
    subsets = [s for size in range(1, k + 1) for s in itertools.combinations(range(k), size)]
    scores, full_rank = _FoldGrams(X, dvs, folds, seed).scores(subsets)
    scores[~full_rank] = -np.inf
    n_skipped = int(np.count_nonzero(~full_rank))
    if n_skipped == len(subsets):
        raise ValueError("every feature subset was rank deficient")
    best = [_first_best(column) for column in scores.T]
    per_dv_best = {dv: tuple(names[i] for i in subsets[b]) for dv, b in zip(dvs, best)}
    return FeatureSearchReport(
        per_dv_best=per_dv_best,
        per_dv_adj_r2={dv: float(scores[b, j]) for j, (dv, b) in enumerate(zip(dvs, best))},
        tallies={name: sum(chosen.count(name) for chosen in per_dv_best.values()) for name in names},
        n_skipped=n_skipped,
    )


def ablation_single_step(
    X, dvs, feature_names: Sequence[str] | None = None, folds: int = 10, seed: int = 0
) -> dict[str, AblationResult]:
    """Drop each feature from the full model once and record the fit change,
    for every dependent variable of ``dvs`` (name to values) in one pass.

    ``deltas[f]`` is baseline minus the ablated fit, so features whose removal
    hurts most score highest. Rank 1 goes to the largest delta; deltas within
    ``_TIE_TOL`` resolve in feature order. A rank-deficient model is scored
    with its minimum-norm fit.
    """
    X = np.asarray(X, dtype=np.float64)
    k = X.shape[1]
    names = _feature_names(feature_names, k)
    subsets = [range(k), *([j for j in range(k) if j != i] for i in range(k))]
    scores = _FoldGrams(X, dvs, folds, seed).scores(subsets)[0]
    results = {}
    for dv, (baseline, *ablated) in zip(dvs, scores.T.tolist()):
        deltas = {name: baseline - score for name, score in zip(names, ablated)}
        remaining, ranks = list(range(k)), {}
        while remaining:
            i = remaining.pop(_first_best([deltas[names[j]] for j in remaining]))
            ranks[names[i]] = len(ranks) + 1
        results[dv] = AblationResult(baseline_adj_r2=baseline, deltas=deltas, ranks=ranks)
    return results


def _as_groups(groups: Sequence) -> list[np.ndarray]:
    arrays = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    if len(arrays) < 2:
        raise ValueError("need at least 2 groups")
    if any(g.size < 1 for g in arrays):
        raise ValueError("every group needs at least one value")
    if all(g.size < 2 for g in arrays):
        raise ValueError("at least one group needs two or more values")
    return arrays


def _f_test(ss_effect: float, ss_error: float, df_effect: int, df_error: int) -> AnovaResult:
    """F test of an effect's sum of squares against the error term, with
    partial eta-squared. A zero error sum of squares gives F = inf and p = 0
    when the effect is nonzero, and F = 0 and p = 1 when it is zero too."""
    ss_effect, ss_error = float(ss_effect), float(ss_error)  # F past the float range is inf, unwarned
    _finite("an F test's sum of squares", (ss_effect, ss_error, ss_effect + ss_error))
    if ss_error == 0.0:
        if ss_effect > 0.0:
            return AnovaResult(math.inf, 0.0, 1.0, df_effect, df_error)
        return AnovaResult(0.0, 1.0, 0.0, df_effect, df_error)
    f_stat = float((ss_effect / df_effect) / (ss_error / df_error))
    return AnovaResult(
        f_stat=f_stat,
        p_value=f_sf(f_stat, df_effect, df_error),
        eta_p2=float(ss_effect / (ss_effect + ss_error)),
        df_effect=df_effect,
        df_error=df_error,
    )


def anova_oneway(groups: Sequence) -> AnovaResult:
    """One-way ANOVA with partial eta-squared effect size.

    A zero within-group sum of squares with nonzero between-group variance is
    reported as an infinite F statistic with p = 0.
    """
    arrays = _as_groups(groups)
    all_values = np.concatenate(arrays)
    with np.errstate(over="ignore", invalid="ignore"):
        grand = all_values.mean()
        ssb = sum(g.size * (g.mean() - grand) ** 2 for g in arrays)
        ssw = sum(float(((g - g.mean()) ** 2).sum()) for g in arrays)
    return _f_test(ssb, ssw, len(arrays) - 1, all_values.size - len(arrays))


def _sse(design: np.ndarray, y: np.ndarray) -> float:
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    return float(resid @ resid)


def ancova(y, factor: Sequence, covariates=None) -> AnovaResult:
    """Type-II ANCOVA for one categorical factor with numeric covariates.

    The factor's sum of squares is the SSE drop from adding its dummy columns
    to the covariate-only model. Levels are dummy-coded in lexicographic
    order with the first level as reference. With no covariates this reduces
    exactly to one-way ANOVA.
    """
    y = np.asarray(y, dtype=np.float64)
    labels = [str(lvl) for lvl in factor]
    if len(labels) != y.size:
        raise ValueError("factor length must match y")
    if covariates is None:
        cov = np.empty((y.size, 0))
    else:
        cov = np.asarray(covariates, dtype=np.float64)
        if cov.ndim == 1:
            cov = cov[:, None]
        if cov.shape[0] != y.size:
            raise ValueError("covariate rows must match y")
    levels = sorted(set(labels))
    if len(levels) < 2:
        raise ValueError("factor needs at least 2 levels")
    reduced = np.hstack([np.ones((y.size, 1)), cov])
    if np.linalg.matrix_rank(reduced) < reduced.shape[1]:
        raise ValueError("covariate matrix is rank deficient with intercept")
    dummies = np.column_stack([[1.0 if lab == lvl else 0.0 for lab in labels] for lvl in levels[1:]])
    full = np.hstack([reduced, dummies])
    if np.linalg.matrix_rank(full) < full.shape[1]:
        raise ValueError("factor dummies are collinear with the covariates")
    df_effect = len(levels) - 1
    df_error = y.size - full.shape[1]
    if df_error < 1:
        raise ValueError("no error degrees of freedom left")
    with np.errstate(over="ignore", invalid="ignore"):
        sse_full, sse_reduced = _sse(full, y), _sse(reduced, y)
    return _f_test(max(sse_reduced - sse_full, 0.0), sse_full, df_effect, df_error)


def tukey_hsd(groups: Sequence, labels: Sequence[str] | None = None) -> tuple[TukeyComparison, ...]:
    """Pairwise Tukey HSD over the given groups, one comparison per pair of
    groups in group order.

    With two groups the p-value is the exact two-sided t tail and equals
    ``anova_oneway(groups).p_value``. With three or more it comes from
    numerical quadrature of the studentized-range integral, whose upper tail
    is 1 - cdf and reads no p below about 6e-12 at df = 5048 (see
    ``special``).
    """
    arrays = _as_groups(groups)
    if labels is None:
        labels = [f"g{i}" for i in range(len(arrays))]
    elif len(labels) != len(arrays):
        raise ValueError("one label per group required")
    df_error = sum(g.size for g in arrays) - len(arrays)
    with np.errstate(over="ignore", invalid="ignore"):
        ms_within = _finite("the within-group mean square",
                            sum(float(((g - g.mean()) ** 2).sum()) for g in arrays) / df_error)
    if ms_within == 0.0:
        raise ValueError("zero within-group variance")
    comparisons = []
    k = len(arrays)
    for i in range(k):
        for j in range(i + 1, k):
            gi, gj = arrays[i], arrays[j]
            diff = _finite("a mean difference", float(gj.mean()) - float(gi.mean()))
            se = math.sqrt(ms_within / 2.0 * (1.0 / gi.size + 1.0 / gj.size))
            q = abs(diff) / se
            comparisons.append(
                TukeyComparison(
                    group_a=str(labels[i]),
                    group_b=str(labels[j]),
                    mean_diff=diff,
                    q_stat=q,
                    p_value=studentized_range_sf(q, k, df_error),
                )
            )
    return tuple(comparisons)


def constant_columns(X) -> np.ndarray:
    """Whether each column of the n x k matrix ``X`` is constant, so cannot be
    standardized: no entry differs from the column mean by more than the
    larger of n * eps * the column's largest magnitude (the rounding error the
    mean of one repeated value can carry) and sqrt(tiny), about 1.5e-154
    (below which the squares of the spread underflow and its std reads 0)."""
    X = np.asarray(X, dtype=np.float64)
    floats = np.finfo(np.float64)
    bound = np.maximum(X.shape[0] * floats.eps * np.abs(X).max(axis=0, initial=0.0),
                       math.sqrt(floats.tiny))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing column is not constant
        return np.abs(X - X.mean(axis=0)).max(axis=0, initial=0.0) <= bound


def pca(X) -> PCAResult:
    """PCA via SVD of the z-scored data matrix; a column ``constant_columns``
    calls constant cannot be standardized and is refused."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("PCA needs an n x k matrix with n > 1")
    if constant_columns(X).any():
        raise ValueError("zero-variance column cannot be standardized")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        centered = X - mean
        scale = _finite("a feature column's z-scoring scale", centered.std(axis=0, ddof=1))
    u, s, vt = np.linalg.svd(centered / scale, full_matrices=False)
    # sign convention: largest-magnitude loading of each component positive
    for i in range(vt.shape[0]):
        pivot = int(np.argmax(np.abs(vt[i])))
        if vt[i, pivot] < 0:
            vt[i] = -vt[i]
            u[:, i] = -u[:, i]
    explained = s**2 / (X.shape[0] - 1)
    total = float(explained.sum())
    ratio = explained / total if total > 0 else np.zeros_like(explained)
    return PCAResult(
        components=vt,
        explained_variance=explained,
        explained_variance_ratio=ratio,
        scores=u * s,
        mean=mean,
        scale=scale,
    )


def pcr(X, dvs, *, folds: int = 10, seed: int = 0) -> dict[str, PCRResult]:
    """Principal component regression of every dependent variable of ``dvs``
    in one pass: cross-validated adjusted r2 for models on the first 1, 2, ..., all
    standardized components, or on at most n - 2 of them, as adjusted r2 needs
    n > components + 1; best_components is the first count within
    ``_TIE_TOL`` of the best score."""
    components = pca(X).scores
    components = components[:, : components.shape[0] - 2]
    prefixes = [range(j) for j in range(1, components.shape[1] + 1)]
    scores = _FoldGrams(components, dvs, folds, seed).scores(prefixes)[0]
    return {dv: PCRResult(adj_r2_by_components=tuple(values), best_components=_first_best(values) + 1)
            for dv, values in zip(dvs, scores.T.tolist())}
