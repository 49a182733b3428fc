"""Subspace isomorphism measures: singular-value gap, effective condition
number (harmonic mean), and a Gromov-Hausdorff proxy via bottleneck distance
between zero-dimensional persistence diagrams.

The persistence construction reads off single-linkage merge heights: rows are
unit-normalized, pairwise Euclidean distances computed, and the diagram is the
multiset {(0, w)} over the n-1 edge weights of the Euclidean minimum spanning
tree (the one essential, infinite bar is dropped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingMatrix
from .knn import unit_rows

_REL_TOL = 1e-12
_ABS_TOL = 1e-12


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values sorted descending, all non-negative."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise ValueError("singular values must be non-negative")
        top = max(vals, default=0.0)
        for v1, v2 in zip(vals, vals[1:]):
            if v2 > v1 + 1e-9 * max(top, 1.0):
                raise ValueError("singular values must be non-increasing")
        object.__setattr__(self, "values", tuple(sorted(vals, reverse=True)))


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth=0, death) pairs, deaths stored ascending."""

    deaths: tuple[float, ...]

    def __post_init__(self):
        deaths = tuple(float(d) for d in self.deaths)
        if any(not math.isfinite(d) or d < 0 for d in deaths):
            raise ValueError("deaths must be finite and non-negative")
        object.__setattr__(self, "deaths", tuple(sorted(deaths)))

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple((0.0, d) for d in self.deaths)

    def __len__(self) -> int:
        return len(self.deaths)


def singular_values(m: EmbeddingMatrix) -> SingularSpectrum:
    """Singular values of the raw embedding matrix, descending."""
    vals = np.linalg.svd(m.data, compute_uv=False)
    return SingularSpectrum(values=tuple(vals.tolist()))


def _filtered(values: tuple[float, ...]) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0 or vals[0] <= 0.0:
        raise ValueError("spectrum has no positive singular values")
    return vals[vals >= _REL_TOL * vals[0]]


def svg(a: EmbeddingMatrix, b: EmbeddingMatrix) -> float:
    """Singular value gap: sum of squared natural-log differences of the two
    sorted spectra, truncated to the shorter length after zero-filtering."""
    return _log_gap(singular_values(a), singular_values(b))


def _log_gap(a: SingularSpectrum, b: SingularSpectrum) -> float:
    sa, sb = _filtered(a.values), _filtered(b.values)
    n = min(sa.size, sb.size)
    sa, sb = sa[:n], sb[:n]
    if (sa <= _ABS_TOL).any() or (sb <= _ABS_TOL).any():
        raise ValueError("paired singular value below tolerance; log gap undefined")
    return float(np.sum((np.log(sa) - np.log(sb)) ** 2))


def effective_rank(s: SingularSpectrum) -> int:
    """floor(exp(H)) for H the natural-log entropy of the normalized spectrum.

    Values below 1e-12 relative to the largest are dropped before
    normalization, which also encodes the 0*log(0) = 0 convention.
    """
    vals = _filtered(s.values)
    weights = vals / vals.sum()
    entropy = float(-(weights * np.log(weights)).sum())
    # 1e-9 guards floor() against 1-ulp undershoot at exact-integer entropy
    rank = int(math.floor(math.exp(entropy) + 1e-9))
    return min(max(rank, 1), vals.size)


def effective_condition_number(s: SingularSpectrum) -> float:
    """Ratio of the largest singular value to the one at the effective rank."""
    vals = _filtered(s.values)
    rank = effective_rank(s)
    return float(vals[0] / vals[rank - 1])


def condition_harmonic_mean(ka: float, kb: float) -> float:
    """Harmonic mean of two condition numbers."""
    if ka <= 0 or kb <= 0:
        raise ValueError("condition numbers must be positive")
    return 2.0 * ka * kb / (ka + kb)


def econd_hm(a: EmbeddingMatrix, b: EmbeddingMatrix) -> float:
    """Harmonic mean of the two matrices' effective condition numbers.

    Lower values indicate subspaces that map onto each other more robustly.
    """
    ka = effective_condition_number(singular_values(a))
    kb = effective_condition_number(singular_values(b))
    return condition_harmonic_mean(ka, kb)


def mst_edge_weights(dist: np.ndarray) -> np.ndarray:
    """Edge weights of a minimum spanning tree of a dense distance matrix.

    Prim's algorithm; zero-weight edges are legitimate (duplicate points).
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if n < 2:
        return np.empty(0, dtype=np.float64)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    best[0] = np.inf
    weights = np.empty(n - 1, dtype=np.float64)
    for step in range(n - 1):
        nxt = int(np.argmin(best))
        weights[step] = best[nxt]
        in_tree[nxt] = True
        np.minimum(best, dist[nxt], out=best)
        best[in_tree] = np.inf
    return weights


def persistence_diagram_0d(m: EmbeddingMatrix, max_points: int = 500) -> PersistenceDiagram:
    """Zero-dimensional persistence diagram of the unit-normalized point cloud.

    Keeps the first ``max_points`` rows (documents are verse-ordered, so
    prefixes are comparable across languages), computes Euclidean distances,
    and returns the MST edge weights as death times. A single point yields an
    empty diagram (only the dropped essential class).
    """
    if max_points < 1:
        raise ValueError("max_points must be >= 1")
    cloud = unit_rows(m.data[:max_points])
    n = cloud.shape[0]
    if n == 1:
        return PersistenceDiagram(deaths=())
    gram = cloud @ cloud.T
    gram = (gram + gram.T) / 2.0
    sq = np.clip(2.0 - 2.0 * gram, 0.0, None)
    np.fill_diagonal(sq, 0.0)
    return PersistenceDiagram(deaths=tuple(mst_edge_weights(np.sqrt(sq)).tolist()))


def _saturates(mandatory: np.ndarray, partners: np.ndarray, t: float) -> bool:
    # greedy matching of sorted points into sorted partners within distance t;
    # optimal because all windows share the same width
    ptr = 0
    n = partners.size
    for m in mandatory:
        while ptr < n and (m - partners[ptr]) > t:
            ptr += 1
        if ptr < n and abs(partners[ptr] - m) <= t:
            ptr += 1
        else:
            return False
    return True


def _feasible(a: np.ndarray, b: np.ndarray, t: float) -> bool:
    # Points with death > 2t cannot take the diagonal (cost death/2) and must
    # match a real point on the other side. By the Mendelsohn-Dulmage theorem
    # the two one-sided saturating matchings can always be merged, so checking
    # each side separately decides perfect-matching feasibility.
    return _saturates(a[a > 2.0 * t], b, t) and _saturates(b[b > 2.0 * t], a, t)


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Bottleneck distance between two finite diagrams with all births at 0.

    Minimum over partial matchings of the maximum L-infinity cost, where a
    point (0, d) may match the diagonal at cost d/2. The optimum is always an
    element of the candidate cost set {0} + {|d_i - d_j|} + {d/2}, so a binary
    search over that set with matching-feasibility tests is exact.
    """
    a = np.asarray(d1.deaths, dtype=np.float64)
    b = np.asarray(d2.deaths, dtype=np.float64)
    if a.size == 0 and b.size == 0:
        return 0.0
    parts = [np.zeros(1), a * 0.5, b * 0.5]
    if a.size and b.size:
        parts.append(np.abs(a[:, None] - b[None, :]).ravel())
    candidates = np.unique(np.concatenate(parts))
    lo, hi = 0, candidates.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(a, b, float(candidates[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def gh_distance(a: EmbeddingMatrix, b: EmbeddingMatrix, max_points: int = 500) -> float:
    """Gromov-Hausdorff proxy: bottleneck distance between the two clouds'
    zero-dimensional persistence diagrams."""
    return bottleneck_distance(
        persistence_diagram_0d(a, max_points), persistence_diagram_0d(b, max_points)
    )
