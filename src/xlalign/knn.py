"""Exact cosine k-nearest-neighbor search.

Rows are unit-normalized once per matrix so cosine reduces to a dot product,
and similarities are computed with a blocked matrix multiply. Each block's
top k is a partial selection: ``np.partition`` finds every row's k-th largest
similarity, and only the entries at or above it (ties included) are sorted,
so a row of m targets costs O(m) plus a sort of about k survivors instead of
a full sort. Results are exact and deterministic: ties are broken toward the
lower target index, so any parallel schedule over query rows yields the same
output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingMatrix


@dataclass(frozen=True)
class NeighborList:
    """The k nearest targets of one query row, sorted by cosine descending."""

    query_index: int
    neighbors: tuple[tuple[int, float], ...]

    def __post_init__(self):
        cosines = [c for _, c in self.neighbors]
        if any(c2 > c1 + 1e-9 for c1, c2 in zip(cosines, cosines[1:])):
            raise ValueError("neighbors must be sorted by cosine descending")
        indices = [t for t, _ in self.neighbors]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate target index in neighbor list")
        if any(abs(c) > 1.0 + 1e-9 for c in cosines):
            raise ValueError("cosine outside [-1, 1]")


def cosine(u, v) -> float:
    """Cosine similarity of two nonzero vectors, clipped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def unit_rows(data: np.ndarray) -> np.ndarray:
    """Return a copy of ``data`` with every row scaled to unit L2 norm."""
    norms = np.linalg.norm(data, axis=1, keepdims=True)
    if (norms == 0.0).any():
        raise ValueError("cannot normalize zero row")
    return data / norms


def _topk_block(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k largest entries (1 <= k <= columns), descending, ties
    toward the lower column."""
    n, m = sims.shape
    kth = np.partition(sims, m - k, axis=1)[:, m - k, None]
    # every entry ranked above the k-th survives, and so does every tie with it
    rows, cols = np.nonzero(sims >= kth)
    vals = sims[rows, cols]
    survivors = np.lexsort((cols, -vals, rows))
    starts = np.searchsorted(rows, np.arange(n))
    pick = survivors[starts[:, None] + np.arange(k)]
    return cols[pick], vals[pick]


def _knn_topk(
    queries_unit: np.ndarray, targets_unit: np.ndarray, k: int, block_size: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k over prenormalized rows: (indices, cosines), each n_queries x k."""
    n = queries_unit.shape[0]
    idx = np.empty((n, k), dtype=np.int64)
    sim = np.empty((n, k), dtype=np.float64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = queries_unit[start:stop] @ targets_unit.T
        np.clip(block, -1.0, 1.0, out=block)
        idx[start:stop], sim[start:stop] = _topk_block(block, k)
    return idx, sim


def knn_search(queries: EmbeddingMatrix, targets: EmbeddingMatrix, k: int) -> list[NeighborList]:
    """For each query row, the ``k`` targets with highest cosine similarity.

    Ties break toward the lower target index. Requires
    ``1 <= k <= targets.n_rows`` and equal dimensionalities.
    """
    if queries.dim != targets.dim:
        raise ValueError(f"dimension mismatch: {queries.dim} vs {targets.dim}")
    if not 1 <= k <= targets.n_rows:
        raise ValueError(f"k={k} out of range [1, {targets.n_rows}]")
    idx, sim = _knn_topk(unit_rows(queries.data), unit_rows(targets.data), k)
    return [
        NeighborList(query_index=q, neighbors=tuple(zip(idx[q].tolist(), sim[q].tolist())))
        for q in range(queries.n_rows)
    ]
