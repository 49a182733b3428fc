"""Exact cosine k-nearest-neighbor search.

Rows are unit-normalized so cosine reduces to a dot product, and one matrix
product gives every cosine (``mining`` reads both directions of a pair from
one such matrix). Each row's top k is a partial selection: ``np.partition``
finds its k-th largest similarity, and only the entries at or above it (ties
included) are sorted, so a row of m targets costs O(m) plus a sort of about
k survivors instead of a full sort. A top-k table is an (n, k) array of target
indices and one of their cosines, each row exact, descending and deterministic:
ties go to the lower target index.
"""

from __future__ import annotations

import numpy as np

from .corpus import EmbeddingMatrix


def _squared_norm(vec: np.ndarray) -> tuple[np.float64, str | None]:
    """A vector's squared norm, as ``np.linalg.norm`` takes it (without
    numpy's overflow warning), and what keeps the norm from serving a cosine:
    "a non-finite entry", "zero norm" (a norm that underflows counts), "a
    squared norm that overflows", or None."""
    with np.errstate(over="ignore"):
        squared = np.dot(vec, vec)
    problem = (
        "a non-finite entry" if not np.isfinite(vec).all()
        else "zero norm" if squared == 0.0
        else "a squared norm that overflows" if not np.isfinite(squared)
        else None
    )
    return squared, problem


def cosine(u, v) -> float:
    """Cosine similarity of two nonzero vectors, clipped to [-1, 1]. A vector
    whose squared norm is not finite is refused, as its norm would read as
    infinite; by Cauchy-Schwarz, finite squared norms bound the dot product."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    (su, pu), (sv, pv) = _squared_norm(u), _squared_norm(v)
    # a non-finite entry and an overflow both leave a squared norm that is not finite
    if {pu, pv} - {None, "zero norm"}:
        raise ValueError("cosine undefined for a vector whose squared norm is not finite")
    if "zero norm" in (pu, pv):
        raise ValueError("cosine undefined for zero-norm vector")
    return float(np.clip(np.dot(u, v) / (np.sqrt(su) * np.sqrt(sv)), -1.0, 1.0))


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


def knn_search(queries: EmbeddingMatrix, targets: EmbeddingMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each query row, the ``k`` targets with highest cosine similarity:
    an (n_queries, k) array of target indices and one of their cosines,
    clipped to [-1, 1], each row sorted by cosine descending.

    Ties break toward the lower target index. Requires
    ``1 <= k <= targets.n_rows`` and equal dimensionalities.
    """
    if queries.dim != targets.dim:
        raise ValueError(f"dimension mismatch: {queries.dim} vs {targets.dim}")
    if not 1 <= k <= targets.n_rows:
        raise ValueError(f"k={k} out of range [1, {targets.n_rows}]")
    return _topk_block(np.clip(unit_rows(queries.data) @ unit_rows(targets.data).T, -1.0, 1.0), k)
