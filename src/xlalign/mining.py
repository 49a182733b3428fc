"""Margin-score bitext mining: the forward/backward intersection and its scoring.

The margin score of a candidate pair relativizes its cosine similarity by the
mean similarity of each side's k nearest neighbors:

    margin(x, y) = 2k cos(x, y) / (sum_{z in NN_k(x)} cos(x, z)
                                   + sum_{z in NN_k(y)} cos(y, z))

Mining runs in both directions and the intersection of the two pair sets is
the retrieved alignment, which is scored as F1 against a gold alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import BitextPair, EmbeddingMatrix
from .knn import _topk_block, unit_rows

_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class MinedAlignment:
    """Mined (row_a, row_b, margin) triples: one pair at most per row of either side."""

    pairs: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if len({a for a, _, _ in self.pairs}) != len(self.pairs):
            raise ValueError("duplicate source row in mined pairs")
        if len({b for _, b, _ in self.pairs}) != len(self.pairs):
            raise ValueError("duplicate target row in mined pairs")
        if not all(np.isfinite(s) for _, _, s in self.pairs):
            raise ValueError("non-finite margin score")

    def pair_set(self) -> set[tuple[int, int]]:
        return {(a, b) for a, b, _ in self.pairs}


@dataclass(frozen=True)
class RetrievalScore:
    """Precision/recall/F1 of a mined alignment against gold pairs."""

    precision: float
    recall: float
    f1: float
    n_gold: int
    n_mined: int
    n_correct: int


def _margins(k: int, cos: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Margins ``2k cos / denom``, where ``denom`` adds both sides' top-k cosine sums."""
    if (denom <= _DENOM_FLOOR).any():
        raise ValueError("margin denominator is degenerate (all-orthogonal neighborhoods)")
    return 2.0 * k * cos / denom


class _PairTables:
    """One clipped cosine matrix for a pair (a, b), so the a->b and b->a top-k
    tables (its rows and its columns) and the gold cosines read the same bits."""

    def __init__(self, a: EmbeddingMatrix, b: EmbeddingMatrix, k: int):
        if a.dim != b.dim:
            raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
        if not 1 <= k <= min(a.n_rows, b.n_rows):
            raise ValueError(f"k={k} out of range [1, {min(a.n_rows, b.n_rows)}]")
        self.k = k
        self.cos = np.clip(unit_rows(a.data) @ unit_rows(b.data).T, -1.0, 1.0)
        self.topk = (_topk_block(self.cos, k), _topk_block(self.cos.T, k))
        self.sums = tuple(sim.sum(axis=1) for _, sim in self.topk)

    def mine(self, side: int) -> list[tuple[int, int, float]]:
        """(row_a, row_b, margin) per row of side 0 (a) or 1 (b): top margin, then lower index."""
        idx, sim = self.topk[side]
        margins = _margins(self.k, sim, self.sums[side][:, None] + self.sums[1 - side][idx])
        pick = (np.arange(len(idx)), np.lexsort((idx, -margins), axis=1)[:, 0])
        mined = zip(pick[0].tolist(), idx[pick].tolist(), margins[pick].tolist())
        return [(q, t, m) if side == 0 else (t, q, m) for q, t, m in mined]

    def intersection(self) -> MinedAlignment:
        backward_set = {(a, b) for a, b, _ in self.mine(1)}
        pairs = tuple(p for p in self.mine(0) if p[:2] in backward_set)
        return MinedAlignment(pairs)

    def average_margin(self, gold: Sequence[tuple[int, int]]) -> float:
        rows_a, rows_b = np.array(gold).T
        denom = self.sums[0][rows_a] + self.sums[1][rows_b]
        return float(np.mean(_margins(self.k, self.cos[rows_a, rows_b], denom)))


def mine_intersection(a: EmbeddingMatrix, b: EmbeddingMatrix, k: int) -> MinedAlignment:
    """The intersection of forward and backward mining (forward margins kept)."""
    return _PairTables(a, b, k).intersection()


def retrieval_f1(mined: MinedAlignment, gold: Iterable[tuple[int, int]]) -> RetrievalScore:
    """Score mined pairs against gold pairs; raises on an empty gold set."""
    gold_set = {(int(i), int(j)) for i, j in gold}
    if not gold_set:
        raise ValueError("gold alignment is empty")
    mined_set = mined.pair_set()
    n_correct = len(mined_set & gold_set)
    precision = n_correct / len(mined_set) if mined_set else 0.0
    recall = n_correct / len(gold_set)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return RetrievalScore(
        precision=precision,
        recall=recall,
        f1=f1,
        n_gold=len(gold_set),
        n_mined=len(mined_set),
        n_correct=n_correct,
    )


def average_margin(pair: BitextPair, k: int) -> float:
    """Mean margin score over the gold-aligned rows of a bitext pair.

    Neighbor sums for each side are computed against the full opposite
    matrix, so non-gold rows influence the normalization as distractors.
    """
    if not pair.gold:
        raise ValueError("gold alignment is empty")
    return _PairTables(pair.mat_a, pair.mat_b, k).average_margin(pair.gold)
