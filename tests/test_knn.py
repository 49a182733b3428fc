import math

import numpy as np
import pytest

from xlalign.corpus import EmbeddingMatrix
from xlalign.knn import NeighborList, _knn_topk, _topk_block, cosine, knn_search, unit_rows

from conftest import knn_sort_oracle


def test_cosine_examples():
    assert cosine([1, 0], [1, 0]) == 1.0
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([1, 1], [1, 0]) == 1 / math.sqrt(2)


def test_cosine_errors():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine([0, 0], [1, 0])
    with pytest.raises(ValueError, match="shape mismatch"):
        cosine([1, 0], [1, 0, 0])


def test_neighbor_list_invariants():
    with pytest.raises(ValueError, match="sorted"):
        NeighborList(0, ((1, 0.2), (2, 0.9)))
    with pytest.raises(ValueError, match="duplicate"):
        NeighborList(0, ((1, 0.9), (1, 0.2)))
    with pytest.raises(ValueError, match="outside"):
        NeighborList(0, ((1, 1.5),))


def test_knn_one_hot_identity():
    targets = EmbeddingMatrix("t", np.eye(3))
    queries = EmbeddingMatrix("q", np.array([[1.0, 0.0, 0.0]]))
    (result,) = knn_search(queries, targets, 1)
    assert result.neighbors == ((0, 1.0),)


def test_knn_tie_breaks_to_lower_index():
    s = math.sqrt(0.75)
    targets = EmbeddingMatrix("t", np.array([[0.5, s, 0.0], [0.5, -s, 0.0], [0.0, 0.0, 1.0]]))
    queries = EmbeddingMatrix("q", np.array([[1.0, 0.0, 0.0]]))
    (result,) = knn_search(queries, targets, 1)
    assert result.neighbors[0][0] == 0


def test_knn_k_out_of_range():
    m = EmbeddingMatrix("m", np.eye(3))
    with pytest.raises(ValueError, match="out of range"):
        knn_search(m, m, 0)
    with pytest.raises(ValueError, match="out of range"):
        knn_search(m, m, 4)
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
        knn_search(m, EmbeddingMatrix("t", np.eye(2)), 1)


def test_knn_matches_sort_oracle():
    rng = np.random.default_rng(123)
    for trial in range(30):
        n_q = int(rng.integers(2, 60))
        n_t = int(rng.integers(2, 60))
        d = int(rng.integers(2, 12))
        q = rng.standard_normal((n_q, d))
        t = rng.standard_normal((n_t, d))
        if trial % 3 == 0 and n_t >= 4:
            t[1] = 2.0 * t[0]  # exact duplicate direction: forces a real tie
        k = int(rng.integers(1, n_t + 1))
        got = knn_search(EmbeddingMatrix("q", q), EmbeddingMatrix("t", t), k)
        expected = knn_sort_oracle(q, t, k)
        for row, exp in zip(got, expected):
            assert [i for i, _ in row.neighbors] == [i for i, _ in exp]
            for (_, c1), (_, c2) in zip(row.neighbors, exp):
                assert abs(c1 - c2) < 1e-12


def test_knn_scale_invariance():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((10, 6))
    t = rng.standard_normal((20, 6))
    base = knn_search(EmbeddingMatrix("q", q), EmbeddingMatrix("t", t), 5)
    q2 = q.copy()
    t2 = t.copy()
    q2[3] *= 4.0
    t2[7] *= 0.5
    t2[11] *= 2.0
    scaled = knn_search(EmbeddingMatrix("q", q2), EmbeddingMatrix("t", t2), 5)
    for a, b in zip(base, scaled):
        assert a == b  # power-of-two scaling is exact


def test_knn_deterministic():
    rng = np.random.default_rng(9)
    q = EmbeddingMatrix("q", rng.standard_normal((40, 8)))
    t = EmbeddingMatrix("t", rng.standard_normal((50, 8)))
    assert knn_search(q, t, 6) == knn_search(q, t, 6)


def test_unit_rows():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((5, 4))
    normed = unit_rows(data)
    np.testing.assert_allclose(np.linalg.norm(normed, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="zero row"):
        unit_rows(np.array([[0.0, 0.0]]))


def _argsort_topk_block(sims, k):
    """Reference: the full stable-argsort kernel that partial selection replaced."""
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(sims, order, axis=1)


def _argsort_knn_topk(queries_unit, targets_unit, k, block_size):
    idx, sim = [], []
    for start in range(0, queries_unit.shape[0], block_size):
        block = np.clip(queries_unit[start:start + block_size] @ targets_unit.T, -1.0, 1.0)
        block_idx, block_sim = _argsort_topk_block(block, k)
        idx.append(block_idx)
        sim.append(block_sim)
    return np.concatenate(idx), np.concatenate(sim)


def _similarity_blocks(m):
    rng = np.random.default_rng(31)
    yield "random", rng.uniform(-1.0, 1.0, (40, m))
    yield "rounded", np.round(rng.uniform(-1.0, 1.0, (40, m)), 1)
    yield "few levels", rng.choice([-0.5, 0.0, 0.5], size=(40, m))
    # each row: two values above a run of six ties, so the k-th value's ties
    # straddle position k for k in 3..8
    straddle = np.array([0.9, 0.9] + [0.5] * 6 + [0.1] * (m - 8))
    yield "straddle", np.stack([rng.permutation(straddle) for _ in range(40)])
    yield "signed zeros", np.where(rng.random((40, m)) < 0.5, 0.0, -0.0)
    yield "constant", np.full((6, m), 0.25)


@pytest.mark.parametrize("k", [1, 4, 16, 32, 33])
def test_topk_block_matches_stable_argsort(k):
    m = 33
    for name, sims in _similarity_blocks(m):
        got = _topk_block(sims, k)
        expected = _argsort_topk_block(sims, k)
        assert np.array_equal(got[0], expected[0]), name
        # bit-level: signed zeros must come back as stored
        assert np.array_equal(got[1].view(np.int64), expected[1].view(np.int64)), name


@pytest.mark.parametrize("k", [1, 4, 16, 28, 29])
def test_knn_topk_matches_stable_argsort_across_blocks(k):
    rng = np.random.default_rng(7)
    for rounded in (False, True):
        q = rng.standard_normal((23, 6))
        t = rng.standard_normal((29, 6))
        t[3] = 2.0 * t[0]  # duplicated direction: tied cosines in every row
        if rounded:  # small integer rows: many exactly tied cosines
            q, t = np.round(q), np.round(t)
            q[(q == 0).all(axis=1), 0] = 1.0
            t[(t == 0).all(axis=1), 0] = 1.0
        q, t = unit_rows(q), unit_rows(t)
        got = _knn_topk(q, t, k, block_size=5)
        expected = _argsort_knn_topk(q, t, k, block_size=5)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
