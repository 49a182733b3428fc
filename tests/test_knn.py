import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xlalign.corpus import EmbeddingMatrix
from xlalign.knn import _topk_block, cosine, knn_search, unit_rows
from xlalign.mining import _PairTables

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
    # a squared norm that overflows used to read as an infinite norm (a cosine
    # of 0, or NaN), after numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, v in (([1e200, 1e200], [1.0, 2.0]), ([1.0, 2.0], [1e200, 1e200]),
                     ([1e200, 1e200], [1e200, 2e200]), ([math.nan, 1.0], [1.0, 1.0])):
            with pytest.raises(ValueError, match="squared norm is not finite"):
                cosine(u, v)
        # entries whose squares sum to just below the overflow
        assert cosine([9e153, 9e153], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_cosine_keeps_the_bits_of_the_norm_formula():
    # the overflow check must not move the bits of a finite cosine
    rng = np.random.default_rng(4)
    for _ in range(500):
        dim = int(rng.integers(2, 40))
        u = rng.standard_normal(dim) * 10.0 ** rng.integers(-150, 150)
        v = rng.standard_normal(dim)
        expected = np.clip(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0)
        assert cosine(u, v) == float(expected)


def test_knn_one_hot_identity():
    targets = EmbeddingMatrix("t", np.eye(3))
    queries = EmbeddingMatrix("q", np.array([[1.0, 0.0, 0.0]]))
    idx, sim = knn_search(queries, targets, 1)
    assert idx.tolist() == [[0]] and sim.tolist() == [[1.0]]


def test_knn_tie_breaks_to_lower_index():
    s = math.sqrt(0.75)
    targets = EmbeddingMatrix("t", np.array([[0.5, s, 0.0], [0.5, -s, 0.0], [0.0, 0.0, 1.0]]))
    queries = EmbeddingMatrix("q", np.array([[1.0, 0.0, 0.0]]))
    idx, _ = knn_search(queries, targets, 1)
    assert idx.tolist() == [[0]]


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
        idx, sim = knn_search(EmbeddingMatrix("q", q), EmbeddingMatrix("t", t), k)
        assert idx.shape == sim.shape == (n_q, k)
        expected = knn_sort_oracle(q, t, k)
        for row_idx, row_sim, exp in zip(idx.tolist(), sim.tolist(), expected):
            assert row_idx == [i for i, _ in exp]
            for c1, (_, c2) in zip(row_sim, exp):
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
        assert np.array_equal(a, b)  # power-of-two scaling is exact


def test_knn_deterministic():
    rng = np.random.default_rng(9)
    q = EmbeddingMatrix("q", rng.standard_normal((40, 8)))
    t = EmbeddingMatrix("t", rng.standard_normal((50, 8)))
    for a, b in zip(knn_search(q, t, 6), knn_search(q, t, 6)):
        assert np.array_equal(a, b)


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


def _ref_knn_search(queries: EmbeddingMatrix, targets: EmbeddingMatrix, k: int) -> list[NeighborList]:
    """Reference: the search that returned one validated NeighborList per query row."""
    if queries.dim != targets.dim:
        raise ValueError(f"dimension mismatch: {queries.dim} vs {targets.dim}")
    if not 1 <= k <= targets.n_rows:
        raise ValueError(f"k={k} out of range [1, {targets.n_rows}]")
    cos = np.clip(unit_rows(queries.data) @ unit_rows(targets.data).T, -1.0, 1.0)
    idx, sim = _topk_block(cos, k)
    return [
        NeighborList(query_index=q, neighbors=tuple(zip(idx[q].tolist(), sim[q].tolist())))
        for q in range(queries.n_rows)
    ]


@st.composite
def _search_cases(draw):
    """Query and target matrices of small integers (many exactly tied cosines),
    n_q != n_t allowed, k anywhere in 1..n_t, and sometimes a target that
    repeats another's direction, which ties every query's cosines exactly."""
    n_q, n_t, d = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(2, 5))
    entries = st.integers(-3, 3).map(float)
    q = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=n_q, max_size=n_q)))
    t = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=n_t, max_size=n_t)))
    q[(q == 0).all(axis=1), 0] = 1.0
    t[(t == 0).all(axis=1), 0] = 1.0
    if n_t >= 2 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n_t)))[:2]
        t[dst] = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) * t[src]
    return q, t, draw(st.integers(1, n_t))


@settings(max_examples=300, deadline=None)
@given(_search_cases())
def test_knn_search_equals_the_reference(case):
    q, t, k = case
    queries, targets = EmbeddingMatrix("q", q), EmbeddingMatrix("t", t)
    idx, sim = knn_search(queries, targets, k)
    expected = _ref_knn_search(queries, targets, k)
    assert idx.shape == sim.shape == (q.shape[0], k)
    assert idx.tolist() == [[i for i, _ in row.neighbors] for row in expected]
    assert sim.tolist() == [[c for _, c in row.neighbors] for row in expected]
    # the sweep's forward table is the public search's result
    if k <= q.shape[0]:
        tables_idx, tables_sim = _PairTables(queries, targets, k).topk[0]
        assert np.array_equal(tables_idx, idx) and np.array_equal(tables_sim, sim)


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


@pytest.mark.parametrize("k", [1, 4, 16, 22, 23])
def test_pair_tables_match_stable_argsort(k):
    rng = np.random.default_rng(7)
    for rounded in (False, True):
        q = rng.standard_normal((23, 6))
        t = rng.standard_normal((29, 6))
        t[3] = 2.0 * t[0]  # duplicated direction: tied cosines in every row
        if rounded:  # small integer rows: many exactly tied cosines
            q, t = np.round(q), np.round(t)
            q[(q == 0).all(axis=1), 0] = 1.0
            t[(t == 0).all(axis=1), 0] = 1.0
        tables = _PairTables(EmbeddingMatrix("q", q), EmbeddingMatrix("t", t), k)
        cos = np.clip(unit_rows(q) @ unit_rows(t).T, -1.0, 1.0)
        assert np.array_equal(tables.cos, cos)
        for got, sims in zip(tables.topk, (cos, cos.T)):
            expected = _argsort_topk_block(sims, k)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
