import math

import numpy as np
import pytest

import xlalign as xa
from xlalign import isomorphism as iso
from xlalign import mining
from xlalign.knn import _topk_block, cosine, unit_rows
from xlalign.mining import MinedAlignment, average_margin, mine_intersection, retrieval_f1
from xlalign.pipeline import compute_pair_metrics

from conftest import random_rotation


def _forward(src, tgt, k):
    """The rows `mine --direction forward` writes: one pair per source row."""
    return tuple(mining._PairTables(src, tgt, k).mine(0))


def _backward(src, tgt, k):
    """The rows `mine --direction backward` writes: one pair per target row, by row_a."""
    return tuple(sorted(mining._PairTables(src, tgt, k).mine(1)))


def _unit(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


_DENOM_FLOOR = 1e-12  # the floor of xlalign.mining


def _ref_margin_score(x_row, y_row, cos_x: list[float], cos_y: list[float], k: int) -> float:
    """Margin score of the pair (x, y) given the cosines of each side's k
    nearest neighbors.

    ``cos_x`` must hold the cosines of x's neighbors in the opposite space and
    vice versa, each of length exactly ``k``.
    """
    # frozen copy of the two-row margin function that xlalign.mining exported
    if len(cos_x) != k or len(cos_y) != k:
        raise ValueError(f"neighbor lists must hold exactly k={k} entries")
    denom = sum(cos_x) + sum(cos_y)
    if denom <= _DENOM_FLOOR:
        raise ValueError(f"margin denominator {denom} is degenerate (all-orthogonal neighborhoods)")
    return 2.0 * k * cosine(x_row, y_row) / denom


def test_average_margin_mutual_nearest_is_one():
    a = xa.EmbeddingMatrix("a", [[1.0, 0.0]])
    b = xa.EmbeddingMatrix("b", [[0.9, math.sqrt(1 - 0.81)]])
    assert average_margin(xa.align_pair(a, b), 1) == 1.0


def test_average_margin_direct_formula():
    # x0's neighbors in b have cosines 0.9 and 0.5, y0's in a 0.9 and 0.7
    below = math.acos(0.9) - math.acos(0.7)
    a = xa.EmbeddingMatrix("a", [[1.0, 0.0], [math.cos(below), math.sin(below)]], ("p", "q"))
    b = xa.EmbeddingMatrix("b", [[0.9, math.sqrt(1 - 0.81)], [0.5, math.sqrt(0.75)]], ("p", "r"))
    pair = xa.align_pair(a, b)
    assert pair.gold == ((0, 0),)
    # 2k cos / (neighbor sums) = 4 * 0.9 / (1.4 + 1.6)
    assert average_margin(pair, 2) == pytest.approx(1.2, abs=1e-12)


def test_average_margin_symmetry():
    # shared ids in the same order, so both orientations list the gold pairs alike
    rng = np.random.default_rng(0)
    a = xa.EmbeddingMatrix("a", rng.standard_normal((6, 6)))
    b = xa.EmbeddingMatrix("b", rng.standard_normal((7, 6)))
    assert average_margin(xa.align_pair(a, b), 2) == average_margin(xa.align_pair(b, a), 2)


def test_average_margin_degenerate_denominator():
    a = xa.EmbeddingMatrix("a", [[1.0, 0.0]])
    b = xa.EmbeddingMatrix("b", [[-1.0, 0.0]])  # anti-aligned: each top-1 cosine is -1
    with pytest.raises(ValueError, match="degenerate"):
        average_margin(xa.align_pair(a, b), 1)
    # the gold alignment is derived from the verse ids; there is none to supply
    with pytest.raises(TypeError, match="gold"):
        xa.BitextPair(a, b, gold=())


def test_forward_mining_recovers_permutation():
    rng = np.random.default_rng(11)
    src = _unit(rng, 40, 16)
    perm = rng.permutation(40)
    tgt = src[perm]
    mined = _forward(xa.EmbeddingMatrix("s", src), xa.EmbeddingMatrix("t", tgt), 4)
    recovered = {a: b for a, b, _ in mined}
    assert all(perm[recovered[i]] == i for i in range(40))


def test_forward_mining_single_row():
    a = xa.EmbeddingMatrix("a", np.array([[0.6, 0.8]]))
    b = xa.EmbeddingMatrix("b", np.array([[0.6, 0.8]]))
    assert _forward(a, b, 1) == ((0, 0, 1.0),)


def test_forward_mining_is_total_over_sources():
    # one source row orthogonal to every target still yields a (low) pair
    src = xa.EmbeddingMatrix("s", np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    tgt = xa.EmbeddingMatrix("t", np.array([[1.0, 0.0, 0.0], [0.9, 0.1, 0.0]]))
    mined = _forward(src, tgt, 1)
    assert len(mined) == 2
    orthogonal = dict((a, s) for a, _, s in mined)[0]
    assert orthogonal == pytest.approx(0.0, abs=1e-12)


def test_mine_intersection_self_alignment():
    rng = np.random.default_rng(3)
    data = _unit(rng, 5, 8)
    m = xa.EmbeddingMatrix("m", data)
    mined = mine_intersection(m, m, 2)
    assert mined.pair_set() == {(i, i) for i in range(5)}
    assert len(mined.pairs) == 5


def test_mine_intersection_is_subset_of_both_directions():
    rng = np.random.default_rng(21)
    base = _unit(rng, 100, 16)
    rot = random_rotation(rng, 16)
    a = xa.EmbeddingMatrix("a", base @ rot)
    b = xa.EmbeddingMatrix("b", base @ rot + 0.2 * rng.standard_normal((100, 16)))
    inter = mine_intersection(a, b, 4).pair_set()
    fwd = {(i, j) for i, j, _ in _forward(a, b, 4)}
    bwd = {(i, j) for i, j, _ in _backward(a, b, 4)}
    assert inter == fwd & bwd
    assert inter <= fwd and inter <= bwd


def test_mine_intersection_symmetric_up_to_transpose():
    rng = np.random.default_rng(22)
    a = xa.EmbeddingMatrix("a", _unit(rng, 30, 8))
    b = xa.EmbeddingMatrix("b", _unit(rng, 30, 8))
    ab = mine_intersection(a, b, 3).pair_set()
    ba = mine_intersection(b, a, 3).pair_set()
    assert ab == {(j, i) for i, j in ba}


def test_mined_alignment_invariants():
    with pytest.raises(ValueError, match="duplicate source"):
        MinedAlignment(((0, 1, 0.5), (0, 2, 0.5)))
    with pytest.raises(ValueError, match="duplicate target"):
        MinedAlignment(((0, 1, 0.5), (1, 1, 0.5)))
    # Python and numpy floats alike, finite ones accepted
    for score in (math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf")):
        with pytest.raises(ValueError, match="^non-finite margin score$"):
            MinedAlignment(((0, 1, 0.5), (1, 0, score)))
    assert MinedAlignment(((0, 1, np.float64(0.5)), (1, 0, -1e308))).pairs[1][2] == -1e308


def test_retrieval_f1_examples():
    gold = [(0, 0), (1, 1), (2, 2)]
    perfect = MinedAlignment(tuple((i, i, 1.0) for i in range(3)))
    score = retrieval_f1(perfect, gold)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    partial = MinedAlignment(((0, 0, 1.0), (1, 1, 1.0)))
    score = retrieval_f1(partial, gold)
    assert score.precision == 1.0
    assert score.recall == pytest.approx(2 / 3)
    assert score.f1 == pytest.approx(0.8)
    assert score.n_correct <= min(score.n_gold, score.n_mined)

    disjoint = MinedAlignment(((0, 1, 1.0), (1, 2, 1.0)))
    assert retrieval_f1(disjoint, gold).f1 == 0.0

    with pytest.raises(ValueError, match="empty"):
        retrieval_f1(perfect, [])


def test_f1_is_one_iff_mined_equals_gold():
    gold = [(0, 0), (1, 1)]
    same = MinedAlignment(((0, 0, 1.0), (1, 1, 1.0)))
    assert retrieval_f1(same, gold).f1 == 1.0
    superset = MinedAlignment(((0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)))
    assert retrieval_f1(superset, gold).f1 < 1.0


def test_average_margin_exact_copy_is_one():
    rng = np.random.default_rng(8)
    data = _unit(rng, 20, 6)
    a = xa.EmbeddingMatrix("a", data)
    b = xa.EmbeddingMatrix("b", data.copy())
    pair = xa.align_pair(a, b)
    assert average_margin(pair, 1) == 1.0


def test_average_margin_single_gold_pair_matches_margin_score():
    rng = np.random.default_rng(9)
    a_data = _unit(rng, 6, 5)
    b_data = _unit(rng, 7, 5)
    a = xa.EmbeddingMatrix("a", a_data, tuple("abcdef"))
    b = xa.EmbeddingMatrix("b", b_data, tuple("fghijkl"))
    pair = xa.align_pair(a, b)  # only id "f" is shared
    assert pair.gold == ((5, 0),)
    k = 3
    cos_a = xa.knn_search(a, b, k)[1][5].tolist()
    cos_b = xa.knn_search(b, a, k)[1][0].tolist()
    direct = _ref_margin_score(a_data[5], b_data[0], cos_a, cos_b, k)
    assert average_margin(pair, k) == pytest.approx(direct, abs=1e-12)


def test_average_margin_noise_monotonicity():
    rng = np.random.default_rng(7)
    base = _unit(rng, 50, 16)
    noise = rng.standard_normal((50, 16))
    values = {}
    for sigma in (0.05, 0.5):
        a = xa.EmbeddingMatrix("a", base)
        b = xa.EmbeddingMatrix("b", base + sigma * noise)
        values[sigma] = average_margin(xa.align_pair(a, b), 4)
    assert values[0.5] < values[0.05]


def test_average_margin_rotation_invariance():
    rng = np.random.default_rng(14)
    a_data = _unit(rng, 30, 8)
    b_data = a_data + 0.1 * rng.standard_normal((30, 8))
    rot = random_rotation(rng, 8)
    plain = average_margin(
        xa.align_pair(xa.EmbeddingMatrix("a", a_data), xa.EmbeddingMatrix("b", b_data)), 4
    )
    rotated = average_margin(
        xa.align_pair(xa.EmbeddingMatrix("a", a_data @ rot), xa.EmbeddingMatrix("b", b_data @ rot)), 4
    )
    assert rotated == pytest.approx(plain, abs=1e-9)


def test_exact_copy_intersection_f1_is_one():
    rng = np.random.default_rng(15)
    data = _unit(rng, 25, 8)
    a = xa.EmbeddingMatrix("a", data)
    b = xa.EmbeddingMatrix("b", data.copy())
    pair = xa.align_pair(a, b)
    mined = mine_intersection(a, b, 4)
    assert retrieval_f1(mined, pair.gold).f1 == 1.0


def test_both_tables_read_the_same_cosines():
    # paper-shaped: Matthew's and John's verse counts by 768 dimensions; two
    # matrix products, one per direction, round some shared cosines apart
    rng = np.random.default_rng(0)
    meaning = rng.standard_normal((1071, 768))
    a = xa.EmbeddingMatrix("a", meaning + 0.8 * rng.standard_normal((1071, 768)))
    b = xa.EmbeddingMatrix("b", meaning[:879] + 0.8 * rng.standard_normal((879, 768)))
    (fwd_idx, fwd_cos), (bwd_idx, bwd_cos) = mining._PairTables(a, b, 4).topk
    forward = {(i, j): c for i, row in enumerate(fwd_idx.tolist())
               for j, c in zip(row, fwd_cos[i].tolist())}
    backward = {(i, j): c for j, row in enumerate(bwd_idx.tolist())
                for i, c in zip(row, bwd_cos[j].tolist())}
    shared = forward.keys() & backward.keys()
    assert len(shared) > 2000
    assert [p for p in sorted(shared) if forward[p] != backward[p]] == []


# --------------------------------------------- differential: one pair kernel
# The per-direction path the pair kernel replaced, kept as the reference:
# every mining call searched both directions again, each search with its own
# blocked matrix product, backward mining re-mined from scratch, average
# margin searched a third time, took one dot per gold pair and checked each
# gold denominator, and svg and econd_hm each took their own two SVDs.


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


def _ref_mine_arrays(src_unit, tgt_unit, k):
    cand_idx, cand_sim = _knn_topk(src_unit, tgt_unit, k)
    src_sums = cand_sim.sum(axis=1)
    _, back_sim = _knn_topk(tgt_unit, src_unit, k)
    tgt_sums = back_sim.sum(axis=1)
    denom = src_sums[:, None] + tgt_sums[cand_idx]
    if (denom <= 1e-12).any():
        raise ValueError("margin denominator is degenerate (all-orthogonal neighborhoods)")
    margins = 2.0 * k * cand_sim / denom
    pairs = []
    for i in range(src_unit.shape[0]):
        best = np.lexsort((cand_idx[i], -margins[i]))[0]
        pairs.append((i, int(cand_idx[i, best]), float(margins[i, best])))
    return pairs


def _ref_forward(src, tgt, k):
    return tuple(_ref_mine_arrays(unit_rows(src.data), unit_rows(tgt.data), k))


def _ref_backward(src, tgt, k):
    return tuple(sorted((a, b, s) for b, a, s in _ref_forward(tgt, src, k)))


def _ref_intersection(a, b, k):
    backward_set = {(i, j) for i, j, _ in _ref_backward(a, b, k)}
    return tuple(p for p in _ref_forward(a, b, k) if (p[0], p[1]) in backward_set)


def _ref_average_margin(pair, k):
    a_unit = unit_rows(pair.mat_a.data)
    b_unit = unit_rows(pair.mat_b.data)
    _, a_sim = _knn_topk(a_unit, b_unit, k)
    _, b_sim = _knn_topk(b_unit, a_unit, k)
    a_sums = a_sim.sum(axis=1)
    b_sums = b_sim.sum(axis=1)
    margins = []
    for i, j in pair.gold:
        denom = a_sums[i] + b_sums[j]
        if denom <= 1e-12:
            raise ValueError("margin denominator is degenerate (all-orthogonal neighborhoods)")
        cos_ij = float(np.clip(a_unit[i] @ b_unit[j], -1.0, 1.0))
        margins.append(2.0 * k * cos_ij / denom)
    return float(np.mean(margins))


def _ref_svg(a, b):
    sa = iso._filtered(iso.singular_values(a).values)
    sb = iso._filtered(iso.singular_values(b).values)
    n = min(sa.size, sb.size)
    sa, sb = sa[:n], sb[:n]
    if (sa <= 1e-12).any() or (sb <= 1e-12).any():
        raise ValueError("paired singular value below tolerance; log gap undefined")
    return float(np.sum((np.log(sa) - np.log(sb)) ** 2))


def _ref_pair_metrics(mat_a, mat_b, k, gh_max_points):
    pair = xa.align_pair(mat_a, mat_b)
    mined = MinedAlignment(_ref_intersection(mat_a, mat_b, k))
    rows_a = [i for i, _ in pair.gold]
    rows_b = [j for _, j in pair.gold]
    sub_a = xa.EmbeddingMatrix("a", mat_a.data[rows_a])
    sub_b = xa.EmbeddingMatrix("b", mat_b.data[rows_b])
    ka = iso.effective_condition_number(iso.singular_values(sub_a))
    kb = iso.effective_condition_number(iso.singular_values(sub_b))
    return {
        "f1": retrieval_f1(mined, pair.gold).f1,
        "avg_margin": _ref_average_margin(pair, k),
        "svg": _ref_svg(sub_a, sub_b),
        "econd_hm": iso.condition_harmonic_mean(ka, kb),
        "gh": iso.gh_distance(sub_a, sub_b, gh_max_points),
    }


def _random_pair():
    # 60 and 55 rows over 70 verses, so each side has distractor rows; the
    # shared offset keeps top-k cosine sums positive up to k = 55
    rng = np.random.default_rng(31)
    base = rng.standard_normal((70, 16)) + 1.0
    ids = [f"v{i:02d}" for i in range(70)]
    rows_a = np.sort(rng.choice(70, 60, replace=False))
    rows_b = np.sort(rng.choice(70, 55, replace=False))
    a = base[rows_a] + 0.4 * rng.standard_normal((60, 16))
    b = base[rows_b] + 0.4 * rng.standard_normal((55, 16))
    return (xa.EmbeddingMatrix("a", a, tuple(ids[i] for i in rows_a)),
            xa.EmbeddingMatrix("b", b, tuple(ids[i] for i in rows_b)))


def _tied_pair():
    # non-negative integer rows, so every cosine is >= 0; rows 5 and 9 repeat
    # row 2 and row 7 is a multiple of row 1, so cosines and margins tie
    rng = np.random.default_rng(32)
    data = rng.integers(0, 3, (14, 6)).astype(float)
    data[data.sum(axis=1) == 0, 0] = 1.0
    data[5] = data[9] = data[2]
    data[7] = 2.0 * data[1]
    perm = rng.permutation(14)
    ids = tuple(f"v{i:02d}" for i in range(14))
    return (xa.EmbeddingMatrix("a", data, ids),
            xa.EmbeddingMatrix("b", 3.0 * data[perm], tuple(ids[i] for i in perm)))


_DIFF_CASES = [
    (_random_pair, 1), (_random_pair, 4), (_random_pair, 55),
    (_tied_pair, 1), (_tied_pair, 3), (_tied_pair, 4), (_tied_pair, 14),
]


@pytest.mark.parametrize("make, k", _DIFF_CASES,
                         ids=[f"{make.__name__[1:]}-k{k}" for make, k in _DIFF_CASES])
def test_pair_kernel_matches_reference_path(make, k):
    a, b = make()
    assert _forward(a, b, k) == _ref_forward(a, b, k)
    assert _backward(a, b, k) == _ref_backward(a, b, k)
    assert mine_intersection(a, b, k).pairs == _ref_intersection(a, b, k)
    pair = xa.align_pair(a, b)
    assert average_margin(pair, k) == _ref_average_margin(pair, k)
    metrics = compute_pair_metrics(a, b, k=k, gh_max_points=20)
    assert metrics.as_dict() == _ref_pair_metrics(a, b, k, 20)


def test_pair_metrics_search_and_decompose_once(monkeypatch):
    calls = {"topk": 0, "svd": 0}
    topk, svd = mining._topk_block, np.linalg.svd

    def counted_topk(*args, **kwargs):
        calls["topk"] += 1
        return topk(*args, **kwargs)

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(mining, "_topk_block", counted_topk)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    a, b = _random_pair()
    compute_pair_metrics(a, b, k=4, gh_max_points=20)
    assert calls == {"topk": 2, "svd": 2}
