import math
import warnings

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from xlalign.corpus import EmbeddingMatrix
from xlalign.isomorphism import (
    PersistenceDiagram,
    SingularSpectrum,
    bottleneck_distance,
    condition_harmonic_mean,
    econd_hm,
    effective_condition_number,
    effective_rank,
    gh_distance,
    mst_edge_weights,
    persistence_diagram_0d,
    singular_values,
    svg,
)

from conftest import bottleneck_brute_force, random_rotation


def appendix_chain(values):
    """Independent pure-python evaluation of the effective-rank chain."""
    vals = sorted((v for v in values if v >= 1e-12 * max(values)), reverse=True)
    total = sum(vals)
    entropy = -sum((v / total) * math.log(v / total) for v in vals)
    rank = min(max(int(math.floor(math.exp(entropy) + 1e-9)), 1), len(vals))
    kappa = vals[0] / vals[rank - 1]
    return rank, kappa


def test_singular_values_identity_and_diagonal():
    assert singular_values(EmbeddingMatrix("x", np.eye(3))).values == (1.0, 1.0, 1.0)
    m = EmbeddingMatrix("x", np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(singular_values(m).values, (3.0, 2.0, 1.0), atol=1e-12)


def test_singular_values_gram_oracle():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((20, 8))
    got = np.array(singular_values(EmbeddingMatrix("x", data)).values)
    eigs = np.linalg.eigvalsh(data.T @ data)
    expected = np.sqrt(np.clip(eigs, 0.0, None))[::-1]
    np.testing.assert_allclose(got, expected, atol=1e-8)


def test_spectrum_invariants():
    with pytest.raises(ValueError, match="non-negative"):
        SingularSpectrum((1.0, -0.5))
    with pytest.raises(ValueError, match="non-increasing"):
        SingularSpectrum((1.0, 2.0))


@pytest.mark.parametrize("values", [(2.0, 1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0)])
def test_spectrum_refuses_non_finite_values(values):
    # once an effective condition number of 1.0, an IndexError, or a NaN cast to int
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="singular values must be finite and non-negative"):
            SingularSpectrum(values)


def test_svg_identity_and_symmetry():
    rng = np.random.default_rng(1)
    a = EmbeddingMatrix("a", rng.standard_normal((12, 5)))
    b = EmbeddingMatrix("b", rng.standard_normal((15, 5)))
    assert svg(a, a) == 0.0
    assert svg(a, b) == svg(b, a)


def test_svg_scaling_law():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((10, 3))
    a = EmbeddingMatrix("a", data)
    doubled = EmbeddingMatrix("b", 2.0 * data)
    assert svg(a, doubled) == pytest.approx(3 * math.log(2) ** 2, abs=1e-8)


def test_svg_unequal_lengths_truncate():
    rng = np.random.default_rng(3)
    a = EmbeddingMatrix("a", rng.standard_normal((10, 4)))
    b = EmbeddingMatrix("b", rng.standard_normal((10, 6)))
    assert svg(a, b) >= 0.0  # pairs only the first 4 values


def test_svg_degenerate_scale_error():
    rng = np.random.default_rng(4)
    tiny = 1e-13 * np.abs(rng.standard_normal((5, 3)) + 3.0)
    a = EmbeddingMatrix("a", tiny)
    b = EmbeddingMatrix("b", np.abs(rng.standard_normal((5, 3))) + 1.0)
    with pytest.raises(ValueError, match="log gap undefined"):
        svg(a, b)


def test_effective_rank_hand_cases():
    assert effective_rank(SingularSpectrum((1.0, 1.0, 1.0, 1.0))) == 4
    assert effective_rank(SingularSpectrum((1.0, 0.0, 0.0))) == 1
    assert effective_rank(SingularSpectrum((2.0, 1.0))) == 1
    with pytest.raises(ValueError, match="no positive"):
        effective_rank(SingularSpectrum((0.0, 0.0)))


def test_effective_condition_number_hand_cases():
    assert effective_condition_number(SingularSpectrum((1.0, 1.0, 1.0))) == 1.0
    assert effective_condition_number(SingularSpectrum((2.0, 1.0))) == 1.0


def test_effective_rank_chain_matches_independent_oracle():
    for spectrum in [(4.0, 2.0, 1.0, 1.0), (10.0, 5.0, 2.0), (7.0, 6.9, 6.8, 0.1, 0.05)]:
        s = SingularSpectrum(spectrum)
        rank, kappa = appendix_chain(spectrum)
        assert effective_rank(s) == rank
        assert effective_condition_number(s) == pytest.approx(kappa, abs=1e-12)


def test_effective_condition_number_scale_invariant():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((15, 6))
    base = effective_condition_number(singular_values(EmbeddingMatrix("x", data)))
    scaled = effective_condition_number(singular_values(EmbeddingMatrix("x", 7.3 * data)))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_econd_hm_cases():
    ortho = EmbeddingMatrix("o", np.eye(4))
    assert econd_hm(ortho, ortho) == 1.0
    assert condition_harmonic_mean(2.0, 2.0) == 2.0
    assert condition_harmonic_mean(1.0, 3.0) == 1.5
    with pytest.raises(ValueError, match="condition numbers must be positive"):
        condition_harmonic_mean(0.0, 1.0)
    for ka, kb in [(math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0)]:  # once a NaN mean
        with pytest.raises(ValueError, match="condition numbers must be positive and finite"):
            condition_harmonic_mean(ka, kb)


def test_mst_hand_case():
    # collinear points at mutual distances 1, 2, 3: MST keeps edges {1, 2}
    dist = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    assert sorted(mst_edge_weights(dist).tolist()) == [1.0, 2.0]
    with pytest.raises(ValueError, match="distance matrix must be square"):
        mst_edge_weights(dist[:2])


def test_mst_matches_single_linkage_oracle():
    rng = np.random.default_rng(6)
    cloud = rng.standard_normal((40, 5))
    sq = np.sqrt(np.clip(((cloud[:, None] - cloud[None, :]) ** 2).sum(-1), 0, None))
    mine = np.sort(mst_edge_weights(sq))
    merge_heights = np.sort(linkage(pdist(cloud), method="single")[:, 2])
    np.testing.assert_allclose(mine, merge_heights, atol=1e-10)


def test_persistence_degenerate_cases():
    single = EmbeddingMatrix("s", np.array([[1.0, 2.0]]))
    assert persistence_diagram_0d(single).deaths == ()
    dup = EmbeddingMatrix("d", np.array([[1.0, 0.0], [2.0, 0.0]]))  # same direction
    assert persistence_diagram_0d(dup).deaths == (0.0,)


def test_persistence_subsampling_and_size():
    rng = np.random.default_rng(7)
    m = EmbeddingMatrix("m", rng.standard_normal((30, 4)))
    assert len(persistence_diagram_0d(m, max_points=10).deaths) == 9
    assert len(persistence_diagram_0d(m).deaths) == 29
    with pytest.raises(ValueError, match="max_points must be >= 1"):
        persistence_diagram_0d(m, max_points=0)
    prefix = EmbeddingMatrix("m", m.data[:10])
    assert persistence_diagram_0d(m, max_points=10) == persistence_diagram_0d(prefix)


def test_diagram_invariants():
    with pytest.raises(ValueError, match="finite and non-negative"):
        PersistenceDiagram((math.inf,))
    with pytest.raises(ValueError, match="finite and non-negative"):
        PersistenceDiagram((-1.0,))
    d = PersistenceDiagram((2.0, 1.0))
    assert d.deaths == (1.0, 2.0)


def test_bottleneck_hand_cases():
    one = PersistenceDiagram((1.0,))
    assert bottleneck_distance(one, one) == 0.0
    assert bottleneck_distance(PersistenceDiagram((2.0,)), PersistenceDiagram(())) == 1.0
    d1 = PersistenceDiagram((1.0, 3.0))
    d2 = PersistenceDiagram((2.0,))
    assert bottleneck_distance(d1, d2) == 1.0
    assert bottleneck_distance(PersistenceDiagram(()), PersistenceDiagram(())) == 0.0


def test_bottleneck_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n1 = int(rng.integers(0, 4))
        n2 = int(rng.integers(0, 7 - n1))
        a = tuple(float(v) for v in rng.uniform(0.0, 3.0, n1))
        b = tuple(float(v) for v in rng.uniform(0.0, 3.0, n2))
        fast = bottleneck_distance(PersistenceDiagram(a), PersistenceDiagram(b))
        assert fast == bottleneck_brute_force(sorted(a), sorted(b))
    # deaths on a 0.5 grid, zeros and cross-side duplicates among them, so
    # halves and gaps tie
    for _ in range(200):
        n1 = int(rng.integers(0, 4))
        n2 = int(rng.integers(0, 7 - n1))
        a = tuple(0.5 * float(v) for v in rng.integers(0, 5, n1))
        b = tuple(0.5 * float(v) for v in rng.integers(0, 5, n2))
        fast = bottleneck_distance(PersistenceDiagram(a), PersistenceDiagram(b))
        assert fast == bottleneck_brute_force(sorted(a), sorted(b))


def test_bottleneck_symmetry_and_triangle():
    rng = np.random.default_rng(9)
    for _ in range(300):
        diagrams = [
            PersistenceDiagram(tuple(rng.uniform(0, 2, int(rng.integers(0, 8)))))
            for _ in range(3)
        ]
        d01 = bottleneck_distance(diagrams[0], diagrams[1])
        d12 = bottleneck_distance(diagrams[1], diagrams[2])
        d02 = bottleneck_distance(diagrams[0], diagrams[2])
        assert d01 == bottleneck_distance(diagrams[1], diagrams[0])
        assert d02 <= d01 + d12 + 1e-9


# ------------------------------------ differential: candidate binary search
# The search the closed form replaced, kept verbatim as the reference: a
# binary search over every candidate cost, each step a greedy matching test.


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


def _ref_bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
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


def _diagram_pairs():
    rng = np.random.default_rng(12)
    empty = PersistenceDiagram(())
    yield empty, empty
    for deaths in ((0.0,), (2.0,), (0.0, 0.0, 1.5), (0.1, 0.7, 0.7, 3.0)):
        yield empty, PersistenceDiagram(deaths)
    # unequal sizes, from one point against many up to 500
    for n1, n2 in ((1, 9), (3, 40), (17, 250), (120, 500)):
        yield (PersistenceDiagram(tuple(rng.uniform(0.0, 2.0, n1))),
               PersistenceDiagram(tuple(rng.uniform(0.0, 2.0, n2))))
    # grid-valued deaths: zeros, duplicates within and across sides, tied halves and gaps
    for step in (0.1, 0.25, 0.5):
        for _ in range(60):
            n1, n2 = (int(n) for n in rng.integers(0, 30, 2))
            yield (PersistenceDiagram(tuple(step * rng.integers(0, 12, n1))),
                   PersistenceDiagram(tuple(step * rng.integers(0, 12, n2))))
    # diagrams of random clouds of at least 500 rows (499 deaths), the second
    # with duplicated rows, so many deaths are 0
    for n_rows in (500, 520):
        for _ in range(3):
            data = rng.standard_normal((n_rows, 16))
            dup = rng.standard_normal((n_rows, 16))
            dup[n_rows // 2:] = dup[rng.integers(0, n_rows // 2, n_rows - n_rows // 2)]
            yield (persistence_diagram_0d(EmbeddingMatrix("a", data), n_rows),
                   persistence_diagram_0d(EmbeddingMatrix("b", dup), n_rows))


def test_bottleneck_matches_candidate_search_reference():
    for d1, d2 in _diagram_pairs():
        assert bottleneck_distance(d1, d2) == _ref_bottleneck_distance(d1, d2)
        assert bottleneck_distance(d2, d1) == _ref_bottleneck_distance(d2, d1)


def test_gh_identity_rotation_permutation():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((50, 8))
    a = EmbeddingMatrix("a", data)
    assert gh_distance(a, a) == 0.0
    rotated = EmbeddingMatrix("r", data @ random_rotation(rng, 8))
    assert gh_distance(a, rotated) <= 1e-9
    permuted = EmbeddingMatrix("p", data[rng.permutation(50)])
    assert gh_distance(a, permuted) <= 1e-9


def test_gh_matches_brute_force_on_small_clouds():
    rng = np.random.default_rng(11)
    a = EmbeddingMatrix("a", rng.standard_normal((4, 3)))
    b = EmbeddingMatrix("b", rng.standard_normal((3, 3)))
    da = persistence_diagram_0d(a)
    db = persistence_diagram_0d(b)
    assert gh_distance(a, b) == bottleneck_brute_force(da.deaths, db.deaths)
