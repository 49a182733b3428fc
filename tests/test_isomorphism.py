import math

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


def test_mst_hand_case():
    # collinear points at mutual distances 1, 2, 3: MST keeps edges {1, 2}
    dist = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    assert sorted(mst_edge_weights(dist).tolist()) == [1.0, 2.0]


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
