import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from hopsign.metrics import (_assign, directed_hausdorff, hausdorff, matched,
                             matching_distance, nn_distances,
                             segment_distances)
from hopsign.spectra import pi_union

seed = 31
# a local RandomState, not the global RNG: these draws name the
# parametrised tests, and its frozen legacy stream keeps the names stable
rs = np.random.RandomState(seed)
cloud_args = [(int(rs.randint(1, 40)), int(rs.randint(1, 40)))
              for _ in range(12)]


def random_cloud(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# ---------------------------------------------------------------- hausdorff

def test_hausdorff_two_point_example():
    a = np.array([0.0 + 0j, 1.0 + 0j])
    b = np.array([0.0 + 0j, 2.0 + 0j])
    assert directed_hausdorff(a, b) == pytest.approx(1.0)
    assert directed_hausdorff(b, a) == pytest.approx(1.0)
    assert hausdorff(a, b) == pytest.approx(1.0)


def test_hausdorff_self_zero():
    a = random_cloud(np.random.default_rng([seed, 1]), 50)
    assert hausdorff(a, a) == 0.0


def test_hausdorff_asymmetry():
    # subset has directed distance 0, superset does not
    a = np.array([0.0 + 0j])
    b = np.array([0.0 + 0j, 3.0 + 4j])
    assert directed_hausdorff(a, b) == 0.0
    assert directed_hausdorff(b, a) == pytest.approx(5.0)
    assert hausdorff(a, b) == pytest.approx(5.0)


@pytest.mark.parametrize("run,na,nb", [(i, *ab) for i, ab in enumerate(cloud_args)],
                         ids=[f"{na}-{nb}" for na, nb in cloud_args])
def test_nn_distances_vs_bruteforce(run, na, nb):
    rng = np.random.default_rng([seed, 2, run])
    a = random_cloud(rng, na)
    b = random_cloud(rng, nb)
    d = nn_distances(a, b)
    brute = np.abs(a[:, None] - b[None, :]).min(axis=1)
    assert d.shape == (na,)
    assert np.allclose(d, brute, atol=1e-12)


def test_nn_distances_accepts_grids():
    a = np.arange(6, dtype=complex).reshape(2, 3)
    d = nn_distances(a, [0.0 + 0j])
    assert d.shape == (6,)
    assert d[-1] == pytest.approx(5.0)


def kdtree_nn(points, refs):
    # the k-d tree query the windowed search replaced, as an oracle
    p, r = np.ravel(points), np.ravel(refs)
    tree = cKDTree(np.column_stack([r.real, r.imag]))
    return tree.query(np.column_stack([p.real, p.imag]), k=1)[0]


def tie_clouds():
    # exact real-part ties in refs and between points and refs
    rng = np.random.default_rng([seed, 7])
    a = np.round(random_cloud(rng, 300), 2)
    pts = pi_union(4, 0.5, 64).points
    yield "conjugates", a, np.concatenate([a, a.conj()])
    yield "i-rotations", a, np.concatenate([a * 1j ** k for k in range(4)])
    yield "duplicates", a[::-1], np.concatenate([a, a, a[:50]])
    yield "grid", np.arange(-3, 4) + 0.5j, np.repeat(np.arange(-3, 4), 9) + 0j
    yield "pi_union", 1j * pts, pts


TIE_CLOUDS = list(tie_clouds())


@pytest.mark.parametrize("name,points,refs", TIE_CLOUDS,
                         ids=[c[0] for c in TIE_CLOUDS])
def test_nn_distances_bit_equal_to_kdtree(name, points, refs):
    assert np.array_equal(nn_distances(points, refs),
                          kdtree_nn(points, refs))
    assert np.array_equal(nn_distances(refs, points),
                          kdtree_nn(refs, points))


def test_nn_distances_input_contract():
    assert nn_distances([1.0, 2j], []).tolist() == [np.inf, np.inf]
    assert nn_distances([], [1.0, 2j]).shape == (0,)
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        with pytest.raises(ValueError):
            nn_distances([0.0, bad], [1.0])
        with pytest.raises(ValueError):
            nn_distances([1.0], [bad, 0.0])


# ---------------------------------------------------------------- matching

@pytest.mark.parametrize("n", range(1, 33))
def test_assignment_cost_equals_scipy(n):
    # random costs, then two tied ones: rounded, and rounded rank-2 sums
    rng = np.random.default_rng([seed, 8, n])
    rand = rng.random((6, n, n))
    ranked = np.round(rand[:, :1] + rand[:, :, :1])
    for cost in (rand, np.round(4 * rand), ranked):
        cols = _assign(cost)
        for c, col in zip(cost, cols):
            assert sorted(col) == list(range(n))
            r, oracle = linear_sum_assignment(c)
            assert c[np.arange(n), col].sum() == pytest.approx(
                c[r, oracle].sum(), rel=1e-12, abs=0)


def test_stacked_matching_is_max_of_rows():
    rng = np.random.default_rng([seed, 9])
    w1 = random_cloud(rng, 40 * 8).reshape(5, 8, 8)
    w2 = np.round(w1 + 0.3 * random_cloud(rng, w1.size).reshape(w1.shape), 1)
    rows = [matching_distance(a, b) for a, b in zip(w1.reshape(-1, 8),
                                                    w2.reshape(-1, 8))]
    assert matching_distance(w1, w2) == max(rows)
    assert np.array_equal(matched(w1, w2).reshape(-1, 8),
                          [matched(a, b) for a, b in zip(w1.reshape(-1, 8),
                                                         w2.reshape(-1, 8))])


def test_matching_input_contract():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            matched([0.0, bad], [0.0, 1.0])
        with pytest.raises(ValueError):
            matching_distance([0.0, 1.0], [bad, 1.0])
    with pytest.raises(ValueError):
        matched(np.zeros((2, 3)), np.zeros((3, 2)))


def test_matching_simple_pairs():
    # sorted pairing would match 0-0 and 0-1 as well; both give max 1
    assert matching_distance([0.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    # crossing pair: optimal matching pairs identical values, distance 0
    assert matching_distance([0.0, 1.0], [1.0, 0.0]) == 0.0


def test_matched_reorders_to_first_argument():
    w1 = np.array([0.0, 1.0, 2.0j])
    assert list(matched(w1, [2.1j, 0.1, 0.9])) == [0.1, 0.9, 2.1j]
    with pytest.raises(ValueError):
        matched([0.0], [0.0, 1.0])


def test_matching_symmetric_in_arguments():
    rng = np.random.default_rng([seed, 3])
    a = random_cloud(rng, 20)
    b = random_cloud(rng, 20)
    assert matching_distance(a, b) == pytest.approx(matching_distance(b, a))


def test_matching_permutation_invariant():
    rng = np.random.default_rng([seed, 4])
    a = random_cloud(rng, 30)
    p = rng.permutation(30)
    assert matching_distance(a, a[p]) == 0.0


def test_matching_tracks_uniform_noise():
    rng = np.random.default_rng([seed, 5])
    a = random_cloud(rng, 25)
    shift = 1e-7 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=25))
    d = matching_distance(a, (a + shift)[rng.permutation(25)])
    assert d <= 1e-7 + 1e-15
    assert d >= 0.9e-7  # noise is not cancelled by the assignment


def test_matching_size_mismatch():
    with pytest.raises(ValueError):
        matching_distance([0.0], [0.0, 1.0])


def test_matching_beats_sorted_pairing_on_ties():
    # real parts tie, sorted-by-(re, im) would cross-pair the conjugates
    a = np.array([1.0 + 1j, 1.0 - 1j])
    b = np.array([1.0 - 1j, 1.0 + 1j])
    assert matching_distance(a, b) == 0.0


# ---------------------------------------------------------------- segments

def test_segment_distance_interior_projection():
    d = segment_distances([1.0 + 1j], [0.0 + 0j], [2.0 + 0j])
    assert d[0] == pytest.approx(1.0)


def test_segment_distance_clamps_to_endpoint():
    d = segment_distances([-1.0 + 0j], [0.0 + 0j], [2.0 + 0j])
    assert d[0] == pytest.approx(1.0)
    d = segment_distances([3.0 + 4j], [0.0 + 0j], [3.0 + 0j])
    assert d[0] == pytest.approx(4.0)


def test_segment_degenerate_is_point_distance():
    d = segment_distances([3.0 + 4j], [0.0 + 0j], [0.0 + 0j])
    assert d[0] == pytest.approx(5.0)


def test_segment_min_over_family():
    starts = np.array([0.0 + 0j, 0.0 + 0j])
    ends = np.array([2.0 + 0j, 2.0j])
    pts = np.array([1.0 + 0.25j, -0.25 + 1.0j, 1.0 + 1.0j])
    d = segment_distances(pts, starts, ends)
    assert np.allclose(d, [0.25, 0.25, 1.0], atol=1e-12)


def test_segment_on_segment_zero():
    t = np.random.default_rng([seed, 6]).uniform(0, 1, size=40)
    a, b = 1.0 + 2j, -3.0 + 0.5j
    pts = a + t * (b - a)
    d = segment_distances(pts, [a], [b])
    assert d.max() <= 1e-12
