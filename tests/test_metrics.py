import numpy as np
import pytest

from hopsign.metrics import (directed_hausdorff, hausdorff, matched,
                             matching_distance, nn_distances,
                             segment_distances)

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


# ---------------------------------------------------------------- matching

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
