import numpy as np
import pytest

from hopsign.eigen import eigvals
from hopsign.metrics import (hausdorff, matching_distance, nn_distances,
                             segment_distances)
from hopsign.seqcore import SignWord, c_iterate_word
from hopsign.spectra import (SpectrumCloud, _assert_inclusion, bloch_spectrum,
                             build_finite, build_periodic, closed_form_star,
                             enumerate_words, pi_union, random_finite_sample,
                             random_periodic_sample, square_spectrum_check,
                             symmetry_check, ue_bound_check, unit_grid)

seed = 17
np.random.seed(seed)


# ---------------------------------------------------------------- builders

def test_build_finite_small():
    m = build_finite([1.0, 1.0])
    w = sorted(x.real for x in eigvals(m))
    assert np.allclose(w, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)
    with pytest.raises(ValueError):
        build_finite([])


def test_build_periodic_all_ones_ring():
    m = build_periodic([1.0, 1.0, 1.0], 1.0)
    assert np.allclose(m, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    d = matching_distance(eigvals(m), [-1.0, -1.0, 2.0])
    assert d < 1e-9


def test_build_periodic_validation():
    with pytest.raises(ValueError):
        build_periodic([1.0, 1.0], 1.0)  # corners would hit the band
    with pytest.raises(ValueError):
        build_periodic([1.0, 1.0, 1.0], 1.1)


def test_build_periodic_twist_placement():
    al = np.exp(0.3j)
    m = build_periodic([0.5, -0.5, 0.5, -0.5], al)
    assert m[0, 3] == pytest.approx(al * -0.5)
    assert m[3, 0] == pytest.approx(1.0 / al)


def test_unit_grid():
    g = unit_grid(4)
    assert np.allclose(g, [1, 1j, -1, -1j], atol=1e-15)
    assert np.allclose(np.abs(unit_grid(37)), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        unit_grid(0)


def test_inclusion_guard_fires():
    with pytest.raises(RuntimeError):
        _assert_inclusion(np.array([3.0 + 0j]), 0.5)
    _assert_inclusion(np.array([1.0 + 0j, 0.5j]), 0.5)  # on the boundary


# ---------------------------------------------------------------- clouds

def test_cloud_tags_and_len():
    c = SpectrumCloud(0.5)
    c.add([1.0 + 0j, 2.0 + 0j], word_id=3, alpha=1j, N=4)
    c.add([0.0 + 0j], word_id=1, alpha=1.0, N=2)
    assert len(c) == 3
    assert list(c.word_id) == [3, 3, 1]
    assert list(c.N) == [4, 4, 2]
    assert np.allclose(c.alpha, [1j, 1j, 1.0])
    with pytest.raises(ValueError):
        c.add([np.nan + 0j], 0, 1.0, 2)


def test_cloud_sort_is_generation_order_independent():
    a = SpectrumCloud(0.5)
    b = SpectrumCloud(0.5)
    pts = np.random.normal(size=8) + 1j * np.random.normal(size=8)
    a.add(pts[:4], 0, 1.0, 4)
    a.add(pts[4:], 1, 1j, 4)
    b.add(pts[4:], 1, 1j, 4)
    b.add(pts[:4], 0, 1.0, 4)
    a.sort()
    b.sort()
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.word_id, b.word_id)
    assert np.array_equal(a.alpha, b.alpha)


def test_cloud_csv_header_and_determinism(tmp_path):
    c = SpectrumCloud(0.5, params={"alpha_count": 2}, seed=7)
    c.register_word(0, "+-")
    c.add([0.25 + 0.5j], 0, 1.0, 2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    c.write_csv(p1, command="demo --x 1")
    c.write_csv(p2, command="demo --x 1")
    text = p1.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# hopsign ")
    assert lines[1] == "# command: demo --x 1"
    assert lines[2] == "# sigma = 0.5"
    assert lines[3] == "# seed = 7"
    assert "# word 0 +-" in text
    assert "# columns: re, im, N, word_id, alpha_re, alpha_im" in text
    assert lines[-1] == "0.25, 0.5, 2, 0, 1, 0"
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------- sigma = 1

def test_closed_form_star_values():
    starts, ends = closed_form_star(0, "+")
    assert np.allclose(starts, 0.0)
    assert sorted(np.round(ends, 12)) == [-2.0, 2.0]
    _, ends = closed_form_star(0, "-")
    assert np.allclose(sorted(ends, key=lambda z: z.imag), [-2j, 2j])
    _, ends = closed_form_star(1, "+")
    assert len(ends) == 4
    assert np.allclose(np.abs(ends), np.sqrt(2))
    with pytest.raises(ValueError):
        closed_form_star(0, "x")
    with pytest.raises(ValueError):
        closed_form_star(0, "+", sigma=0.5)
    with pytest.raises(ValueError):
        closed_form_star(-1, "+")


@pytest.mark.parametrize("branch", ["+", "-"])
def test_sigma_one_cloud_lands_on_star(branch):
    word = SignWord((1,) if branch == "+" else (-1,), 1.0)
    cloud = bloch_spectrum(word, 128)
    starts, ends = closed_form_star(0, branch)
    d = segment_distances(cloud.points, starts, ends)
    assert d.max() < 1e-9


# ---------------------------------------------------------------- bloch

def test_bloch_period_one_traces_ellipse():
    sig = 0.5
    cloud = bloch_spectrum(SignWord((1,), sig), 64)
    x, y = cloud.points.real, cloud.points.imag
    q = (x / (1 + sig)) ** 2 + (y / (1 - sig)) ** 2
    assert np.abs(q - 1.0).max() < 1e-9
    assert len(cloud) == 64 * 4  # period-1 word is doubled to a 4x4 section


def test_bloch_quartic_identity_for_first_iterate():
    # squares of the first '-' iterate cloud lie on the minus-ellipse at
    # amplitude sigma^2, so (x^2-y^2, 2xy) satisfies that ellipse equation
    sig = 0.5
    cloud = bloch_spectrum(c_iterate_word(1, "-", sig), 64)
    u, v = cloud.points.real, cloud.points.imag
    q = (((u * u - v * v) / (1 - sig * sig)) ** 2
         + ((2 * u * v) / (1 + sig * sig)) ** 2)
    assert np.abs(q - 1.0).max() < 1e-9


def test_bloch_rotation_invariance():
    # rotating the word is a gauge change; each alpha-grid cloud must agree
    for word in enumerate_words(4, 0.5):
        base = bloch_spectrum(word, 16).points
        for k in range(1, word.period):
            rot = bloch_spectrum(word.rotated(k), 16).points
            assert hausdorff(rot, base) <= 1e-10


# ---------------------------------------------------------------- unions

def necklace_count(n):
    # primitive binary necklaces by Moebius inversion
    def mu(m):
        out, d, left = 1, 2, m
        while d * d <= left:
            if left % d == 0:
                left //= d
                if left % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if left > 1 else out

    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mu(d) * 2 ** (n // d)
    return total // n


def test_enumerate_words_counts_and_canonical_forms():
    words = enumerate_words(12, 0.5)
    per = {}
    for w in words:
        per[w.period] = per.get(w.period, 0) + 1
        assert w.canonical().signs == w.signs
        assert w.reduced()[1] == 1  # primitive
    assert [per[n] for n in range(1, 13)] == [necklace_count(n)
                                              for n in range(1, 13)]
    assert len(words) == 747


def test_pi_union_period_one_is_two_ellipses():
    sig = 0.5
    cloud = pi_union(1, sig, 64)
    assert cloud.words == {0: "-", 1: "+"}
    x, y = cloud.points.real, cloud.points.imag
    wid = cloud.word_id
    qplus = (x / (1 + sig)) ** 2 + (y / (1 - sig)) ** 2
    qminus = (x / (1 - sig)) ** 2 + (y / (1 + sig)) ** 2
    assert np.abs(qplus[wid == 1] - 1.0).max() < 1e-9
    assert np.abs(qminus[wid == 0] - 1.0).max() < 1e-9


def test_pi_union_validation():
    with pytest.raises(ValueError):
        pi_union(0, 0.5, 8)
    with pytest.raises(ValueError):
        pi_union(15, 0.5, 8)


def test_pi_union_symmetries():
    res = symmetry_check(pi_union(3, 0.5, 64))
    assert res["ok"], res


def test_single_word_symmetries():
    cloud = bloch_spectrum(SignWord((1, -1, 1), 0.5), 64)
    pts = cloud.points
    assert nn_distances(np.conj(pts), pts).max() <= 1e-9
    assert nn_distances(-pts, pts).max() <= 1e-9
    # multiplication by i leaves the single-word cloud
    assert nn_distances(1j * pts, pts).max() > 0.01


def test_symmetry_check_empty():
    with pytest.raises(ValueError):
        symmetry_check(SpectrumCloud(0.5))


# ---------------------------------------------------------------- sampling

def test_random_periodic_sample_deterministic():
    a = random_periodic_sample(6, (3, 8), 0.5, 0.5, seed=3)
    b = random_periodic_sample(6, (3, 8), 0.5, 0.5, seed=3)
    assert np.array_equal(a.points, b.points)
    assert a.words == b.words
    c = random_periodic_sample(6, (3, 8), 0.5, 0.5, seed=4)
    assert a.words != c.words or not np.array_equal(a.points, c.points)


def test_random_periodic_sample_draws_are_per_index():
    # the stream is keyed per draw index, so a longer run extends a shorter
    a = random_periodic_sample(3, (3, 8), 0.5, 0.5, seed=5)
    b = random_periodic_sample(5, (3, 8), 0.5, 0.5, seed=5)
    for k in range(3):
        assert a.words[k] == b.words[k]
        assert np.array_equal(a.points[a.word_id == k],
                              b.points[b.word_id == k])


def test_random_periodic_sample_validation():
    with pytest.raises(ValueError):
        random_periodic_sample(2, (2, 8), 0.5, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_periodic_sample(2, (3, 8), 1.0, 0.5, seed=0)
    for sigma in (-1.0, 0.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            random_periodic_sample(2, (3, 8), 0.5, sigma, seed=0)
    with pytest.raises(ValueError):
        random_periodic_sample(0, (3, 8), 0.5, 0.5, seed=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            random_periodic_sample(2, (3, 8), 0.5, 0.5, seed=seed)


def test_seeds_above_2_63_give_distinct_streams():
    # a key word >= 2^63 must not pass through float64, where 2^63 and
    # 2^63 + 1 round to the same value
    a = random_periodic_sample(4, (3, 8), 0.5, 0.5, seed=2 ** 63)
    b = random_periodic_sample(4, (3, 8), 0.5, 0.5, seed=2 ** 63 + 1)
    assert a.words != b.words or not np.array_equal(a.points, b.points)


def test_random_finite_sample_shares_the_draw():
    op = random_finite_sample(12, 0.5, 0.5, seed=9, periodic=False)
    pe = random_finite_sample(12, 0.5, 0.5, seed=9, periodic=True)
    assert op.words[0] == pe.words[0]
    assert op.N[0] == pe.N[0] == 12
    assert op.alpha[0] == 1.0 and abs(abs(pe.alpha[0]) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        random_finite_sample(2, seed=0)
    with pytest.raises(ValueError):
        random_finite_sample(5, p_sigma=0.0, seed=0)
    for sigma in (2.0, float("nan")):
        with pytest.raises(ValueError):
            random_finite_sample(5, sigma=sigma, seed=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            random_finite_sample(5, seed=seed)


# ---------------------------------------------------------------- checks

def test_square_spectrum_check_small_word():
    res = square_spectrum_check(SignWord((1, -1), 0.25), 64)
    assert res["period"] == 8
    assert res["hausdorff_sq_vs_b"] < 1e-9
    assert res["hausdorff_m_vs_b"] < 1e-9
    assert res["per_alpha_mismatch"] < 1e-9
    with pytest.raises(ValueError):
        square_spectrum_check(SignWord((1,) * 9, 0.25), 8)


def test_ue_bound_check_scalar_and_array():
    res = ue_bound_check(0.5 + 0j, 2000)
    assert res["bound"] == pytest.approx(2.0)
    assert res["ok"] and res["max_abs"] <= res["bound"] + 1e-9
    lam = 0.7 * np.exp(1j * np.linspace(0, 2 * np.pi, 9))
    res = ue_bound_check(lam, 500)
    assert res["max_abs"].shape == lam.shape
    assert bool(np.all(res["ok"]))
    with pytest.raises(ValueError):
        ue_bound_check(0.995, 100)
    with pytest.raises(ValueError):
        ue_bound_check(0.5, 0)
