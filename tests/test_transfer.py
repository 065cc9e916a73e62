import numpy as np
import pytest

from hopsign import transfer
from hopsign.seqcore import SignWord, c_iterate_word, c_tilde_array
from hopsign.metrics import segment_distances
from hopsign.spectra import (bloch_spectrum, enumerate_words, pi_union,
                             random_finite_sample, random_periodic_sample)
from hopsign.transfer import (DECAY_HORIZON, RegionParams, classify,
                              curve_form, decay_check, ellipse_forms,
                              hole_boundary_radius, hole_clearance,
                              paired_member, phi, quadratic_roots,
                              region_tests_many, required_decay_order,
                              rho_curve, trace_det, transfer_product)

seed = 3
nwords = 20

# a local RandomState, not the global RNG: these draws name the
# parametrised tests, and its frozen legacy stream keeps the names stable
rs = np.random.RandomState(seed)
word_args = []
for _ in range(nwords):
    n = rs.randint(1, 11)
    signs = tuple(int(s) for s in rs.choice([-1, 1], size=n))
    sigma = float(rs.uniform(0.2, 1.0))
    lam = complex(rs.normal(), rs.normal())
    word_args.append((signs, sigma, lam))


# ---------------------------------------------------------------- matrices

def test_transfer_matrix_known_traces():
    # period 1: T = [[0,1],[-sigma,lam]]; period 2 all-plus: tr = lam^2 - 2 sigma
    z = 0.3 - 0.7j
    t1, e1 = transfer_product(SignWord((1,), 0.5).cvals(), z)
    assert t1.tolist() == [[0.0, 1.0], [-0.5, z]] and e1 == 0
    tau, gamma = trace_det(SignWord((1, 1), 0.5), z)
    assert tau == pytest.approx(z * z - 1.0)
    assert gamma == 0.25


@pytest.mark.parametrize("signs,sigma,lam", word_args)
def test_det_from_signs_matches_matrix_det(signs, sigma, lam):
    word = SignWord(signs, sigma)
    tau, gamma = trace_det(word, lam)
    t, e = transfer_product(word.cvals(), lam)
    assert gamma == pytest.approx(np.prod(signs) * sigma ** len(signs))
    assert np.linalg.det(t) * 4.0 ** e == pytest.approx(gamma, abs=1e-10)
    assert tau == pytest.approx(np.trace(t) * 2.0 ** e)


def test_transfer_product_rescales_long_words():
    # X^n for the constant word +sigma at lam = 3 grows like z1^n, z1 the
    # larger root of z^2 - 3 z + sigma: far beyond the float range at n 4096
    n, sigma, lam = 4096, 0.5, 3.0
    z1 = (lam + np.sqrt(lam * lam - 4 * sigma)) / 2
    t, e = transfer_product(np.full(n, sigma), lam)
    assert np.all(np.isfinite(t)) and 0.5 <= np.abs(t).max() < 2 ** 32
    assert np.log2(np.abs(np.trace(t))) + e == pytest.approx(n * np.log2(z1),
                                                             rel=1e-12)


def test_transfer_product_broadcasts():
    rng = np.random.default_rng(12)
    c = 0.5 * rng.choice([-1.0, 1.0], size=(3, 1, 40))
    lam = rng.normal(size=4) + 1j * rng.normal(size=4)
    t, e = transfer_product(c, lam)
    assert t.shape == (3, 4, 2, 2) and e.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            tij, eij = transfer_product(c[i, 0], lam[j])
            assert np.array_equal(t[i, j], tij) and e[i, j] == eij


# ---------------------------------------------------------------- Phi, roots

def test_phi_values_and_guard():
    assert phi(1.5, 0.5) == pytest.approx(1.0)      # real semi-axis of E_sigma
    assert phi(0.5j, 0.5) == pytest.approx(1.0)     # imaginary semi-axis
    assert phi(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        phi(0.3, 1.0)
    with pytest.raises(ValueError):
        phi(0.3, -1.2)


def test_quadratic_roots_identities():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tau = complex(*rng.normal(size=2))
        gamma = float(rng.uniform(-0.9, 0.9))
        z1, z2 = quadratic_roots(tau, gamma)
        assert abs(z1) >= abs(z2)
        assert z1 + z2 == pytest.approx(tau, abs=1e-12)
        assert z1 * z2 == pytest.approx(gamma, abs=1e-12)


def test_quadratic_roots_cancellation_safe():
    z1, z2 = quadratic_roots(1e8, 1.0)
    assert z1 == pytest.approx(1e8)
    assert z2 == pytest.approx(1e-8, rel=1e-9)  # naive formula loses this root
    assert quadratic_roots(0.0, 0.0) == (0j, 0j)


def test_phi_and_roots_take_arrays():
    rng = np.random.default_rng(13)
    tau = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    z1, z2 = quadratic_roots(tau, 0.3)
    pv = phi(tau, 0.3)
    assert z1.shape == z2.shape == pv.shape == tau.shape
    for idx, t in np.ndenumerate(tau):
        one = quadratic_roots(t, 0.3)
        assert z1[idx] == pytest.approx(one[0], rel=1e-15)
        assert z2[idx] == pytest.approx(one[1], rel=1e-15)
        assert pv[idx] == phi(t, 0.3)
    assert np.all(np.array(quadratic_roots(np.array([0.0, 1.0]), 0.0)) ==
                  [[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.filterwarnings("error")
def test_nan_lam_gives_nan_roots_without_a_warning():
    # a NaN tau never reaches the division, which warned (and raised under
    # -W error) in quadratic_roots, classify and paired_member
    z1, z2 = quadratic_roots(np.array([np.nan, complex(np.nan, 1.0), 1.0]),
                             0.25)
    assert np.isnan(z1[:2]).all() and np.isnan(z2[:2]).all()
    assert z2[2] == 0.25 / z1[2]
    word = SignWord((1, -1), 0.5)
    lams = np.array([np.nan, complex(0.5, np.nan), 0.3])
    assert list(classify(word, lams)["label"]) == ["O", "O", "I"]
    assert not paired_member(word, "+", lams[:2]).any()


def test_classify_on_the_period_one_ellipse():
    # the spectrum of the constant + word is the ellipse
    # (1+sigma) cos t + i (1-sigma) sin t; inside is I, outside O
    sigma = 0.5
    word = SignWord((1,), sigma)
    for t in np.linspace(0.0, 2 * np.pi, 17):
        lam = (1 + sigma) * np.cos(t) + 1j * (1 - sigma) * np.sin(t)
        assert classify(word, lam, tol=1e-9)["label"] == "B"
        assert classify(word, 0.5 * lam)["label"] == "I"
        assert classify(word, 1.5 * lam)["label"] == "O"
    cls = classify(word, 0.2)
    assert cls["label"].shape == ()
    assert cls["z1_abs"] >= cls["z2_abs"] - 1e-12  # conjugate pair ties to the ulp
    assert cls["phi"] < 1.0


def test_classify_array_matches_elementwise():
    word = SignWord((1, -1, -1), 0.5)
    rng = np.random.default_rng(19)
    lams = 1.5 * (rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6)))
    res = classify(word, lams)
    assert {k: v.shape for k, v in res.items()} == dict.fromkeys(res, lams.shape)
    assert set(res["label"].ravel()) == {"I", "O"}
    for idx, lam in np.ndenumerate(lams):
        one = classify(word, lam)
        assert res["label"][idx] == one["label"] and res["phi"][idx] == one["phi"]
        # numpy's complex sqrt of an array and of a 0-d array may differ
        # in the last bit
        for key in ("z1_abs", "z2_abs"):
            assert res[key][idx] == pytest.approx(one[key], rel=1e-15)


@pytest.mark.parametrize("sigma", [0.25, 0.5, 0.9025])
def test_bloch_points_classify_b(sigma):
    # the eigensolver route against the transfer route: every periodised
    # section eigenvalue of a word lies on its spectral curve Phi = 1
    for word in enumerate_words(7, sigma):
        labels = classify(word, bloch_spectrum(word, 32).points)["label"]
        assert np.all(labels == "B"), word.signs


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(SignWord((1,), 0.5), 0.3, tol=0.0)
    with pytest.raises(ValueError):
        classify(SignWord((1,), 1.0), 0.3)  # gamma = 1 has no Phi test


def test_classify_b_points_on_iterate_curves():
    for n, branch in ((1, "+"), (2, "-")):
        word = c_iterate_word(n, branch, 0.5)
        for t in np.linspace(0.1, 2 * np.pi, 13):
            lam = rho_curve(n, branch, t, 0.5) * np.exp(1j * t)
            assert classify(word, lam, tol=1e-6)["label"] == "B"


# ---------------------------------------------------------------- curves

def test_rho_curve_known_values():
    for sigma in (0.3, 0.5, 0.9025):
        assert rho_curve(0, "+", 0.0, sigma) == pytest.approx(1 + sigma)
        assert rho_curve(0, "+", np.pi / 2, sigma) == pytest.approx(1 - sigma)
        assert rho_curve(0, "-", 0.0, sigma) == pytest.approx(1 - sigma)
        assert rho_curve(0, "-", np.pi / 2, sigma) == pytest.approx(1 + sigma)


def test_rho_curve_vectorized_and_periodic():
    th = np.linspace(0, np.pi, 50)
    r = rho_curve(2, "+", th, 0.7)
    assert r.shape == th.shape
    assert rho_curve(2, "+", 0.3, 0.7) == pytest.approx(rho_curve(2, "+", 0.3 + np.pi / 2, 0.7))


@pytest.mark.parametrize("sigma", [0.5, 0.95])
def test_rho_one_minus_satisfies_quartic(sigma):
    # points u + iv on the first minus curve satisfy
    # (u^2-v^2)^2/(1-s^2)^2 + (2uv)^2/(1+s^2)^2 = 1
    th = np.linspace(0.0, 2 * np.pi, 97)
    z = rho_curve(1, "-", th, sigma) * np.exp(1j * th)
    u, v = z.real, z.imag
    res = ((u * u - v * v) / (1 - sigma ** 2)) ** 2 + (2 * u * v / (1 + sigma ** 2)) ** 2
    assert np.max(np.abs(res - 1.0)) < 1e-12


def cosine_form_rho(n, branch, theta, sigma):
    # the reference radius in double-angle form, whose denominator cancels
    # as sigma -> 1
    pm = -1.0 if branch == "+" else 1.0
    s = sigma ** (2 ** n)
    r0 = (1.0 - s * s) / np.sqrt(
        1.0 + s * s + pm * 2.0 * s * np.cos(2.0 ** (n + 1) * theta))
    return r0 ** (1.0 / 2 ** n)


@pytest.mark.parametrize("n", range(4))
def test_rho_curve_matches_the_cosine_form(n):
    th = np.linspace(0.0, 2 * np.pi, 100001)
    for branch in "+-":
        ref = cosine_form_rho(n, branch, th, 0.5)
        rel = np.abs(rho_curve(n, branch, th, 0.5) - ref) / ref
        assert rel.max() <= 1e-15


@pytest.mark.filterwarnings("error")
def test_rho_curve_near_sigma_one_is_finite_and_on_the_ellipse():
    # the double-angle denominator 1 + s^2 - 2 s cos 2 theta rounds to 0 on
    # the axes here
    th = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    for sigma in (0.9999999, 0.999999999):
        for n, branch in ((0, "+"), (0, "-"), (1, "+"), (1, "-")):
            r = rho_curve(n, branch, th, sigma)
            assert np.isfinite(r).all() and (r > 0).all()
        for branch, g in (("+", sigma), ("-", -sigma)):
            z = rho_curve(0, branch, th, sigma) * np.exp(1j * th)
            assert np.abs(phi(z, g) - 1.0).max() < 1e-14


def test_rho_curve_validation():
    with pytest.raises(ValueError):
        rho_curve(0, "x", 0.0, 0.5)
    with pytest.raises(ValueError):
        rho_curve(0, "+", 0.0, 1.0)
    with pytest.raises(ValueError):
        rho_curve(-1, "+", 0.0, 0.5)


# ---------------------------------------------------------------- curve form

def expanded_forms(lams, sigma):
    # the two ellipse forms expanded by hand: the reference bit pattern
    lams = np.asarray(lams, dtype=complex)
    x, y = lams.real, lams.imag
    s = sigma
    rhs = (1.0 - s * s) ** 2
    return (x * x * (1.0 - s) ** 2 + y * y * (1.0 + s) ** 2 - rhs,
            x * x * (1.0 + s) ** 2 + y * y * (1.0 - s) ** 2 - rhs)


@pytest.mark.parametrize("sigma", [1e-3, 0.5, 0.9025, 1.0])
def test_curve_form_is_the_expanded_ellipse_forms_bit_for_bit(sigma):
    rng = np.random.default_rng(5)
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    lams = np.concatenate([
        pi_union(6, sigma, 16).points, zeros,
        1.5 * (rng.normal(size=5000) + 1j * rng.normal(size=5000))])
    want = np.array(expanded_forms(lams, sigma))
    for got in (np.array([curve_form(lams, sigma), curve_form(lams, -sigma)]),
                np.array(ellipse_forms(lams, RegionParams(sigma)))):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("sigma", [0.5, 0.9025])
def test_curve_form_vanishes_on_bloch_spectra(sigma):
    # every Bloch eigenvalue of a word lies on its curve: tau_w(lam) on E_w
    worst = 0.0
    for word in enumerate_words(6, sigma):
        if word.period < 2:
            continue
        tau, gamma = trace_det(word, bloch_spectrum(word, 8).points)
        x2, y2 = tau.real ** 2, tau.imag ** 2
        terms = (x2 * (1 - gamma) ** 2 + y2 * (1 + gamma) ** 2
                 + (1 - gamma * gamma) ** 2)
        worst = max(worst, (np.abs(curve_form(tau, gamma)) / terms).max())
    assert worst <= 1e-12


@pytest.mark.filterwarnings("error")
def test_curve_form_at_unit_gamma_is_a_line():
    # no division at |gamma| = 1: the zero set is the whole real (gamma = 1)
    # or imaginary (gamma = -1) axis, beyond the segment [-2, 2] too
    tau = np.array([0.0, 1.5, -2.0, 5.0, 0.3j, -7j, 1 + 1j])
    assert curve_form(tau, 1.0).tolist() == [0, 0, 0, 0, 0.36, 196, 4]
    assert curve_form(tau, -1.0).tolist() == [0, 9, 16, 100, 0, 0, 4]
    assert curve_form(tau.reshape(7, 1), 1.0).shape == (7, 1)


# ---------------------------------------------------------------- regions

def test_region_params_constants():
    p = RegionParams(0.5)
    assert p.annulus_inner == 0.5 and p.annulus_outer == 1.5
    assert p.diamond_bound == pytest.approx(np.sqrt(2.5))
    assert p.r_sigma == pytest.approx(0.75 / np.sqrt(1.25))
    with pytest.raises(ValueError):
        RegionParams(0.0)
    with pytest.raises(ValueError):
        RegionParams(1.0001)


def test_region_tests_reference_points():
    p = RegionParams(0.5)
    # 0; the semi-axis of the y-long ellipse; a point on the hole boundary
    flags = region_tests_many([0.0, 0.5, p.r_sigma * np.exp(1j * np.pi / 4)], p)
    at_zero, on_axis, corner = ({k: v[i] for k, v in flags.items()}
                                for i in range(3))
    assert at_zero["in_H"] and at_zero["in_diamond"]
    assert not at_zero["in_annulus"]  # |0| < 1 - sigma
    assert on_axis["in_E_plus"] and not on_axis["in_E_minus"]
    assert not on_axis["in_H"] and on_axis["in_annulus"]
    assert not corner["in_H"]  # H is open


def test_hole_is_sandwiched_between_discs():
    # open disc of radius 1-sigma inside H; H inside closed disc of radius r_sigma
    sigma = 0.5
    p = RegionParams(sigma)
    rng = np.random.default_rng(4)
    r = (1 - sigma) * (1 - 1e-9) * np.sqrt(rng.random(500))
    inner = r * np.exp(2j * np.pi * rng.random(500))
    assert region_tests_many(inner, p)["in_H"].all()
    cloud = 1.2 * (rng.normal(size=3000) + 1j * rng.normal(size=3000))
    flags = region_tests_many(cloud, p)["in_H"]
    assert np.all(np.abs(cloud[flags]) <= p.r_sigma + 1e-12)


def test_hole_boundary_radius():
    sigma = 0.5
    th = np.linspace(0, 2 * np.pi, 64)
    hb = hole_boundary_radius(th, sigma)
    both = np.minimum(rho_curve(0, "+", th, sigma), rho_curve(0, "-", th, sigma))
    assert np.allclose(hb, both, atol=0)


def test_hole_clearance_known_values():
    sigma = 0.5
    assert hole_clearance([0.0 + 0j], sigma) == 0.0  # point inside the hole
    assert hole_clearance([1.0 + 0j], sigma) == pytest.approx(0.5, abs=1e-5)
    assert hole_clearance([1.5 + 0j], sigma) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        hole_clearance([], sigma)
    with pytest.raises(ValueError):
        hole_clearance([1.0], 1.0)  # the hole is empty at sigma = 1
    for pts in ([np.nan, 0.9], [0.69, np.nan]):
        with pytest.raises(ValueError, match="infs or NaNs"):
            hole_clearance(pts, sigma)


@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.9025])
def test_hole_clearance_of_single_boundary_vertices(sigma):
    # a point on a polyline vertex has chord distance 0 (or an ulp), and its
    # own lower bound may round above it: it must still be projected
    th = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
    verts = hole_boundary_radius(th, sigma) * np.exp(1j * th)
    ends = np.roll(verts, -1)
    f = np.maximum(*ellipse_forms(verts, RegionParams(sigma)))
    pts = list(verts[f >= 0][::16])
    if sigma == 0.5:  # a vertex of the polyline from the double-angle radius
        pts.append(0.49999985293097976 + 0.0011504872829195504j)
    for z in pts:
        assert hole_clearance([z], sigma) == segment_distances(z, verts,
                                                               ends)[0]


def union_periods_2(sigma):
    cloud = pi_union(8, sigma, 4)
    ones = [w for w, pattern in cloud.words.items() if pattern in ("+", "-")]
    return cloud.points[~np.isin(cloud.word_id, ones)]


def outside_hole(pts, sigma):
    # sample clouds touch the hole to rounding; drop the points inside it
    f = np.maximum(*ellipse_forms(pts, RegionParams(sigma)))
    return pts[f >= 0]


def gaussian_cloud():
    rng = np.random.default_rng(248)
    pts = 1.2 * (rng.normal(size=600) + 1j * rng.normal(size=600))
    return outside_hole(pts, 0.5)


CLEARANCE_CASES = {
    **{f"union-{s}": (s, lambda s=s: union_periods_2(s))
       for s in (0.3, 0.5, 0.9025, 0.99)},
    "periodic-sample": (0.5, lambda: outside_hole(
        random_periodic_sample(100, (3, 20), 0.5, 0.5, seed=2).points, 0.5)),
    "finite-sample": (0.9025, lambda: outside_hole(
        random_finite_sample(300, p_sigma=0.5, sigma=0.9025, seed=3)[0].points,
        0.9025)),
    "gaussian": (0.5, gaussian_cloud),
    "axes": (0.5, lambda: np.array([1.0, -1.0, 1j, -1j, 0.6, 0.9j, -0.51])),
    "ring": (0.5, lambda: 1.4 * np.exp(2j * np.pi * np.arange(1000) / 1000)),
}


@pytest.mark.parametrize("case", CLEARANCE_CASES)
def test_hole_clearance_matches_plain_scan(case, monkeypatch):
    sigma, make = CLEARANCE_CASES[case]
    pts = make()
    th = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
    verts = hole_boundary_radius(th, sigma) * np.exp(1j * th)
    plain = segment_distances(pts, verts, np.roll(verts, -1)).min()
    projected = []

    def spy(points, a, b):
        projected.append(np.atleast_1d(points))
        return segment_distances(points, a, b)

    monkeypatch.setattr(transfer, "segment_distances", spy)
    assert hole_clearance(pts, sigma) == plain
    # the bound grows with the ellipse form, so the point of least form is
    # projected first, and alone
    least = np.argmin(np.maximum(*ellipse_forms(pts, RegionParams(sigma))))
    assert projected[0].tolist() == [pts[least]]


# ---------------------------------------------------------------- membership

def test_paired_member_cases():
    word = SignWord((1,), 0.5)
    assert paired_member(word, "-", 0.6)        # I point outside the tail ellipse
    assert not paired_member(word, "-", 0.0)    # inside the tail ellipse
    assert not paired_member(word, "-", 0.5)    # on the tail ellipse
    assert not paired_member(word, "-", 2.0)    # O point
    assert not paired_member(word, "-", 1.2j)   # O point (imaginary axis)
    with pytest.raises(ValueError):
        paired_member(word, "x", 0.6)


def test_paired_member_matches_the_expanded_ellipse_pick():
    rng = np.random.default_rng(29)
    lams = np.append(1.5 * (rng.normal(size=20000) + 1j * rng.normal(size=20000)),
                     [np.nan, complex(np.nan, 0.5), complex(0.5, np.nan)])
    for signs, sigma in (((1,), 0.5), ((1, 1, -1), 0.5), ((1, -1), 0.9025)):
        word = SignWord(signs, sigma)
        with np.errstate(invalid="ignore"):  # NaN in quadratic_roots
            inside = classify(word, lams)["label"] != "O"
            got = {t: paired_member(word, t, lams) for t in "+-"}
        f_plus, f_minus = expanded_forms(lams, sigma)
        assert np.array_equal(got["+"], inside & (f_plus > 0))
        assert np.array_equal(got["-"], inside & (f_minus > 0))
        assert not got["+"][-3:].any() and 0 < got["-"].sum()


def test_paired_member_array_matches_elementwise():
    word = SignWord((1, 1, -1), 0.5)
    rng = np.random.default_rng(23)
    lams = np.concatenate([[0.6, 2.0, 0.5, 0.5j],
                           1.2 * (rng.normal(size=60) + 1j * rng.normal(size=60))])
    for tail in "+-":
        res = paired_member(word, tail, lams.reshape(8, 8))
        assert res.shape == (8, 8) and 0 < res.sum() < 64
        assert res.ravel().tolist() == [bool(paired_member(word, tail, z))
                                        for z in lams]


# ---------------------------------------------------------------- decay

def test_required_decay_order_values():
    assert required_decay_order(0.5) == 3
    assert required_decay_order(0.9025) == 5
    assert required_decay_order(0.01) == 1


def test_decay_check_at_zero_rate_is_sqrt_sigma():
    res = decay_check(0.0, 0.5, 3)
    assert res["decays"]
    assert res["rate"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert len(res["rates"]) == 2
    assert res["required_d"] == 3
    assert res["h"] == pytest.approx(4.0 ** (-1.0 / 8))


def test_decay_check_growth_outside_the_disc():
    res = decay_check(1.2, 0.5, 3)
    assert not res["decays"]
    assert res["rate"] > 1.0


def test_decay_check_inside_the_disc():
    for lam in (0.4, -0.5j, 0.5 * np.exp(0.4j), 0.79):
        assert decay_check(lam, 0.5, 3)["decays"]


def test_decay_check_array_matches_scalar_calls():
    lams = np.array([[0.0, 0.4, -0.5j], [0.5 * np.exp(0.4j), 0.79, 1.2]])
    res = decay_check(lams, 0.5, 3)
    assert res["rate"].shape == res["decays"].shape == lams.shape
    for idx, lam in np.ndenumerate(lams):
        one = decay_check(lam, 0.5, 3)
        assert (res["rates"][0][idx], res["rates"][1][idx]) == one["rates"]
        assert res["rate"][idx] == one["rate"]
        assert res["decays"][idx] == one["decays"]
    assert res["decays"].tolist() == [[True] * 3, [True, True, False]]


def test_decay_check_period_beyond_the_horizon():
    # 2^12 = 4096 coefficients per period, more than the horizon: the
    # recurrence takes the first DECAY_HORIZON of them, not an empty tiling
    assert 2 ** 12 > DECAY_HORIZON
    assert decay_check(0.0, 0.5, 12)["rate"] == pytest.approx(np.sqrt(0.5),
                                                              abs=1e-12)


def _decay_rates_direct(lam, sigma, d):  # one product over the horizon
    c = sigma * np.resize(c_tilde_array(2 ** d)[1:], DECAY_HORIZON)
    t, e = transfer_product(c, lam)
    state = np.log2(abs(t).max(-2)) + e[..., None]
    r2, r1 = np.moveaxis(np.exp2(state / DECAY_HORIZON), -1, 0)
    return r1, r2


# lam = 0, the ring verify checks, 1.2, 200 random points |lam| <= 1.3, and
# 3 and -40i, whose horizon products overflow unless rescaled
_g = np.random.Generator(np.random.Philox(key=[20261019, 21]))
DECAY_LAMS = np.r_[
    0.0, np.outer((0.2, 0.4, 0.6, 0.8),
                  np.exp(1j * np.pi * np.arange(8) / 4)).ravel(), 1.2,
    1.3 * np.sqrt(_g.random(200)) * np.exp(2j * np.pi * _g.random(200)),
    3.0, -40j]


@pytest.mark.parametrize("d, sigma", [(1, 0.2), (2, 0.45), (3, 0.5),
                                      (3, 0.6), (4, 0.75), (5, 0.82),
                                      (11, 0.9)])
def test_decay_check_squaring_matches_direct_product(d, sigma):
    res = decay_check(DECAY_LAMS, sigma, d)
    want = _decay_rates_direct(DECAY_LAMS, sigma, d)
    for got, ref in zip(res["rates"], want):
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
    decays = np.maximum(*want) < 1.0
    assert np.array_equal(res["decays"], decays)
    assert decays.any() and not decays.all()


def test_decay_check_beyond_the_horizon_is_the_direct_product():
    res = decay_check(DECAY_LAMS, 0.5, 12)
    for got, ref in zip(res["rates"], _decay_rates_direct(DECAY_LAMS, 0.5, 12)):
        assert np.array_equal(got, ref)


def test_decay_check_validation():
    with pytest.raises(ValueError):
        decay_check(0.3, 0.5, 2)  # sqrt(0.5) equals 4^(-1/4), not below it
    with pytest.raises(ValueError):
        decay_check(0.3, 1.0, 3)
    with pytest.raises(ValueError):
        decay_check(0.3, 0.5, 0)
