import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsign import __version__, spectra
from hopsign.eigen import eigvals, eigvals_stack
from hopsign.metrics import (hausdorff, matched, matching_distance,
                             nn_distances, segment_distances)
from hopsign.seqcore import (SignWord, c_iterate_word, c_tilde_array, m_word,
                             rotation_classes)
from hopsign.spectra import (SpectrumCloud, _assert_inclusion, _m_ring_stack,
                             _orbit_images, _periodic_stack, bloch_spectrum,
                             build_finite, build_periodic, closed_form_star,
                             enumerate_words, pi_union, random_finite_sample,
                             random_periodic_sample, square_spectrum_check,
                             symmetry_check, ue_bound_check, unit_grid)
from hopsign.transfer import det_residual
from reference import section_eigvals


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


def test_periodic_stack_rows_match_build_periodic():
    rng = np.random.default_rng(5)
    c = 0.5 * rng.choice([-1.0, 1.0], size=(6, 7))
    alphas = np.exp(2j * np.pi * rng.random(6))
    stack = _periodic_stack(c, alphas)
    shared = _periodic_stack(c[0], alphas)  # one c vector for every row
    assert stack.shape == shared.shape == (6, 7, 7)
    for b in range(6):
        want = build_periodic(c[b], alphas[b])
        assert stack[b].tobytes() == want.tobytes()
        assert shared[b].tobytes() == build_periodic(c[0], alphas[b]).tobytes()
    # at even N, half gives the whole stack's two sublattice blocks, bit
    # for bit
    c = 0.5 * rng.choice([-1.0, 1.0], size=(6, 8))
    for rows in (c, c[0]):
        whole = _periodic_stack(rows, alphas)
        p, q = _periodic_stack(rows, alphas, half=True)
        assert p.tobytes() == whole[:, 0::2, 1::2].tobytes()
        assert q.tobytes() == whole[:, 1::2, 0::2].tobytes()


def test_m_ring_stack_is_the_companion_ring():
    mw = m_word(SignWord((1, -1, -1), 0.25))
    p = mw.period
    alphas = unit_grid(5)
    stack = _m_ring_stack(mw, alphas)
    assert stack.shape == (5, p, p)
    for k, al in enumerate(alphas):
        want = np.zeros((p, p), dtype=complex)
        for i in range(p):
            want[i, i] = mw.diag[i]
            if i + 1 < p:
                want[i, i + 1] = 1.0
                want[i + 1, i] = mw.sub
        want[0, p - 1] = al * mw.sub
        want[p - 1, 0] = 1.0 / al
        assert stack[k].tobytes() == want.tobytes()


def test_unit_grid():
    g = unit_grid(4)
    assert np.allclose(g, [1, 1j, -1, -1j], atol=1e-15)
    assert np.allclose(np.abs(unit_grid(37)), 1.0, atol=1e-15)
    for count in range(1, 18):
        g = unit_grid(count)
        half = count // 2 + 1
        direct = np.exp(2j * np.pi * np.arange(count) / count)
        assert g[:half].tobytes() == direct[:half].tobytes()
        for k in range(1, (count + 1) // 2):  # k = count / 2 pairs itself
            assert g[count - k].tobytes() == np.conj(g[k]).tobytes()
    with pytest.raises(ValueError):
        unit_grid(0)


def test_inclusion_guard_fires():
    with pytest.raises(RuntimeError):
        _assert_inclusion(np.array([3.0 + 0j]), 0.5)
    _assert_inclusion(np.array([1.0 + 0j, 0.5j]), 0.5)  # on the boundary


# ---------------------------------------------------------------- clouds

def test_cloud_tags_and_len(tmp_path):
    c = SpectrumCloud(0.5, twists=[1.0, 1j, -1.0, -1j])
    assert c.twists.tolist() == [1.0, 1j, -1.0, -1j]
    assert not c.twists.flags.writeable
    c.add([1.0 + 0j, 2.0 + 0j], word_id=3, twist=1, N=4)
    c.add([0.0 + 0j], word_id=1, twist=0, N=2)
    assert len(c) == 3
    assert list(c.word_id) == [3, 3, 1]
    assert list(c.N) == [4, 4, 2]
    assert list(c.twist) == [1, 1, 0]
    assert list(c.alpha) == [1j, 1j, 1.0]
    with pytest.raises(ValueError):
        c.add([np.nan + 0j], 0, 0, 2)
    # a (B, n) block with one tag per row, and one with shared tags
    block = np.arange(6).reshape(2, 3) + 0.5j
    c.add(block, word_id=[7, 8], twist=[0, 3], N=[3, 5])
    c.add(block, word_id=9, twist=2, N=3)
    assert len(c) == 15
    assert np.array_equal(c.points[3:], np.concatenate([block.ravel()] * 2))
    assert list(c.word_id[3:]) == [7] * 3 + [8] * 3 + [9] * 6
    assert list(c.N[3:]) == [3] * 3 + [5] * 3 + [3] * 6
    assert list(c.twist[3:]) == [0] * 3 + [3] * 3 + [2] * 6
    assert list(c.alpha[3:]) == [1.0] * 3 + [-1j] * 3 + [-1.0] * 6
    with pytest.raises(ValueError):
        c.add(block, word_id=[1, 2, 3], twist=0, N=3)  # 3 tags, 2 rows
    with pytest.raises(ValueError):
        c.add(np.array([[1.0, np.inf]]), [0], [0], [2])
    for bad in (4, -1, [0, 4]):  # indices outside the table of 4
        with pytest.raises(ValueError, match="twist index"):
            c.add(block, 0, bad, 3)
    assert len(c) == 15
    c.add(np.zeros((0, 3)), 0, 0, 3)  # a zero-row block adds no points
    c.add([], 0, 0, 3)
    assert len(c) == 15
    c.sort().write_csv(tmp_path / "c.csv")
    assert sorted(c.word_id) == [1, 3, 3] + [7] * 3 + [8] * 3 + [9] * 6
    rows = [r for r in (tmp_path / "c.csv").read_text().splitlines()
            if not r.startswith("#")]
    assert len(rows) == 15
    assert list(SpectrumCloud(0.5).twists) == [1.0]  # the default table
    shared = _shared_pair_cloud()  # one (word_id, N) pair from two blocks
    assert list(shared.word_id) == [5, 5, 2, 2, 5, 5, 5, 5, 5, 5]
    assert list(shared.N) == [4, 4, 4, 4, 3, 3, 4, 4, 4, 4]


def test_cloud_sort_is_generation_order_independent():
    a = SpectrumCloud(0.5, twists=[1.0, 1j])
    b = SpectrumCloud(0.5, twists=[1.0, 1j])
    rng = np.random.default_rng(17)
    pts = rng.normal(size=8) + 1j * rng.normal(size=8)
    a.add(pts[:4], 0, 0, 4)
    a.add(pts[4:], 1, 1, 4)
    b.add(pts[4:], 1, 1, 4)
    b.add(pts[:4], 0, 0, 4)
    a.sort()
    b.sort()
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.word_id, b.word_id)
    assert np.array_equal(a.alpha, b.alpha)


def lexsort_reference(cloud):
    """The columns in the order of the 5-key lexsort by (re, im, N, word_id,
    twist value rank) that SpectrumCloud.sort used before its complex sort."""
    cols = [cloud.points, cloud.word_id, cloud.twist, cloud.N]
    rank = np.unique(cloud.twists, return_inverse=True)[1]
    order = np.lexsort((rank[cols[2]], cols[1], cols[3],
                        cols[0].imag, cols[0].real))
    return [col[order] for col in cols]


# few distinct coordinates, both zeros among them, so (re, im) ties abound
# within a block and across blocks, words and twists
TIE_PARTS = [0.0, -0.0, 0.5, -0.5, 1.0]
TWISTS = [1 + 0j, complex(1, -0.0), -1 + 0j, complex(-1, -0.0), 1j,
          complex(-0.0, 1)]


# word ids and sizes: small values, which repeat across rows and blocks, and
# the int64 extremes of _wide_tag_cloud
WIDE_TAGS = st.sampled_from([0, 1, 2, 3, -1, -2**31, 2**32, 2**63 - 1,
                             -2**63])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cloud_sort_matches_five_key_lexsort(data):
    twists = data.draw(st.lists(st.sampled_from(TWISTS), min_size=1,
                                max_size=6))
    cloud = SpectrumCloud(0.5, twists)
    tags = st.integers(0, len(twists) - 1)

    def points(rows, n):
        parts = data.draw(st.lists(st.sampled_from(TIE_PARTS),
                                   min_size=2 * rows * n,
                                   max_size=2 * rows * n))
        return np.array(parts).view(complex).reshape(rows, n)

    # one word id at two sizes, then blocks with shared or per-row tags
    cloud.add(points(2, 1), data.draw(WIDE_TAGS), 0, data.draw(
        st.lists(WIDE_TAGS, min_size=2, max_size=2, unique=True)))
    for _ in range(data.draw(st.integers(1, 5))):
        rows, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        word, twist, size = (data.draw(s | st.lists(
            s, min_size=rows, max_size=rows)) for s in (WIDE_TAGS, tags,
                                                         WIDE_TAGS))
        cloud.add(points(rows, n), word, twist, size)
    want = lexsort_reference(cloud)
    cloud.sort()
    got = [cloud.points, cloud.word_id, cloud.twist, cloud.N]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_sorted_cloud_holds_24_bytes_a_point():
    # points and two int32 indices; word_id and N are gathered from the
    # (word_id, N) table on read
    c = pi_union(6, 0.5, 16)
    assert sum(a.nbytes for blk in c._blocks for a in blk) <= 24 * len(c)
    for col, dtype in ((c.word_id, np.int64), (c.N, np.int64),
                       (c.twist, np.int32)):
        assert col.dtype == dtype and len(col) == len(c)
        assert not col.flags.writeable


def test_cloud_csv_header_and_determinism(tmp_path):
    c = SpectrumCloud(0.5, params={"alpha_count": 2}, seed=7)
    c.register_word(0, "+-")
    c.add([0.25 + 0.5j], 0, 0, 2)
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


def test_cloud_csv_golden(tmp_path):
    # edge values: signed zero, the smallest subnormal, 1/3, -1e300, a twist
    # with a negative imaginary part, word ids >= 10
    c = SpectrumCloud(0.25, [complex(0.6, -0.8), -1j],
                      params={"n_max": 3, "alpha_count": 2}, seed=11)
    c.register_word(12, "+-+")
    c.register_word(10, "-")
    c.add([complex(-0.0, 5e-324), complex(1 / 3, -1e300)], 12, 0, 3)
    c.add([complex(-1e300, -0.0)], 10, 1, 4)
    path = tmp_path / "g.csv"
    c.write_csv(path, command="hopsign pi-union --nmax 3")
    assert path.read_text() == f"# hopsign {__version__}\n" + (
        "# command: hopsign pi-union --nmax 3\n"
        "# sigma = 0.25\n"
        "# seed = 11\n"
        "# alpha_count = 2\n"
        "# n_max = 3\n"
        "# word 10 -\n"
        "# word 12 +-+\n"
        "# columns: re, im, N, word_id, alpha_re, alpha_im\n"
        "-0, 4.9406564584124654e-324, 3, 12, "
        "0.59999999999999998, -0.80000000000000004\n"
        "0.33333333333333331, -1.0000000000000001e+300, 3, 12, "
        "0.59999999999999998, -0.80000000000000004\n"
        "-1.0000000000000001e+300, -0, 4, 10, -0, -1\n")


def test_cloud_csv_rows_across_chunks(tmp_path):
    # 5 * (CSV_CHUNK // 2) rows span three write chunks; each row keeps its
    # own tags
    rng = np.random.default_rng(3)
    b = spectra.CSV_CHUNK // 2
    pts = rng.normal(size=5 * b) + 1j * rng.normal(size=5 * b)
    al = unit_grid(b)
    c = SpectrumCloud(0.5, al)
    c.add(pts.reshape(b, 5), np.arange(b), np.arange(b), 5)
    c.write_csv(tmp_path / "c.csv")
    rows = (tmp_path / "c.csv").read_text().splitlines()[3:]
    assert rows == ["%.17g, %.17g, 5, %d, %.17g, %.17g" % (
        z.real, z.imag, k // 5, al[k // 5].real, al[k // 5].imag)
        for k, z in enumerate(pts)]


def _signed_zero_cloud():
    # 0.0 and -0.0 as re and im in one chunk, x and -x sharing a magnitude,
    # and one value on both sides of the first chunk boundary
    n = spectra.CSV_CHUNK
    pts = np.random.default_rng(5).normal(size=(n + 4, 2)) @ [1, 1j]
    pts[:6] = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(0.0, 0.0),
               complex(-0.0, -0.0), 0.1 - 0.1j, -0.1 + 0.1j]
    pts[n - 1:n + 1] = 1 / 3 - 2j / 3
    c = SpectrumCloud(0.5, unit_grid(4))
    c.add(pts[:, None], 7, np.arange(n + 4) % 4, 1)
    return c


def _wide_tag_cloud():
    # word ids and sizes outside 32 bits; (0, 2^32) and (1, 0) would share
    # the key word_id << 32 | N
    wids = [0, 1, -1, -2**31, 2**31, 2**32, 2**63 - 1, -2**63]
    sizes = [2**32, 0, 3, 2**40, -4, 3, 2**63 - 1, 5]
    c = SpectrumCloud(0.5)
    c.add(np.full((len(wids), 2), 0.5 - 0.25j), wids, 0, sizes)
    return c


def _shared_pair_cloud():
    # the pair (5, 4) in two blocks, and word id 5 at sizes 4 and 3
    c = SpectrumCloud(0.5, unit_grid(3))
    c.add(np.arange(6).reshape(3, 2) - 1.5j, [5, 2, 5], [0, 1, 2], [4, 4, 3])
    c.add(np.arange(4) + 0.5j, 5, 1, 4)
    return c


@pytest.mark.parametrize("make", [
    lambda: pi_union(4, 0.5, 8), _signed_zero_cloud, _wide_tag_cloud,
    lambda: random_periodic_sample(40, (3, 30), 0.5, 0.5, 1),
    lambda: SpectrumCloud(0.5), _shared_pair_cloud,
    lambda: _shared_pair_cloud().sort()],
    ids=["pi_union", "signed_zero", "wide_tags", "sample", "empty",
         "shared_pairs", "shared_pairs_sorted"])
def test_cloud_csv_matches_per_row_format(tmp_path, make):
    # write_csv formats values by array arithmetic and ints once per pair;
    # its rows equal a per-row %-format of every column.  The unsorted sample
    # holds values below 1e-4, which take the "%.17g" fallback
    c = make()
    c.write_csv(tmp_path / "r.csv")
    rows = [r for r in (tmp_path / "r.csv").read_text().splitlines()
            if not r.startswith("#")]
    assert rows == ["%.17g, %.17g, %d, %d, %.17g, %.17g" % (
        z.real, z.imag, n, w, a.real, a.imag) for z, n, w, a in zip(
        c.points.tolist(), c.N.tolist(), c.word_id.tolist(),
        c.alpha.tolist())]


def g17_texts(values):
    return [bytes(row[row != 0]).decode() for row in spectra.g17(values)]


def test_g17_powers_ties_and_specials():
    # powers of ten and their neighbours, on which log10 can land on the
    # wrong side; the float below each power stays below it in 17 digits
    p = np.array([10.0 ** k for k in range(-6, 0)]
                 + [float(10 ** k) for k in range(19)])
    ties = [c + j * 2.0 ** (e - 17) for j in range(1, 12, 2)
            for e, c in ((-1, 0.5), (0, 1.0), (1, 10.0), (2, 100.0))]
    for values in (p, -p, np.nextafter(p, 0), np.nextafter(p, np.inf),
                   np.nextafter(np.nextafter(p, 0), 0), ties,
                   [1 + 2 ** -17, 1 + 3 * 2 ** -17, 0.1, 1 / 3, 2 / 3, -2.5],
                   [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    1e16 - 2, 1e16 + 2, 2.0 ** 53 + 2, 1e17 - 16, 100.0,
                    1020.0, -7000.25, 10.5, 123456789012345.0,
                    99999999999999984.0],
                   [np.nan, np.inf, -np.inf, 1e300, -1e-300, 1e-5]):
        values = np.array(values, dtype=float)
        assert g17_texts(values) == ["%.17g" % v for v in values.tolist()]
    assert g17_texts([1 + 2 ** -17, 1 + 3 * 2 ** -17]) == [
        "1.0000076293945312", "1.0000228881835938"]  # ties go to even
    assert spectra.g17(np.zeros(0)).shape == (0, 24)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=40))
def test_g17_matches_percent_format(values):
    assert g17_texts(values) == ["%.17g" % v for v in values]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(st.tuples(st.integers(-6, 18),
                                st.floats(1.0, 10.0, exclude_max=True),
                                st.sampled_from([-1.0, 1.0])),
                      min_size=1, max_size=60))
def test_g17_mixed_exponents(parts):
    values = [s * m * 10.0 ** e for e, m, s in parts]
    assert g17_texts(values) == ["%.17g" % v for v in values]


@pytest.mark.parametrize("lead", [0, spectra.CSV_CHUNK - 2])
def test_cloud_csv_signed_zero_twists(tmp_path, lead):
    # twists that differ only in the sign of a zero print their own digits,
    # inside one chunk (lead 0) and across the chunk boundary (lead
    # CSV_CHUNK - 2)
    twists = [1 + 0j, complex(1, -0.0), complex(-0.0, 1), complex(0.0, 1)]
    tags = [4] * lead + [0, 1, 2, 3] * 2
    c = SpectrumCloud(0.5, twists + [1j])
    c.add(np.ones((len(tags), 1)), 0, tags, 1)
    c.write_csv(tmp_path / "z.csv")
    rows = (tmp_path / "z.csv").read_text().splitlines()[3:]
    assert [r.split(", ", 4)[4] for r in rows[lead:]] == [
        "1, 0", "1, -0", "-0, 1", "0, 1"] * 2
    # sort ranks equal twist values alike, -0.0 and 0.0 included: rows equal
    # in (re, im, N, word_id) keep insertion order and their own digits
    for table, digits in (([1j, complex(-0.0, 1), complex(0.0, 1)],
                           ["0, 1", "-0, 1", "0, 1"]),
                          ([1 + 0j, complex(1, -0.0)], ["1, 0", "1, -0"])):
        tags = [*range(len(table))] * 2
        c = SpectrumCloud(0.5, table)
        c.add(np.r_[2.0, np.ones(len(tags))][:, None], 0, [0] + tags, 1)
        c.sort().write_csv(tmp_path / "s.csv")
        rows = (tmp_path / "s.csv").read_text().splitlines()[3:]
        assert list(c.twist) == tags + [0]
        assert [r.split(", ", 4)[4] for r in rows] == [
            digits[t] for t in tags + [0]]


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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=9),
       sigma=st.floats(0.0, 1.0, exclude_min=True),
       count=st.integers(1, 16))
def test_bloch_spectrum_matches_per_twist_solves(signs, sigma, count):
    # the block path solves one twist per orbit (twist 0 among them, at most
    # one of each conjugate pair), read off the twists it builds sections
    # for; at odd N those rows are bit for bit one eigensolve per twist, at
    # even N the solve is one (B, N/2, N/2) stack of sublattice products;
    # each point of every row is an eigenvalue of its own section to
    # backward error 100 eps ||A||_2
    word = SignWord(signs, sigma)
    n = len(signs)
    built, shapes = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_periodic_stack", lambda c, al, half=False:
                   built.append(np.ravel(al)) or _periodic_stack(c, al,
                                                                half=half))
        mp.setattr(spectra, "eigvals_stack",
                   lambda s: shapes.append(s.shape) or eigvals_stack(s))
        cloud = bloch_spectrum(word, count)
    alphas = unit_grid(count)
    sections = [build_periodic(word.cvals(), al) for al in alphas]
    pts = cloud.points.reshape(count, n)
    solved = [int(np.flatnonzero(alphas == al)[0]) for al in built[0]]
    assert solved[0] == 0 and len(set(solved)) == len(solved)
    assert len({min(k, -k % count) for k in solved}) == len(solved)
    assert shapes[0] == (len(solved),) + 2 * (n // 2 if n % 2 == 0 else n,)
    for k in solved if n % 2 else ():
        assert pts[k].tobytes() == np.array(eigvals(sections[k])).tobytes()
    for a, row in zip(sections, pts):
        unit = np.finfo(float).eps * np.linalg.norm(a, 2)
        for lam in row:
            smin = np.linalg.svd(a - lam * np.eye(n), compute_uv=False)[-1]
            assert smin <= 100.0 * unit
    assert cloud.alpha.tobytes() == np.repeat(alphas, n).tobytes()
    assert list(cloud.word_id) == [0] * (count * n)
    assert list(cloud.N) == [n] * (count * n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from(range(4, 17, 2)), period=st.sampled_from([1, 2, 0]),
       signs=st.lists(st.sampled_from([-1, 1]), min_size=16, max_size=16),
       sigma=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True),
       turns=st.lists(st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0),
                      min_size=1, max_size=4))
def test_half_size_route_matches_oracle(n, period, signs, sigma, turns):
    # even N goes through spec A = +-sqrt(spec BC); periods 1 and 2 (the
    # Bloch sections of N = 4 among them) and twists near +-1 at sigma = 1
    # give roots at or near 0, where the half-size result is not kept.  A
    # root with k - 1 others within 1e-2 is held to criterion 11's k-fold
    # floor 10 (eps ||A||_2)^(1/k): at sigma = 1, signs -+-+ and twist angle
    # 3.7e-7 the exact roots are (+-1 +- i) 4.3272799e-4, a cluster that a
    # backward-stable solver may scatter by (eps ||A||_2)^(1/4)
    p = period or n
    c = sigma * np.array(signs[:p] * (n // p), dtype=float)
    alphas = np.exp(2j * np.pi * np.array(turns))
    for al, row in zip(alphas, spectra._periodic_spectra(c, alphas)):
        a = build_periodic(c, al)
        unit = np.finfo(float).eps * np.linalg.norm(a, 2)
        ref = section_eigvals(a)
        k = (np.abs(ref[:, None] - ref) < 1e-2).sum(axis=1)
        tol = np.where(k > 1, 10.0 * unit ** (1.0 / k),
                       1e-7 * max(1.0, np.abs(ref).max()))
        assert np.all(np.abs(matched(ref, row) - ref) <= tol)
        smin = np.linalg.svd(a[None] - row[:, None, None] * np.eye(n),
                             compute_uv=False)[:, -1]
        assert smin.max() <= 100.0 * unit


def backward_errors(cloud):
    """sigma_min(A - lam I) / (eps ||A||_2) for every point of a cloud, with
    A the build_periodic section of the point's own word tag and twist tag
    (periods 1 and 2 repeated to the N tag)."""
    pts, wid, al, nn = cloud.points, cloud.word_id, cloud.alpha, cloud.N
    keys, group = np.unique(np.stack([wid, al.real, al.imag]), axis=1,
                            return_inverse=True)
    out = np.empty(len(pts))
    for n in np.unique(nn):
        at = np.flatnonzero(nn == n)
        used = np.unique(group[at])
        mats = np.zeros((keys.shape[1], n, n), dtype=complex)
        for g in used:
            pattern = cloud.words[int(keys[0, g])]
            c = [cloud.sigma * (1 if s == "+" else -1) for s in pattern]
            mats[g] = build_periodic(c * (n // len(c)),
                                     complex(keys[1, g], keys[2, g]))
        a = mats[group[at]]
        smin = np.linalg.svd(a - pts[at, None, None] * np.eye(n),
                             compute_uv=False)[:, -1]
        out[at] = smin / (np.finfo(float).eps * np.linalg.norm(a, 2,
                                                                axis=(1, 2)))
    return out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=12),
       sigma=st.floats(0.0, 1.0, exclude_min=True),
       count=st.sampled_from([4, 8, 12, 16, 30, 63]))
def test_every_orbit_derived_point_is_an_eigenvalue(signs, sigma, count):
    # the rev, conj, flip and negation maps are exact similarities, so each
    # point of a Bloch union, solved or derived, is an eigenvalue of its own
    # word's section at its own twist to backward error 100 eps ||A||_2;
    # pi_union derives across words of one size, bloch_spectrum within one
    word = SignWord(signs, sigma)
    assert backward_errors(bloch_spectrum(word, count)).max() <= 100.0
    union = pi_union(min(len(signs), 8), sigma, count)
    assert backward_errors(union).max() <= 100.0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=9),
       sigma=st.floats(0.0, 1.0, exclude_min=True),
       count=st.sampled_from([4, 8, 12, 16]))
def test_bloch_union_times_i_is_the_negated_word(signs, sigma, count):
    # D = diag(i^j) gives D^-1 A(c, alpha) D = i A(-c, alpha i^N); on a grid
    # of 4m twists alpha i^N is again a grid twist, and diag((-1)^j) makes
    # each cloud symmetric under lam -> -lam, so the cloud of the negated
    # word is i times the cloud of the word (as sets; band-edge double roots
    # split by up to sqrt(eps))
    word = SignWord(signs, sigma)
    neg = SignWord([-s for s in signs], sigma)
    got = bloch_spectrum(neg, count).points
    assert hausdorff(got, 1j * bloch_spectrum(word, count).points) <= 1e-6


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=12),
       sigma=st.floats(0.0, 1.0, exclude_min=True),
       count=st.sampled_from([4, 8, 16]))
def test_reversed_word_has_the_same_bloch_spectrum(signs, sigma, count):
    # J A(c, alpha)^T J is the section of a rotation of the reversed word,
    # so every eigenvalue of the reversal's section is an eigenvalue of the
    # word's own section at the same twist, to backward error 100 eps ||A||_2
    c = sigma * np.array(signs, dtype=float)
    n = len(signs)
    for al in unit_grid(count):
        a = build_periodic(c, al)
        unit = np.finfo(float).eps * np.linalg.norm(a, 2)
        for lam in eigvals(build_periodic(c[::-1], al)):
            smin = np.linalg.svd(a - lam * np.eye(n), compute_uv=False)[-1]
            assert smin <= 100.0 * unit


def test_bloch_rotation_invariance():
    # rotating the word is a gauge change; each alpha-grid cloud must agree
    for word in enumerate_words(4, 0.5):
        base = bloch_spectrum(word, 16).points
        for k in range(1, word.period):
            rot = bloch_spectrum(SignWord(np.roll(word.signs, -k), 0.5),
                                 16).points
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
        assert rotation_classes([w.signs])[0][0] == 0  # its least rotation
        assert w.reduced()[1] == 1  # primitive
    assert [per[n] for n in range(1, 13)] == [necklace_count(n)
                                              for n in range(1, 13)]
    assert len(words) == 747


def tuple_least_rotation(signs):
    return min(signs[k:] + signs[:k] for k in range(len(signs)))


def tuple_enumerate_words(n_max, sigma):
    # the per-word loop enumerate_words replaced: sign i is bit i of bits,
    # taken in ascending order
    out = []
    for n in range(1, n_max + 1):
        for bits in range(2 ** n):
            signs = tuple(1 if bits >> i & 1 else -1 for i in range(n))
            rots = [signs[k:] + signs[:k] for k in range(n)]
            if min(rots) == signs and rots.count(signs) == 1:
                out.append(SignWord(signs, sigma))
    return out


def tuple_orbit_images(pos):
    # the dict of least tuple rotations _orbit_images replaced
    index = {tuple_least_rotation(tuple(p)): w
             for w, p in enumerate(pos.tolist())}
    return np.array([[index.get(tuple_least_rotation(tuple(q)), -1)
                      for q in v.tolist()]
                     for v in (pos, pos[:, ::-1], ~pos, ~pos[:, ::-1])])


def test_enumerate_words_matches_tuple_rotations():
    want = tuple_enumerate_words(12, 0.5)
    assert [w.signs for w in enumerate_words(12, 0.5)] == [w.signs
                                                          for w in want]


@pytest.mark.parametrize("size", [4, 6, 7, 10, 12])
def test_orbit_images_match_tuple_rotations(size):
    # the sign rows of the sections pi_union solves: periods 1 and 2 as 4
    pos = np.array([np.resize(w.signs, size) for w in enumerate_words(12)
                    if (w.period if w.period > 2 else 4) == size]) > 0
    for rows in (pos, pos[::3]):  # every row's images, then some missing
        table = _orbit_images(rows)
        assert np.array_equal(table, tuple_orbit_images(rows))
    assert (_orbit_images(pos[::3]) == -1).any()


def test_pi_union_csv_unchanged_by_rotation_tables(tmp_path, monkeypatch):
    pi_union(6, 0.5, 16).write_csv(tmp_path / "arrays.csv")
    monkeypatch.setattr(spectra, "enumerate_words", tuple_enumerate_words)
    monkeypatch.setattr(spectra, "_orbit_images", tuple_orbit_images)
    pi_union(6, 0.5, 16).write_csv(tmp_path / "tuples.csv")
    assert (tmp_path / "arrays.csv").read_bytes() == (
        tmp_path / "tuples.csv").read_bytes()


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


def test_pi_union_memory_estimate(monkeypatch):
    # periods 1 and 2 are solved as period-4 sections: 3 words of N 4 and
    # 2 of N 3, so 8 twists give 8 * 18 = 144 points
    need = 144 * spectra.BYTES_PER_POINT
    monkeypatch.setattr(spectra, "_available_memory", lambda: need - 1)
    with pytest.raises(ValueError, match="144 points"):
        pi_union(3, 0.5, 8)
    monkeypatch.setattr(spectra, "_available_memory", lambda: need)
    assert len(pi_union(3, 0.5, 8)) == 144
    monkeypatch.setattr(spectra, "_available_memory", lambda: None)
    assert len(pi_union(3, 0.5, 8)) == 144


def test_pi_union_validation():
    with pytest.raises(ValueError):
        pi_union(0, 0.5, 8)
    with pytest.raises(ValueError):
        pi_union(15, 0.5, 8)


def test_pi_union_solves_one_word_per_reversal_pair(monkeypatch):
    # the 226 words x 64 twists fall into 2,431 orbits under reversal, sign
    # flip and conj, one solve each; each reversal partner's points are
    # bit-equal to its representative's at every twist
    solved = []
    real_solver = spectra.eigvals_stack

    def counting(stack):
        solved.append(len(stack))
        return real_solver(stack)

    monkeypatch.setattr(spectra, "eigvals_stack", counting)
    cloud = pi_union(10, 0.5, 64)
    assert sum(solved) == 2431
    ids = {p: w for w, p in cloud.words.items()}
    pts, wid, al = cloud.points, cloud.word_id, cloud.alpha

    def block(w):
        rows = np.flatnonzero(wid == w)
        order = np.lexsort((pts.imag[rows], pts.real[rows],
                            al.imag[rows], al.real[rows]))
        return pts[rows][order].tobytes(), al[rows][order].tobytes()

    pairs = 0
    for pattern, w in ids.items():
        rev = pattern[::-1]
        partner = next(ids[r] for r in (rev[k:] + rev[:k]
                                        for k in range(len(rev))) if r in ids)
        if partner > w:
            pairs += 1
            assert block(partner) == block(w)
    assert pairs == 226 - 173


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_pi_union_symmetries(sigma):
    # at sigma = 1 the chiral words have double eigenvalues that split by
    # about sqrt(eps); the det residual stays at rounding level there
    res = symmetry_check(pi_union(3, sigma, 64))
    assert res["ok"], res
    assert max(res["rev_max"], res["flip_max"]) <= 1e-13


def test_det_residual_flags_moved_eigenvalues_and_wrong_twists():
    # a chiral word of odd period 7: its flip -c matches i spec(c) at twist
    # k - NK/4, and k + NK/4 is another twist
    c = 0.5 * np.array([-1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0])
    alphas = unit_grid(64)[:, None]
    lam = eigvals_stack(_periodic_stack(c, alphas[:, 0]))
    assert det_residual(c, alphas, lam).max() <= 1e-13
    assert det_residual(-c, np.roll(alphas, 16 * 7, 0), 1j * lam).max() <= 1e-13
    assert det_residual(-c, np.roll(alphas, -16 * 7, 0), 1j * lam).max() > 0.1
    moved = lam.copy()
    moved[5, 2] += 1e-7
    res = det_residual(c, alphas, moved)
    assert res[5, 2] > 1e-8  # symmetry_check's default tolerance
    res[5, 2] = 0.0
    assert res.max() <= 1e-13


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


def test_samplers_refuse_sections_beyond_memory(monkeypatch):
    # a solve of B sections of size N in W row blocks takes at most
    # (16 B + 20 W) N^2 + 80 B N bytes, and a size's B is its point count
    # over N; the needs below take W = 1, which holds because these stacks
    # are too small to split
    def need(b, n):
        return ((16 * b + 20) * n + 80 * b) * n

    args = (40, (3, 12), 0.5, 0.5, 3)
    n, points = np.unique(random_periodic_sample(*args).N, return_counts=True)
    for need, call in ((int(need(points // n, n).max()),
                        lambda: random_periodic_sample(*args)),
                       (need(1, 9), lambda: random_finite_sample(9))):
        monkeypatch.setattr(spectra, "_available_memory", lambda: need - 1)
        with pytest.raises(ValueError, match="available"):
            call()
        monkeypatch.setattr(spectra, "_available_memory", lambda: need)
        call()


def test_even_sections_are_solved_without_a_whole_stack(traced_peak):
    # a (B, N, N) complex stack alone takes 16 B N^2 bytes.  At N = 12 the
    # solve builds two (B, 6, 6) blocks and their product, and the stack
    # only when a section has a root near 0, as every one has at c = 1 and
    # twist 1; at N = 13 it builds the stack.  _solve_bytes bounds each
    b, rng = 2000, np.random.default_rng(11)
    cases = [(0.5 * rng.choice([-1.0, 1.0], (b, 12)), rng.random(b), False),
             (np.ones(12), np.zeros(b), True),
             (0.5 * rng.choice([-1.0, 1.0], (b, 13)), rng.random(b), True)]
    shapes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "eigvals_stack",
                   lambda s: shapes.append(s.shape) or eigvals_stack(s))
        for c, turns, whole in cases:
            n = np.shape(c)[-1]
            peak = traced_peak(lambda: spectra._periodic_spectra(
                c, np.exp(2j * np.pi * turns)))
            assert (peak >= 16 * b * n * n) == whole
            assert peak <= spectra._solve_bytes(b, n)
    assert shapes == [(b, 6, 6), (b, 6, 6), (b, 12, 12), (b, 13, 13)]


def test_seeds_above_2_63_give_distinct_streams():
    # a key word >= 2^63 must not pass through float64, where 2^63 and
    # 2^63 + 1 round to the same value
    a = random_periodic_sample(4, (3, 8), 0.5, 0.5, seed=2 ** 63)
    b = random_periodic_sample(4, (3, 8), 0.5, 0.5, seed=2 ** 63 + 1)
    assert a.words != b.words or not np.array_equal(a.points, b.points)


def test_open_section_roots_pass_the_continuant_newton_check():
    # open-section eigenvalues are the roots of the continuant f_N, with
    # f_k = lam f_(k-1) - c_(k-1) f_(k-2), f_0 = 1, f_1 = lam; at N 500 and
    # sigma 0.5 a direct solve of the graded section misses them by up to
    # 1.3, so each root's Newton step |f| / |f'| must be at rounding level
    op, _ = random_finite_sample(500, 0.5, 0.5, seed=1)
    c = [0.5 if s == "+" else -0.5 for s in op.words[0][:-1]]
    lam = op.points
    f0, f1 = np.ones_like(lam), lam.copy()
    d0, d1 = np.zeros_like(lam), np.ones_like(lam)  # d = df / dlam
    for ck in c:
        f0, f1, d0, d1 = f1, lam * f1 - ck * f0, d1, f1 + lam * d1 - ck * d0
        scale = np.maximum(np.abs(f1), np.abs(d1))  # keeps f / d, no overflow
        f0, f1, d0, d1 = f0 / scale, f1 / scale, d0 / scale, d1 / scale
    assert len(lam) == 500
    assert np.max(np.abs(f1) / np.abs(d1)) < 1e-12


def test_random_finite_sample_shares_the_draw():
    op, pe = random_finite_sample(12, 0.5, 0.5, seed=9)
    assert dict(op.params, periodic=True) == pe.params
    assert not op.params["periodic"]
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

def test_square_spectrum_check_solves_its_cover_whole(monkeypatch):
    # the half-size route rests on the square identity under test, so the
    # period-4N cover of c takes a full-size solve; b's even period-2N
    # cover takes the half-size one
    shapes = []
    monkeypatch.setattr(spectra, "eigvals_stack",
                        lambda s: shapes.append(s.shape) or eigvals_stack(s))
    res = square_spectrum_check(SignWord((1, -1, -1), 0.5), 8)
    assert res["period"] == 12 and (8, 12, 12) in shapes
    assert (8, 3, 3) in shapes and res["per_alpha_mismatch"] < 1e-9


def test_square_spectrum_check_small_word():
    res = square_spectrum_check(SignWord((1, -1), 0.25), 64)
    assert res["period"] == 8
    assert res["hausdorff_sq_vs_b"] < 1e-9
    assert res["hausdorff_m_vs_b"] < 1e-9
    assert res["per_alpha_mismatch"] < 1e-9
    with pytest.raises(ValueError):
        square_spectrum_check(SignWord((1,) * 9, 0.25), 8)


def _ue_max_loop(lam, i_max):  # the per-step loop ue_bound_check replaced
    lam = np.asarray(lam, dtype=complex)
    ct = c_tilde_array(max(1, i_max - 1))
    prev, cur = np.zeros_like(lam), np.ones_like(lam)
    top = np.ones(lam.shape)
    for n in range(1, i_max):
        prev, cur = cur, lam * cur - float(ct[n]) * prev
        np.maximum(top, np.abs(cur), out=top)
    return top


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(polar=st.lists(st.tuples(st.floats(0, 0.985), st.floats(0, 7)),
                      min_size=1, max_size=12),
       i_max=st.sampled_from([1, 2, 3, 7, 300]) | st.integers(1, 3000))
def test_ue_bound_check_matches_step_loop(polar, i_max):
    lam = np.array([r * np.exp(1j * t) for r, t in polar], dtype=complex)
    for lam in (lam, lam[:0], lam.reshape(-1, 1)[:2], lam[0]):
        got = ue_bound_check(lam, i_max)["max_abs"]
        want = _ue_max_loop(lam, i_max)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_ue_bound_check_empty_lam_takes_no_steps():
    for lam in (np.zeros(0, complex), np.zeros((3, 0), complex)):
        t0 = time.perf_counter()
        res = ue_bound_check(lam, 10 ** 6)
        # walking all 10^6 steps over no lanes takes over a second
        assert time.perf_counter() - t0 < 0.5
        assert all(v.shape == lam.shape for v in res.values())
        assert res["max_abs"].dtype == res["bound"].dtype == float


def test_ue_bound_check_scalar_and_array():
    res = ue_bound_check(0.5 + 0j, 2000)
    assert all(np.shape(v) == () for v in res.values())
    assert res["bound"] == pytest.approx(2.0)
    assert res["ok"] and res["max_abs"] <= res["bound"] + 1e-9
    lam = 0.7 * np.exp(1j * np.linspace(0, 2 * np.pi, 9))
    res = ue_bound_check(lam, 500)
    assert all(np.shape(v) == lam.shape for v in res.values())
    assert bool(np.all(res["ok"]))
    with pytest.raises(ValueError):
        ue_bound_check(0.995, 100)
    with pytest.raises(ValueError):
        ue_bound_check(0.5, 0)
