import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopsign.seqcore import (DiagWord, SeqWindow, SignWord, c_iterate_word,
                             c_tilde, c_tilde_array, fixed_point_window,
                             gamma_minus_window, gamma_plus_window,
                             gamma_plus_word, hat_inversion, m_word,
                             minimal_period, rotation_classes)

seed = 42
nwords = 25

# a local RandomState, not the global RNG: these draws name the
# parametrised tests, and its frozen legacy stream keeps the names stable
rs = np.random.RandomState(seed)
word_args = []
for _ in range(nwords):
    n = rs.randint(1, 13)
    signs = tuple(int(s) for s in rs.choice([-1, 1], size=n))
    s2 = float(rs.choice([0.25, 0.81, 1.0]))
    word_args.append((signs, s2))


# ---------------------------------------------------------------- SignWord

def test_signword_basics():
    w = SignWord((1, -1, -1), 0.5)
    assert w.period == 3
    assert w.c(0) == 0.5 and w.c(1) == -0.5 and w.c(2) == -0.5
    assert w.c(3) == 0.5 and w.c(-1) == -0.5
    assert w.cvals() == [-0.5, -0.5, 0.5]
    assert w.cvals(5) == [-0.5, -0.5, 0.5, -0.5, -0.5]


def test_signword_validation():
    with pytest.raises(ValueError):
        SignWord(())
    with pytest.raises(ValueError):
        SignWord((1, 0, -1))
    with pytest.raises(ValueError):
        SignWord((1,), 0.0)
    with pytest.raises(ValueError):
        SignWord((1,), 1.5)


@pytest.mark.parametrize("signs,s2", word_args)
def test_rotated_shifts_the_sequence(signs, s2):
    w = SignWord(signs, s2)
    k = int(np.random.default_rng(seed).integers(0, 2 * len(signs)))
    r = SignWord(np.roll(w.signs, -k), s2)  # the sequence n -> c_{n+k}
    for n in range(-5, 3 * len(signs)):
        assert r.c(n) == w.c(n + k)


def test_canonical_is_least_rotation():
    w = SignWord((1, -1, 1, 1), 0.5)
    rots = np.array([np.roll(w.signs, -k) for k in range(4)])
    k, _, codes = rotation_classes(rots)
    least = [np.roll(r, -j).tolist() for r, j in zip(rots, k)]
    assert least == [[-1, 1, 1, 1]] * 4
    assert (codes == codes[0]).all()


def _signs(n):
    return np.random.default_rng(n).choice([-1, 1], n).tolist()


# n = 1, 8, 9, 63, 64, 65, 128 and 129: each side of a byte and of a 64-bit
# code word
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(word=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=35),
       times=st.integers(1, 4), rows=st.integers(1, 4))
@example(word=[1], times=1, rows=1)
@example(word=_signs(8), times=1, rows=4)
@example(word=_signs(3), times=3, rows=3)
@example(word=_signs(63), times=1, rows=4)
@example(word=_signs(32), times=2, rows=4)
@example(word=_signs(65), times=1, rows=4)
@example(word=_signs(64), times=2, rows=4)
@example(word=_signs(43), times=3, rows=4)
def test_rotation_classes_match_tuple_rotations(word, times, rows):
    # repeated words of length up to 140 span several 64-bit code words
    signs = tuple(word) * times
    n = len(signs)
    table = np.array([signs[j:] + signs[:j] for j in range(rows)])
    k, period, codes = rotation_classes(table)
    for row, kk, d, code in zip(map(tuple, table), k, period, codes):
        rots = [row[j:] + row[:j] for j in range(n)]
        assert kk == rots.index(min(rots))
        assert d == n // rots.count(row)
        bits = np.packbits(np.array(min(rots)) > 0).tobytes()
        assert code.tobytes() == bits.ljust(8 * len(code), b"\0")
    assert minimal_period(signs) == period[0]
    assert period[0] == next(d for d in range(1, n + 1)
                             if signs == signs[:d] * (n // d))


def test_rotation_classes_compare_past_the_first_code_word():
    # the rotations at 0 and 72 share their first 71 signs
    signs = (-1,) * 70 + (1, 1) + (-1,) * 70 + (1,)
    k, period, _ = rotation_classes([signs])
    assert (k[0], period[0]) == (72, 143)
    assert rotation_classes([signs * 2])[1][0] == 143


def test_reduced_inverts_repeated():
    w = SignWord((1, -1, -1), 0.5)
    r, factor = w.repeated(4).reduced()
    assert r == w and factor == 4
    r, factor = w.reduced()
    assert r == w and factor == 1


# ---------------------------------------------------------------- SeqWindow

def test_window_indexing_and_slicing():
    w = SeqWindow(-2, [0.5, -0.5, 0.5, 0.5])
    assert (w.lo, w.hi) == (-2, 1)
    assert w.value(-2) == 0.5 and w.value(1) == 0.5
    assert w.sliced(-1, 0) == SeqWindow(-1, [-0.5, 0.5])
    with pytest.raises(IndexError):
        w.value(2)
    with pytest.raises(IndexError):
        w.sliced(-3, 0)
    with pytest.raises(ValueError):
        SeqWindow(0, [])
    with pytest.raises(ValueError):
        SeqWindow(0, [0.5, 0.25])


def test_hat_is_an_involution():
    w = SeqWindow(-3, [0.5, -0.5, 0.5, 0.5, -0.5, 0.5, -0.5])
    h = hat_inversion(w)
    assert (h.lo, h.hi) == (1 - w.hi, 1 - w.lo)
    for n in range(h.lo, h.hi + 1):
        assert h.value(n) == w.value(1 - n)
    assert hat_inversion(h) == w


# ---------------------------------------------------------------- Gamma maps

@pytest.mark.parametrize("signs,s2", word_args)
def test_gamma_plus_word_defining_relations(signs, s2):
    b = SignWord(signs, s2)
    c = gamma_plus_word(b)
    sigma = np.sqrt(s2)
    assert abs(c.sigma - sigma) < 1e-15
    assert 4 * b.period % c.period == 0
    assert c.period_reduction == 4 * b.period // c.period
    assert c.c(0) == pytest.approx(sigma)
    for n in range(-2 * b.period, 2 * b.period + 1):
        assert c.c(2 * n) + c.c(2 * n + 1) == pytest.approx(0.0)
        assert c.c(2 * n) * c.c(2 * n - 1) == pytest.approx(b.c(n))


def test_gamma_plus_word_sigma_mismatch():
    b = SignWord((1, -1), 0.25)
    assert gamma_plus_word(b, 0.5).sigma == 0.5
    with pytest.raises(ValueError):
        gamma_plus_word(b, 0.9)


def test_gamma_plus_window_range_and_relations():
    # windows starting or ending at 0 leave one or both of the sign kernel's
    # outward runs from index 0 empty
    rng = np.random.default_rng(seed)
    for lo, hi in [(0, 0), (0, 1), (0, 6), (-1, 0), (-6, 0), (-1, 1),
                   (-2, 4), (-7, 3)]:
        b = SeqWindow(lo, 0.25 * rng.choice([-1, 1], size=hi - lo + 1))
        c = gamma_plus_window(b)
        assert (c.lo, c.hi) == (2 * lo, 2 * hi + 1)
        assert c.sigma == pytest.approx(0.5)
        assert c.value(0) == 0.5
        for n in range(lo, hi + 1):
            assert c.value(2 * n) + c.value(2 * n + 1) == 0.0
            if n > lo:
                assert c.value(2 * n) * c.value(2 * n - 1) == b.value(n)
    with pytest.raises(ValueError):
        gamma_plus_window(SeqWindow(1, [0.25, -0.25]))


def test_gamma_minus_window_relations():
    # Gamma_minus pins c_1 = +sigma and satisfies the same pair/product laws
    vals = [0.25 * s for s in (-1, 1, 1, -1, 1)]
    b = SeqWindow(-2, vals)
    c = gamma_minus_window(b)
    assert (c.lo, c.hi) == (2 * (b.lo - 1), 2 * b.hi - 1)
    assert c.value(1) == pytest.approx(0.5)
    for n in range(b.lo, b.hi + 1):
        lo_ok = c.lo <= 2 * n and 2 * n + 1 <= c.hi
        if lo_ok:
            assert c.value(2 * n) + c.value(2 * n + 1) == pytest.approx(0.0)
        if c.lo <= 2 * n - 1 and 2 * n <= c.hi:
            assert c.value(2 * n) * c.value(2 * n - 1) == pytest.approx(b.value(n))


def test_gamma_word_and_window_agree():
    b = SignWord((1, -1, -1, 1, -1), 0.25)
    c = gamma_plus_word(b)
    win = SeqWindow(-b.period, [b.c(n) for n in range(-b.period, b.period + 1)])
    cw = gamma_plus_window(win)
    for n in range(cw.lo, cw.hi + 1):
        assert cw.value(n) == pytest.approx(c.c(n))


# ---------------------------------------------------------------- iterates

def test_first_iterate_words():
    assert c_iterate_word(0, "+").signs == (1,)
    assert c_iterate_word(0, "-").signs == (-1,)
    assert c_iterate_word(1, "+").signs == (1, -1, -1, 1)
    assert c_iterate_word(1, "-").signs == (1, -1)
    for branch, first in (("+", [1, 4]), ("-", [1, 2])):
        periods = [c_iterate_word(m, branch).period for m in range(9)]
        assert periods == first + [2 ** (m + 1) for m in range(2, 9)]


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("branch", ["+", "-"])
def test_iterate_is_gamma_of_previous(m, branch):
    b = c_iterate_word(m, branch, 0.25)
    nxt = c_iterate_word(m + 1, branch, 0.5)
    img = gamma_plus_word(b, 0.5)
    assert img.signs == nxt.signs
    assert img.sigma == nxt.sigma
    assert 4 ** (m + 1) % nxt.period == 0


def test_iterate_validation():
    with pytest.raises(ValueError):
        c_iterate_word(1, "x")
    with pytest.raises(ValueError):
        c_iterate_word(-1, "+")


# ---------------------------------------------------------------- fixed point

@pytest.mark.parametrize("n", range(1, 12))
def test_fixed_point_positive_side_is_c_tilde(n):
    # the conventions differ at index 1 only: the fixed point is forced to
    # c_1 = -c_0 = -1 by the pair relation, c-tilde pins c~_1 = +1
    fp = fixed_point_window(n)
    assert (fp.lo, fp.hi) == (2 - 2 ** n, 2 ** n - 1)
    assert fp.value(1) == -c_tilde(1) == -1
    for k in range(2, 2 ** n):
        assert fp.value(k) == c_tilde(k)


def test_fixed_point_satisfies_gamma_relations():
    fp = fixed_point_window(5)
    assert fp.value(0) == 1.0
    for n in range(fp.lo // 2 + 1, fp.hi // 2):
        assert fp.value(2 * n) + fp.value(2 * n + 1) == 0.0
        assert fp.value(2 * n) * fp.value(2 * n - 1) == fp.value(n)


def test_fixed_point_scaling_and_validation():
    fp = fixed_point_window(3, 0.5)
    assert fp.value(0) == 0.5
    assert fp.value(1) == -0.5
    assert fp.value(3) == -0.5
    with pytest.raises(ValueError):
        fixed_point_window(0)


# ---------------------------------------------------------------- companion

def test_m_word_constant_inputs():
    mp = m_word(SignWord((1,), 0.25))
    assert mp.diag == (-1.0, 1.0)
    assert mp.sub == -0.25 and mp.sup == 1.0
    mm = m_word(SignWord((-1,), 0.25))
    assert mm.diag == (0.0, 0.0)
    assert mm.sub == -0.25


@pytest.mark.parametrize("signs,s2", word_args)
def test_m_word_matches_gamma_image(signs, s2):
    b = SignWord(signs, s2)
    c = gamma_plus_word(b)
    mw = m_word(b)
    assert mw.period == 2 * b.period
    assert mw.sub == -b.sigma
    for k in range(mw.period):
        assert mw.diag[k] == pytest.approx(c.c(2 * k + 1) + c.c(2 * k + 2))


def test_diagword_validation():
    with pytest.raises(ValueError):
        DiagWord((0.3,), -0.25, 0.5)


# ---------------------------------------------------------------- c-tilde

def test_c_tilde_first_values():
    assert [c_tilde(n) for n in range(1, 10)] == [1, 1, -1, -1, 1, -1, 1, -1, 1]


def test_c_tilde_against_naive_recursion():
    top = 4096
    naive = [0, 1]
    for k in range(2, top + 1):
        if k % 2 == 0:
            naive.append(naive[k - 1] * naive[k // 2])
        else:
            naive.append(-naive[k - 1])
    arr = c_tilde_array(top)
    assert arr.shape == (top + 1,)
    assert list(arr[1:]) == naive[1:]


def test_c_tilde_array_is_read_only():
    for nmax in (3, 8, 5000):  # after one, three and twelve doublings
        with pytest.raises(ValueError):
            c_tilde_array(nmax)[3] = 5
    assert c_tilde(3) == -1


def test_c_tilde_validation():
    with pytest.raises(ValueError):
        c_tilde(0)
    with pytest.raises(ValueError):
        c_tilde_array(0)
