import numpy as np
import pytest

import hopsign.polyalg as polyalg
from hopsign.polyalg import (PTable, p_table, trace_poly, uv_polys,
                             verify_identities)
from hopsign.seqcore import SignWord, c_tilde, c_tilde_array
from hopsign.transfer import trace_det

# reference values for n = 1..9: (c~_n, u_n, v_n), ascending coefficients
UV_TABLE = [
    (1, [1], []),
    (1, [0, 1], [-1]),
    (-1, [-1, 0, 1], [0, -1]),
    (-1, [0, 0, 0, 1], [-1, 0, -1]),
    (1, [-1, 0, 1, 0, 1], [0, -2, 0, -1]),
    (-1, [0, -1, 0, 0, 0, 1], [1, 0, -1, 0, -1]),
    (1, [-1, 0, 0, 0, 1, 0, 1], [0, -1, 0, -2, 0, -1]),
    (-1, [0, 0, 0, 0, 0, 0, 0, 1], [-1, 0, 0, 0, -1, 0, -1]),
    (1, [-1, 0, 0, 0, 1, 0, 1, 0, 1], [0, -2, 0, -2, 0, -2, 0, -1]),
]

# reference trace polynomials tr(T_n) for n = 1..8
TRACE_TABLE = [
    [0, 1],
    [-2, 0, 1],
    [0, -1, 0, 1],
    [-2, 0, 0, 0, 1],
    [0, -3, 0, -1, 0, 1],
    [0, 0, -1, 0, 0, 0, 1],
    [0, -1, 0, -2, 0, -1, 0, 1],
    [-2, 0, 0, 0, 0, 0, 0, 0, 1],
]

U9, V9 = uv_polys(9)


def trimmed(row):
    """A table row without its zero padding, as a list."""
    return np.trim_zeros(row, "b").tolist()


# ---------------------------------------------------------------- tables

@pytest.mark.parametrize("n", range(1, 10))
def test_uv_reference_table(n):
    ct, un, vn = UV_TABLE[n - 1]
    assert c_tilde(n) == ct
    assert trimmed(U9[n]) == un
    assert trimmed(V9[n]) == vn


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_reference_table(n):
    assert trace_poly(n).tolist() == TRACE_TABLE[n - 1]


def test_uv_seed_values_and_degrees():
    u, v = uv_polys(64)
    assert u.shape == v.shape == (66, 65)
    assert trimmed(u[0]) == [] and trimmed(u[1]) == [1]
    assert trimmed(v[0]) == [1] and trimmed(v[1]) == []
    for n in range(2, 66):
        for row, degree in ((u[n], n - 1), (v[n], n - 2)):
            assert np.flatnonzero(row)[-1] == degree
            assert not row[degree + 1:].any()  # zero padding


def test_uv_satisfy_their_recurrence():
    u, v = uv_polys(40)
    ct = c_tilde_array(40).astype(int)
    for n in range(1, 40):
        for t in (u, v):  # t_{n+1} = lam t_n - c~_n t_{n-1}
            lam_tn = np.convolve([0, 1], t[n].astype(int))[:-1]
            assert np.array_equal(t[n + 1], lam_tn - ct[n] * t[n - 1])


U40, V40 = (t.astype(np.int64) for t in uv_polys(40))


@pytest.mark.parametrize("n", range(1, 41))
def test_wronskian_is_the_sign_product(n):
    # v_n u_{n+1} - u_n v_{n+1} = c~_1 ... c~_n for every n, not just powers
    det = (np.convolve(V40[n], U40[n + 1])
           - np.convolve(U40[n], V40[n + 1]))
    prod = int(np.prod(c_tilde_array(n)[1:n + 1], dtype=np.int64))
    assert trimmed(det) == [prod]
    assert prod in (-1, 1)


def _uv_loop(n_max):  # the per-step loop uv_polys replaced
    ct = polyalg.c_tilde_array(n_max + 1)  # the table uv_polys reads
    t = np.zeros((2, n_max + 2, n_max + 1), dtype=np.int8)
    t[0, 1, 0] = t[1, 0, 0] = 1
    for n in range(1, n_max + 1):
        t[:, n + 1, 1:] = t[:, n, :-1]
        t[:, n + 1] -= ct[n] * t[:, n - 1]
    return t[0], t[1]


@pytest.mark.parametrize("n_max", [1, 2, 9, 512, 1024, 1100])
def test_uv_polys_match_step_loop(n_max):
    for got, want in zip(uv_polys(n_max), _uv_loop(n_max)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_uv_polys_multiply_when_c_tilde_is_not_a_sign(monkeypatch):
    # a c~ table scaled by 2 (as the range check's test scales it by 100)
    # takes the multiplying step, not the +-1 table's add or subtract
    monkeypatch.setattr(polyalg, "c_tilde_array",
                        lambda nmax: c_tilde_array(nmax) * 2)
    for got, want in zip(uv_polys(6), _uv_loop(6)):
        assert np.array_equal(got, want)
    assert uv_polys(6)[1][2, 0] == -2  # v_2 = -c_1


def test_uv_range_check_trips_on_large_coefficients(monkeypatch):
    # c~ scaled by 100 puts -100 into v_2, outside the (-64, 64) range in
    # which no int8 step can wrap
    with monkeypatch.context() as mp:
        mp.setattr(polyalg, "c_tilde_array",
                   lambda nmax: c_tilde_array(nmax) * 100)
        with pytest.raises(OverflowError, match="-64, 64"):
            uv_polys(40)
    uv_polys(40)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 16])
def test_trace_poly_matches_transfer_matrix(n):
    # realize c_1..c_n = c~_1..c~_n as the leading cvals of a signword and
    # compare the exact polynomial against the 2x2 matrix product route
    ct = c_tilde_array(n)
    signs = (int(ct[n]),) + tuple(int(ct[k]) for k in range(1, n))
    word = SignWord(signs, 1.0)
    assert word.cvals(n) == [float(ct[k]) for k in range(1, n + 1)]
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = complex(*rng.normal(size=2))
        exact = np.polynomial.polynomial.polyval(z, trace_poly(n))
        assert trace_det(word, z)[0] == pytest.approx(exact, abs=1e-10 * (1 + abs(z)) ** n)


# ---------------------------------------------------------------- p table

def test_p_table_matches_uv_coefficients():
    top = 1024
    table = p_table(top)
    u, _ = uv_polys(top)
    assert table.p.shape == (top + 1, top + 1)
    for i in range(1, top + 1):
        assert np.array_equal(table.p[i, 1:], u[i, :top])


def test_p_table_entries_and_structure():
    p = p_table(256).p
    assert set(np.unique(p)) == {-1, 0, 1}
    assert not p[0].any() and not p[:, 0].any()
    assert not np.triu(p, 1).any()  # p[i, j] = 0 for j > i
    # rule (2), and u_2i is odd in lambda: p[2i, 2j] = p[i, j], odd j zero
    assert np.array_equal(p[2::2, 2::2], p[1:129, 1:129])
    assert not p[2::2, 1::2].any()


def test_p_table_constant_coefficients():
    table = p_table(512)
    ct = c_tilde_array(512)
    gammas = table.constant_coefficients()
    assert gammas.shape == (513,)
    for i in range(1, 513):
        g = int(gammas[i])
        assert table.p[i, 1] == g
        if i % 2 == 0:
            assert g == 0
        else:
            m = (i - 1) // 2
            prod = 1
            for r in range(1, m + 1):
                prod *= -int(ct[2 * r])
            assert g == prod


def test_p_table_validation():
    with pytest.raises(ValueError):
        PTable(0)


# ---------------------------------------------------------------- identities

def test_verify_identities_structure():
    rep = verify_identities(3)
    assert len(rep) == 12
    assert all(row["ok"] for row in rep)
    assert {row["check"] for row in rep} == {"trace", "det", "u_power", "u_shape"}
    r1_shape = next(r for r in rep if r["r"] == 1 and r["check"] == "u_shape")
    assert "n/a" in r1_shape["detail"]


def test_verify_identities_validation():
    with pytest.raises(ValueError):
        verify_identities(0)
    with pytest.raises(ValueError):
        uv_polys(0)
    with pytest.raises(ValueError):
        trace_poly(0)


def test_verify_identities_catches_corrupted_cache(monkeypatch):
    # flip one sign in the c-tilde table polyalg reads; the exact checks
    # must fail
    assert c_tilde_array(8)[3] == -1

    def corrupted(nmax):
        bad = c_tilde_array(nmax).copy()  # read-only, so corrupt a copy
        bad[3] = 1
        return bad

    with monkeypatch.context() as mp:
        mp.setattr(polyalg, "c_tilde_array", corrupted)
        rep = verify_identities(2)
        assert any(not row["ok"] for row in rep)
    assert all(row["ok"] for row in verify_identities(2))
