import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopsign import eigen
from hopsign.eigen import (SolverFailure, eigvals, eigvals_stack,
                           oracle_eigvals, solve_blocks, sort_rows)
from hopsign.metrics import matching_distance
from hopsign.spectra import build_finite, build_periodic

seed = 9
nruns = 40

# a local RandomState, not the global RNG: these draws name the
# parametrised tests, and its frozen legacy stream keeps the names stable
rs = np.random.RandomState(seed)
random_sizes = [int(rs.randint(1, 31)) for _ in range(nruns)]


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


# ---------------------------------------------------------------- basics

def test_dense_matrix_validation():
    with pytest.raises(ValueError):
        eigvals(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigvals(np.ones(4))
    for bad in (np.nan, np.inf, complex(0, np.inf)):
        with pytest.raises(ValueError):
            eigvals_stack(np.array([[[bad, 0], [0, 1]]]))
    w = eigvals_stack([[[1, 2], [3, 4]]])
    assert w.shape == (1, 2) and w.dtype == complex


def test_eigvals_stack_validation():
    with pytest.raises(ValueError):
        eigvals_stack(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        eigvals_stack(np.zeros((2, 2, 3)))


def test_small_exact_cases():
    assert eigvals([[3.5]]) == [3.5 + 0j]
    w = eigvals([[2, 1], [0, 2]])  # already deflated Jordan block
    assert w == [2 + 0j, 2 + 0j]
    w = eigvals([[0, 1], [1, 0]])
    assert w[0] == pytest.approx(-1) and w[1] == pytest.approx(1)


def test_circulant_ring():
    # all-ones ring: spectrum {2, -1, -1}
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex)
    w = np.array(eigvals(a))
    assert matching_distance(w, np.array([-1.0, -1.0, 2.0])) < 1e-9


def test_companion_of_unit_roots():
    # companion matrix of z^8 - 1
    n = 8
    a = np.zeros((n, n), dtype=complex)
    a[np.arange(1, n), np.arange(n - 1)] = 1.0
    a[0, n - 1] = 1.0
    w = np.array(eigvals(a))
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    assert matching_distance(w, roots) < 1e-9


@pytest.mark.parametrize("run,n", list(enumerate(random_sizes)),
                         ids=[str(n) for n in random_sizes])
def test_random_matrices_match_lapack(run, n):
    # every returned lam is an exact eigenvalue of a matrix within
    # 100 eps ||A||_2 of A (backward error sigma_min(A - lam I)); for
    # n <= 16 the independent oracle agrees to its own accuracy (it reaches
    # ~5e-8 at n 14..16)
    a = random_matrix(np.random.default_rng([seed, run]), n)
    mine = np.array(eigvals(a))
    unit = np.finfo(float).eps * np.linalg.norm(a, 2)
    for lam in mine:
        smin = np.linalg.svd(a - lam * np.eye(n), compute_uv=False)[-1]
        assert smin <= 100.0 * unit
    if n <= 16:
        ref = np.array(oracle_eigvals(a))
        assert (matching_distance(mine, ref)
                < 1e-7 * max(1.0, np.abs(ref).max()))
    assert np.all(np.diff(mine.real) >= 0)  # sorted by (real, imag)


def test_output_sorted_with_imag_tiebreak():
    w = np.array(eigvals(np.diag([1.0 + 1j, 1.0 - 1j, 0.5])))
    assert w[0] == 0.5
    assert w[1].imag < w[2].imag


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sort_rows_matches_lexsort_bitwise(data):
    # rows longer than numpy's 16-element insertion sort, whose real parts
    # tie (+-0.0 among them) and whose points come in conjugate pairs
    rows, half = data.draw(st.integers(1, 6)), data.draw(st.integers(9, 24))
    parts = st.sampled_from([0.0, -0.0, 0.25, -1.0])
    re = np.array(data.draw(st.lists(parts, min_size=rows * half,
                                     max_size=rows * half)))
    im = np.array(data.draw(st.lists(parts, min_size=rows * half,
                                     max_size=rows * half)))
    z = np.stack([re, im], axis=-1).view(complex).reshape(rows, half)
    w = np.concatenate([z, np.conj(z)], axis=1)
    got = sort_rows(w)
    want = np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=1), 1)
    assert got.tobytes() == want.tobytes()


def test_similarity_invariance():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    d = rng.uniform(0.5, 2.0, size=12)
    b = (d[:, None] * a) / d[None, :]
    assert matching_distance(np.array(eigvals(a)), np.array(eigvals(b))) < 1e-8


def test_trace_and_det_consistency():
    rng = np.random.default_rng(8)
    for n in (2, 4, 7):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = np.array(eigvals(a))
        assert w.sum() == pytest.approx(np.trace(a), abs=1e-9)
        assert np.prod(w) == pytest.approx(np.linalg.det(a), rel=1e-8)


def test_wide_magnitude_spread_is_balanced():
    p, s = 1e8, 1e-8
    a = np.array([[p, 1.0], [1.0, s]], dtype=complex)
    w = np.array(eigvals(a))
    # closed form of [[p, 1], [1, s]] without cancellation: the large root
    # from the half-trace, the small one as det / large (det = p s - 1 is
    # taken exactly, since p s rounds to 1)
    big = 0.5 * (p + s) + np.hypot(0.5 * (p - s), 1.0)
    det = float(Fraction(p) * Fraction(s) - 1)
    assert matching_distance(w, [det / big, big]) < 1e-6


def test_stack_matches_singles():
    rng = np.random.default_rng(6)
    stack = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    w = eigvals_stack(stack)
    assert w.shape == (5, 6)
    for k in range(5):
        assert matching_distance(w[k], np.array(eigvals(stack[k]))) < 1e-10


# ------------------------------------------------------ the split solve

def _one_thread_unsplit(a):
    """One np.linalg.eigvals call on the whole stack at one BLAS thread."""
    blas = eigen._openblas()
    before = blas[0]() if blas else None
    try:
        if blas:
            blas[1](1)
        return sort_rows(np.linalg.eigvals(a))
    finally:
        if blas:
            blas[1](before)


@pytest.mark.parametrize("b, n, parts", [
    (0, 3, 1), (600, 1, 1), (1100, 1, 2), (100, 4, 1), (1000, 4, 4),
    (300, 7, 4), (200, 8, 3), (5, 100, 1), (12, 101, 2)])
def test_split_solve_is_bit_equal_to_one_call(four_cores, b, n, parts):
    # blocks hold more than GIL_FREE_SIZE / n rows, at most one per core
    assert solve_blocks(b, n) == parts
    rng = np.random.default_rng(b + n)
    a = rng.normal(size=(b, n, n)) + 1j * rng.normal(size=(b, n, n))
    w = eigvals_stack(a)
    assert w.shape == (b, n)
    assert np.array_equal(w.view(float), _one_thread_unsplit(a).view(float))


def test_failure_in_a_later_block_is_solver_failure(
        four_cores, fail_off_the_main_thread):
    a = np.tile(np.diag(np.arange(5.0)), (1000, 1, 1))
    with pytest.raises(SolverFailure, match="did not converge on a stack"):
        eigvals_stack(a)


def test_a_thread_that_cannot_start_costs_no_bits(four_cores, monkeypatch,
                                                  capfd):
    def no_thread(self):
        raise RuntimeError("can't start new thread")

    rng = np.random.default_rng(3)
    a = rng.normal(size=(400, 7, 7)) + 1j * rng.normal(size=(400, 7, 7))
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    w = eigvals_stack(a)
    assert np.array_equal(w.view(float), _one_thread_unsplit(a).view(float))
    assert capfd.readouterr().err == ""


@pytest.mark.skipif(eigen._openblas() is None,
                    reason="no OpenBLAS thread-count symbol in this numpy")
def test_blas_thread_count_is_given_back(four_cores, monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    get, put = eigen._openblas()
    before, real = get(), np.linalg.eigvals
    a = np.tile(np.diag(np.arange(5.0)), (1000, 1, 1))
    try:
        for count in (1, 2):
            put(count)
            eigvals_stack(a)
            assert get() == count
            monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
            with pytest.raises(SolverFailure):
                eigvals_stack(a)
            monkeypatch.setattr(np.linalg, "eigvals", real)
            assert get() == count
    finally:
        put(before)


def test_nilpotent_accuracy_is_limited():
    # triple defective eigenvalue 0: any backward-stable method scatters the
    # roots at roughly eps^(1/3); only a loose bound is meaningful here
    a = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    w = np.abs(eigvals(a))
    assert max(w) < 1e-3


# ---------------------------------------------------------------- oracle

def test_oracle_matches_lapack_small():
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 5, 9, 12, 16):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = np.array(oracle_eigvals(a))
        ref = np.linalg.eigvals(a)
        assert matching_distance(w, ref) < 1e-7 * max(1.0, np.abs(ref).max())


def test_oracle_merges_multiple_roots():
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex)
    w = np.array(oracle_eigvals(a))
    assert matching_distance(w, np.array([-1.0, -1.0, 2.0])) < 1e-8
    assert w[0] == w[1]  # cluster mean repeated with multiplicity


def test_oracle_merges_defective_triple_root():
    # open 3x3 section with opposite signs: nilpotent, one Jordan block;
    # the root iteration leaves the triple root split by ~(1e-13)^(1/3)
    w = np.array(oracle_eigvals(build_finite([1.0, -1.0])))
    assert w[0] == w[1] == w[2]
    assert abs(w[0]) < 1e-12


def test_oracle_merges_triple_and_double_roots_together():
    # characteristic polynomial lam^3 (lam^2 - 2)^2
    w = np.array(oracle_eigvals(build_finite([1, 1, -1, 1, 1, 1])))
    values, counts = np.unique(w, return_counts=True)
    assert list(counts) == [2, 3, 2]
    assert matching_distance(values, [-np.sqrt(2), 0.0, np.sqrt(2)]) < 1e-8
    assert abs(values[1]) < 1e-12


def test_oracle_keeps_close_simple_roots_apart():
    w = np.array(oracle_eigvals(np.diag([0.0, 1e-5, 1.0])))
    assert len(np.unique(w)) == 3
    assert matching_distance(w, [0.0, 1e-5, 1.0]) < 1e-7


def test_oracle_near_defective_cluster_is_good_to_the_k_fold_floor():
    # signs -+-+ at sigma 1: det(lam - A) = lam^4 + 2 - 2 cos theta, whose
    # roots sqrt(2 sin(theta/2)) e^(i pi (2k+1)/4) form a 4-cluster of radius
    # 6.1e-4 at this twist; the oracle misses them by 6.6e-5, far outside its
    # simple-root 1e-7 but inside the 4-fold floor 10 (eps ||A||_2)^(1/4)
    theta = 2 * np.pi * 5.96e-8
    a = build_periodic([-1.0, 1.0, -1.0, 1.0], np.exp(1j * theta))
    exact = (np.sqrt(2 * np.sin(theta / 2))
             * np.exp(1j * np.pi * (2 * np.arange(4) + 1) / 4))
    floor = 10 * (np.finfo(float).eps * np.linalg.norm(a, 2)) ** 0.25
    assert matching_distance(np.array(eigvals(a)), exact) < 1e-10
    assert matching_distance(np.array(oracle_eigvals(a)), exact) < floor


def test_oracle_size_limit():
    with pytest.raises(ValueError):
        oracle_eigvals(np.eye(17))


def test_oracle_agrees_with_main_solver_on_sign_matrices():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(4, 11))
        a = np.zeros((n, n), dtype=complex)
        idx = np.arange(n - 1)
        a[idx, idx + 1] = 1.0
        a[idx + 1, idx] = np.where(rng.random(n - 1) < 0.5, 1.0, -1.0)
        a[0, n - 1] = np.exp(2j * np.pi * rng.random())
        a[n - 1, 0] = 1.0 / a[0, n - 1]
        d = matching_distance(np.array(eigvals(a)), np.array(oracle_eigvals(a)))
        assert d < 1e-7
