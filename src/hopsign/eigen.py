"""Dense complex nonsymmetric eigenvalues.

Main path: LAPACK through batched np.linalg.eigvals calls on a stack of
equal-size matrices (balancing, Hessenberg reduction and shifted QR happen
inside zgeev), with the eigenvalues of each matrix sorted by (real, imag).
Its row blocks are solved at once on the cores, with OpenBLAS on one thread:
the bits equal one single-threaded call at any core count.

Validation path: oracle_eigvals reduces by stabilized elementary similarity,
evaluates the characteristic polynomial through the Hessenberg leading-minor
determinant recurrence at interpolation nodes, recovers coefficients by an
inverse FFT, polishes all roots at once by Durand-Kerner iteration, and
merges the clusters that are numerically multiple roots.  The two paths
share no linear algebra.
"""

import ctypes
import functools
import math
import os
import threading

import numpy as np

# oracle: root iteration stop, and the k-fold test's allowance over the
# rounding floor per matrix dimension
ROOT_TOL = 1e-13
KFOLD_NOISE = 2.0
# numpy keeps the GIL in an eigvals loop of at most this many matrices
# times their size, so smaller row blocks would run one after another
GIL_FREE_SIZE = 500
_BLAS_LOCK = threading.Lock()  # the OpenBLAS thread count is process-wide


class SolverFailure(RuntimeError):
    """LAPACK did not converge, or its eigenvalues broke an inclusion bound."""


def _square(m):
    """m as a complex 2-D square array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    return a


def solve_blocks(b, n):
    """The number of row blocks eigvals_stack cuts b matrices of size n
    into: at most one per core, each of more than GIL_FREE_SIZE / n rows."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, min(cores, b // (GIL_FREE_SIZE // max(n, 1) + 1)))


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS in numpy's wheel
    (numpy.libs, loaded already), or None where none is found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = os.listdir(libs) if os.path.isdir(libs) else []
    for name in sorted(f for f in names if "openblas" in f):
        lib = ctypes.CDLL(os.path.join(libs, name))
        for pre in ("scipy_openblas_", "openblas_"):
            get, put = (getattr(lib, f"{pre}{op}_num_threads64_", None)
                        for op in ("get", "set"))
            if get and put:
                return get, put
    return None


def eigvals_stack(mats):
    """Eigenvalues of a stack (B, n, n) of finite matrices; returns (B, n)
    sorted by (real, imag) per matrix.  The solve_blocks contiguous row
    blocks are solved in threads at once (this one takes the first), each
    with a LAPACK copy of one matrix, and OpenBLAS runs on one thread until
    they are done."""
    a = np.asarray(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"need shape (B, n, n), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("entries must be finite")
    parts = solve_blocks(*a.shape[:2])
    w = np.empty(a.shape[:2], dtype=complex)
    errors = [None] * parts

    def solve(i):
        rows = slice(len(a) * i // parts, len(a) * (i + 1) // parts)
        try:
            w[rows] = np.linalg.eigvals(a[rows])
        except Exception as exc:  # raised again in the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=solve, args=(i,))
               for i in range(1, parts)]
    with _BLAS_LOCK:
        get, put = _openblas() or (lambda: None, lambda count: None)
        before = get()
        put(1)
        try:
            for i, t in enumerate(threads, 1):
                try:
                    t.start()
                except RuntimeError:  # no thread to be had: solve it here
                    solve(i)
            solve(0)
            for t in threads:
                if t.ident is not None:  # started
                    t.join()
        finally:
            put(before)
    exc = next((e for e in errors if e is not None), None)
    if isinstance(exc, np.linalg.LinAlgError):
        raise SolverFailure(f"eigenvalue iteration did not converge on a "
                            f"stack of {len(a)} matrices of size "
                            f"{a.shape[1]}: {exc}") from None
    if exc is not None:
        raise exc
    return sort_rows(w)


def sort_rows(w):
    """Each row of a (B, n) array sorted by (real, imag), ties (-0.0 and 0.0
    too) in their input order: numpy's stable complex sort."""
    return np.sort(w, axis=1, kind="stable")


def eigvals(m):
    """Sorted eigenvalues (with multiplicity) of one matrix, as a list."""
    return list(eigvals_stack(_square(m)[None])[0])


# ---------------------------------------------------------------- oracle ---

def _elementary_hessenberg(a):
    """Reduce in place to upper Hessenberg by stabilized elementary
    similarity transforms with pivoting (no orthogonal machinery)."""
    n = a.shape[0]
    for k in range(n - 2):
        piv = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if a[piv, k] == 0:
            continue
        if piv != k + 1:
            a[[k + 1, piv], :] = a[[piv, k + 1], :]
            a[:, [k + 1, piv]] = a[:, [piv, k + 1]]
        for i in range(k + 2, n):
            m = a[i, k] / a[k + 1, k]
            if m != 0:
                a[i, k:] -= m * a[k + 1, k:]
                a[:, k + 1] += m * a[:, i]
        a[k + 2:, k] = 0.0


def _hessenberg_det(h, z):
    """det(z I - h) for upper Hessenberg h, by the leading-minor recurrence:
    expanding the k-th leading minor along its last column gives

        D_k = sum_j (-1)^(k-j) b[j,k] (prod_{i=j..k-1} b[i+1,i]) D_{j-1}

    with b = z I - h, which needs no nonzero-subdiagonal assumption."""
    n = h.shape[0]
    b = -h.copy()
    b[np.arange(n), np.arange(n)] += z
    d = [1.0 + 0j]
    for k in range(n):
        acc = b[k, k] * d[k]
        prod = 1.0 + 0j
        for j in range(k - 1, -1, -1):
            prod *= b[j + 1, j]
            if prod == 0:
                break
            sign = -1.0 if (k - j) % 2 else 1.0
            acc += sign * b[j, k] * prod * d[j]
        d.append(acc)
    return d[n]


def _char_coeffs(h):
    """Coefficients a_0..a_n of det(z I - h) by evaluation at n+1 nodes on a
    circle of radius R and an inverse FFT, and the rounding floor of each:
    every node value carries an error of about eps * M, M the largest node
    value, so a_k is good to about eps * M / R^k.

    R should sit near the spectral radius: too large and the low-order
    coefficients drown in the leading term (cancellation ~ (R/rho)^n), too
    small and the high-order ones do.  max(row sums) alone overshoots by a
    factor ~n on dense matrices; the Frobenius norm over sqrt(n) undershoots
    by at most sqrt(n), which the recovery tolerates for n <= 16."""
    n = h.shape[0]
    absh = np.abs(h)
    bound = min(float(absh.sum(axis=1).max()), float(absh.sum(axis=0).max()),
                float(np.sqrt((absh * absh).sum() / n)))
    radius = 1.0 + bound
    nodes = radius * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    vals = np.array([_hessenberg_det(h, z) for z in nodes])
    # vals_j = sum_k a_k R^k e^{2 pi i jk/(n+1)}, so the forward DFT
    # (numpy sign convention) recovers a_k R^k
    coeffs = np.fft.fft(vals) / (n + 1) / radius ** np.arange(n + 1)
    noise = (np.finfo(float).eps * np.abs(vals).max()
             / radius ** np.arange(n + 1))
    return coeffs, noise


def _durand_kerner(coeffs, tol=ROOT_TOL, maxit=1000):
    """All roots of the monic polynomial with coefficient vector a_0..a_n
    (a_n ~ 1) by simultaneous iteration; stops when every residual is below
    tol relative to the evaluation magnitude.

    Near a k-fold root c the residual is about |p^(k)(c) / k!| |w - c|^k, so
    the stop leaves the k computed roots split by about
    (tol * scale / |p^(k)(c) / k!|)^(1/k): ~3e-7 for a double root, inside
    the 1e-6 merge distance of the caller, but ~5e-5 for a triple root and
    more for higher ones, which _kfold_groups has to recognise.  1e-13 keeps
    ~30x headroom over the evaluation noise floor eps * scale."""
    n = len(coeffs) - 1
    coeffs = coeffs / coeffs[-1]
    radius = 1.0 + np.max(np.abs(coeffs[:-1]))
    w = radius * (0.4 + 0.9j) ** np.arange(n)
    powers = np.arange(n + 1)
    for it in range(maxit):
        pv = np.polyval(coeffs[::-1], w)
        scale = np.abs(w)[:, None] ** powers[None, :] @ np.abs(coeffs)
        if np.all(np.abs(pv) <= tol * (scale + 1.0)):
            return w, it
        diff = w[:, None] - w[None, :]
        np.fill_diagonal(diff, 1.0)
        denom = diff.prod(axis=1)
        denom = np.where(denom == 0, 1e-300, denom)
        step = pv / denom
        w = w - step
        if np.max(np.abs(step)) <= 1e-14 * (1.0 + np.max(np.abs(w))):
            return w, it
    raise RuntimeError(f"root iteration did not converge in {maxit} iterations")


def _taylor_shift(coeffs, c):
    """Coefficients b_0..b_n of p(c + t) in powers of t, for p with
    ascending coefficients a_0..a_n: b_j = sum_i a_i binom(i, j) c^(i-j)."""
    n = len(coeffs) - 1
    i = np.arange(n + 1)
    binom = np.array([[math.comb(r, j) for j in i] for r in i], dtype=float)
    powers = np.clip(i[:, None] - i[None, :], 0, None)
    return coeffs @ (binom * complex(c) ** powers)


def _is_kfold_root(w, members, coeffs, noise):
    """Whether the roots w[members] are numerically one k-fold root of the
    polynomial, k = len(members).

    Two tests.  The spread must match what the stopping rule of
    _durand_kerner leaves at a k-fold root: at most twice
    (reach / g)^(1/k), with g = |p^(k)(c) / k!| estimated by the product of
    distances from the mean c to the other roots, and reach the residual the
    iteration can attain (its tolerance, or the evaluation noise when that is
    larger).  Then, at the centre c polished by Newton steps on p^(k-1) (a
    simple root there), the Taylor coefficients b_0..b_(k-1) must vanish to
    within KFOLD_NOISE * n times their rounding floor: the coefficient floors
    carried through the same shift with |c|.  A true k-fold root leaves each
    b_j at the rounding floor; k distinct roots spread over a distance d
    leave b_(k-2) of order g d^2, so they pass only while d is within about
    the square root of the floor."""
    n = len(coeffs) - 1
    k = len(members)
    c = complex(w[members].mean())
    allowed = KFOLD_NOISE * n
    powers = np.abs(c) ** np.arange(n + 1)
    reach = max(ROOT_TOL * (float(powers @ np.abs(coeffs)) + 1.0),
                allowed * float(powers @ noise))
    g = max(float(np.prod(np.abs(c - np.delete(w, members)))),
            np.finfo(float).tiny)
    if np.abs(w[members] - c).max() > 2.0 * (reach / g) ** (1.0 / k):
        return False
    for _ in range(2):
        b = _taylor_shift(coeffs, c)
        if b[k] == 0:
            return False
        c -= b[k - 1] / (k * b[k])
    b = _taylor_shift(coeffs, c)
    floor = _taylor_shift(noise, abs(c)).real
    return bool(np.all(np.abs(b[:k]) <= allowed * floor[:k]))


def _kfold_groups(w, coeffs, noise):
    """Disjoint index groups of computed roots that are numerically one
    k-fold root (k >= 2).  Candidates are each root with its k - 1 nearest
    neighbours, largest k first, so a true k-fold cluster is taken whole
    before any of its subsets is tried."""
    n = len(w)
    near = np.argsort(np.abs(w[:, None] - w[None, :]), axis=1, kind="stable")
    taken = np.zeros(n, dtype=bool)
    groups = []
    for k in range(n, 1, -1):
        for i in range(n):
            members = near[i, :k]
            if taken[members].any():
                continue
            if _is_kfold_root(w, members, coeffs, noise):
                taken[members] = True
                groups.append(members)
    return groups


def _merge_root_clusters(w, tol, groups):
    """Replace each cluster of roots by its mean, repeated with the
    cluster's multiplicity.  Clusters are the components of single linkage
    at distance tol, joined with the given index groups (the numerically
    k-fold roots from _kfold_groups).  A k-fold root moves as the k-th root
    of a perturbation, but the mean of its cluster is analytic in the
    perturbation, so for a true k-fold root the mean restores nearly full
    accuracy whatever k is."""
    n = len(w)
    link = np.abs(w[:, None] - w[None, :]) <= tol
    for members in groups:
        link[np.ix_(members, members)] = True
    for _ in range(n.bit_length()):  # transitive closure by squaring
        link = (link.astype(int) @ link) > 0
    return np.array([w[row].mean() for row in link])


def oracle_eigvals(m):
    """Independent small-matrix eigenvalues (n <= 16): characteristic
    polynomial from the Hessenberg determinant recurrence, all roots by
    simultaneous iteration, sorted by (real, imag).  Roots within 1e-6 of
    each other (relative to the largest), and clusters that pass the k-fold
    root test, come back as their cluster mean repeated with its
    multiplicity.  Simple roots lie up to about 5e-8 from LAPACK's at n
    14..16 (the coefficient noise floor), so compare them at
    1e-7 max(1, |lam|).  That bound holds for simple roots only: a
    near-defective cluster of k roots that the k-fold test does not merge is
    good only to about 10 (eps ||A||_2)^(1/k)."""
    a = _square(m).copy()
    n = a.shape[0]
    if n > 16:
        raise ValueError("oracle_eigvals is limited to n <= 16")
    if n == 1:
        return [complex(a[0, 0])]
    _elementary_hessenberg(a)
    coeffs, noise = _char_coeffs(a)
    w, _ = _durand_kerner(coeffs)
    groups = _kfold_groups(w, coeffs / coeffs[-1], noise / abs(coeffs[-1]))
    w = _merge_root_clusters(w, 1e-6 * max(1.0, float(np.abs(w).max())),
                             groups)
    order = np.lexsort((w.imag, w.real))
    return list(w[order])
