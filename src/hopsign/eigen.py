"""Dense complex nonsymmetric eigenvalues.

Main path: LAPACK through batched np.linalg.eigvals calls on a stack of
equal-size matrices (balancing, Hessenberg reduction and shifted QR happen
inside zgeev), with the eigenvalues of each matrix sorted by (real, imag).
Its row blocks are solved at once on the cores, with OpenBLAS on one thread:
the bits equal one single-threaded call at any core count.
"""

import ctypes
import functools
import os
import threading

import numpy as np

# numpy keeps the GIL in an eigvals loop of at most this many matrices
# times their size, so smaller row blocks would run one after another
GIL_FREE_SIZE = 500
_BLAS_LOCK = threading.Lock()  # the OpenBLAS thread count is process-wide


class SolverFailure(RuntimeError):
    """LAPACK did not converge, or its eigenvalues broke an inclusion bound."""


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
    return list(eigvals_stack(np.asarray(m, dtype=complex)[None])[0])

