"""Exact eigenvalue references for the tests; no result rests on LAPACK.

A sign section (zero diagonal, unit superdiagonal, subdiagonal c, corners
x = a[0, N-1] and y = a[N-1, 0], both 0 for an open section) has

    det(lam - A) = D(1..N) - x y D(2..N-1) - x c_1...c_(N-1) - y

with D(i..j) the continuant of rows i..j.  Its coefficients are built from
the stored floats at 30 digits.  A real polynomial is split exactly into
square-free factors by sympy, so its multiplicities are exact (roots closer
than 30 digits resolve come back as one multiple root); a non-real one is
taken as square-free, and mpmath.polyroots stops with NoConvergence where
it is not.  The roots are found by mpmath.polyroots at 30 digits.
"""

import math

import mpmath
import numpy as np
import sympy

DPS = 30


def _continuant(c):
    """Coefficients, lowest first, of det(lam - A) for the open section
    with subdiagonal c: D_(k+1) = lam D_k - c_k D_(k-1)."""
    prev, cur = [1], [0, 1]
    for ck in c:
        prev, cur = cur, [u - ck * v for u, v in zip([0] + cur, prev + [0, 0])]
    return cur


def char_poly(a):
    """Coefficients, lowest first, of det(lam - a) for a sign section a."""
    a = np.asarray(a)
    c = [mpmath.mpc(complex(v)) for v in np.diag(a, -1)]
    x, y = ((mpmath.mpc(complex(a[0, -1])), mpmath.mpc(complex(a[-1, 0])))
            if len(a) > 2 else (0, 0))
    inner = _continuant(c[1:-1]) + [0, 0]
    p = [u - x * y * v for u, v in zip(_continuant(c), inner)]
    p[0] -= x * math.prod(c) + y
    return p


def _roots(p):
    """Roots of the square-free p (lowest first): 0 split off, then solved
    in mu = lam^2 while the odd coefficients vanish."""
    if len(p) == 1:
        return []
    if not p[0]:
        return [mpmath.mpf(0)] + _roots(p[1:])
    if not any(p[1::2]):
        return [s * mpmath.sqrt(m) for m in _roots(p[::2]) for s in (1, -1)]
    # np.roots in doubles only seeds the iteration: it stops only where every
    # correction is below 30 digits, which holds at the roots whatever the
    # start, and the seed saves about two thirds of the steps
    seeds = np.roots([complex(v / p[-1]) for v in p[::-1]])
    return mpmath.polyroots(p[::-1], maxsteps=200,
                            roots_init=[mpmath.mpc(complex(z)) for z in seeds])


def section_roots(a):
    """The distinct roots of det(lam - a) for a sign section a, as complex,
    and their multiplicities."""
    with mpmath.workdps(DPS):
        p = [mpmath.mpc(v) for v in char_poly(a)]
        if any(v.imag for v in p):
            zeros = next(j for j, v in enumerate(p) if v)
            parts = [([0, 1], zeros)] * (zeros > 0) + [(p[zeros:], 1)]
        else:  # times a power of 2, the coefficients are integers
            s = max([0] + [-v.real.exp for v in p if v])
            ints = [int(mpmath.ldexp(v.real, s)) for v in p[::-1]]
            factors = sympy.Poly(ints, sympy.Symbol("lam")).sqf_list()[1]
            parts = [([int(g) for g in f.rep.to_list()[::-1]], k)
                     for f, k in factors]
        roots, mult = zip(*[(complex(r), k) for f, k in parts
                            for r in _roots(f)])
    return np.array(roots), np.array(mult)


def section_eigvals(a):
    """Eigenvalues of a sign section with multiplicity."""
    return np.repeat(*section_roots(a))


def dense_eigvals(a):
    """Eigenvalues of any square matrix, by mpmath at 30 digits."""
    a = np.asarray(a, dtype=complex)
    if len(a) == 1:  # mpmath.eig returns a tuple at this size
        return a[0].copy()
    with mpmath.workdps(DPS):
        w = mpmath.eig(mpmath.matrix(a.tolist()), right=False)
    return np.array([complex(v) for v in w])
