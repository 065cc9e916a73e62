"""Exact integer polynomial arithmetic for the c-tilde recurrences.

A polynomial is a dense list of Python ints, index k holding the coefficient
of lambda^k; the zero polynomial is the empty list.  Coefficients stay tiny
in practice (the u_n coefficients are all in {-1, 0, 1}) but arithmetic is
arbitrary precision regardless; a debug assertion flags anything above 2^62
as a sign of drift.

The objects of interest are the solutions of

    u_{n+1} = lam * u_n - c~_n * u_{n-1},   u_0 = 0, u_1 = 1,
    v_{n+1} = lam * v_n - c~_n * v_{n-1},   v_0 = 1, v_1 = 0,

whose transfer matrix is T_n = [[v_n, u_n], [v_{n+1}, u_{n+1}]] with
trace tr(T_n) = u_{n+1} + v_n and det(T_n) = prod(c~_1 .. c~_n).
"""

from itertools import zip_longest

import numpy as np

from .seqcore import c_tilde_array

_COEFF_LIMIT = 1 << 62


def poly_norm(p):
    """Strip trailing zero coefficients."""
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def poly_add(a, b):
    return poly_norm([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def poly_sub(a, b):
    return poly_norm([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def poly_mul(a, b):
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            res[i + j] += x * y
    assert all(abs(cc) < _COEFF_LIMIT for cc in res), "coefficient drift"
    return poly_norm(res)


def monomial(k, coeff=1):
    return poly_norm([0] * k + [coeff])


def uv_polys(n_max):
    """The polynomials u_0 .. u_{n_max+1} and v_0 .. v_{n_max+1}, exact.

    Degrees: deg u_n = n - 1 and deg v_n = n - 2 for n >= 2.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ct = c_tilde_array(n_max + 1)
    u = [[], [1]]
    v = [[1], []]
    for n in range(1, n_max + 1):
        step = poly_sub if ct[n] == 1 else poly_add
        for seq in (u, v):
            seq.append(step([0] + seq[n], seq[n - 1]))
    return u, v


def trace_poly(n):
    """tr(T_n) = u_{n+1} + v_n, exact."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u, v = uv_polys(n)
    return poly_add(u[n + 1], v[n])


class PTable:
    """The coefficient table p[i, j] with u_i = sum_j p[i, j] lambda^(j-1),
    built from the support recurrence rather than from the u recurrence:

      (1) p[1, 1] = 1;
      (2) p[2i, 2j] = p[i, j];
      (3) p[i, j] = p[(i+1)/2, (j+1)/2]          (i, j odd, parent nonzero);
      (4) p[i, j] = c~_i * p[(i-1)/2, (j+1)/2]   (i, j odd, parent nonzero).

    For odd i, j exactly one of (3) and (4) can fire because u_{(i+1)/2} and
    u_{(i-1)/2} are polynomials of opposite parity, so the supports at
    (j+1)/2 are disjoint and no cancellation is possible.  Entries are all
    in {-1, 0, +1}; rows are stored sparsely as {j: sign}.
    """

    def __init__(self, i_max):
        if i_max < 1:
            raise ValueError("i_max must be >= 1")
        ct = c_tilde_array(i_max)
        rows = [None, {1: 1}]
        for i in range(2, i_max + 1):
            if i % 2 == 0:
                rows.append({2 * j: s for j, s in rows[i // 2].items()})
            else:
                n = (i - 1) // 2
                row = {2 * j - 1: s for j, s in rows[n + 1].items()}
                ci = int(ct[i])
                for j, s in rows[n].items():
                    jj = 2 * j - 1
                    assert jj not in row, "rules (3) and (4) collided"
                    row[jj] = ci * s
                rows.append(row)
        self.i_max = i_max
        self.rows = rows

    def sign(self, i, j):
        return self.rows[i].get(j, 0)

    def row(self, i):
        """Sparse row {j: sign} for u_i."""
        return dict(self.rows[i])

    def row_coeffs(self, i):
        """Dense coefficient list of u_i reconstructed from the table."""
        p = [0] * i
        for j, s in self.rows[i].items():
            p[j - 1] = s
        return poly_norm(p)

    def constant_coefficient(self, i):
        """gamma_i = p[i, 1] from the product formula
        gamma_{2m+1} = prod_{r=1..m} (-c~_{2r}), gamma_{2m} = 0,
        which follows from the recurrence gamma_{r+1} = -c~_r gamma_{r-1}
        at lambda = 0.  Used as a cross-check on the table itself.
        """
        if i % 2 == 0:
            return 0
        m = (i - 1) // 2
        ct = c_tilde_array(max(2 * m, 1))
        g = 1
        for r in range(1, m + 1):
            g *= -int(ct[2 * r])
        return g


def p_table(i_max):
    """Coefficient table for u_1 .. u_{i_max}; see PTable."""
    return PTable(i_max)


def verify_identities(r_max):
    """Exact identity checks for the powers m = 2^r, r = 1 .. r_max:

      (a) tr(T_m) = lambda^m - 2;
      (b) the determinant polynomial v_m u_{m+1} - u_m v_{m+1} equals the
          constant prod(c~_1 .. c~_m), and that product is +1 for m = 2^r;
      (c) u_m = lambda^(m-1);
      (d) u_{m+1} = -1 + lambda^(m/2) * (a sum of even powers with
          coefficients in {-1, 0, 1}).  The shape only makes sense for
          m >= 4; for r = 1 the check reports 'n/a' and instead pins
          u_3 = lambda^2 - 1 exactly.

    Returns a list of dicts {r, check, ok, detail}; ok is True for every
    passing or n/a row.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    m_top = 2 ** r_max
    u, v = uv_polys(m_top)
    ct = c_tilde_array(m_top)
    report = []

    def first_mismatch(p, q):
        for k, (x, y) in enumerate(zip_longest(p, q, fillvalue=0)):
            if x != y:
                return k, x, y
        return None

    for r in range(1, r_max + 1):
        m = 2 ** r

        target = poly_sub(monomial(m), [2])
        bad = first_mismatch(poly_add(u[m + 1], v[m]), target)
        report.append({"r": r, "check": "trace", "ok": bad is None,
                       "detail": "" if bad is None else f"coeff {bad[0]}: {bad[1]} != {bad[2]}"})

        det = poly_sub(poly_mul(v[m], u[m + 1]), poly_mul(u[m], v[m + 1]))
        prod = int(np.prod(ct[1:m + 1], dtype=np.int64))
        ok = det == [prod] and prod == 1
        report.append({"r": r, "check": "det", "ok": ok,
                       "detail": "" if ok else f"det poly {det[:4]}..., sign product {prod}"})

        bad = first_mismatch(u[m], monomial(m - 1))
        report.append({"r": r, "check": "u_power", "ok": bad is None,
                       "detail": "" if bad is None else f"coeff {bad[0]}: {bad[1]} != {bad[2]}"})

        if r == 1:
            ok = u[3] == [-1, 0, 1]
            report.append({"r": r, "check": "u_shape", "ok": ok,
                           "detail": "n/a for m=2; pinned u_3 = lambda^2 - 1"})
            continue
        p = u[m + 1]
        ok = len(p) == m + 1 and p[0] == -1
        if ok:  # zero gap below lambda^(m/2), then even powers only
            ok = all(c == 0 for c in p[1:m // 2])
            ok = ok and all(c == 0 for c in p[m // 2 + 1::2])
            ok = ok and all(c in (-1, 0, 1) for c in p)
        report.append({"r": r, "check": "u_shape", "ok": ok,
                       "detail": "" if ok else f"u_{m + 1} leading terms {p[:6]}..."})
    return report
