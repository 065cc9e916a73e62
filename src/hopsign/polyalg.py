"""Exact integer polynomial arithmetic for the c-tilde recurrences.

A polynomial is a zero-padded int8 row, index k holding the coefficient of
lambda^k.  The arithmetic stays exact: uv_polys checks that every table entry
lies in (-64, 64), and since each recurrence step adds two such entries, its
result lies in (-128, 128), so no int8 step wrapped.  The coefficients are
tiny in practice (the u_n coefficients are all in {-1, 0, 1}; the largest
|v_n| coefficient is 9 at n = 1024 and 11 at n = 4096).

The objects of interest are the solutions of

    u_{n+1} = lam * u_n - c~_n * u_{n-1},   u_0 = 0, u_1 = 1,
    v_{n+1} = lam * v_n - c~_n * v_{n-1},   v_0 = 1, v_1 = 0,

whose transfer matrix is T_n = [[v_n, u_n], [v_{n+1}, u_{n+1}]] with
trace tr(T_n) = u_{n+1} + v_n and det(T_n) = prod(c~_1 .. c~_n).
"""

import numpy as np

from .seqcore import c_tilde_array


def uv_polys(n_max):
    """Tables u, v of shape (n_max + 2, n_max + 1) whose row n holds the
    coefficients of u_n and v_n, exact, for n = 0 .. n_max + 1.

    Degrees: deg u_n = n - 1 and deg v_n = n - 2 for n >= 2.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cs = c_tilde_array(n_max)[1:].tolist()  # c~_1 .. c~_n_max
    t = np.zeros((2, n_max + 2, n_max + 1), dtype=np.int8)
    t[0, 1, 0] = t[1, 0, 0] = 1
    rows = [t[:, n] for n in range(n_max + 2)]
    step = {1: np.subtract, -1: np.add}  # c~_n = +-1 needs no product
    for a, b, out, c in zip(rows, rows[1:], rows[2:], cs):  # n-1, n, n+1
        out[:, 1:] = b[:, :-1]
        step.get(c, np.subtract)(out, a if c in step else c * a, out=out)
    if t.min() <= -64 or t.max() >= 64:
        raise OverflowError("a u/v coefficient left (-64, 64); an int8 step "
                            "may have wrapped")
    return t[0], t[1]


def trace_poly(n):
    """tr(T_n) = u_{n+1} + v_n, exact, as its n + 1 coefficients."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u, v = uv_polys(n)
    return u[n + 1] + v[n]


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
    in {-1, 0, +1}; p is a dense (i_max + 1, i_max + 1) int8 array whose row
    and column 0 are unused, filled one doubling block of rows at a time.
    """

    def __init__(self, i_max):
        if i_max < 1:
            raise ValueError("i_max must be >= 1")
        ct = c_tilde_array(i_max)
        p = np.zeros((i_max + 1, i_max + 1), dtype=np.int8)
        p[1, 1] = 1
        lo, we, wo = 1, i_max // 2 + 1, (i_max + 1) // 2 + 1  # column ends
        while 2 * lo <= i_max:  # rows 2 lo .. 4 lo - 1 from rows lo .. 2 lo
            hi = min(4 * lo, i_max + 1)
            ne, no = (hi - 2 * lo + 1) // 2, (hi - 2 * lo) // 2  # row counts
            p[2 * lo:hi:2, 2::2] = p[lo:lo + ne, 1:we]  # (2)
            up, down = p[lo + 1:lo + no + 1, 1:wo], p[lo:lo + no, 1:wo]
            assert not (up * down).any(), "rules (3) and (4) collided"
            p[2 * lo + 1:hi:2, 1::2] = up + ct[2 * lo + 1:hi:2, None] * down
            lo *= 2
        self.i_max = i_max
        self.p = p

    def constant_coefficients(self):
        """gamma_i = p[i, 1] for i = 0 .. i_max from the product formula
        gamma_{2m+1} = prod_{r=1..m} (-c~_{2r}), gamma_{2m} = 0,
        which follows from the recurrence gamma_{r+1} = -c~_r gamma_{r-1}
        at lambda = 0.  Used as a cross-check on the table itself.
        """
        g = np.zeros(self.i_max + 1, dtype=np.int8)
        ct = c_tilde_array(max(self.i_max - 1, 1))
        g[1::2] = np.cumprod(np.r_[1, -ct[2::2]], dtype=np.int8)
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

    def compare(r, check, got, want):  # want: {power: coefficient}
        target = np.zeros_like(got)
        target[list(want)] = list(want.values())
        bad = np.flatnonzero(got != target)
        k = bad[0] if bad.size else None
        report.append({"r": r, "check": check, "ok": k is None,
                       "detail": "" if k is None
                       else f"coeff {k}: {got[k]} != {target[k]}"})

    for r in range(1, r_max + 1):
        m = 2 ** r

        compare(r, "trace", u[m + 1] + v[m], {0: -2, m: 1})

        rows = np.stack([v[m], u[m + 1], u[m], v[m + 1]])[:, :m + 1]
        rows = rows.astype(np.int64)
        det = np.convolve(rows[0], rows[1]) - np.convolve(rows[2], rows[3])
        prod = int(np.prod(ct[1:m + 1], dtype=np.int64))
        ok = det[0] == prod == 1 and not det[1:].any()
        report.append({"r": r, "check": "det", "ok": bool(ok),
                       "detail": "" if ok else "det poly "
                       f"{np.trim_zeros(det, 'b')[:4].tolist()}..., "
                       f"sign product {prod}"})

        compare(r, "u_power", u[m], {m - 1: 1})

        p = u[m + 1]
        if r == 1:
            ok = np.array_equal(np.trim_zeros(p, "b"), [-1, 0, 1])
            report.append({"r": r, "check": "u_shape", "ok": ok,
                           "detail": "n/a for m=2; pinned u_3 = lambda^2 - 1"})
            continue
        # degree m, constant -1, zero gap below lambda^(m/2), then even
        # powers only, every coefficient in {-1, 0, 1}
        ok = (p[0] == -1 and p[m] != 0 and not p[m + 1:].any()
              and not p[1:m // 2].any() and not p[m // 2 + 1::2].any()
              and np.abs(p).max() <= 1)
        report.append({"r": r, "check": "u_shape", "ok": bool(ok),
                       "detail": "" if ok
                       else f"u_{m + 1} leading terms {p[:6].tolist()}..."})
    return report
