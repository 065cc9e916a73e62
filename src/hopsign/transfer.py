"""Transfer-matrix classification of periodic words.

For an N-periodic word c the eigenvalue recurrence u_{n+1} + c_n u_{n-1} =
lam u_n has one-step matrices X_n = [[0, 1], [-c_n, lam]] and period matrix
T_p = X_p ... X_1 with trace tau(lam) and lam-independent determinant
gamma = c_1 ... c_p = +-sigma^p.  The multipliers are the roots z1, z2 of
z^2 - tau z + gamma = 0, and lam belongs to the spectrum exactly when
|z1| = 1 (then automatically |z2| = sigma^p).  For -1 < gamma < 1 that
condition is Phi(tau, gamma) = 1 with

    Phi = Re(tau)^2 / (1+gamma)^2 + Im(tau)^2 / (1-gamma)^2,

Phi < 1 marking the both-roots-inside region I and Phi > 1 the split region O.
"""

import cmath
import math

import numpy as np

from .metrics import segment_distances
from .seqcore import c_tilde_array, check_sigma


class Transfer2x2:
    """A 2x2 complex matrix (a11 a12 / a21 a22)."""

    def __init__(self, a11, a12, a21, a22):
        self.a11 = complex(a11)
        self.a12 = complex(a12)
        self.a21 = complex(a21)
        self.a22 = complex(a22)

    def __matmul__(self, other):
        return Transfer2x2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22)

    def trace(self):
        return self.a11 + self.a22

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def __repr__(self):
        return f"Transfer2x2({self.a11}, {self.a12}, {self.a21}, {self.a22})"


class TraceData:
    """Trace tau of T_p at lam, determinant gamma = c_1 ... c_p, period p."""

    def __init__(self, tau, gamma, p):
        self.tau = complex(tau)
        self.gamma = float(gamma)
        self.p = int(p)


class Classification:
    """Pointwise label B (on the spectral curve), I (both multipliers
    inside), or O (split), plus the multiplier magnitudes and Phi."""

    def __init__(self, label, z1_abs, z2_abs, phi_value):
        self.label = label
        self.z1_abs = float(z1_abs)
        self.z2_abs = float(z2_abs)
        self.phi_value = float(phi_value)

    def __repr__(self):
        return (f"Classification({self.label}, |z1|={self.z1_abs:.6g}, "
                f"|z2|={self.z2_abs:.6g}, Phi={self.phi_value:.6g})")


def transfer_matrix(word, lam):
    """T_p = X_p ... X_1 over one period of the word, multiplied one factor
    at a time from X_1 upward."""
    lam = complex(lam)
    cs = word.cvals()
    t = Transfer2x2(0.0, 1.0, -cs[0], lam)
    for c in cs[1:]:
        t = Transfer2x2(0.0, 1.0, -c, lam) @ t
    return t


def trace_det(word, lam):
    """tau from the matrix product; gamma from the sign product times
    sigma^p (never from the matrix, to keep it exactly lam-independent)."""
    p = word.period
    tau = transfer_matrix(word, lam).trace()
    sign = 1
    for s in word.signs:
        sign *= s
    return TraceData(tau, sign * word.sigma ** p, p)


def phi(tau, gamma):
    """Phi(tau, gamma); requires -1 < gamma < 1."""
    if not -1.0 < gamma < 1.0:
        raise ValueError(f"gamma = {gamma} outside (-1, 1)")
    tau = complex(tau)
    return (tau.real / (1.0 + gamma)) ** 2 + (tau.imag / (1.0 - gamma)) ** 2


def quadratic_roots(tau, gamma):
    """Roots of z^2 - tau z + gamma with |z1| >= |z2|, the larger computed
    by the cancellation-safe branch and the smaller as gamma / z1."""
    tau = complex(tau)
    disc = cmath.sqrt(tau * tau - 4.0 * gamma)
    if (tau.conjugate() * disc).real < 0.0:
        disc = -disc
    z1 = 0.5 * (tau + disc)
    if z1 == 0:  # tau = 0, gamma = 0
        return 0j, 0j
    return z1, gamma / z1


def classify(word, lam, tol=1e-9):
    """Classify lam for the word: B if |Phi - 1| <= tol, I if Phi < 1 - tol,
    O if Phi > 1 + tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    td = trace_det(word, lam)
    pv = phi(td.tau, td.gamma)
    z1, z2 = quadratic_roots(td.tau, td.gamma)
    if abs(pv - 1.0) <= tol:
        label = "B"
    elif pv < 1.0:
        label = "I"
    else:
        label = "O"
    return Classification(label, abs(z1), abs(z2), pv)


def rho_curve(n, branch, theta, sigma):
    """Radius of the spectral curve of the n-th iterate word at angle theta:

        rho_0^+(theta, s) = (1 - s^2) / sqrt(1 + s^2 - 2 s cos 2 theta)
        rho_0^-(theta, s) = (1 - s^2) / sqrt(1 + s^2 + 2 s cos 2 theta)
        rho_n^{+-}(theta, s) = rho_0^{+-}(2^n theta, s^(2^n)) ^ (1 / 2^n)

    theta may be a scalar or an array.  Requires 0 < sigma < 1 (at sigma = 1
    the curves degenerate to segment stars handled in closed form elsewhere).
    """
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if not 0.0 < sigma < 1.0:
        raise ValueError("rho curves need sigma in (0, 1)")
    if n < 0:
        raise ValueError("n must be >= 0")
    theta = np.asarray(theta, dtype=float)
    pm = -1.0 if branch == "+" else 1.0
    s = sigma ** (2 ** n)
    r0 = (1.0 - s * s) / np.sqrt(1.0 + s * s + pm * 2.0 * s * np.cos(2.0 ** (n + 1) * theta))
    out = r0 ** (1.0 / 2 ** n)
    return float(out) if out.ndim == 0 else out


class RegionParams:
    """sigma plus the derived region constants: the two ellipse semi-axis
    pairs, the annulus radii 1 -+ sigma, the diamond bound sqrt(2(1+sigma^2)),
    the outer hole radius r_sigma = (1-sigma^2)/sqrt(1+sigma^2), and the
    inner curve radii rho_lower(n)."""

    def __init__(self, sigma):
        sigma = check_sigma(sigma)
        self.sigma = sigma
        self.annulus_inner = 1.0 - sigma
        self.annulus_outer = 1.0 + sigma
        self.diamond_bound = math.sqrt(2.0 * (1.0 + sigma * sigma))
        self.r_sigma = (1.0 - sigma * sigma) / math.sqrt(1.0 + sigma * sigma)

    def rho_lower(self, n):
        """((1 - sigma^(2^(n+1))) / (1 + sigma^(2^n))) ^ (1/2^n), an exact
        lower bound for rho_n^{+-} over all angles; increases to 1."""
        s = self.sigma
        return ((1.0 - s ** (2 ** (n + 1))) / (1.0 + s ** (2 ** n))) ** (1.0 / 2 ** n)


def ellipse_forms(lams, params):
    """The multiplied-out ellipse forms (f_plus, f_minus) at each point,

        f_plus  = x^2 (1 - s)^2 + y^2 (1 + s)^2 - (1 - s^2)^2
        f_minus = x^2 (1 + s)^2 + y^2 (1 - s)^2 - (1 - s^2)^2,

    negative inside the open ellipse E_plus (E_minus), zero on its boundary:
    the Bloch curve lam = e^(i t) +- s e^(-i t) of the constant word +-s.
    Safe at sigma = 1, where both ellipses degenerate to segments."""
    lams = np.asarray(lams, dtype=complex)
    x, y = lams.real, lams.imag
    s = params.sigma
    rhs = (1.0 - s * s) ** 2
    return (x * x * (1.0 - s) ** 2 + y * y * (1.0 + s) ** 2 - rhs,
            x * x * (1.0 + s) ** 2 + y * y * (1.0 - s) ** 2 - rhs)


def region_tests_many(lams, params):
    """Vectorized region membership for an array of points.

    Returns a dict of boolean arrays: open ellipse interiors in_E_plus and
    in_E_minus (negative ellipse_forms), their intersection in_H, and the
    closed annulus and diamond.
    """
    lams = np.asarray(lams, dtype=complex)
    x, y = lams.real, lams.imag
    f_plus, f_minus = ellipse_forms(lams, params)
    in_ep = f_plus < 0
    in_em = f_minus < 0
    mod = np.abs(lams)
    return {
        "in_E_plus": in_ep,
        "in_E_minus": in_em,
        "in_H": in_ep & in_em,
        "in_annulus": (params.annulus_inner <= mod) & (mod <= params.annulus_outer),
        "in_diamond": np.abs(x) + np.abs(y) <= params.diamond_bound,
    }


def region_tests(lam, params):
    """Region membership for a single point; see region_tests_many."""
    many = region_tests_many([complex(lam)], params)
    return {k: bool(v[0]) for k, v in many.items()}


def hole_boundary_radius(theta, sigma):
    """Polar radius of the hole boundary: the pointwise minimum of the two
    ellipse radii rho_0^{+-}(theta, sigma)."""
    return np.minimum(rho_curve(0, "+", theta, sigma),
                      rho_curve(0, "-", theta, sigma))


def hole_clearance(lams, sigma, samples=8192):
    """Minimum distance from a point set to the closed central hole, by exact
    projection onto the chords of a dense boundary polyline.

    The closed hole sits inside the disc of radius r_sigma, so a point at
    radius r > r_sigma is at least r - r_sigma away; points beyond a small
    margin are dropped before the segment scan.  When the near-set minimum
    d fails to certify them irrelevant, only the points with
    r <= r_sigma + d are scanned as well: none beyond can be closer, so the
    result stays exact."""
    params = RegionParams(sigma)
    pts = np.asarray(lams, dtype=complex).ravel()
    if len(pts) == 0:
        raise ValueError("empty point set")
    if region_tests_many(pts, params)["in_H"].any():
        return 0.0
    th = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    verts = hole_boundary_radius(th, sigma) * np.exp(1j * th)
    starts, ends = verts, np.roll(verts, -1)
    margin = 0.05
    near = np.abs(pts) <= params.r_sigma + margin
    min_near = (float(segment_distances(pts[near], starts, ends).min())
                if near.any() else np.inf)
    far_bound = (float((np.abs(pts[~near]) - params.r_sigma).min())
                 if not near.all() else np.inf)
    if min_near <= far_bound:
        return min_near
    rescan = ~near & (np.abs(pts) <= params.r_sigma + min_near)
    return min(min_near,
               float(segment_distances(pts[rescan], starts, ends).min()))


def paired_member(word_c, tail_sign, lam, tol=1e-9):
    """Membership certificate for the operator that follows the periodic
    word on the right half-axis and the constant word tail_sign * sigma on
    the left: lam in closure(I_c) (label B or I) and lam outside the closed
    tail ellipse guarantees lam is an eigenvalue.
    """
    if tail_sign not in ("+", "-"):
        raise ValueError("tail_sign must be '+' or '-'")
    cls = classify(word_c, lam, tol)
    if cls.label == "O":
        return False
    flags = region_tests(lam, RegionParams(word_c.sigma))
    in_tail = flags["in_E_plus"] if tail_sign == "+" else flags["in_E_minus"]
    return not in_tail


def required_decay_order(sigma):
    """Smallest d with sqrt(sigma) < 4^(-1/2^d)."""
    d = 1
    while not math.sqrt(sigma) < 4.0 ** (-1.0 / 2 ** d):
        d += 1
        if d > 64:
            raise ValueError("no admissible d (sigma too close to 1?)")
    return d


def decay_check(lam, sigma, d, horizon=2048):
    """Empirical decay rates of both fundamental solutions of

        xi_{n+1} = lam xi_n - c_n xi_{n-1},   c_n = sigma * c~_n (period 2^d)

    started from (xi_0, xi_1) = (0, 1) and (1, 0).  The rate of a solution is
    the per-step growth of its two-term state (|xi_{r-1}|, |xi_r|) at the
    horizon, with running renormalization so nothing overflows.  Requires
    sqrt(sigma) < 4^(-1/2^d); any lam is accepted, so growth (rate > 1) is
    observable outside the decay disc.

    Returns {"rates": (r1, r2), "rate": max, "decays": max < 1,
             "h": 4^(-1/m), "required_d": minimal admissible d}.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must be in (0, 1)")
    if d < 1:
        raise ValueError("d must be >= 1")
    m = 2 ** d
    h = 4.0 ** (-1.0 / m)
    if not math.sqrt(sigma) < h:
        raise ValueError(
            f"sigma^(1/2) = {math.sqrt(sigma):.6g} is not < 4^(-1/{m}) = {h:.6g}; "
            f"minimal admissible d is {required_decay_order(sigma)}")
    lam = complex(lam)
    ct = c_tilde_array(m)
    cper = [sigma * int(ct[r]) for r in range(1, m + 1)]  # c_1 .. c_m, then repeat
    rates = []
    for x0, x1 in ((0j, 1.0 + 0j), (1.0 + 0j, 0j)):
        a, b = x0, x1
        logoff = 0.0
        for n in range(1, horizon + 1):
            a, b = b, lam * b - cper[(n - 1) % m] * a
            mag = max(abs(a), abs(b))
            if mag > 1e100 or mag < 1e-100:
                a /= mag
                b /= mag
                logoff += math.log(mag)
        state = max(abs(a), abs(b))
        rates.append(math.exp((math.log(state) + logoff) / horizon))
    rate = max(rates)
    return {"rates": tuple(rates), "rate": rate, "decays": rate < 1.0,
            "h": h, "required_d": required_decay_order(sigma)}
