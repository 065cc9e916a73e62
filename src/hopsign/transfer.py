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
curve_form, (1 - gamma^2)^2 (Phi - 1) multiplied out and defined at |gamma| = 1,
gives the ellipses of +-sigma, paired_member's tail test and rho_curve's radii.
One array recurrence, transfer_product, computes the period products in
floats: trace_det, classify, paired_member, det_residual and decay_check
all call it, and each takes lam of any shape and answers in that shape;
decay_check raises its T_m to the decay horizon by repeated squaring.
"""

import math

import numpy as np

from .metrics import segment_distances
from .seqcore import c_tilde_array, check_sigma

RESCALE_EVERY = 32  # factors between the rescalings of transfer_product
DECAY_HORIZON = 2048  # steps of the decay_check recurrence
HOLE_SAMPLES = 8192  # vertices of the hole_clearance boundary polyline


def transfer_product(c, lam):
    """(t, e) with t * 2^e = T = X_n ... X_1, X_k = [[0, 1], [-c_k, lam]],
    for c of shape (..., n) and lam broadcast against c[..., 0]: t is
    (..., 2, 2) and e an integer array.  Every RESCALE_EVERY factors the
    product is divided by the power of two of its largest entry, an exact
    step that keeps long products from overflowing or underflowing."""
    c = np.asarray(c, dtype=float)
    lam = np.asarray(lam, dtype=complex)[..., None]
    shape = np.broadcast_shapes(lam.shape[:-1], c.shape[:-1])
    top, bot = np.zeros((2,) + shape + (2,), dtype=complex)
    top[..., 0] = bot[..., 1] = 1.0
    e = np.zeros(shape, dtype=int)
    for k in range(c.shape[-1]):
        top, bot = bot, lam * bot - c[..., k, None] * top
        if k % RESCALE_EVERY == RESCALE_EVERY - 1:
            ek = np.frexp(np.maximum(abs(top), abs(bot)).max(-1))[1]
            scale = np.ldexp(1.0, -ek)[..., None]
            top, bot, e = top * scale, bot * scale, e + ek
    return np.stack([top, bot], -2), e


def _trace(c, lam):
    """tr T for transfer_product(c, lam)."""
    t, e = transfer_product(c, lam)
    return np.ldexp(1.0, e) * (t[..., 0, 0] + t[..., 1, 1])


def trace_det(word, lam):
    """(tau, gamma) for the word at lam of any shape: tau = tr T_p(lam), and
    gamma = c_1 ... c_p from the sign product times sigma^p (never from the
    matrix, to keep it exactly lam-independent)."""
    return (_trace(word.cvals(), lam),
            math.prod(word.signs) * word.sigma ** word.period)


def det_residual(c, alpha, lam):
    """|f| / (sum of the moduli of its terms) for f = det(lam I - A(c, alpha))
    = tau(lam) - (1/alpha + gamma alpha), A the periodised section on c_1..c_N
    (corner last), |alpha| = 1, alpha and lam broadcast against c[..., 0];
    the moduli come from the recurrence on (-|c|, |lam|)."""
    gamma = np.prod(c, axis=-1)
    f = _trace(c, lam) - (1.0 / alpha + gamma * alpha)
    terms = _trace(-np.abs(c), np.abs(lam)).real + 1.0 + np.abs(gamma)
    return np.abs(f) / terms


def phi(tau, gamma):
    """Phi(tau, gamma) for tau of any shape; requires -1 < gamma < 1."""
    if not -1.0 < gamma < 1.0:
        raise ValueError(f"gamma = {gamma} outside (-1, 1)")
    tau = np.asarray(tau, dtype=complex)
    return (tau.real / (1.0 + gamma)) ** 2 + (tau.imag / (1.0 - gamma)) ** 2


def curve_form(tau, gamma):
    """(1 - gamma^2)^2 (Phi - 1) multiplied out, for tau of any shape:
    negative inside E = {1/alpha + gamma alpha : |alpha| = 1}, zero on it; a
    word's form at lam is curve_form(*trace_det(word, lam)).  It has no
    division, so at |gamma| = 1 its zero set is the whole line Im tau = 0
    (gamma = 1) or Re tau = 0, which the caller cuts to |Re tau| <= 2 (or
    |Im tau| <= 2)."""
    tau = np.asarray(tau, dtype=complex)
    x, y = tau.real, tau.imag
    return (x * x * (1.0 - gamma) ** 2 + y * y * (1.0 + gamma) ** 2
            - (1.0 - gamma * gamma) ** 2)


def quadratic_roots(tau, gamma):
    """Roots of z^2 - tau z + gamma with |z1| >= |z2| for tau of any shape,
    the larger computed by the cancellation-safe branch and the smaller as
    gamma / z1 (0 where z1 = 0, that is tau = gamma = 0, and NaN, without
    dividing, where z1 is NaN)."""
    tau = np.asarray(tau, dtype=complex)
    disc = np.sqrt(tau * tau - 4.0 * gamma)
    z1 = 0.5 * (tau + np.where((tau.conj() * disc).real < 0.0, -disc, disc))
    nan = np.isnan(z1)
    return z1, np.divide(gamma, z1, out=np.where(nan, z1, 0j),
                         where=(z1 != 0) & ~nan)


def classify(word, lam, tol=1e-9):
    """Classify lam of any shape for the word: label B if |Phi - 1| <= tol,
    I if Phi < 1 - tol, O if Phi > 1 + tol.  Returns {"label", "z1_abs",
    "z2_abs", "phi"}, each of lam's shape."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    tau, gamma = trace_det(word, lam)
    pv = phi(tau, gamma)
    z1, z2 = quadratic_roots(tau, gamma)
    label = np.where(abs(pv - 1.0) <= tol, "B", np.where(pv < 1.0, "I", "O"))
    return {"label": label, "z1_abs": abs(z1), "z2_abs": abs(z2), "phi": pv}


def rho_curve(n, branch, theta, sigma):
    """Radius of the spectral curve of the n-th iterate word at angle theta,
    rho_n^{+-}(theta, s) = rho_0(2^n theta, +-s^(2^n)) ^ (1/2^n), where
    rho_0(phi, g) e^(i phi) is the zero of curve_form(., g) on its ray:
    (1 - g)(1 + g) / hypot((1 - g) cos phi, (1 + g) sin phi), a sum of
    squares that does not cancel as sigma -> 1.  theta may be a scalar or an
    array.  Requires 0 < sigma < 1 (at sigma = 1 the curves degenerate to
    segment stars handled in closed form elsewhere)."""
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if not 0.0 < sigma < 1.0:
        raise ValueError("rho curves need sigma in (0, 1)")
    if n < 0:
        raise ValueError("n must be >= 0")
    phi_n = 2.0 ** n * np.asarray(theta, dtype=float)
    g = sigma ** (2 ** n) * (1.0 if branch == "+" else -1.0)
    r0 = (1.0 - g) * (1.0 + g) / np.hypot((1.0 - g) * np.cos(phi_n),
                                          (1.0 + g) * np.sin(phi_n))
    return r0 ** (1.0 / 2 ** n)


class RegionParams:
    """sigma plus the derived region constants: the two ellipse semi-axis
    pairs, the annulus radii 1 -+ sigma, the diamond bound sqrt(2(1+sigma^2)),
    and the outer hole radius r_sigma = (1-sigma^2)/sqrt(1+sigma^2)."""

    def __init__(self, sigma):
        sigma = check_sigma(sigma)
        self.sigma = sigma
        self.annulus_inner = 1.0 - sigma
        self.annulus_outer = 1.0 + sigma
        self.diamond_bound = math.sqrt(2.0 * (1.0 + sigma * sigma))
        self.r_sigma = (1.0 - sigma * sigma) / math.sqrt(1.0 + sigma * sigma)


def ellipse_forms(lams, params):
    """The ellipse forms (f_plus, f_minus) = (curve_form(lams, s),
    curve_form(lams, -s)), negative inside the open ellipse E_plus (E_minus),
    zero on its boundary: the Bloch curve lam = e^(i t) +- s e^(-i t) of the
    constant word +-s.  Safe at sigma = 1, where both become segments."""
    return curve_form(lams, params.sigma), curve_form(lams, -params.sigma)


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


def hole_boundary_radius(theta, sigma):
    """Polar radius of the hole boundary: the pointwise minimum of the two
    ellipse radii rho_0^{+-}(theta, sigma)."""
    return np.minimum(rho_curve(0, "+", theta, sigma),
                      rho_curve(0, "-", theta, sigma))


def hole_clearance(lams, sigma):
    """Minimum distance from a finite point set to the closed central hole,
    by exact projection onto the chords of a dense boundary polyline; 0 when
    a point lies in the open hole, where f = max(f_plus, f_minus) < 0.

    Both ellipses contain the hole.  A point with f >= 0 lies on or outside
    the copies of both ellipses scaled by k = sqrt(1 + f / (1 - sigma^2)^2),
    and those copies lie at least (k - 1)(1 - sigma), k - 1 times the
    smaller semi-axis, outside the ellipses.  The chords lie in the convex
    hole, so that bound is at most the chord distance: after the point of
    least bound, only it and the points whose bound does not exceed its
    chord distance are projected."""
    params = RegionParams(sigma)
    pts = np.asarray_chkfinite(lams, dtype=complex).ravel()
    if len(pts) == 0:
        raise ValueError("empty point set")
    f = np.maximum(*ellipse_forms(pts, params))
    if (f < 0).any():
        return 0.0
    th = np.linspace(0.0, 2.0 * np.pi, HOLE_SAMPLES, endpoint=False)
    verts = hole_boundary_radius(th, sigma) * np.exp(1j * th)
    starts, ends = verts, np.roll(verts, -1)
    s = params.sigma
    low = (np.sqrt(1.0 + f / (1.0 - s * s) ** 2) - 1.0) * (1.0 - s)
    least = np.argmin(low)
    best = segment_distances(pts[least], starts, ends)[0]
    near = low <= best * (1.0 + 1e-9)  # on the axes, bound == distance
    near[least] = True  # even if its bound rounds above its distance
    return float(segment_distances(pts[near], starts, ends).min())


def paired_member(word_c, tail_sign, lam, tol=1e-9):
    """Membership certificate for the operator that follows the periodic
    word on the right half-axis and the constant word tail_sign * sigma on
    the left: lam in closure(I_c) (label B or I) and lam outside the closed
    tail ellipse (ellipse form > 0) guarantees lam is an eigenvalue.  On
    that ellipse the tail has a unimodular multiplier, so no solution
    decays to the left.  lam may have any shape."""
    if tail_sign not in ("+", "-"):
        raise ValueError("tail_sign must be '+' or '-'")
    inside = classify(word_c, lam, tol)["label"] != "O"
    gamma = word_c.sigma if tail_sign == "+" else -word_c.sigma
    return inside & (curve_form(lam, gamma) > 0)


def required_decay_order(sigma):
    """Smallest d with sqrt(sigma) < 4^(-1/2^d)."""
    d = 1
    while not math.sqrt(sigma) < 4.0 ** (-1.0 / 2 ** d):
        d += 1
        if d > 64:
            raise ValueError("no admissible d (sigma too close to 1?)")
    return d


def decay_check(lam, sigma, d):
    """Empirical decay rates of both fundamental solutions of

        xi_{n+1} = lam xi_n - c_n xi_{n-1},   c_n = sigma * c~_n (period 2^d)

    started from (xi_0, xi_1) = (0, 1) and (1, 0).  The rate of a solution is
    the per-step growth of its two-term state (|xi_{r-1}|, |xi_r|), a column
    of T_r, at r = DECAY_HORIZON.  For m <= r, T_r = T_m^(r/m) is T_m from
    transfer_product squared log2(r/m) times, rescaled as transfer_product
    does; for m > r it is the direct product.  Requires sqrt(sigma) <
    4^(-1/2^d); any lam is accepted, so growth (rate > 1) is observable
    outside the decay disc.

    Returns {"rates": (r1, r2), "rate": max, "decays": max < 1, "h":
    4^(-1/m), "required_d": minimal admissible d}, each of lam's shape.
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
    c = sigma * c_tilde_array(m)[1:DECAY_HORIZON + 1]  # c_1 .. c_min(m, r)
    t, e = transfer_product(c, lam)
    for _ in range(int(math.log2(DECAY_HORIZON / len(c)))):  # T_2n = T_n^2
        t = t @ t
        ek = np.frexp(abs(t).max((-2, -1)))[1]
        t, e = t * np.ldexp(1.0, -ek)[..., None, None], 2 * e + ek
    state = np.log2(abs(t).max(-2)) + e[..., None]  # columns: (1, 0), (0, 1)
    r2, r1 = np.moveaxis(np.exp2(state / DECAY_HORIZON), -1, 0)
    rate = np.maximum(r1, r2)
    return {"rates": (r1, r2), "rate": rate, "decays": rate < 1.0,
            "h": h, "required_d": required_decay_order(sigma)}
