"""Correctness checks on hopsign outputs that share no code with its eigensolver.

Every eigenvalue in a CSV is tested against the characteristic polynomial of
its own section, evaluated by a vectorised 2x2 transfer recurrence that
carries its derivative.  For the periodised section with twist alpha,

    det(lam I - A(alpha)) = tau(lam) - (1/alpha + gamma alpha),

where tau is the trace of the period transfer matrix and gamma = c_1 ... c_N;
for the open section the determinant is the three-term continuant.  The
Newton correction |f(lam)| / |f'(lam)| estimates each eigenvalue's forward
error.  Completeness is checked per (word, alpha) section: exactly N
eigenvalues, sum(lam) = tr A = 0 and sum(lam^2) = tr A^2 = 2 sum(c).
"""

import json
import re
import xml.etree.ElementTree as ET

import numpy as np

# Largest accepted Newton correction at a simple root.  The largest one in
# any workload's output is about 1e-11 with the in-house QR solver; an error
# of 1e-7 in one eigenvalue is far outside.
NEWTON_TOL = 1e-9
# A root whose nearest sibling eigenvalue (same section) is closer than this
# is near-double: f' -> 0 there, the forward error grows to ~sqrt(eps), and
# the looser tolerance below applies.  Such roots are counted, not failed.
NEAR_DOUBLE_GAP = 1e-4
NEAR_DOUBLE_TOL = 1e-6
# Power-sum tolerance per unit section size.
POWER_SUM_TOL = 1e-9
# Largest accepted `curve` deviation from the closed-form rho curve.
CURVE_TOL = 1e-6


def transfer_det(lam, c, alpha=None):
    """f(lam) = det(lam I - A) and f'(lam) for a batch of sections.

    lam: (P,) complex points; c: (P, N) subdiagonal values (the last one is
    the corner hop); alpha: (P,) twists, or None for the open section, whose
    subdiagonal is c[:, :N-1].
    """
    lam = np.asarray(lam, dtype=complex)
    c = np.asarray(c, dtype=float)
    one, zero = np.ones_like(lam), np.zeros_like(lam)
    m11, m12, m21, m22 = one, zero, zero, one
    d11, d12, d21, d22 = zero, zero, zero, zero
    # one step: M <- [[lam, -c_k], [1, 0]] M, dM <- [[1, 0], [0, 0]] M + X dM
    steps = c if alpha is not None else np.concatenate(
        [np.zeros((len(lam), 1)), c[:, :-1]], axis=1)
    for k in range(steps.shape[1]):
        ck = steps[:, k]
        d11, d12, d21, d22 = (m11 + lam * d11 - ck * d21,
                              m12 + lam * d12 - ck * d22, d11, d12)
        m11, m12, m21, m22 = lam * m11 - ck * m21, lam * m12 - ck * m22, m11, m12
    if alpha is None:
        return m11, d11
    alpha = np.asarray(alpha, dtype=complex)
    gamma = np.prod(c, axis=1)
    return m11 + m22 - (1.0 / alpha + gamma * alpha), d11 + d22


def read_cloud(path):
    """Parse a hopsign CSV into its header fields and columns."""
    words, params, sigma = {}, {}, None
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if body.startswith("word "):
                _, wid, pattern = body.split(" ", 2)
                words[int(wid)] = np.array([1.0 if s == "+" else -1.0
                                            for s in pattern])
            elif " = " in body:
                key, value = body.split(" = ", 1)
                if key == "sigma":
                    sigma = float(value)
                else:
                    params[key] = value
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return {
        "sigma": sigma,
        "periodic": params.get("periodic", "True") == "True",
        "words": words,
        "lam": data[:, 0] + 1j * data[:, 1],
        "N": data[:, 2].astype(int),
        "word_id": data[:, 3].astype(int),
        "alpha": data[:, 4] + 1j * data[:, 5],
    }


def _section_c(cloud, word_id, n):
    """Subdiagonal values (corner last) of each row's section of size n: the
    word's signs repeated over the section (periods 1 and 2 are doubled)."""
    ids, inverse = np.unique(word_id, return_inverse=True)
    table = np.stack([np.resize(cloud["words"][i], n) for i in ids])
    return cloud["sigma"] * table[inverse]


def check_cloud(cloud):
    """Newton corrections and completeness of every eigenvalue in a cloud.

    Returns {points, max_newton, near_double, bad_points, bad_sections}."""
    lam, size, wid, alpha = (cloud["lam"], cloud["N"], cloud["word_id"],
                             cloud["alpha"])
    out = {"points": int(len(lam)), "max_newton": 0.0, "near_double": 0,
           "bad_points": 0, "bad_sections": 0}
    if not len(lam):
        out["bad_sections"] = 1
        return out
    key = np.column_stack([wid, size, alpha.real, alpha.imag])
    _, section = np.unique(key, axis=0, return_inverse=True)
    section = section.ravel()
    counts = np.bincount(section)
    order = np.lexsort((lam.imag, lam.real, section))
    for n in np.unique(size):
        rows = order[size[order] == n]
        c = _section_c(cloud, wid[rows], n)
        f, fp = transfer_det(lam[rows], c,
                             alpha[rows] if cloud["periodic"] else None)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.abs(f) / np.abs(fp)
        corr = np.where(np.isfinite(corr), corr, np.inf)
        # nearest sibling in the same section; rows are grouped by section,
        # so complete sections reshape to (sections, n)
        near = np.zeros(len(rows), dtype=bool)
        whole = counts[section[rows]] == n
        z = lam[rows[whole]].reshape(-1, n)
        gap = np.abs(z[:, :, None] - z[:, None, :])
        gap[:, np.arange(n), np.arange(n)] = np.inf
        near[whole] = (gap.min(axis=2) < NEAR_DOUBLE_GAP).ravel()
        tol = np.where(near, NEAR_DOUBLE_TOL, NEWTON_TOL)
        out["max_newton"] = max(out["max_newton"], float(corr.max()))
        out["near_double"] += int(near.sum())
        out["bad_points"] += int((corr > tol).sum())
    # completeness per section: N roots, power sums 0 and 2 sum(c)
    first = np.unique(section, return_index=True)[1]
    n_sec = size[first]
    p1 = np.bincount(section, lam.real) + 1j * np.bincount(section, lam.imag)
    lam2 = lam * lam
    p2 = np.bincount(section, lam2.real) + 1j * np.bincount(section, lam2.imag)
    want_p2 = np.array([
        2.0 * cloud["sigma"] * np.resize(cloud["words"][w], n)[
            :n if cloud["periodic"] else n - 1].sum()
        for w, n in zip(wid[first], n_sec)])
    tol = POWER_SUM_TOL * n_sec
    bad = ((counts != n_sec) | (np.abs(p1) > tol)
           | (np.abs(p2 - want_p2) > tol))
    out["bad_sections"] = int(bad.sum())
    return out


def check_svg(path):
    """The figure parses as XML with an <svg> root."""
    return ET.parse(path).getroot().tag.endswith("svg")


def check_verify_stdout(text):
    """`hopsign verify` prints a JSON list of checks, all with status pass."""
    rows = json.loads(text)
    return bool(rows) and all(r["status"] == "pass" for r in rows)


_DEVIATION = re.compile(r"max deviation of (\d+) eigenvalues from the "
                        r"closed form: (\S+)")


def check_curve_stdout(text):
    """`hopsign curve --mode both` prints one deviation line per branch,
    each within CURVE_TOL."""
    found = _DEVIATION.findall(text)
    return bool(found) and all(float(dev) <= CURVE_TOL for _, dev in found)
