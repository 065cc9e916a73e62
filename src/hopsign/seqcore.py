"""Sign-sequence types and the square-root maps acting on them.

A coefficient sequence is a bi-infinite sequence c with c_n = +sigma or
-sigma.  Periodic sequences are stored as SignWord (a list of signs plus the
amplitude), finite non-periodic pieces as SeqWindow (an indexed window of
values).

The central transform is Gamma_plus: given b with amplitude sigma^2, the
image c = Gamma_plus(b) is the unique sequence with amplitude sigma such that

    c_0 = sigma,   c_{2n} + c_{2n+1} = 0,   c_{2n} c_{2n-1} = b_n.

Writing c_{2n} = sigma * s_n these relations reduce to pure sign arithmetic:
s_0 = 1 and s_n = -sign(b_n) * s_{n-1}, which the one kernel _gamma_signs
runs for every map below.  Gamma_minus is Gamma_plus conjugated by the space inversion
b -> b^ with (b^)_n = b_{1-n}.

The sequence c-tilde (c_tilde below) is defined for n >= 1 by c~_1 = 1,
c~_{2n} = c~_{2n-1} c~_n, c~_{2n} + c~_{2n+1} = 0.  It agrees with the
fixed point of Gamma_plus at every index n >= 2; the fixed point itself has
entry -1 at index 1 (forced by the pair relation c_0 + c_1 = 0), which the
c-tilde convention flips to +1.
"""

import math

import numpy as np


def check_sigma(sigma):
    """sigma as a float, if it is a valid amplitude in (0, 1]."""
    sigma = float(sigma)
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma = {sigma} is not in (0, 1]")
    return sigma


def sign_pattern(values):
    """'+'/'-' string of the signs of a sequence of nonzero values."""
    return "".join("+" if v > 0 else "-" for v in values)


def rotation_classes(rows):
    """For each row of a (W, n) sign array: the offset k of its least
    rotation row[k:] + row[:k] (the smallest such k), its minimal period and
    the code of that rotation.  A code packs the bits sign > 0, first sign
    most significant, into 64-bit words, so code order is lexicographic
    order with - before +; the minimal period is n over the number of
    rotations whose code equals the row's (one for a primitive row)."""
    pos = np.asarray(rows) > 0
    n = pos.shape[1]
    rot = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pos, pos[:, :-1]], axis=1), n, axis=1)  # [w, k, :]
    codes = np.zeros(rot.shape[:2] + (-(-n // 64) * 8,), np.uint8)
    codes[..., :-(-n // 8)] = np.packbits(rot, axis=2)
    codes = codes.view(">u8")  # [w, k, word]
    least = np.ones(rot.shape[:2], bool)
    for col in np.moveaxis(codes, 2, 0):
        least &= col == np.where(least, col, col.max()).min(1, keepdims=True)
    k = least.argmax(axis=1)
    fixed = (codes == codes[:, :1]).all(axis=2).sum(axis=1)
    return k, n // fixed, codes[np.arange(len(k)), k]


def minimal_period(signs):
    """Smallest d dividing len(signs) such that signs repeats its first d
    entries."""
    return int(rotation_classes([signs])[1][0])


class SignWord:
    """An N-periodic sign sequence c_n = sigma * signs[n mod N].

    Index origin: position 0 of `signs` is the sign of c_0.  Rotating the
    sign list changes the represented sequence but not its spectrum;
    canonicalization is applied only explicitly (never on construction).
    """

    def __init__(self, signs, sigma=1.0):
        signs = tuple(int(s) for s in signs)
        if len(signs) < 1:
            raise ValueError("need at least one sign")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        self.signs = signs
        self.sigma = check_sigma(sigma)

    @property
    def period(self):
        return len(self.signs)

    def c(self, n):
        """Value c_n of the represented sequence."""
        return self.sigma * self.signs[n % len(self.signs)]

    def cvals(self, count=None):
        """The values c_1, ..., c_count (default count = period).

        This is the order in which subdiagonal entries and transfer-matrix
        factors consume the word.
        """
        if count is None:
            count = len(self.signs)
        return [self.c(n) for n in range(1, count + 1)]

    def repeated(self, times):
        return SignWord(self.signs * int(times), self.sigma)

    def reduced(self):
        """Minimal-period form, plus the reduction factor.

        Returns (word, factor) where factor = period // minimal period.
        """
        d = minimal_period(self.signs)
        return SignWord(self.signs[:d], self.sigma), len(self.signs) // d

    def __eq__(self, other):
        return (isinstance(other, SignWord) and self.signs == other.signs
                and self.sigma == other.sigma)

    def __hash__(self):
        return hash((self.signs, self.sigma))

    def __repr__(self):
        return f"SignWord({sign_pattern(self.signs)}, sigma={self.sigma})"


class SeqWindow:
    """Values c_lo .. c_hi of a sequence, all of modulus sigma."""

    def __init__(self, lo, values):
        self.lo = int(lo)
        self.values = np.array(values, dtype=float)
        if not self.values.size:
            raise ValueError("empty window")
        self.values.flags.writeable = False
        self.hi = self.lo + len(self.values) - 1
        self.sigma = float(abs(self.values[0]))
        if np.any(np.abs(np.abs(self.values) - self.sigma) > 1e-12):
            raise ValueError("window values must all have the same modulus")

    def value(self, n):
        if not self.lo <= n <= self.hi:
            raise IndexError(f"index {n} outside window [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def sliced(self, lo, hi):
        if lo < self.lo or hi > self.hi or lo > hi:
            raise IndexError("slice outside window")
        return SeqWindow(lo, self.values[lo - self.lo:hi - self.lo + 1])

    def __eq__(self, other):
        return (isinstance(other, SeqWindow) and self.lo == other.lo
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        return f"SeqWindow([{self.lo},{self.hi}], sigma={self.sigma})"


class DiagWord:
    """Periodic data of the companion operator M_b sitting on the odd sites
    of the squared operator: subdiagonal constant -sigma^2, diagonal entries
    d_k = c_{2k+1} + c_{2k+2} in {-2 sigma, 0, +2 sigma}, superdiagonal 1.
    """

    def __init__(self, diag, sub, sigma):
        self.diag = tuple(float(v) for v in diag)
        self.sub = float(sub)
        self.sup = 1.0
        self.sigma = float(sigma)
        self.period = len(self.diag)
        for v in self.diag:
            if min(abs(v), abs(abs(v) - 2 * self.sigma)) > 1e-12:
                raise ValueError("diagonal entries must lie in {0, +-2 sigma}")

    def __repr__(self):
        return f"DiagWord(diag={self.diag}, sub={self.sub})"


def _resolve_sigma(b, sigma):
    """Output amplitude for a square-root map applied to b.

    The caller may supply sigma directly (exact, preferred); otherwise we
    take math.sqrt of b's amplitude.  Either way sigma^2 must reproduce the
    input amplitude to rounding accuracy.
    """
    if sigma is None:
        sigma = math.sqrt(b.sigma)
    sigma = float(sigma)
    if not 0.0 < sigma <= 1.0 or abs(sigma * sigma - b.sigma) > 1e-12:
        raise ValueError(
            f"amplitude {b.sigma} is not the square of admissible sigma {sigma}")
    return sigma


def _gamma_signs(bsigns, lo=0):
    """Signs of c_{2 lo} .. c_{2 hi + 1} for c = Gamma_plus(b), given the
    signs of b_lo .. b_hi with lo <= 0 <= hi.

    s_0 = 1 and s_n = -b_n s_{n-1} run outwards from index 0 on each side
    (backwards, s_{n-1} = -b_n s_n); each s_n gives the pair
    (c_{2n}, c_{2n+1}) = sigma (s_n, -s_n).
    """
    t = -np.asarray(bsigns, dtype=int)  # -b_n at position n - lo
    down = np.cumprod(t[-lo:0:-1])      # s_{-1}, s_{-2}, .., s_lo
    up = np.cumprod(t[1 - lo:])         # s_1, .., s_hi
    s = np.concatenate([down[::-1], [1], up])
    return np.stack([s, -s], axis=1).ravel()


def gamma_plus_word(b, sigma=None):
    """Square-root map on periodic words: b (amplitude sigma^2, period N)
    maps to the word of period 4N satisfying the defining relations, reduced
    to its minimal period.  The reduction factor is recorded on the result
    as attribute `period_reduction`.
    """
    sigma = _resolve_sigma(b, sigma)
    word, factor = SignWord(_gamma_signs(b.signs * 2), sigma).reduced()
    word.period_reduction = factor
    return word


def gamma_plus_window(b, sigma=None):
    """Square-root map on a finite window.

    b must cover index 0.  The output covers [2*lo, 2*hi+1], the index set
    the relations determine from b's window with c_0 pinned to +sigma.
    """
    if not b.lo <= 0 <= b.hi:
        raise ValueError("window must contain index 0")
    sigma = _resolve_sigma(b, sigma)
    bsigns = np.where(b.values > 0, 1, -1)
    return SeqWindow(2 * b.lo, sigma * _gamma_signs(bsigns, b.lo))


def hat_inversion(b):
    """Space inversion (b^)_n = b_{1-n}; window [lo, hi] -> [1-hi, 1-lo]."""
    return SeqWindow(1 - b.hi, b.values[::-1])


def gamma_minus_window(b, sigma=None):
    """Gamma_minus = hat o Gamma_plus o hat."""
    return hat_inversion(gamma_plus_window(hat_inversion(b), sigma))


def fixed_point_window(n, sigma=1.0):
    """sigma times the fixed point of Gamma_plus on the window
    [2 - 2^n, 2^n - 1], obtained by n-fold iteration.

    The n-fold image of any start agrees with the fixed point there; we
    iterate from the two constant starts and assert agreement.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    outs = []
    for start in (1.0, -1.0):
        w = SeqWindow(-1, [start, start, start])
        for _ in range(n):
            w = gamma_plus_window(w, 1.0)
        outs.append(w.sliced(2 - 2 ** n, 2 ** n - 1))
    if not np.array_equal(outs[0].values, outs[1].values):
        raise AssertionError("iterates from distinct starts disagree")
    return SeqWindow(outs[0].lo, sigma * outs[0].values)


def c_iterate_word(m, branch, sigma=1.0):
    """The m-th iterate word: m-fold Gamma_plus image of the constant word
    of the given branch ('+' or '-'), scaled to amplitude sigma, in
    minimal-period form.  Its period is 1 at m = 0, 4 ('+') or 2 ('-') at
    m = 1, and 2^(m+1) at m = 2 .. 8 (the range the tests pin).
    """
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if m < 0:
        raise ValueError("m must be >= 0")
    word = SignWord((1,) if branch == "+" else (-1,), 1.0)
    for _ in range(m):
        word = gamma_plus_word(word, 1.0)
    return SignWord(word.signs, sigma)


def m_word(b, sigma=None):
    """Companion word of the operator M_b living on the odd sites of the
    squared operator, for c = Gamma_plus(b): diagonal d_k = c_{2k+1} + c_{2k+2}
    over one 2N covering period, subdiagonal constant -sigma^2.

    The subdiagonal value equals -b.sigma exactly (no square root involved).
    """
    sigma = _resolve_sigma(b, sigma)
    w = _gamma_signs(b.signs * 2)  # covering period 4N, unreduced
    diag = sigma * (w[1::2] + np.roll(w, -2)[::2])
    return DiagWord(diag, -b.sigma, sigma)


def c_tilde_array(nmax):
    """Read-only array a with a[n] = c~_n for 1 <= n <= nmax (a[0] unused),
    doubled from c~_1 by the closed form, which follows from
    c~_{2n} = c~_{2n-1} c~_n = -c~_{2n-2} c~_n:
    c~_{2n} = (-1)**(n-1) * prod(c~_1..c~_n), c~_{2n+1} = -c~_{2n}."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    arr = np.array([0, 1], dtype=np.int8)
    while len(arr) <= nmax:
        even = np.cumprod(arr[1:], dtype=np.int8)
        even[1::2] *= -1  # (-1)**(n-1) at n = 1 .. len(arr) - 1
        arr = np.append(arr[:2], np.stack([even, -even], axis=1))
    arr = arr[:nmax + 1]
    arr.flags.writeable = False
    return arr


def c_tilde(n):
    """c~_n for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return int(c_tilde_array(n)[n])
