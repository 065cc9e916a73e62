"""Finite sections, Bloch-union spectra, enumeration, and sampling.

The N-periodic operator decomposes over the unit-circle twist alpha into the
N x N matrices A^(N,per)_{c,alpha}: tridiagonal with subdiagonal c_1..c_{N-1},
superdiagonal 1, and periodising corners (1,N) = alpha c_N, (N,1) = 1/alpha.
The spectrum of the bi-infinite operator is the union over |alpha| = 1; on a
finite alpha grid that union becomes a point cloud.  The open (truncated)
section A^(N)_c simply drops the corners.
"""

import re
from itertools import compress

import numpy as np
from numpy.random import Generator, Philox

from . import __version__, one_line
from .eigen import (SolverFailure, eigvals, eigvals_stack, solve_blocks,
                    sort_rows)
from .metrics import hausdorff, matching_distance, nn_distances
from .seqcore import (SignWord, c_tilde_array, check_sigma, gamma_plus_word,
                      m_word, rotation_classes, sign_pattern)
from .transfer import RegionParams, det_residual

# pi_union refuses periods above this: 2^N words per period N
MAX_PERIOD = 14
# write_csv builds this many rows at a time, in about 440 bytes of arrays a
# row; on the union benchmark 4096 rows run as fast as 8192 and about 10%
# faster than 1024, and none of the three raises its peak RSS
CSV_CHUNK = 4096
# pi_union and bloch_spectrum refuse a cloud that would not fit in memory at
# this many bytes per point: `pi-union --nmax 12 --alpha-count 256` with CSV
# and SVG output peaks at 211.2 MiB RSS, 35.6 MiB after import, for 2,058,240
# points (89.5 bytes a point)
BYTES_PER_POINT = 90
# _periodic_spectra solves an even-N section with a root below this whole
ROOT_FLOOR = 1 / 16


class SpectrumCloud:
    """A tagged point cloud: each eigenvalue keeps the word id, the twist,
    and the matrix size N it came from; the cloud keeps sigma, its twist
    table, the generation parameters, and the seed.

    Points are stored as the (B, n) blocks they were added in, each with one
    (word_id, twist, N) tag per row; a twist tag is an index into the
    read-only complex table `twists`."""

    def __init__(self, sigma, twists=(1.0,), params=None, seed=None):
        self.sigma = float(sigma)
        self.twists = np.array(twists, dtype=complex).ravel()
        self.twists.flags.writeable = False
        self.params = dict(params or {})
        self.seed = seed
        self.words = {}
        self._blocks = []  # (points (B, n), word_id, twist (int32), N)

    def register_word(self, word_id, pattern):
        self.words[int(word_id)] = pattern

    def add(self, points, word_id, twist, N):
        """Append a (B, n) block of points, or one row of n; each tag is a
        scalar shared by all rows or a sequence of B, one per row, and twist
        indexes the twist table."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        if not np.all(np.isfinite(pts.view(float))):
            raise ValueError("non-finite spectrum points")
        word_id, twist, N = (
            np.broadcast_to(np.array(tag, dtype=int).reshape(-1, 1),
                            (len(pts), 1)) for tag in (word_id, twist, N))
        if not np.all((twist >= 0) & (twist < len(self.twists))):
            raise ValueError(f"twist index outside the table of "
                             f"{len(self.twists)} twists")
        self._blocks.append((pts, word_id, twist.astype(np.int32), N))

    def _column(self, k, dtype):
        """Column k of the blocks (0 points, 1 word_id, 2 twist, 3 N), one
        entry per point in insertion order; read-only, and a view of the
        stored column when the cloud holds one (B, 1) block, as after sort."""
        cols = [np.broadcast_to(blk[k], blk[0].shape).ravel()
                for blk in self._blocks] or [np.zeros(0, dtype)]
        col = cols[0] if len(cols) == 1 else np.concatenate(cols)
        col.flags.writeable = False
        return col

    points = property(lambda self: self._column(0, complex))
    word_id = property(lambda self: self._column(1, int))
    twist = property(lambda self: self._column(2, np.int32))
    N = property(lambda self: self._column(3, int))
    alpha = property(lambda self: self.twists[self.twist])

    def __len__(self):
        return sum(blk[0].size for blk in self._blocks)

    def sort(self):
        """Reorder all columns by (re, im, N, word_id, twist value); makes
        output independent of generation order.  Equal twist values (0.0 and
        -0.0 too) share a rank, so their rows keep insertion order.  numpy
        orders complex values by (re, im) with -0.0 equal to 0.0, so a stable
        sort of the points, taken in tag order, is that 5-key lexsort."""
        cols = [self.points, self.word_id, self.twist, self.N]
        self._blocks = []  # the columns hold the only copy from here on
        rank = np.unique(self.twists, return_inverse=True)[1].astype(np.int32)
        order = np.lexsort((rank[cols[2]], cols[1], cols[3]))
        order = order[np.argsort(cols[0][order], kind="stable")]
        for k in range(4):  # one reordered column alive at a time
            cols[k] = cols[k][order, None]
        self._blocks = [tuple(cols)]
        return self

    def write_csv(self, path, command=None):
        # the command is escaped to one line, so every header line is a comment
        head = [f"hopsign {__version__}",
                command and "command: " + one_line(command),
                f"sigma = {self.sigma:.17g}",
                self.seed is not None and f"seed = {self.seed}",
                *(f"{k} = {self.params[k]}" for k in sorted(self.params)),
                *(f"word {w} {self.words[w]}" for w in sorted(self.words)),
                "columns: re, im, N, word_id, alpha_re, alpha_im"]
        head = "".join(f"# {h}\n" for h in head if h).encode()
        # ", re, im\n" per twist, compacted once to keep chunk rows narrow
        t = np.zeros((len(self.twists), 2, 27), np.uint8)
        t[..., :2], t[:, 1, 26] = _COMMA, ord("\n")
        t[..., 2:26] = g17(self.twists.view(float)).reshape(-1, 2, 24)
        tails = _byte_rows(t.tobytes().translate(None, b"\0").splitlines(True))
        pts, wid, tw, nn = self.points, self.word_id, self.twist, self.N
        with open(path, "wb") as f:
            f.write(head)
            for lo in range(0, len(pts), CSV_CHUNK):
                s = slice(lo, lo + CSV_CHUNK)
                # zero-padded rows: re, ", ", im, ", %d" of N and word id
                # from one table per chunk, and the twist's tail
                num = g17(pts[s].view(float)).reshape(-1, 48)
                k, ik = np.unique(np.r_[nn[s], wid[s]], return_inverse=True)
                ints = _byte_rows([b", %d" % i for i in k.tolist()])
                m = len(num)
                rows = np.concatenate(
                    (num[:, :24], np.broadcast_to(_COMMA, (m, 2)), num[:, 24:],
                     ints[ik.reshape(2, m).T].reshape(m, -1), tails[tw[s]]),
                    axis=1)
                f.write(rows.tobytes().translate(None, b"\0"))


_COMMA = np.frombuffer(b", ", np.uint8)


def _byte_rows(pieces):
    """A list of bytes as the zero-padded rows of a uint8 array."""
    a = np.array(pieces, dtype=bytes)
    return a.view(np.uint8).reshape(len(a), a.itemsize)


def _split(a):
    """Veltkamp's split a = high + low into halves of 26 bits or fewer, whose
    products are exact floats."""
    c = a * 134217729.0  # 2^27 + 1
    return c - (c - a), a - (c - (c - a))


_POW10 = _split(np.array([float(10 ** k) for k in range(21)]))


def _digits17(x):
    """(D, E, exact) for a float array x >= 0: E = floor(log10 x) makes
    10^(16 - E) an exact float, hi + lo is Dekker's exact product of the
    two, and D, its 17 digits, rounds it half to even, as Python's dtoa
    does.  exact is false where x lies outside [1e-4, 1e17) or log10 was
    wrong, which leaves hi + lo outside [1e16, 1e17)."""
    exact = (x >= 1e-4) & (x < 1e17)
    x = np.where(exact, x, 1.0)
    e = np.floor(np.log10(x)).astype(np.int32).clip(-4, 16)
    (xh, xl), (ph, pl) = _split(x), (t.take(16 - e) for t in _POW10)
    hi = x * (ph + pl)
    lo = xh * ph - hi + xh * pl + xl * ph + xl * pl
    f = np.floor(lo)
    d = hi.astype(np.int64) + f.astype(np.int64)
    d += (lo - f > 0.5) | (lo - f == 0.5) & (d % 2 == 1)
    # a log10 one too large leaves hi + lo below 1e16, one too small leaves
    # D >= 10^17 (no float of the range rounds up to 10^17 itself)
    exact &= ((hi > 1e16) | (hi == 1e16) & (lo >= 0)) & (d < 10 ** 17)
    return d, e, exact


def g17(values):
    """The "%.17g" text of each value of a float array as the zero-padded rows
    of a (len, 24) uint8 array; the sign bit gives the "-", so -0.0 prints -0.
    Zeros and the values _digits17 gives exactly are laid out from D and E;
    the others take Python's "%.17g"."""
    v = np.asarray(values, dtype=float).ravel()
    d, e, fast = _digits17(np.abs(v))
    zero = v == 0
    d[zero], fast[zero] = 0, True  # D = 0 prints "0" at E = 0
    # rows 1..21 of z: Z, four zeros then D's digits from two int32 halves,
    # so that Z[4 + E] is the last integer digit
    z = np.zeros((23, len(v)), np.uint8)
    a = (d // 10 ** 9).astype(np.int32)
    q = (d - a * np.int64(10 ** 9)).astype(np.int32)
    for row in range(21, 4, -1):
        t = q // 10
        np.subtract(q, 10 * t, out=z[row], casting="unsafe")
        q = a if row == 13 else t
    j = np.arange(22, dtype=np.uint8)[:, None]
    nz = ((z[5:22] != 0) * j[1:18]).max(0)  # D's digits to the last nonzero
    z += ord("0")
    # text column j is Z[j] up to c = 4 + E, "." and then Z[j - 1]; the text
    # starts at the "0" before the "." when E < 0 and ends at the last
    # nonzero fraction digit, or at c if there is none
    c = (4 + e).astype(np.uint8)
    text = z[:-1] + (z[1:] - z[:-1]) * (j <= c).view(np.uint8)
    text[c + 1, np.arange(len(v))] = ord(".")
    text *= ((j >= np.minimum(c, 4))
             & (j <= np.where(3 + nz > c, 4 + nz, c))).view(np.uint8)
    buf = np.zeros((len(v), 24), np.uint8)
    buf[:, 0] = np.signbit(v) * ord("-")
    buf[:, 1:23] = text.T
    slow = np.flatnonzero(~fast)
    texts = np.array([b"%.17g" % y for y in v[slow].tolist()], "S24")
    buf[slow] = texts.view(np.uint8).reshape(-1, 24)
    return buf


def _band(sub, diag=0.0):
    """(..., n, n) tridiagonal sections: subdiagonal sub (..., n-1), unit
    superdiagonal, diagonal diag (scalar or n values)."""
    sub = np.asarray(sub, dtype=float)
    n = sub.shape[-1] + 1
    a = np.zeros(sub.shape[:-1] + (n, n), dtype=complex)
    idx = np.arange(n)
    a[..., idx, idx] = diag
    a[..., idx[:-1], idx[1:]] = 1.0
    a[..., idx[1:], idx[:-1]] = sub
    return a


def build_finite(c):
    """Open N x N section from the N-1 subdiagonal values c_1..c_{N-1}:
    zero diagonal, unit superdiagonal."""
    c = np.asarray(c, dtype=float).ravel()
    if len(c) < 1:
        raise ValueError("need at least one subdiagonal value")
    return _band(c)


def build_periodic(c, alpha):
    """Periodised N x N section from the N values c_1..c_N: the open section
    on c_1..c_{N-1} plus corners (1,N) = alpha c_N and (N,1) = 1/alpha."""
    c = np.asarray(c, dtype=float).ravel()
    if len(c) < 3:
        raise ValueError("periodised section needs N >= 3 (corners must not "
                         "collide with the band)")
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-12:
        raise ValueError(f"|alpha| = {abs(alpha)} is not 1")
    return _periodic_stack(c, [alpha])[0]


def _periodic_stack(c, alphas, diag=0.0):
    """(B, N, N) stack of periodised sections, one twist per row: c is (N,)
    (shared by all rows) or (B, N); each row is the band on c_1..c_{N-1}
    (with diagonal diag) plus the corners alpha c_N and 1/alpha."""
    alphas = np.asarray(alphas, dtype=complex).ravel()
    c = np.broadcast_to(np.asarray(c, float), (len(alphas), np.shape(c)[-1]))
    stack = _band(c[:, :-1], diag)
    stack[:, 0, -1] = alphas * c[:, -1]
    stack[:, -1, 0] = 1.0 / alphas
    return stack


def _periodic_spectra(c, alphas):
    """Sorted (B, N) spectra of _periodic_stack(c, alphas), checked by
    _assert_inclusion at sigma = max |c|: the one periodised-section solve.
    Even N is solved at half size: on the odd and even sites a zero-diagonal
    section is A = [[0, B], [C, 0]], so spec A = +-sqrt(spec BC).  A root lam
    carries a backward error of about eps ||A||^2 / |lam|, so a section with
    a root below ROOT_FLOOR (sigma > 1 - ROOT_FLOOR only) is solved whole."""
    s = _periodic_stack(c, alphas)
    if s.shape[-1] % 2:
        eig = eigvals_stack(s)
    else:
        s = s[:, 0::2, 1::2] @ s[:, 1::2, 0::2]  # frees the full stack
        root = np.sqrt(eigvals_stack(s))
        eig = sort_rows(np.concatenate([root, -root], axis=1))
        near = np.abs(root).min(axis=1) < ROOT_FLOOR
        if near.any():
            rows = np.broadcast_to(np.asarray(c, float), eig.shape)[near]
            eig[near] = eigvals_stack(
                _periodic_stack(rows, np.ravel(alphas)[near]))
    _assert_inclusion(eig, float(np.abs(c).max()))
    return eig


def unit_grid(count):
    """count uniformly spaced twists on the unit circle, starting at 1.

    Exactly conjugate-symmetric: entries k <= count // 2 are
    exp(2 pi i k / count), entry count - k is their conj bit for bit."""
    if count < 1:
        raise ValueError("need at least one grid point")
    grid = np.exp(2j * np.pi * np.arange(count) / count)
    half = count // 2
    grid[half + 1:] = np.conj(grid[1:count - half][::-1])
    return grid


def _assert_inclusion(points, sigma):
    """Every periodised-section eigenvalue must lie in the closed annulus
    <1-sigma, 1+sigma> and the diamond |x|+|y| <= sqrt(2(1+sigma^2)); a
    violation beyond 1e-9 means the solver (or the builder) is broken, so
    every generated cloud pays this cheap check.  Both bounds depend only
    on |z| and |Re z| + |Im z|, which conj and multiplication by i leave
    unchanged, so checking an orbit's solved node covers the whole orbit."""
    pts = np.asarray(points, dtype=complex)
    mod = np.abs(pts)
    l1 = np.abs(pts.real) + np.abs(pts.imag)
    p = RegionParams(sigma)
    bad = ((mod < p.annulus_inner - 1e-9) | (mod > p.annulus_outer + 1e-9)
           | (l1 > p.diamond_bound + 1e-9))
    if bad.any():
        z = pts[bad][0]
        raise SolverFailure(
            f"eigenvalue {z} violates the periodic inclusion bounds at "
            f"sigma={sigma}; solver output is not trustworthy")


def closed_form_star(m, branch):
    """Exact spectrum of the m-th iterate word at sigma = 1: the union of
    2^(m+1) segments from the origin, length 2^(1/2^m), along the angles
    pi j / 2^m ('+' branch) or rotated by pi / 2^(m+1) ('-' branch).

    Returns (starts, ends) arrays describing the segments."""
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if m < 0:
        raise ValueError("m must be >= 0")
    radius = 2.0 ** (1.0 / 2 ** m)
    off = 0.0 if branch == "+" else np.pi / 2 ** (m + 1)
    ang = np.pi * np.arange(2 ** (m + 1)) / 2 ** m + off
    ends = radius * np.exp(1j * ang)
    return np.zeros_like(ends), ends


def _orbit_images(pos):
    """(4, W) table: at [a + 2 b, w], the row of pos (W, n), a bool array of
    + signs with rows distinct up to rotation, that equals row w reversed a
    times and negated b times up to rotation, or -1 where none does."""
    v = np.concatenate([pos, pos[:, ::-1], ~pos, ~pos[:, ::-1]])
    cls = np.unique(rotation_classes(v)[2], axis=0,
                    return_inverse=True)[1].ravel()
    owner = np.full(len(v), -1)
    owner[cls[:len(pos)]] = np.arange(len(pos))
    return owner[cls].reshape(4, len(pos))


def _orbit_spectra(cs, alpha_count):
    """(W, K, N) sorted spectra of the periodised sections of the W rows
    of c (W, N) at the K = alpha_count twists of unit_grid, one solve per
    orbit of the nodes (w, k) under rev^a flip^b conj^c.  rev (J A^T J is the
    section of a rotation of the reversed word) keeps k and lam; conj (A is
    real but for its corners) takes k to -k, lam to conj lam; flip (D^-1 A
    D = i A(-c, alpha i^N), D = diag(i^j)) takes c to -c, k to k - N K / 4,
    lam to i lam; each acts where b N K / 4 is an integer and the image word
    is a row of c up to rotation.  An orbit's least node is solved; the rest
    take its points with re/im swapped or negated, re-sorted."""
    cs = np.asarray(cs, dtype=float)
    rows, n = cs.shape
    size = rows * alpha_count
    image = _orbit_images(cs > 0)
    node = np.arange(size)
    w, k = np.divmod(node, alpha_count)
    rep, how = node.copy(), np.zeros(size, int)
    for e, (b, c, a) in enumerate(np.ndindex(4, 2, 2)):
        words = image[a + 2 * (b % 2)]  # a varies fastest, so a node and
        if b * n * alpha_count % 4 == 0 and words.max() >= 0:  # its reversal
            img = words[w] * alpha_count + (
                k - 2 * c * k - b * n * alpha_count // 4) % alpha_count
            better = (img >= 0) & (img < rep)
            rep[better], how[better] = img[better], e // 2  # pick one (b, c)
    solved = np.flatnonzero(rep == node)
    _require_memory(_solve_bytes(len(solved), n),
                    f"{len(solved)} sections of size {n}")
    out = np.empty((size, n), dtype=complex)  # before the solve's temporaries
    eig = _periodic_spectra(cs[solved // alpha_count],
                            unit_grid(alpha_count)[solved % alpha_count])
    src = np.cumsum(rep == node)[rep] - 1  # rep's row in eig
    for t in np.flatnonzero(np.bincount(how)):  # lam = conj^c (i^-b lam_rep)
        b, c = divmod(t, 2)  # t = 2 b + c
        sel = np.flatnonzero(how == t)
        xy = np.take(eig[src[sel]].view(float).reshape(len(sel), n, 2),
                     [b % 2, 1 - b % 2], axis=2)  # exact swap and negations
        z = (xy * [1 - 2 * (b > 1), 1 - 2 * ((0 < b < 3) != c)]).view(complex)
        out[sel] = sort_rows(z[..., 0]) if t else z[..., 0]
    return out.reshape(rows, alpha_count, n)


def _bloch_union(words, alpha_count, params):
    """Unsorted union of the periodised-section spectra of the words (one
    sigma) at the alpha_count twists of unit_grid, word id = list index.
    Periods 1 and 2 are repeated to 4 (the operator is unchanged; the
    section just needs N >= 3), and the words of one size share one
    _orbit_spectra call, so reversals and sign flips cost no solve.
    ValueError before the twist grid is built when the cloud, at
    BYTES_PER_POINT a point, would exceed the available memory."""
    by_size = {}
    for wid, word in enumerate(words):
        c = word.cvals(word.period if word.period > 2 else 4)
        by_size.setdefault(len(c), []).append((wid, c))
    points = alpha_count * sum(n * len(group) for n, group in by_size.items())
    _require_memory(points * BYTES_PER_POINT, f"{points} points")
    cloud = SpectrumCloud(words[0].sigma, unit_grid(alpha_count),
                          params=params)
    for wid, word in enumerate(words):
        cloud.register_word(wid, sign_pattern(word.signs))
    for size in sorted(by_size):
        wids, cs = zip(*by_size[size])
        eig = _orbit_spectra(cs, alpha_count)
        cloud.add(eig.reshape(-1, size), np.repeat(wids, alpha_count),
                  np.tile(np.arange(alpha_count), len(wids)), size)
    return cloud


def bloch_spectrum(word, alpha_count):
    """Union of periodised-section spectra over the uniform alpha grid: the
    one-word _bloch_union."""
    return _bloch_union([word], alpha_count, {"alpha_count": alpha_count})


def enumerate_words(n_max, sigma=1.0):
    """One representative per rotation class of each primitive word of
    period <= n_max, its least rotation, by period and within a period in
    ascending order of the integer whose bit i is sign i > 0 (the first sign
    least significant); pi_union's word ids, and so the CSVs, follow this
    order.  Primitive means the minimal period equals the length, so every
    periodic sequence of period <= n_max appears exactly once."""
    out = []
    for n in range(1, n_max + 1):
        bits = np.arange(2 ** n)[:, None] >> np.arange(n) & 1  # sign i: bit i
        k, period, _ = rotation_classes(bits)
        out += [SignWord(np.where(b, 1, -1), sigma)
                for b in bits[(k == 0) & (period == n)]]
    return out


def pi_union(n_max, sigma, alpha_count):
    """_bloch_union of every periodic word of period <= n_max (one
    representative per rotation class), sorted for determinism."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_PERIOD:
        raise ValueError(f"n_max = {n_max} exceeds the ceiling {MAX_PERIOD} "
                         f"(2^N words per period N)")
    return _bloch_union(enumerate_words(n_max, sigma), alpha_count,
                        {"n_max": n_max, "alpha_count": alpha_count}).sort()


def _read(path):
    """The text of a file, or "" where it cannot be read."""
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def _kib(text, key):
    """Bytes of the `key:  N kB` line of a /proc listing, or None."""
    found = re.search(rf"^{key}:\s+(\d+) kB$", text, re.M)
    return int(found[1]) * 1024 if found else None


def _available_memory():
    """Bytes this process can still take, or None where unknown: the least
    of MemAvailable, the RLIMIT_AS soft limit less VmSize, and the cgroup
    v2 memory.max less memory.current, over those that are set."""
    meminfo = _read("/proc/meminfo")
    free = [_kib(meminfo, "MemAvailable")]
    if meminfo:  # Linux, which has the resource module too
        import resource  # only the memory checks need it
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            size = _kib(_read("/proc/self/status"), "VmSize")
            free.append(soft - (size or 0))
    group = _read("/proc/self/cgroup").partition("0::")[2].split("\n")[0]
    top, used = (_read(f"/sys/fs/cgroup{group.rstrip('/')}/memory.{f}")
                 .strip() for f in ("max", "current"))
    if top.isdigit() and used.isdigit():
        free.append(int(top) - int(used))
    free = [f for f in free if f is not None]
    return max(min(free), 0) if free else None


def _solve_bytes(b, n):
    """The most a solve of b sections of size n takes: 20 (b + W) n^2 bytes
    for W = solve_blocks(b, n) threads.  That is the complex stack and, for
    even n, its (b, n/2, n/2) sublattice product, or for odd n LAPACK's copy
    of one section in each thread."""
    return 20 * (b + solve_blocks(b, n)) * n * n


def _require_memory(nbytes, what):
    """ValueError when nbytes for `what` exceed the available memory."""
    free = _available_memory()
    if free is not None and nbytes > free:
        raise ValueError(f"{what} would take {nbytes / 2**20:.0f} MB, but "
                         f"only {free / 2**20:.0f} MB is available")


def _generator(seed, *key_words):
    """Counter-based RNG stream for a seed in [0, 2^64) and a tuple of
    integer key words; distinct keys give independent reproducible
    streams."""
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    mix = 0
    for w in key_words:
        mix = (mix * 1_000_003 + int(w)) % (1 << 64)
    key = np.array([seed, mix], dtype=np.uint64)
    return Generator(Philox(key=key))


def random_periodic_sample(count, n_range=(3, 100), p_sigma=0.5, sigma=0.5,
                           seed=0):
    """count independent draws: N in n_range with weight 1/N (small sizes
    favored), signs +sigma with probability p_sigma, twist alpha uniform on
    the circle; eigenvalues of the periodised sections.  ValueError before
    any solve when the largest same-size stack would not fit in memory."""
    sigma = check_sigma(sigma)
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo < 3 or hi < lo:
        raise ValueError("n_range must satisfy 3 <= lo <= hi")
    if not 0.0 < p_sigma < 1.0:
        raise ValueError("p_sigma must be in (0, 1)")
    sizes = np.arange(lo, hi + 1)
    cdf = np.cumsum(1.0 / sizes)
    cdf /= cdf[-1]
    patterns, twists, by_size = [], [], {}
    for k in range(count):
        g = _generator(seed, 11, k)
        n = int(sizes[np.searchsorted(cdf, g.random())])
        signs = np.where(g.random(n) < p_sigma, 1.0, -1.0)
        twists.append(np.exp(2j * np.pi * g.random()))
        patterns.append(sign_pattern(signs))
        by_size.setdefault(n, []).append((k, sigma * signs))
    _require_memory(max(_solve_bytes(len(b), n) for n, b in by_size.items()),
                    "the largest stack of sections")
    cloud = SpectrumCloud(sigma, twists, seed=seed,
                          params={"count": count, "n_lo": lo, "n_hi": hi,
                                  "p_sigma": p_sigma})
    cloud.words = dict(enumerate(patterns))
    for size in sorted(by_size):
        ks, cs = zip(*by_size[size])  # draw k's twist is table entry k
        cloud.add(_periodic_spectra(cs, cloud.twists[list(ks)]), ks, ks, size)
    return cloud


def random_finite_sample(n, p_sigma=0.5, sigma=0.5, seed=0):
    """(open, periodised) clouds of one draw c of n i.i.d. signs keyed by
    (seed, n, p_sigma): the open section on c_1..c_{n-1} and the periodised
    one at a uniform twist.  ValueError before the draw if they cannot fit."""
    sigma = check_sigma(sigma)
    if n < 3:
        raise ValueError("need n >= 3")
    if not 0.0 < p_sigma < 1.0:
        raise ValueError("p_sigma must be in (0, 1)")
    _require_memory(_solve_bytes(1, n), f"sections of size {n}")
    g = _generator(seed, 13, n, int(round(p_sigma * 10 ** 9)))
    c = sigma * np.where(g.random(n) < p_sigma, 1.0, -1.0)
    alpha = complex(np.exp(2j * np.pi * g.random()))
    # D^-1 A(c) D = sqrt(sigma) A(c / sigma) with D = diag(sigma^(j/2)):
    # solve the well-conditioned sign section instead of the graded A(c)
    open_vals = np.sqrt(sigma) * np.array(eigvals(build_finite(c[:-1] / sigma)))
    clouds = []
    for per, twist, vals in ((False, 1.0, open_vals),
                             (True, alpha, _periodic_spectra(c, [alpha])[0])):
        cloud = SpectrumCloud(sigma, (twist,), seed=seed, params={
            "n": n, "p_sigma": p_sigma, "periodic": per})
        cloud.register_word(0, sign_pattern(c))
        cloud.add(vals, 0, 0, n)
        clouds.append(cloud)
    return tuple(clouds)


def _m_ring_stack(mw, alphas):
    """(B, P, P) stack of periodised sections of the companion operator:
    diagonal mw.diag, subdiagonal mw.sub, superdiagonal 1, corners
    (1,P) = alpha * mw.sub and (P,1) = 1/alpha."""
    return _periodic_stack(np.full(mw.period, mw.sub), alphas, mw.diag)


def square_spectrum_check(b, alpha_count):
    """Cross-check of the square identity on one word b (amplitude sigma^2).

    For c the square-root image of b, squaring the period-4N section of c at
    twist alpha splits over the odd and even sublattices into the period-2N
    section of b and the period-2N companion section M_b at the same twist.
    So per alpha the squared spectrum must equal the union of the two ring
    spectra, and all three alpha-grid clouds trace the same set.

    Returns the symmetric Hausdorff distances (squared cloud vs b cloud, and
    companion cloud vs b cloud) plus the worst per-alpha multiset mismatch.
    """
    if b.period > 8:
        raise ValueError("desk-scale check: word period must be <= 8")
    bw = b.repeated(2) if b.period == 1 else b
    c_red = gamma_plus_word(bw)
    c_cover = c_red.repeated(4 * bw.period // c_red.period)
    b_cover = bw.repeated(2)
    mw = m_word(bw)
    alphas = unit_grid(alpha_count)

    # solved whole: the half-size route rests on the identity checked here
    sq = eigvals_stack(_periodic_stack(c_cover.cvals(), alphas))
    _assert_inclusion(sq, c_cover.sigma)
    sq = sq ** 2
    eb = _periodic_spectra(b_cover.cvals(), alphas)
    em = eigvals_stack(_m_ring_stack(mw, alphas))

    per_alpha = matching_distance(sq, np.concatenate([eb, em], 1))
    return {
        "hausdorff_sq_vs_b": hausdorff(sq.ravel(), eb.ravel()),
        "hausdorff_m_vs_b": hausdorff(em.ravel(), eb.ravel()),
        "per_alpha_mismatch": per_alpha,
        "period": c_cover.period,
        "alpha_count": alpha_count,
    }


def ue_bound_check(lam, i_max):
    """Iterate u_{n+1} = lam u_n - c~_n u_{n-1} from (u_0, u_1) = (0, 1) and
    report max |u_i| over i <= i_max against the bound 1/(1 - |lam|).

    lam may have any shape (all entries iterated in lockstep); max_abs,
    bound and ok have lam's shape, 0-d for a scalar lam."""
    lam = np.asarray(lam, dtype=complex)
    if np.any(np.abs(lam) > 0.99):
        raise ValueError("|lam| must be <= 0.99")
    if not 1 <= i_max <= 10 ** 6:
        raise ValueError("i_max must be in [1, 10^6]")
    ct = c_tilde_array(max(1, i_max - 1))
    # u[k] = u_(lo - 1 + k) over a block of steps; c~_n = +-1, so a step is a
    # product and a subtraction or addition, and the max is taken per block
    block = max(1, min(i_max - 1, 2 ** 13 // max(lam.size, 1)))
    u = np.zeros((block + 2, lam.size), complex)
    u[1], top, flat = 1.0, np.ones(lam.size), lam.ravel()
    rows, step = list(u), {1: np.subtract, -1: np.add}  # ufunc by c~_n
    for lo in range(1, i_max if lam.size else 1, block):  # no lanes, no steps
        cs = ct[lo:min(lo + block, i_max)].tolist()
        for a, b, out, op in zip(rows, rows[1:], rows[2:], map(step.get, cs)):
            np.multiply(flat, b, out=out)
            op(out, a, out=out)
        n = len(cs)
        np.maximum(top, np.abs(u[2:n + 2]).max(0), out=top)
        u[:2] = u[n:n + 2]
    top, bound = top.reshape(lam.shape), 1.0 / (1.0 - np.abs(lam))
    return {"max_abs": top, "bound": bound, "ok": top <= bound + 1e-9}


def symmetry_check(cloud, tol=1e-8):
    """Closure of a full-enumeration cloud under multiplication by i (rot_max,
    the max nearest-neighbor distance of i x cloud to the cloud), and the
    maps pi_union uses instead of solving, on the three chiral words c of
    period <= 7 (one of each reversal pair) at 64 twists: lam in spec(c, k)
    has a near-eps det_residual on the reversal at k (rev_max), i lam on -c
    at k - NK/4 and -lam on c at k - NK/2 (flip_max), even where a double
    eigenvalue splits by sqrt(eps), as at sigma = 1."""
    pts = cloud.points
    if len(pts) == 0:
        raise ValueError("empty cloud")
    rot_max = float(nn_distances(1j * pts, pts).max())
    rev_max = flip_max = 0.0
    alphas = unit_grid(64)[:, None]
    words = enumerate_words(7, cloud.sigma)
    for period in range(1, 8):
        group = [w for w in words if w.period == period]
        # each word is its least rotation, and a code of <= 64 signs is one
        # word ordered as the signs are: keep w if its reversal's comes later
        s = np.array([w.signs for w in group])
        own, rev = (rotation_classes(x)[2][:, 0] for x in (s, s[:, ::-1]))
        for w in compress(group, rev > own):
            c, n = np.array(w.cvals()), w.period
            lam = _periodic_spectra(c, alphas[:, 0])
            res = [float(det_residual(word, np.roll(alphas, shift, 0), z).max())
                   for word, shift, z in ((c[::-1], 0, lam),
                                          (-c, 16 * n, 1j * lam),
                                          (c, 32 * n, -lam))]
            rev_max, flip_max = max(rev_max, res[0]), max(flip_max, *res[1:])
    return {"rev_max": rev_max, "flip_max": flip_max, "rot_max": rot_max,
            "tol": tol, "ok": max(rev_max, flip_max, rot_max) <= tol}
