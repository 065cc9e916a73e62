"""Distances between spectral point clouds, exact and numpy only: windowed
nearest-neighbour scans of refs sorted by real part (`nn_distances`), and a
shortest-augmenting-path Hungarian algorithm on stacks (`matched`)."""

import numpy as np


def nn_distances(points, refs):
    """Distance from each point to the nearest member of refs (inf if none):
    the least sqrt(dx*dx + dy*dy) over a window of 2k refs around the point's
    place in real-part order, kept once the refs just outside lie at least as
    far off in x alone; the other points go round again with k doubled."""
    z = np.asarray_chkfinite(points, complex).ravel()
    r = np.sort_complex(np.asarray_chkfinite(refs, complex).ravel())
    n, out = len(r), np.full(z.shape, np.nan if r.size else np.inf)
    # nan marks open points; the padding puts a ref just outside each window
    x = np.pad(r.real, 1, constant_values=(-np.inf, np.inf))
    y, pos, k = np.pad(r.imag, 1), np.searchsorted(x, z.real), 4
    while (todo := np.flatnonzero(np.isnan(out))).size:
        w = min(2 * k, n)
        span = np.arange(-1, w + 1)  # the window and one ref on either side
        for t in np.array_split(todo, -(-todo.size * w // 2 ** 20)):
            i = np.clip(pos[t] - k, 1, n + 1 - w)[:, None] + span
            dx, dy = z.real[t, None] - x[i], z.imag[t, None] - y[i]
            m = (dx * dx + dy * dy)[:, 1:-1].min(1)
            ok = np.minimum(dx[:, 0], -dx[:, -1]) ** 2 >= m
            out[t[ok]] = np.sqrt(m[ok])
        k *= 2
    return out


def directed_hausdorff(a, b):
    """sup over a of the distance to b."""
    return float(nn_distances(a, b).max())


def hausdorff(a, b):
    """Symmetric Hausdorff distance between two finite clouds."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def _assign(cost):
    """Column of each row in a least-total-cost assignment of every (n, n)
    matrix of a (B, n, n) stack (Crouse 2016). Rows join one at a time, each
    by a Dijkstra search for the shortest augmenting path under the dual
    potentials u, v; the B searches step in lockstep while `run` holds."""
    b, n = cost.shape[:2]
    rows = np.arange(b)
    u, v, path = np.zeros((b, n)), np.zeros((b, n)), np.zeros((b, n), int)
    col4row, row4col = np.zeros((b, n), int), np.full((b, n), -1)
    for cur in range(n):
        dist, path[:] = cost[:, cur] - u[:, cur, None] - v, cur
        low, sink, run = np.zeros(b), np.zeros(b, int), np.ones(b, bool)
        seen, free = np.zeros((b, n), bool), 1 + (row4col < 0)
        while True:
            # scan the cheapest unscanned column, the first free one on ties
            s = np.where(seen, np.inf, dist)
            j = np.argmax((s == s.min(1, keepdims=True)) * free, 1)
            low, sink = np.where(run, s[rows, j], low), np.where(run, j, sink)
            seen[rows, j] |= run
            i = np.where(run, row4col[rows, j], -1)
            if not (run := i >= 0).any():
                break
            r = low[:, None] + cost[rows, i] - u[rows, i, None] - v
            better = (r < dist) & ~seen
            np.copyto(dist, r, where=better)
            np.copyto(path, i[:, None], where=better)
        # rows reached through a scanned column, and those columns, move
        delta = np.where(seen, low[:, None] - dist, 0.0)
        u[:, :cur] += delta[rows[:, None], col4row[:, :cur]]
        u[:, cur] += low
        v -= delta
        act, j = rows, sink
        while act.size:
            i = path[act, j]
            row4col[act, j] = i
            j, col4row[act, i] = col4row[act, i], j
            act, j = act[i != cur], j[i != cur]
    return col4row


def matched(w1, w2):
    """w2 reordered so that its i-th entry pairs with w1[i] under the
    total-distance-minimizing assignment of two equal-size multisets of
    complex numbers; w1 and w2 may be (..., n) stacks of such pairs."""
    w1 = np.atleast_1d(np.asarray_chkfinite(w1, complex))
    w2 = np.atleast_1d(np.asarray_chkfinite(w2, complex))
    if w1.shape != w2.shape:
        raise ValueError(f"size mismatch: {w1.shape} vs {w2.shape}")
    cost = np.abs(w1[..., :, None] - w2[..., None, :])
    cols = _assign(cost.reshape(-1, *cost.shape[-2:])).reshape(w1.shape)
    return np.take_along_axis(w2, cols, -1)


def matching_distance(w1, w2):
    """Pair up two equal-size multisets of complex numbers by the
    total-distance-minimizing assignment and report the largest matched-pair
    distance; for (..., n) stacks, the largest over the whole stack."""
    return float(np.abs(np.subtract(w1, matched(w1, w2))).max())


def segment_distances(points, a, b):
    """Distance from each complex point to the nearest of the segments
    [a_k, b_k] (exact point-segment projection, not vertex sampling)."""
    z, a, b = (np.asarray(x, dtype=complex).ravel() for x in (points, a, b))
    seg = b - a
    lensq = (seg.conj() * seg).real
    lensq = np.where(lensq > 0, lensq, 1.0)
    out = np.full(z.shape, np.inf)
    step = max(1, 10 ** 6 // max(1, len(a)))
    for k in range(0, len(z), step):
        blk = z[k:k + step, None] - a
        t = np.clip((blk * seg.conj()).real / lensq, 0.0, 1.0)
        out[k:k + step] = np.abs(blk - t * seg).min(axis=1)
    return out
