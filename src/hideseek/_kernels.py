"""Hot numeric kernels: numba-compiled loops with a pure-numpy fallback.

Backend selection is controlled by the HIDESEEK_BACKEND environment
variable, read once at import:

    auto   (default)  use numba when importable, else numpy
    numba             require numba, fail loudly if missing
    numpy              force the vectorized numpy path

Only the hot loops exist twice: batch inversion, bucketing and the pair
scan, as plain loops that numba compiles and as numpy code.  The loop
versions are also the reference the tests hold the numpy ones to.  The
active backend's three kernels are bound once at import (_inverses,
_bucket, _pair_scan); everything else, the one solution enumerator
_points included, is shared numpy code.  `benchmarks/compare_backends.py`
times the twins against each other.

The numpy twins of the first two do linear work, as the loops do: batch
inversion scans the prefix and suffix products as two rows of one
blocked scan (_modprod_scan, about 2 multiplications per value), and
bucketing is two stable sorts, by window column and then by row, where
the first meets callers' points already in order and the second is a
radix sort on uint16 rows.

All kernels work in int64.  Callers guarantee N < 2**63 and modulus
m < 2**31, so every intermediate product here fits in int64 (products of
two residues < m**2 < 2**62; candidate checks use division instead of
forming u*v).

Neighbor semantics: cells are cell_w wide except the last column, which
is truncated to a - (cols-1)*cell_w.  A candidate column is a neighbor
of ci at radius r when the wrapped gap between the two column intervals
admits points closer than r*cell_w.  Raw index distance <= r always
qualifies; index distance r+1 qualifies only across the wrap seam where
the thin truncated column eats less than a full cell of distance.
Without the gap rule, two points within cell_w of each other (wrapped)
can sit two index steps apart and the scan would miss them.  The rule is
computed once, in numpy (_axis_steps), and _neighbor_tables hands its
(step, cell) tables to whichever pair scan is bound; neither scan
applies the rule itself.  Only the radius+1 cells at each end of an axis
can pass the gap test, so _axis_steps evaluates it only there, at the
seam.

bucket_csr and pair_scan_csr also work on windows of whole grid columns
(wrapping mod cols) against the whole grid's neighbor tables, so strip
mode can run the full-mode scan window by window in bounded memory.
_neighbor_tables maps the base window's columns into the shifted window;
a whole-grid window, the full-mode case, skips that remap.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .arith import prime_factors

_FLAG = os.environ.get("HIDESEEK_BACKEND", "auto").strip().lower()
if _FLAG not in ("auto", "numba", "numpy"):
    raise RuntimeError(f"HIDESEEK_BACKEND must be auto|numba|numpy, got {_FLAG!r}")

if _FLAG in ("auto", "numba"):
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        if _FLAG == "numba":
            raise RuntimeError("HIDESEEK_BACKEND=numba but numba is not installed")
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False

ACTIVE_BACKEND = "numba" if HAVE_NUMBA else "numpy"


def _axis_steps(ncells: int, cell: int, a: int, radius: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every cell's candidate neighbors, one row per step d in (|d|, d)
    order, laid out (2*radius+3, ncells).

    Returns (raw, c2, keep): raw = ci + d, c2 = raw mod ncells, and keep
    marks the steps that reach a cell no earlier step reached and, when
    |d| > radius, pass the wrapped-gap test.  Visiting smaller steps
    first makes the kept step the nearest route.

    Only the radius+1 cells at each end of the axis have steps that wrap
    mod ncells or pass the gap test: from any other cell a step of
    radius+1 spans radius whole cells, either way round.  So both the
    wrap and the gap test run on those cells alone.
    """
    steps = sorted(range(-radius - 1, radius + 2), key=lambda d: (abs(d), d))
    ci = np.arange(ncells, dtype=np.int64)
    raw = np.array(steps, dtype=np.int64)[:, None] + ci
    # only the radius+1 cells at each end of the axis have steps that wrap
    r1 = radius + 1
    ends = ci if ncells <= 2 * r1 else np.arange(-r1, r1) % ncells
    c2 = raw.copy()
    c2[:, ends] %= ncells
    keep = np.empty(raw.shape, dtype=bool)
    # steps congruent mod ncells reach the same cell from every ci
    keep[:] = np.array([all((d - e) % ncells for e in steps[:j])
                        for j, d in enumerate(steps)])[:, None]
    # the last two rows are the steps -(radius+1), radius+1
    s1 = ends * cell
    e1 = np.minimum(s1 + cell, a)
    s2 = c2[-2:, ends] * cell
    e2 = np.minimum(s2 + cell, a)
    gap = np.minimum((s2 - e1 + 1) % a, (s1 - e2 + 1) % a)
    seam = keep[-2:, ends] & (gap <= radius * cell - 1)
    keep[-2:] = False
    keep[-2:, ends] = seam
    return raw, c2, keep


def axis_neighbor_table(ncells: int, cell: int, a: int, radius: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell neighbor columns under the wrapped-gap rule.

    Returns (nbr, wrapped), both (ncells, 2*radius+3), -1 padded; nbr[ci]
    lists the neighbor cell indices of ci in step order, wrapped[ci]
    flags the entries reached across the wrap seam.
    """
    raw, c2, keep = _axis_steps(ncells, cell, a, radius)
    # pack each cell's kept steps to the left, in step order
    idx = np.flatnonzero(keep)
    ci = idx % ncells
    slot = (np.cumsum(keep, axis=0) - 1).ravel()[idx]
    nbr = np.full((ncells, keep.shape[0]), -1, dtype=np.int64)
    wrapped = np.zeros(nbr.shape, dtype=bool)
    nbr[ci, slot] = c2.ravel()[idx]
    wrapped[ci, slot] = raw.ravel()[idx] != c2.ravel()[idx]
    return nbr, wrapped


def _neighbor_tables(cols, rows, cell_w, cell_h, a, dxc, dyc, bc0, bk, sc0, sk
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor tables both pair scans read, laid out (step, cell):
    nx[:, i] lists the shifted-window columns next to base-window column
    i (grid column (bc0 + i) mod cols, against the sk columns from sc0),
    ny[:, j] the rows next to row j; -1 where a step adds no cell or
    leaves the shifted window.  Whole-grid windows (bc0 = sc0 = 0,
    bk = sk = cols) map every column onto itself and skip the remap."""
    _, nx, keep = _axis_steps(cols, cell_w, a, dxc)
    nx[~keep] = -1
    # square grids share one table
    if (rows, cell_h, dyc) == (cols, cell_w, dxc):
        ny = nx
    else:
        _, ny, keep = _axis_steps(rows, cell_h, a, dyc)
        ny[~keep] = -1
    if (bc0, bk, sc0, sk) == (0, cols, 0, cols):
        return nx, ny
    # columns of the base window, as columns of the shifted window
    nx = np.take(nx, (bc0 + np.arange(bk)) % cols, axis=1)
    win = (nx - sc0) % cols
    win[(nx < 0) | (win >= sk)] = -1
    return win, ny


# ---------------------------------------------------------------------------
# loop implementations (compiled with numba when available)
# ---------------------------------------------------------------------------


def _inv_mod_i64(x, m):
    """Extended-gcd inverse of x mod m; caller guarantees gcd(x, m) == 1."""
    r0, r1 = m, x % m
    t0, t1 = 0, 1
    while r1 != 0:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t0 < 0:
        t0 += m
    return t0


def _inverses_for_loop(xs, m):
    k = xs.size
    invs = np.empty(k, dtype=np.int64)
    if k == 0:
        return invs
    pref = np.empty(k, dtype=np.int64)
    acc = np.int64(1)
    for i in range(k):
        acc = acc * xs[i] % m
        pref[i] = acc
    t = _inv_mod_i64(acc, m)
    for i in range(k - 1, 0, -1):
        invs[i] = t * pref[i - 1] % m
        t = t * xs[i] % m
    invs[0] = t
    return invs


def _bucket_csr_loop(xs, ys, cell_w, cell_h, cols, rows, c0, k):
    """Counting-sort points into row-major cells; within-cell order by x."""
    npts = xs.size
    ncells = k * rows
    counts = np.zeros(ncells + 1, dtype=np.int64)
    cids = np.empty(npts, dtype=np.int64)
    for i in range(npts):
        cid = (ys[i] // cell_h) * k + (xs[i] // cell_w - c0) % cols
        cids[i] = cid
        counts[cid + 1] += 1
    starts = np.empty(ncells + 1, dtype=np.int64)
    acc = np.int64(0)
    for c in range(ncells + 1):
        acc += counts[c]
        starts[c] = acc
    fill = starts[:-1].copy()
    ox = np.empty(npts, dtype=np.int64)
    oy = np.empty(npts, dtype=np.int64)
    for i in range(npts):
        pos = fill[cids[i]]
        ox[pos] = xs[i]
        oy[pos] = ys[i]
        fill[cids[i]] += 1
    return ox, oy, starts


def _pair_scan_csr_loop(bx, by, bstarts, sx, sy, sstarts, nx, ny, a, n, m2):
    """Check every base/shifted pair in the neighbor cells the tables
    list (see _neighbor_tables).

    Returns (u, v, pairs_checked) with (u, v) the lexicographically
    smallest verified split, or (0, 0, pairs) when none verifies.
    """
    rows = ny.shape[1]
    bk = nx.shape[1]
    sk = (sstarts.size - 1) // rows
    best_u = np.int64(0)
    best_v = np.int64(0)
    pairs = np.int64(0)
    for cj in range(rows):
        row0 = cj * bk
        for ci in range(bk):
            cid = row0 + ci
            b0, b1 = bstarts[cid], bstarts[cid + 1]
            if b0 == b1:
                continue
            for oj in range(ny.shape[0]):
                nj = ny[oj, cj]
                if nj < 0:
                    continue
                for oi in range(nx.shape[0]):
                    si = nx[oi, ci]
                    if si < 0:
                        continue
                    nid = nj * sk + si
                    s0, s1 = sstarts[nid], sstarts[nid + 1]
                    for t in range(b0, b1):
                        x0 = bx[t]
                        y0 = by[t]
                        for s in range(s0, s1):
                            pairs += 1
                            du = sx[s] - x0
                            dv = sy[s] - y0
                            for uw in range(2):
                                u1 = du + uw * m2
                                if u1 < 0 or u1 >= a:
                                    continue
                                u = u1 * a + x0
                                if u < 2 or u > n or n % u != 0:
                                    continue
                                v = n // u
                                if v < 2:
                                    continue
                                for vw in range(2):
                                    v1 = dv + vw * m2
                                    if 0 <= v1 < a and v1 * a + y0 == v:
                                        lo, hi = (u, v) if u <= v else (v, u)
                                        if (best_u == 0 or lo < best_u
                                                or (lo == best_u and hi < best_v)):
                                            best_u, best_v = lo, hi
    return best_u, best_v, pairs


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def _modprod_scan(xs: np.ndarray, m: int) -> np.ndarray:
    """Inclusive prefix products mod m along the last axis of a 1-D or
    2-D array, by a blocked scan in about 2*k multiplications.

    The k values of a row are laid out as blocks of b, b the power of two
    nearest k**(1/3) within 4..64 (the tail padded with ones): b - 1
    passes scan inside every block of every row at once, log-depth
    doubling passes scan the k/b block totals, and one multiply carries
    each block's prefix into the next block.  The totals are held
    (block, row), so that each doubling pass is one contiguous run.
    """
    lead, k = xs.shape[:-1], xs.shape[-1]
    b = 1 << min(6, max(2, round(math.log2(k) / 3))) if k > 1 else 4
    nb = -(-k // b)
    rows = math.prod(lead)
    q = np.ones((rows * nb, b), dtype=np.int64)
    q.reshape(rows, nb * b)[:, :k] = xs.reshape(rows, k)
    c = q[:, 0]
    for j in range(1, b):
        prev, c = c, q[:, j]
        c *= prev
        c %= m
    t = c.reshape(rows, nb).T.copy()
    shift = 1
    while shift < nb:
        t[shift:] = t[shift:] * t[:-shift] % m
        shift <<= 1
    rest = q.reshape(rows, nb, b)[:, 1:]
    rest *= t[:-1].T[:, :, None]
    rest %= m
    return q.reshape(lead + (nb * b,))[..., :k]


def _inverses_for_np(xs: np.ndarray, m: int) -> np.ndarray:
    k = xs.size
    if k == 0:
        return np.empty(0, dtype=np.int64)
    # one scan of two rows: 1, xs and 1, xs reversed
    s = np.ones((2, k + 1), dtype=np.int64)
    s[0, 1:] = xs
    s[1, 1:] = xs[::-1]
    p = _modprod_scan(s, m)
    del s  # free the input before the output is formed
    total_inv = pow(int(p[0, -1]), -1, m)
    # inv(xs[i]) = total_inv * prod(xs[:i]) * prod(xs[i+1:])
    out = p[0, :-1] * p[1, -2::-1]
    out %= m
    out *= total_inv
    out %= m
    return out


def _bucket_csr_np(xs, ys, cell_w, cell_h, cols, rows, c0, k):
    """Same contract as _bucket_csr_loop: points stable by (row, window
    column) for any input order, so in input order within a cell.

    Two stable passes, window column then row.  Callers pass points in
    window-column order, where the first pass meets a single sorted run;
    rows fit uint16 up to 2**16 rows, where numpy's stable sort is a
    radix sort.
    """
    ncells = k * rows
    col = (xs // cell_w - c0) % cols
    row = ys // cell_h
    counts = np.bincount(row * k + col, minlength=ncells)
    order = np.argsort(col, kind="stable")
    row = row[order]
    if rows <= 1 << 16:
        row = row.astype(np.uint16)
    order = order[np.argsort(row, kind="stable")]
    starts = np.zeros(ncells + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return xs[order], ys[order], starts


# Upper bound on the (base point, neighbor cell) candidates, and on the
# point pairs unless one base point meets more in a single neighbor cell,
# that the numpy pair scan expands at once.  Holds its temporaries to
# tens of MB at any N, while a balanced scan up to N = 1e12 (under 2**17
# candidates) still runs as one chunk.
_SCAN_CHUNK = 1 << 18


def _segment_ids(lengths: np.ndarray) -> np.ndarray:
    """Segment index of each element when segments of the given positive
    lengths are laid end to end (a scatter and a cumsum, no repeat)."""
    ends = np.cumsum(lengths)
    ids = np.zeros(int(ends[-1]), dtype=np.int64)
    ids[ends[:-1]] = 1
    return np.cumsum(ids, out=ids)


def _verified_split(x0, y0, du, dv, a, n, m2):
    """Smallest (lo, hi) reconstructed from the pairs' digits, or None."""
    best = None
    for uw in (0, 1):
        u1 = du + uw * m2
        u = u1 * a + x0
        i = np.flatnonzero((u1 >= 0) & (u1 < a) & (u >= 2))
        i = i[np.flatnonzero(n % u[i] == 0)]
        # exact divisors of n are rare, so the tail runs on Python ints
        for k in i.tolist():
            uk = int(u[k])
            vk = n // uk
            if vk < 2:
                continue
            for v1 in (int(dv[k]), int(dv[k]) + m2):
                if 0 <= v1 < a and v1 * a + int(y0[k]) == vk:
                    cand = (min(uk, vk), max(uk, vk))
                    if best is None or cand < best:
                        best = cand
    return best


def _pair_scan_csr_np(bx, by, bstarts, sx, sy, sstarts, nx, ny, a, n, m2):
    """Same contract as _pair_scan_csr_loop, by ragged expansion.

    Base points are taken in CSR (row-major cell) order, _SCAN_CHUNK
    candidates at a time; each point's non-empty neighbor cells then
    expand into point pairs, again at most _SCAN_CHUNK at a time.
    """
    rows = ny.shape[1]
    bk = nx.shape[1]
    sk = (sstarts.size - 1) // rows
    bcell = np.repeat(np.arange(bk * rows, dtype=np.int64),
                      np.diff(bstarts))
    # shifted cell counts and starts on a grid padded by one zero row and
    # column: a -1 table entry, as a flat offset, lands in the padding
    count = np.zeros((rows + 1, sk + 1), dtype=np.int64)
    count[:rows, :sk] = np.diff(sstarts).reshape(rows, sk)
    first = np.zeros_like(count)
    first[:rows, :sk] = sstarts[:-1].reshape(rows, sk)
    count, first = count.ravel(), first.ravel()
    step = max(1, _SCAN_CHUNK // (nx.shape[0] * ny.shape[0]))
    pairs = 0
    best = None
    for lo in range(0, bcell.size, step):
        cid = bcell[lo:lo + step]
        nj = np.take(ny, cid // bk, axis=1) * (sk + 1)
        ni = np.take(nx, cid % bk, axis=1)
        cell = (nj[:, None, :] + ni[None, :, :]).ravel()
        seg = count[cell]
        k = np.flatnonzero(seg > 0)
        cell = cell[k]
        seg = seg[k]
        t = lo + k % cid.size
        cum = np.cumsum(seg)
        c0 = 0
        while c0 < k.size:
            done = int(cum[c0 - 1]) if c0 else 0
            c1 = max(c0 + 1, int(np.searchsorted(cum, done + _SCAN_CHUNK,
                                                 side="right")))
            ids = _segment_ids(seg[c0:c1])
            seg_start = cum[c0:c1] - seg[c0:c1] - done
            s = np.arange(ids.size, dtype=np.int64) + (
                first[cell[c0:c1]] - seg_start)[ids]
            x0 = bx[t[c0:c1]][ids]
            y0 = by[t[c0:c1]][ids]
            cand = _verified_split(x0, y0, sx[s] - x0, sy[s] - y0, a, n, m2)
            if cand is not None and (best is None or cand < best):
                best = cand
            c0 = c1
        pairs += int(cum[-1]) if cum.size else 0
    if best is None:
        return 0, 0, pairs
    return best[0], best[1], pairs


# ---------------------------------------------------------------------------
# the active backend, bound once
# ---------------------------------------------------------------------------

if HAVE_NUMBA:
    _inv_mod_i64 = njit(cache=True)(_inv_mod_i64)
    _inverses = _inverses_for_loop = njit(cache=True)(_inverses_for_loop)
    _bucket = _bucket_csr_loop = njit(cache=True)(_bucket_csr_loop)
    _pair_scan = _pair_scan_csr_loop = njit(cache=True)(_pair_scan_csr_loop)
else:
    _inverses, _bucket, _pair_scan = (_inverses_for_np, _bucket_csr_np,
                                      _pair_scan_csr_np)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_MAX_MOD = 1 << 31


def _check_mod(m: int) -> None:
    if not 2 <= m < _MAX_MOD:
        raise ValueError(f"modulus out of kernel range [2, 2**31): {m}")


def _points(n: int, m: int, x0: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) of the solutions of x*y == n (mod m) with x in [x0, hi),
    x ascending: a unit mask over the range, then one batch inversion."""
    xs = np.arange(x0, hi, dtype=np.int64)
    mask = np.ones(xs.size, dtype=bool)
    for p, _ in prime_factors(m):
        mask[(-x0) % p::p] = False
    xs = xs[mask]
    return xs, n % m * _inverses(xs, m) % m


def unit_inverse_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(units, inverses) arrays for the units mod m, x ascending."""
    _check_mod(m)
    return _points(1, m, 0, m)


def inverses_for(xs: np.ndarray, m: int) -> np.ndarray:
    """Inverses mod m of an arbitrary array of units (prefix products)."""
    _check_mod(m)
    return _inverses(np.ascontiguousarray(xs, dtype=np.int64), m)


def hyperbola_points(n: int, m: int, x0: int = 0, width: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (xs, ys) of the solutions to x*y == n (mod m) with x in
    [x0, x0 + width) (default [x0, m)), clipped to m, x ascending."""
    _check_mod(m)
    return _points(n, m, x0, m if width is None else min(x0 + width, m))


def bucket_csr(xs, ys, cell_w, cell_h, cols, rows, c0=0, k=None):
    """Sort points into row-major cells: (xs, ys, starts) CSR arrays, over
    the k grid columns (default all cols) from column c0, mod cols."""
    xs = np.ascontiguousarray(xs, dtype=np.int64)
    ys = np.ascontiguousarray(ys, dtype=np.int64)
    return _bucket(xs, ys, cell_w, cell_h, cols, rows, c0,
                   cols if k is None else k)


def pair_scan_csr(bx, by, bstarts, sx, sy, sstarts, cols, rows,
                  cell_w, cell_h, a, dxc, dyc, n, m2, bc0=0, sc0=0):
    """Scan neighborhood pairs of bucketed point sets for a split of n;
    the sets may be bucketed over column windows from bc0 and sc0 (see
    bucket_csr), and base points meet the neighbor cells in the shifted
    window."""
    nx, ny = _neighbor_tables(cols, rows, cell_w, cell_h, a, dxc, dyc,
                              bc0, (bstarts.size - 1) // rows,
                              sc0, (sstarts.size - 1) // rows)
    u, v, pairs = _pair_scan(bx, by, bstarts, sx, sy, sstarts, nx, ny,
                             a, n, m2)
    return int(u), int(v), int(pairs)


def hyperbola_scan(n: int, a: int, m2: int, cell_w: int, cell_h: int,
                   dxc: int, dyc: int) -> tuple[int, int, int, int]:
    """Enumerate both solution sets over the whole grid, bucket them and
    pair-scan; returns (u, v, points, pairs).  Goes through the private
    kernels only, so that a caller wrapping the public ones sees this
    call once."""
    _check_mod(a)
    _check_mod(m2)
    if not 0 < n < 1 << 63:
        raise ValueError("N out of kernel range")
    cols = -(-a // cell_w)
    rows = -(-a // cell_h)
    bx, by = _points(n, a, 0, a)
    sx, sy = _points(n, m2, 0, m2)
    u, v, pairs = _pair_scan(
        *_bucket(bx, by, cell_w, cell_h, cols, rows, 0, cols),
        *_bucket(sx, sy, cell_w, cell_h, cols, rows, 0, cols),
        *_neighbor_tables(cols, rows, cell_w, cell_h, a, dxc, dyc,
                          0, cols, 0, cols), a, n, m2)
    return int(u), int(v), bx.size + sx.size, int(pairs)


def warmup() -> None:
    """Force JIT compilation of all kernels (no-op on the numpy backend)."""
    hyperbola_scan(77, 6, 5, 3, 3, 1, 1)
