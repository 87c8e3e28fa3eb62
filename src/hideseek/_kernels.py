"""Hot numeric kernels: numba-compiled loops with a pure-numpy fallback.

Backend selection is controlled by the HIDESEEK_BACKEND environment
variable, read once at import:

    auto   (default)  the vectorized numpy path, the one that is measured
    numba             the loops, compiled; fail loudly if numba is missing
    numpy             the vectorized numpy path

Only the hot loops exist twice: batch inversion, bucketing and the pair
scan, as plain loops that numba compiles and as numpy code.  The loop
versions are also the reference the tests hold the numpy ones to.  The
active backend's three kernels are bound once at import (_inverses,
_bucket, _pair_scan); everything else, the solution enumerator _points
included, is shared numpy code.  `benchmarks/compare_backends.py`
times the twins against each other, and _points' two paths.

The numpy twins of the first two do linear work, as the loops do: batch
inversion scans the prefix and suffix products as two rows of one
blocked scan (_modprod_scan, about 2 multiplications per value), and
bucketing the points in window-column order that every caller in the
program passes is one stable radix pass on uint8 or uint16 rows, or
none on one row (other input takes a sort by column and then one by
row).

_points, the one solution enumerator, has two paths, chosen by one size
rule (_TABLE_MIN).  A whole range [0, m) with m >= 2**15, m not a power
of a prime <= 64, is built from one inverse table per prime-power
factor q of m (_factor_table: for a large prime power, the recurrence
inv(x) = -(q div x) * inv(q mod x) over the ranges of q div x, each a
strided pass; else batch inversion over its units), scaled for the CRT
and summed over [0, m) (_table_points).  Near m = 2**20 that is about
3 to 8 times faster than batch inversion on prime, 2p and smooth m.
Column windows and smaller ranges take one batch inversion over their
units.
The whole-grid enumeration of both sets, mod a and mod a-1, shares one
batch inversion mod a*(a-1) below the same size (_point_sets), in a
whole-grid window of _scan_windows, or once in a caller that passes it
the sets.

The pair scans take their base points in any order, each with its cell
id, and only the shifted set bucketed.  On a whole grid the neighbor
relation is symmetric, so hyperbola_scan expands from the smaller set,
left unbucketed, and buckets the other in one pass.  Shifted cells are
row-major, so a base column's run of neighbor columns in one shifted
row is one index range (two where the run wraps past the window's last
column), and both scans walk those ranges.  The numpy scan costs about
one pass per candidate: each (base point, y-step) pair expands one
range, in cache-sized blocks, and a pair's CRT value of its two x has
one candidate value, plus a second only where the two x are equal, so
one n % u on positive divisors rejects nearly every pair.

All kernels work in int64 (the table path's running sum of residues
below 2*m is int32 where that fits).  Callers guarantee N < 2**63 and
modulus m < 2**31, so every intermediate product here fits in int64
(products of two residues < m**2 < 2**62; candidate checks use division
instead of forming u*v).

Neighbor semantics: cells are cell_w wide except the last column, which
is truncated to a - (cols-1)*cell_w.  A candidate column is a neighbor
of ci at radius r when the wrapped gap between the two column intervals
admits points closer than r*cell_w.  Raw index distance <= r always
qualifies; index distance r+1 qualifies only across the wrap seam where
the thin truncated column eats less than a full cell of distance.
Without the gap rule, two points within cell_w of each other (wrapped)
can sit two index steps apart and the scan would miss them.  Only the
radius+1 cells at each end of an axis can pass the gap test or wrap, so
the rule, the seam rule, is one helper (_seam_cells) evaluated on those
cells alone, on Python ints.  _neighbor_tables hands whichever pair scan
is bound the same (runs, ny): each base column's neighbors as one run
of the shifted window's columns, a slice set in one numpy pass and
patched at the seam, and a (step, row) table of rows (_axis_steps);
neither scan applies the rule itself.  Rows are the same, with one
exception (_grid): a grid of at most 2*dyc + 1 rows, all neighbours of
each other, is scanned as one row of height a, with the same pairs, one
y-step and no row sort.

One driver, _scan_windows, runs the pair scan of both modes over windows
of k whole grid columns, from the base set its caller names.
hyperbola_scan, full mode, is one window of the whole grid, from the
smaller set; strip mode (factor._strip_scan) takes k = _SCAN_CHUNK //
cell_w windows from the set mod a.  A whole-grid window takes both whole
sets of _point_sets.  A narrower one expands its base columns against
the shifted columns from dxc + 1 before to dxc + 1 after it (wrapping mod
cols), or against every column where that is no narrower than the grid,
enumerating both by _points; _neighbor_tables knows both shapes.  The
public bucket_csr and pair_scan_csr work on whole grids only, for
callers that want the bucketed sets.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .arith import prime_factors

_FLAG = os.environ.get("HIDESEEK_BACKEND", "auto").strip().lower()
if _FLAG not in ("auto", "numba", "numpy"):
    raise RuntimeError(f"HIDESEEK_BACKEND must be auto|numba|numpy, got {_FLAG!r}")

HAVE_NUMBA = _FLAG == "numba"
if HAVE_NUMBA:
    try:
        from numba import njit
    except ImportError:
        raise RuntimeError("HIDESEEK_BACKEND=numba but numba is not installed")

ACTIVE_BACKEND = "numba" if HAVE_NUMBA else "numpy"


def _steps(radius: int) -> list[int]:
    """An axis's steps d in (|d|, d) order: 0, -1, 1, ..., radius + 1."""
    return sorted(range(-radius - 1, radius + 2), key=abs)


def _seam_cells(ncells: int, cell: int, a: int, radius: int
                ) -> list[tuple[int, bool, bool]]:
    """The seam rule: (i, lo, hi) for each cell i at the ends of an axis,
    lo and hi whether the steps -(radius+1) and radius+1 from i reach a
    neighbor, that is whether the wrapped gap between the two cells is
    below radius*cell.

    Only the radius+1 cells at each end of the axis (every cell on axes
    of at most 2*(radius+1)) have steps that wrap mod ncells or pass the
    gap test: from any other cell a step of radius+1 spans radius whole
    cells, either way round.  A few cells, so on Python ints.
    """
    r1 = radius + 1
    ends = ([*range(ncells - r1, ncells), *range(r1)] if ncells > 2 * r1
            else range(ncells))

    def near(i, j):
        s1, s2 = i * cell, j * cell
        return min((s2 - min(s1 + cell, a) + 1) % a,
                   (s1 - min(s2 + cell, a) + 1) % a) < radius * cell

    return [(i, near(i, (i - r1) % ncells), near(i, (i + r1) % ncells))
            for i in ends]


def _axis_steps(ncells: int, cell: int, a: int, radius: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's candidate neighbors, one row per step d of _steps,
    laid out (2*radius+3, ncells): the pair scans' row table.

    Returns (c2, keep): c2 = (ci + d) mod ncells, and keep marks the
    steps that reach a cell no earlier step reached and, when
    |d| > radius, pass the seam rule (_seam_cells).  Visiting smaller
    steps first makes the kept step the nearest route.  Only the cells
    _seam_cells lists can wrap, so the reduction mod ncells runs on them.
    """
    steps = _steps(radius)
    c2 = np.add.outer(np.array(steps, dtype=np.int64),
                      np.arange(ncells, dtype=np.int64))
    r1 = radius + 1
    if ncells > 2 * r1:
        c2[:, :r1] %= ncells
        c2[:, -r1:] %= ncells
        new = [True] * len(steps)
    else:
        c2 %= ncells
        # the 2*r1 + 1 steps are distinct mod ncells on longer axes;
        # congruent ones reach the same cell from every ci
        new = [all((d - e) % ncells for e in steps[:j])
               for j, d in enumerate(steps)]
    keep = np.zeros(c2.shape, dtype=bool)
    keep[:-2] = np.array(new[:-2])[:, None]
    # the last two rows are the steps -(radius+1), radius+1
    for i, lo, hi in _seam_cells(ncells, cell, a, radius):
        keep[-2, i], keep[-1, i] = lo and new[-2], hi and new[-1]
    return c2, keep


def axis_neighbor_table(ncells: int, cell: int, a: int, radius: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell neighbor columns under the wrapped-gap rule.

    Returns (nbr, wrapped), both (ncells, 2*radius+3), -1 padded; nbr[ci]
    lists the neighbor cell indices of ci in step order, wrapped[ci]
    flags the entries reached across the wrap seam.
    """
    c2, keep = _axis_steps(ncells, cell, a, radius)
    raw = np.add.outer(_steps(radius), np.arange(ncells))
    # pack each cell's kept steps to the left, in step order
    idx = np.flatnonzero(keep)
    ci = idx % ncells
    slot = (np.cumsum(keep, axis=0) - 1).ravel()[idx]
    nbr = np.full((ncells, keep.shape[0]), -1, dtype=np.int64)
    wrapped = np.zeros(nbr.shape, dtype=bool)
    nbr[ci, slot] = c2.ravel()[idx]
    wrapped[ci, slot] = raw.ravel()[idx] != c2.ravel()[idx]
    return nbr, wrapped


def _grid(a: int, cell_w: int, cell_h: int, dyc: int) -> tuple[int, int, int]:
    """(cols, rows, cell_h) of both scan drivers' grid.  At most 2*dyc + 1
    rows all neighbour each other, steps 0, +-1, ..., +-dyc reaching each
    once, so they scan as one row of height a: the same pairs, one y-step
    and no row sort."""
    cols, rows = -(-a // cell_w), -(-a // cell_h)
    return (cols, 1, a) if rows <= 2 * dyc + 1 else (cols, rows, cell_h)


def _neighbor_tables(cols, rows, cell_w, cell_h, a, dxc, dyc, c0, bk
                     ) -> tuple[np.ndarray, np.ndarray]:
    """What both pair scans read for the base window of bk grid columns
    from c0 (c0 + bk <= cols), against the shifted window _scan_windows
    forms: sk = min(bk + 2*dxc + 2, cols) columns, from dxc + 1 before
    the base window (wrapping mod cols) or, where that is no narrower
    than the grid, every column from 0.

    Returns (runs, ny).  runs holds each base column's shifted-window
    neighbor columns as (lo, end) rows of length 2*bk, int32: column i's
    run is [lo[i], end[i]), and where it wraps past column sk - 1 it goes
    on in [lo[bk + i], end[bk + i]) = [0, end2); every other range is
    empty.  ny is the row table of _axis_steps, (step, row), -1 where a
    step adds no row.

    A column's steps -dxc..dxc are consecutive, so its neighbors are one
    arc of the grid's circle: base column i, grid column c0 + i, is
    shifted column i + off, with off = dxc + 1 in a narrow window and
    c0 in a whole one, and its run is [i + off - dxc, i + off + dxc + 1).
    Only the columns _seam_cells lists can take a step +-(dxc + 1) or
    wrap, so only they are patched, on Python ints; an arc of sk columns
    or more is the whole window [0, sk)."""
    sk = min(bk + 2 * dxc + 2, cols)
    off = dxc + 1 if sk < cols else c0
    # window columns fit int32, which halves these full-width arrays
    runs = np.zeros((2, 2 * bk), dtype=np.int32)
    runs[0, :bk] = np.arange(off - dxc, off - dxc + bk, dtype=np.int32)
    np.add(runs[0, :bk], 2 * dxc + 1, out=runs[1, :bk])
    for g, lo, hi in _seam_cells(cols, cell_w, a, dxc):
        i = g - c0
        if not 0 <= i < bk:
            continue
        start, stop, wrap = i + off - dxc - lo, i + off + dxc + 1 + hi, 0
        if stop - start >= sk:
            start, stop = 0, sk
        elif start < 0:
            start, stop, wrap = start + sk, sk, stop
        elif stop > sk:
            stop, wrap = sk, stop - sk
        runs[:, i] = start, stop
        runs[1, bk + i] = wrap
    ny, keep = _axis_steps(rows, cell_h, a, dyc)
    ny[~keep] = -1
    return runs, ny


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


def _pair_scan_csr_loop(bx, by, bcell, sx, sy, sstarts, runs, ny, bm, n, sm):
    """Check every base/shifted pair in the neighbor cells that
    _neighbor_tables lists: base point t, in base-window cell
    bcell[t] = row*bk + col, meets the shifted points of its column's
    run and wrap part, one index range each, in every row its row steps
    reach, as the numpy scan does.  Base points come in any order.

    The two sets are the solutions mod a and mod a - 1, bm and sm the
    moduli of the base and the shifted points in either order, so which
    set a point belongs to is bm > sm.  Returns (u, v, pairs_checked)
    with (u, v) the lexicographically smallest verified split, or
    (0, 0, pairs) when none verifies.
    """
    rows = ny.shape[1]
    bk = runs.shape[1] // 2
    sk = (sstarts.size - 1) // rows
    a, m2 = max(bm, sm), min(bm, sm)
    base_a = bm > sm
    best_u = np.int64(0)
    best_v = np.int64(0)
    pairs = np.int64(0)
    for t in range(bx.size):
        cj = bcell[t] // bk
        ci = bcell[t] - cj * bk
        for oj in range(ny.shape[0]):
            nj = ny[oj, cj]
            if nj < 0:
                continue
            for part in (ci, bk + ci):
                for s in range(sstarts[nj * sk + runs[0, part]],
                               sstarts[nj * sk + runs[1, part]]):
                    pairs += 1
                    # (x, y) of the point mod a, then of the point mod m2
                    xa, ya, xm, ym = ((bx[t], by[t], sx[s], sy[s]) if base_a
                                      else (sx[s], sy[s], bx[t], by[t]))
                    du = xm - xa
                    dv = ym - ya
                    for uw in range(2):
                        u1 = du + uw * m2
                        if u1 < 0 or u1 >= a:
                            continue
                        u = u1 * a + xa
                        if u < 2 or u > n or n % u != 0:
                            continue
                        v = n // u
                        if v < 2:
                            continue
                        for vw in range(2):
                            v1 = dv + vw * m2
                            if 0 <= v1 < a and v1 * a + ya == v:
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

    Points already in window-column order, as every caller in the
    program passes them, are in CSR order on one row (see _grid), and
    come back as they are; on more rows they take one stable sort by
    row: a radix sort on uint8 rows up to 2**8 rows and on uint16 rows
    up to 2**16.  Other input takes two stable sorts, by window column
    and then by row.
    """
    ncells = k * rows
    col = xs // cell_w
    if c0:
        col = (col - c0) % cols
    row = ys // cell_h
    starts = np.zeros(ncells + 1, dtype=np.int64)
    np.bincount(row * k + col, minlength=ncells).cumsum(out=starts[1:])
    in_order = (col[1:] >= col[:-1]).all()
    if in_order and rows == 1:
        return xs, ys, starts
    if rows <= 1 << 16:
        row = row.astype(np.uint8 if rows <= 1 << 8 else np.uint16)
    if in_order:
        order = row.argsort(kind="stable")
    else:
        order = np.argsort(col, kind="stable")
        order = order[np.argsort(row[order], kind="stable")]
    return xs[order], ys[order], starts


# Two sizes from one budget.  _SCAN_CHUNK sizes strip mode's column
# windows, about that many points of each set per window.  The numpy pair
# scan expands a quarter of it at a time, both (base point, y-step)
# ranges and point pairs: its temporaries of 2**16 int64s, half a MB,
# stay in cache, and blocks of 2**18 made factor at N ~ 1e16 about a
# quarter slower.
_SCAN_CHUNK = 1 << 18


def _verified_split(by, tb, xc, s0, seg, sxc, sy, bm, n, sm):
    """(split or None, pairs) over the shifted ranges [s0, s0 + seg),
    laid out (y-step, base point): range j belongs to base point
    tb[j % tb.size], whose term of u (below) is xc[j].  The ranges are
    expanded into point pairs _SCAN_CHUNK >> 2 at a time (a longer range
    alone).

    A pair's candidate u is the CRT value mod a*m2 of its x coordinates,
    x_a*(1 - a) + x_m*a (x_a mod a, x_m mod m2 = a - 1), that is du*a +
    x_a with du = x_m - x_a taken mod m2: the base's term plus a*m2 (xc)
    and the shifted point's (sxc) add up to one positive value, reduced
    by one uint64 minimum.  u + a*m2 (u1 = m2) is a second candidate only
    where du == 0, that is where u < m2.  The x mod a are units, so
    u >= 1, and n % u runs once on positive divisors; y is read only for
    the rare pairs where u divides n, checked as _pair_scan_csr_loop does.
    """
    a, m2 = max(bm, sm), min(bm, sm)
    am2 = a * m2
    block = max(1, _SCAN_CHUNK >> 2)
    cum = seg.cumsum()
    total = int(cum[-1]) if cum.size else 0
    # a pair's shifted index is its place in the expansion plus this
    shift = s0 - cum + seg
    best = None
    c0 = done = 0
    while done < total:
        if total - done <= block:
            c1 = seg.size
        else:
            c1 = max(c0 + 1, int(np.searchsorted(cum, done + block,
                                                 side="right")))
        stop = int(cum[c1 - 1])
        # each pair's range
        r = np.arange(c0, c1).repeat(seg[c0:c1])
        s = np.arange(done, stop, dtype=np.int64)
        s += shift[r]
        u = sxc[s]
        u += xc[r]
        w = u.view(np.uint64)
        np.minimum(w, w - np.uint64(am2), out=w)
        hit = (n % u == 0).nonzero()[0]
        low = (w < m2).nonzero()[0]
        low = low[n % (u[low] + am2) == 0]
        # exact divisors of n are rare, so the tail runs on Python ints
        for h, uk in [*zip(hit.tolist(), u[hit].tolist()),
                      *zip(low.tolist(), (u[low] + am2).tolist())]:
            vk = n // uk
            if uk < 2 or vk < 2:
                continue
            y0 = int(by[tb[int(r[h]) % tb.size]])
            y1 = int(sy[s[h]])
            ya, ym = (y0, y1) if bm > sm else (y1, y0)
            dv = ym - ya
            for v1 in (dv, dv + m2):
                if 0 <= v1 < a and v1 * a + ya == vk:
                    cand = (min(uk, vk), max(uk, vk))
                    if best is None or cand < best:
                        best = cand
        c0, done = c1, stop
    return best, total


def _pair_scan_csr_np(bx, by, bcell, sx, sy, sstarts, runs, ny, bm, n, sm):
    """Same contract as _pair_scan_csr_loop, by contiguous ranges.

    Shifted cells are row-major, so a base column's run of neighbor
    columns (_neighbor_tables) in one shifted row is one index range of
    sx, sy, and its wrap part a second.  So each (base point, y-step)
    pair expands one range, and a second one for the points of wrapping
    columns, handled as points of a virtual column bk + ci.  Base points
    are taken in input order, _SCAN_CHUNK >> 2 (point, y-step) pairs at
    a time, and _verified_split checks the pairs of the ranges.  y-steps
    no row keeps are dropped.
    """
    rows = ny.shape[1]
    bk = runs.shape[1] // 2
    sk = (sstarts.size - 1) // rows
    a, m2 = max(bm, sm), min(bm, sm)
    ny = ny[(ny >= 0).any(axis=1)]
    # row offsets into sstarts; a -1 step's lands past the end, which
    # np.take clips to the last entry, an empty range
    roff = ny * sk
    roff[ny < 0] = sstarts.size
    # each point's term of u (_verified_split): x mod a times 1 - a,
    # x mod m2 times a, and a*m2 on the base's
    xb = bx * (-m2 if bm > sm else a) + a * m2
    sxc = sx * (a if bm > sm else -m2)
    step = max(1, (_SCAN_CHUNK >> 2) // ny.shape[0])
    pairs = 0
    best = None
    for p0 in range(0, bcell.size, step):
        cell = bcell[p0:p0 + step]
        cj = cell // bk
        ci = cell - cj * bk
        j = np.concatenate([np.arange(ci.size),
                            runs[1, bk:][ci].nonzero()[0]])
        ci = ci[j]
        ci[cj.size:] += bk
        off = roff.take(cj[j], axis=1)
        s0 = sstarts.take(off + runs[0, ci], mode="clip").ravel()
        seg = sstarts.take(off + runs[1, ci], mode="clip").ravel() - s0
        xc = np.empty(off.shape, dtype=np.int64)
        xc[:] = xb[p0 + j]
        cand, got = _verified_split(by, p0 + j, xc.ravel(), s0, seg, sxc, sy,
                                    bm, n, sm)
        pairs += got
        if cand is not None and (best is None or cand < best):
            best = cand
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


class OutOfRangeError(ValueError):
    """The input lies outside the supported range: a modulus >= 2**31,
    N >= 2**63 where the hide-seek kernels are needed, or past a size cap
    of the moments suite or the digit-polynomial search.  Defined here so
    that the kernels can raise it; hideseek.factor exports it."""


def _check_mod(m: int) -> None:
    """A modulus below 2 is a bad argument; one of 2**31 or more is out
    of range."""
    if not 2 <= m < _MAX_MOD:
        raise (ValueError if m < 2 else OutOfRangeError)(
            f"modulus out of kernel range [2, 2**31): {m}")


def _units(m: int, x0: int, hi: int, factors=None) -> np.ndarray:
    """The units mod m in [x0, hi), ascending, by a mask over the range;
    factors, prime_factors(m), when the caller has it."""
    mask = np.ones(hi - x0, dtype=bool)
    for p, _ in prime_factors(m) if factors is None else factors:
        mask[(-x0) % p::p] = False
    xs = mask.nonzero()[0]
    if x0:
        xs += x0
    return xs


# The size rule of _points: a whole range [0, m) with m >= _TABLE_MIN is
# enumerated from prime-power tables (_table_points) unless m is a power
# of a prime <= _RANGES, whose one table would be the batch inversion
# itself; every other range, column windows included, takes one batch
# inversion over its units.  The tables have fixed costs (a few numpy
# calls per factor and per range of q // x): at 2**14 they still lost to
# batch inversion by up to 30% on m = 2p, 6p and smooth m; from 2**15 on
# they tied or won on every shape timed, and near 2**20 they were 3 to 9
# times faster (benchmarks/compare_backends.py times both).
_TABLE_MIN = 1 << 15
# _factor_table fills q/_RANGES < x < q from the recurrence, one numpy
# call per range of q // x, and the bottom by batch inversion.
_RANGES = 64


def _factor_table(n: int, m: int, p: int, e: int) -> np.ndarray:
    """The CRT summand of the factor q = p**e of m, over [0, q): at each
    unit r mod q, t[r] = M * (n * inv(r) * inv(M) mod q) with M = m // q,
    so that n * inv(x) mod m is the sum of t[x mod q] over the factors,
    reduced mod m.  Entries at non-units are unspecified; all are in [0, m].

    Where q >= _RANGES**2 and p > _RANGES, batch inversion fills the
    units up to q // _RANGES and the rest follows from
    inv(x) = -(q div x) * inv(q mod x): on the range
    q/(k+1) < x <= q/k, q div x = k and q mod x = q - k*x is a unit below
    the range (p does not divide k < p), read from the table at stride k.
    Every step is linear in inv, so the scale M * n * inv(M) rides along
    in arithmetic mod m (M*a mod M*q = M*(a mod q)).  x > q/2 is
    q - x' with x' < q/2, and t[q - x'] = m - t[x'].  Any other q is one
    batch inversion over its units.
    """
    q = p ** e
    cof = m // q
    s = n * pow(cof, -1, q) % q
    t = np.zeros(q, dtype=np.int64)
    if s == 0:
        return t
    if p <= _RANGES or q < _RANGES * _RANGES:
        xs = _units(q, 0, q, [(p, e)])
        t[xs] = _inverses(xs, q) * s % q * cof
        return t
    xs = _units(q, 1, q // _RANGES + 1, [(p, e)])
    t[xs] = _inverses(xs, q) * s % q * cof
    for k in range(_RANGES - 1, 1, -1):
        lo, hi = q // (k + 1) + 1, q // k
        if lo > hi:
            continue
        # q - k*x for x = lo..hi, a descending run at stride k
        dst = t[lo:hi + 1]
        np.multiply(t[q - k * lo:q - k * hi - 1:-k], q - k, out=dst)
        np.remainder(dst, m, out=dst)
    h = q // 2
    np.subtract(m, t[q - h - 1:0:-1], out=t[h + 1:])
    return t


def _table_points(n: int, m: int, factors) -> tuple[np.ndarray, np.ndarray]:
    """_points over all of [0, m) from one _factor_table per prime power.

    The tables are summed over [0, m) smallest factor first: the sum so
    far, periodic with period Q, is reduced mod m and copied out to Q*q
    by doubling, and the table of q is added along the rows of its (Q, q)
    view, so the largest factor's table runs along the longest rows.  At
    the units the sum is below 2*m, so it is held in int32 while 2*m
    fits, and one conditional subtraction reduces it.
    """
    xs = _units(m, 0, m, factors)
    qs = sorted((p ** e, p, e) for p, e in factors)
    dt = np.int32 if 2 * m < _MAX_MOD else np.int64
    acc = _factor_table(n, m, qs[0][1], qs[0][2])
    for q, p, e in qs[1:]:
        acc %= m
        out = np.empty(acc.size * q, dtype=dt)
        out[:acc.size] = acc
        done = acc.size
        while done < out.size:
            k = min(done, out.size - done)
            out[done:done + k] = out[:k]
            done += k
        acc = out
        acc.reshape(-1, q)[:] += _factor_table(n, m, p, e)
    ys = np.take(acc, xs)
    del acc
    # unsigned, ys - m wraps past ys where ys < m
    u = ys.view(f"u{ys.itemsize}")
    np.minimum(u, u - u.dtype.type(m), out=u)
    return xs, ys.astype(np.int64, copy=False)


def _points(n: int, m: int, x0: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) of the solutions of x*y == n (mod m) with x in [x0, hi),
    x ascending: by the size rule at _TABLE_MIN, from prime-power inverse
    tables (_table_points) or from the units and one batch inversion."""
    factors = prime_factors(m)
    if (x0, hi) == (0, m) and m >= _TABLE_MIN and (
            len(factors) > 1 or factors[0][0] > _RANGES):
        return _table_points(n, m, factors)
    xs = _units(m, x0, hi, factors)
    return xs, n % m * _inverses(xs, m) % m


def _point_sets(n: int, a: int, m2: int) -> tuple[np.ndarray, ...]:
    """(bx, by, sx, sy): _points over all of [0, a) mod a and of [0, m2)
    mod m2.  Where m2 = a - 1 and a < _TABLE_MIN (so a*m2 < 2**30), one
    batch inversion mod a*m2 serves both sets: as a = 1 mod m2,
    z = x + a*((x' - x) mod m2) is x mod a and x' mod m2, so z's inverse
    reduces to both inverses (the shorter set padded with 1).  From
    _TABLE_MIN on, each set is its own _points call."""
    if m2 != a - 1 or a >= _TABLE_MIN:
        return (*_points(n, a, 0, a), *_points(n, m2, 0, m2))
    bx, sx = _units(a, 0, a), _units(m2, 0, m2)
    x = np.ones((2, max(bx.size, sx.size)), dtype=np.int64)
    x[0, :bx.size] = bx
    x[1, :sx.size] = sx
    z = x[1] - x[0]
    z %= m2
    z *= a
    z += x[0]
    inv = _inverses(z, a * m2)
    # inv < a*m2, so inv * (n % a) < 2**45
    return (bx, inv[:bx.size] * (n % a) % a,
            sx, inv[:sx.size] * (n % m2) % m2)


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


def bucket_csr(xs, ys, cell_w, cell_h, cols, rows):
    """Sort points into the cols-by-rows grid's row-major cells: (xs, ys,
    starts) CSR arrays."""
    xs, ys = (np.ascontiguousarray(c, dtype=np.int64) for c in (xs, ys))
    return _bucket(xs, ys, cell_w, cell_h, cols, rows, 0, cols)


def pair_scan_csr(bx, by, bstarts, sx, sy, sstarts, cols, rows,
                  cell_w, cell_h, a, dxc, dyc, n, m2):
    """Scan neighborhood pairs of two sets bucketed over the whole grid by
    bucket_csr, the base mod a, for a split of n; returns (u, v, pairs).
    Each base point's cell id is read off the base CSR."""
    bcell = np.repeat(np.arange(bstarts.size - 1), np.diff(bstarts))
    u, v, pairs = _pair_scan(
        bx, by, bcell, sx, sy, sstarts,
        *_neighbor_tables(cols, rows, cell_w, cell_h, a, dxc, dyc, 0, cols),
        a, n, m2)
    return int(u), int(v), int(pairs)


def _scan_windows(n: int, bm: int, sm: int, cell_w: int, cell_h: int,
                  dxc: int, dyc: int, k: int, sets: tuple | None = None
                  ) -> tuple[int, int, int, int]:
    """The pair scan of both modes, base points mod bm against shifted
    points mod sm (a = max(bm, sm), m2 the other), over windows of k whole
    columns of _grid's grid; returns (u, v, points, pairs).  Every window
    leaves its base points unbucketed, each with its cell id in the
    window, and buckets only the shifted window.

    A window of the whole grid (k >= cols) takes both whole sets: sets,
    the (bx, by, sx, sy) of _point_sets mod a and m2, or that call.  A
    narrower one meets base columns [c0, c0 + bk) with shifted columns
    [c0 - r, c0 + bk + r), wrapping mod cols (or all columns from 0 where
    that is no narrower than the grid), r = dxc + 1: they hold every
    neighbor under the gap rule, and _neighbor_tables forms the same
    window from (c0, bk).  Each enumerated by _points, they hold about
    k*cell_w points of each set at once.  Goes
    through the private kernels only, so that a caller wrapping the
    public ones sees no call of them."""
    a, m2 = max(bm, sm), min(bm, sm)
    cols, rows, cell_h = _grid(a, cell_w, cell_h, dyc)
    found, points, pairs = [], 0, 0
    for c0 in range(0, cols, k):
        bk = min(k, cols - c0)
        sk = min(bk + 2 * dxc + 2, cols)
        s0 = (c0 - dxc - 1) % cols if sk < cols else 0
        if bk == cols:
            sets = _point_sets(n, a, m2) if sets is None else sets
            bx, by, sx, sy = sets if bm == a else (*sets[2:], *sets[:2])
        else:
            bx, by = _points(n, bm, c0 * cell_w, min((c0 + bk) * cell_w, bm))
            sx, sy = np.concatenate(
                [_points(n, sm, lo * cell_w, min(hi * cell_w, sm))
                 for lo, hi in ((s0, min(s0 + sk, cols)), (0, s0 + sk - cols))
                 if lo < hi], axis=1)
        bcell = bx // cell_w - c0 if c0 else bx // cell_w
        bcell += by // cell_h * bk
        u, v, got = _pair_scan(
            bx, by, bcell,
            *_bucket(sx, sy, cell_w, cell_h, cols, rows, s0, sk),
            *_neighbor_tables(cols, rows, cell_w, cell_h, a, dxc, dyc,
                              c0, bk), bm, n, sm)
        points, pairs = points + bx.size + sx.size, pairs + int(got)
        found += [(int(u), int(v))] if u else []
    return (*min(found, default=(0, 0)), points, pairs)


def hyperbola_scan(n: int, a: int, m2: int, cell_w: int, cell_h: int,
                   dxc: int, dyc: int, *, sets: tuple | None = None
                   ) -> tuple[int, int, int, int]:
    """Pair-scan the whole-grid solution sets mod a and mod m2; returns
    (u, v, points, pairs): _scan_windows over one window of the whole
    grid.  The whole-grid neighbor relation is symmetric, so the scan
    expands from the smaller set.  sets, the (bx, by, sx, sy) of
    _point_sets, spares a caller scanning several cell shapes the
    enumeration."""
    _check_mod(a)
    _check_mod(m2)
    if not 0 < n < 1 << 63:
        raise ValueError("N out of kernel range")
    sets = _point_sets(n, a, m2) if sets is None else sets
    bm, sm = (a, m2) if sets[0].size <= sets[2].size else (m2, a)
    return _scan_windows(n, bm, sm, cell_w, cell_h, dxc, dyc, a, sets)


def warmup() -> None:
    """Run one tiny scan: numba compiles the kernels there, and numpy
    pays its first-call costs, which a timed setup includes."""
    hyperbola_scan(77, 6, 5, 3, 3, 1, 1)
