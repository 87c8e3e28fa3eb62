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
_bucket, _pair_scan); everything else, the solution enumerator _points
included, is shared numpy code.  `benchmarks/compare_backends.py`
times the twins against each other, and _points' two paths.

The numpy twins of the first two do linear work, as the loops do: batch
inversion scans the prefix and suffix products as two rows of one
blocked scan (_modprod_scan, about 2 multiplications per value), and
bucketing is one stable radix sort on uint16 cell ids where the cells
fit, else two stable sorts, by window column and then by row, where the
first meets callers' points already in order and the second is a radix
sort on uint16 rows.

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
batch inversion mod a*(a-1) below the same size (_point_sets), in
hyperbola_scan, the full-mode scan of both factorers, or once in a
caller that passes it the sets.

The numpy pair scan costs about one pass per candidate: shifted cells
are row-major, so a base column's neighbor columns in one shifted row,
a circular run, are one contiguous index range (two where the run wraps
past the window's last column).  Each (base point, y-step) pair expands
one range, in cache-sized blocks, and a pair's base-a x digit has one
candidate value, plus a second only where the two x coordinates are
equal, so one n % u on positive divisors rejects nearly every pair.

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
    keep = np.ones(raw.shape, dtype=bool)
    # only the radius+1 cells at each end of the axis have steps that wrap
    r1 = radius + 1
    if ncells > 2 * r1:
        ends = np.arange(-r1, r1) % ncells
    else:
        ends = ci
        # the 2*r1 + 1 steps are distinct mod ncells on longer axes;
        # congruent ones reach the same cell from every ci
        keep[:] = np.array([all((d - e) % ncells for e in steps[:j])
                            for j, d in enumerate(steps)])[:, None]
    c2 = raw.copy()
    c2[:, ends] %= ncells
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

    Up to 2**16 cells, one stable sort by cell id, which fits uint16,
    where numpy's stable sort is a radix sort.  Beyond, two stable
    passes, window column then row: callers pass points in window-column
    order, where the first pass meets a single sorted run, and rows fit
    uint16 up to 2**16 rows.
    """
    ncells = k * rows
    col = xs // cell_w
    if c0:
        col = (col - c0) % cols
    row = ys // cell_h
    cid = row * k + col
    counts = np.bincount(cid, minlength=ncells)
    if ncells <= 1 << 16:
        order = np.argsort(cid.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(col, kind="stable")
        row = row[order]
        if rows <= 1 << 16:
            row = row.astype(np.uint16)
        order = order[np.argsort(row, kind="stable")]
    starts = np.zeros(ncells + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return xs[order], ys[order], starts


# Two sizes from one budget.  _SCAN_CHUNK sizes strip mode's column
# windows, about that many points of each set per window.  The numpy pair
# scan expands a quarter of it at a time, both (base point, y-step)
# ranges and point pairs: its temporaries of 2**16 int64s, half a MB,
# stay in cache, and blocks of 2**18 made factor at N ~ 1e16 about a
# quarter slower.
_SCAN_CHUNK = 1 << 18


def _column_runs(nx: np.ndarray, sk: int) -> tuple[np.ndarray, np.ndarray]:
    """Each base column's kept shifted-window columns, read off the nx
    table as one circular run mod sk, as (lo, end) of length 2*bk:
    column i's run is [lo[i], end[i]), followed where it wraps past
    column sk - 1 by [lo[bk + i], end[bk + i]) = [0, end2); every other
    range is empty.

    A column's steps are consecutive offsets, so its neighbors form one
    arc of the grid's circle, and the part of an arc inside a window of
    columns is one run mod sk (tests/test_grid.py holds the tables to
    this)."""
    bk = nx.shape[1]
    # window columns fit int32, which halves these full-width arrays
    lo = np.zeros(2 * bk, dtype=np.int32)
    end = np.zeros(2 * bk, dtype=np.int32)
    # as uint64 the -1 entries are the largest values, so never the min
    np.maximum(nx.view(np.uint64).min(axis=0).view(np.int64), 0,
               out=lo[:bk], casting="unsafe")
    np.add(nx.max(axis=0), 1, out=end[:bk], casting="unsafe")
    # a run holding columns 0 and sk - 1 but not all sk wraps, and
    # starts right after the columns it lacks: only the few columns at
    # the seam, so this runs on Python ints
    for c in np.flatnonzero((lo[:bk] == 0) & (end[:bk] == sk)).tolist():
        kept = {v for v in nx[:, c].tolist() if v >= 0}
        if len(kept) < sk:
            end2 = min(set(range(len(kept) + 1)) - kept)
            lo[c] = end2 + sk - len(kept)
            end[bk + c] = end2
    return lo, end


def _verified_split(bx, by, sx, sy, t, s0, seg, a, n, m2):
    """Smallest (lo, hi) split of n that base points t meet in the
    shifted ranges [s0, s0 + seg), or None; the ranges are expanded into
    point pairs _SCAN_CHUNK >> 2 at a time (a longer range alone).

    A pair's x digit is du = sx - x0 in [-m2, m2), taken mod m2 where
    negative, so u = sx*a - x0*m2 (= du*a + x0), plus a*m2 where negative,
    is its one candidate, and u + a*m2 (u1 = m2) a second only where
    du == 0.  Base x are units mod a, so u >= 1, and n % u runs once on
    positive divisors; y is read only for the rare pairs where u divides
    n, where u < 2 is rejected and v checked as _pair_scan_csr_loop does.
    """
    block = max(1, _SCAN_CHUNK >> 2)
    am2 = a * m2
    cum = np.cumsum(seg)
    # a pair's shifted index is its place in the expansion plus this
    shift = s0 - cum + seg
    x0m2 = bx[t] * m2
    best = None
    c0 = 0
    while c0 < seg.size:
        done = int(cum[c0 - 1]) if c0 else 0
        c1 = max(c0 + 1, int(np.searchsorted(cum, done + block,
                                             side="right")))
        s = np.arange(done, int(cum[c1 - 1]), dtype=np.int64)
        s += np.repeat(shift[c0:c1], seg[c0:c1])
        u = sx[s] * a
        u -= np.repeat(x0m2[c0:c1], seg[c0:c1])
        # as uint64, du*a + x0 < a only where du == 0; those pairs'
        # second candidates follow the first ones
        zero = np.flatnonzero(u.view(np.uint64) < a)
        u = np.concatenate([u, u[zero] + am2])
        u -= am2 * (u >> 63)
        hit = np.flatnonzero(n % u == 0)
        if hit.size == 0:
            c0 = c1
            continue
        # exact divisors of n are rare, so the tail runs on Python ints
        for h, uk in zip(hit.tolist(), u[hit].tolist()):
            k = h if h < s.size else int(zero[h - s.size])
            vk = n // uk
            if uk < 2 or vk < 2:
                continue
            y0 = int(by[t[np.searchsorted(cum, done + k, side="right")]])
            dv = int(sy[s[k]]) - y0
            for v1 in (dv, dv + m2):
                if 0 <= v1 < a and v1 * a + y0 == vk:
                    cand = (min(uk, vk), max(uk, vk))
                    if best is None or cand < best:
                        best = cand
        c0 = c1
    return best


def _pair_scan_csr_np(bx, by, bstarts, sx, sy, sstarts, nx, ny, a, n, m2):
    """Same contract as _pair_scan_csr_loop, by contiguous ranges.

    Shifted cells are row-major, so a base column's kept neighbor columns
    in one shifted row, a circular run (_column_runs), are one index
    range of sx, sy, or two where the run wraps.  So each (base point,
    y-step) pair expands one range, and a second one for the points of
    wrapping columns, handled as points of a virtual column bk + ci.
    Base points are taken in CSR order, _SCAN_CHUNK >> 2 (point, y-step)
    pairs at a time, and _verified_split checks the pairs of the
    non-empty ranges.  y-steps no row keeps are dropped.
    """
    rows = ny.shape[1]
    bk = nx.shape[1]
    sk = (sstarts.size - 1) // rows
    lo, end = _column_runs(nx, sk)
    ny = ny[(ny >= 0).any(axis=1)]
    # shifted cell starts padded by one empty row, where -1 steps land
    roff = ny % (rows + 1) * sk
    first = np.concatenate([sstarts, np.full(sk, sstarts[-1])])
    # each base point's cell: count the cells ending at each point
    bcell = np.bincount(bstarts[1:-1], minlength=bstarts[-1] + 1)[:-1]
    np.cumsum(bcell, out=bcell)
    step = max(1, (_SCAN_CHUNK >> 2) // ny.shape[0])
    pairs = 0
    best = None
    for p0 in range(0, bcell.size, step):
        cj, ci = np.divmod(bcell[p0:p0 + step], bk)
        p = np.concatenate([np.arange(ci.size),
                            np.flatnonzero(end[bk:][ci])])
        ci = ci[p]
        ci[cj.size:] += bk
        off = np.take(roff, cj[p], axis=1)
        s0 = first[off + lo[ci]].ravel()
        seg = first[off + end[ci]].ravel() - s0
        k = np.flatnonzero(seg > 0)
        seg = seg[k]
        pairs += int(seg.sum())
        cand = _verified_split(bx, by, sx, sy, p0 + p[k % p.size], s0[k],
                               seg, a, n, m2)
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


def _check_mod(m: int) -> None:
    if not 2 <= m < _MAX_MOD:
        raise ValueError(f"modulus out of kernel range [2, 2**31): {m}")


def _units(m: int, x0: int, hi: int, factors=None) -> np.ndarray:
    """The units mod m in [x0, hi), ascending, by a mask over the range;
    factors, prime_factors(m), when the caller has it."""
    mask = np.ones(hi - x0, dtype=bool)
    for p, _ in prime_factors(m) if factors is None else factors:
        mask[(-x0) % p::p] = False
    xs = np.flatnonzero(mask)
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
    return (bx, n % a * (inv[:bx.size] % a) % a,
            sx, n % m2 * (inv[:sx.size] % m2) % m2)


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
                   dxc: int, dyc: int, *, sets: tuple | None = None
                   ) -> tuple[int, int, int, int]:
    """Bucket both whole-grid solution sets, mod a and mod m2, and
    pair-scan them; returns (u, v, points, pairs).  sets, the (bx, by,
    sx, sy) of _point_sets, spares a caller scanning several cell shapes
    the enumeration.  Goes through the private kernels only, so that a
    caller wrapping the public ones sees this call once."""
    _check_mod(a)
    _check_mod(m2)
    if not 0 < n < 1 << 63:
        raise ValueError("N out of kernel range")
    cols = -(-a // cell_w)
    rows = -(-a // cell_h)
    bx, by, sx, sy = _point_sets(n, a, m2) if sets is None else sets
    u, v, pairs = _pair_scan(
        *_bucket(bx, by, cell_w, cell_h, cols, rows, 0, cols),
        *_bucket(sx, sy, cell_w, cell_h, cols, rows, 0, cols),
        *_neighbor_tables(cols, rows, cell_w, cell_h, a, dxc, dyc,
                          0, cols, 0, cols), a, n, m2)
    return int(u), int(v), bx.size + sx.size, int(pairs)


def warmup() -> None:
    """Run one tiny scan: numba compiles the kernels there, and numpy
    pays its first-call costs, which a timed setup includes."""
    hyperbola_scan(77, 6, 5, 3, 3, 1, 1)
