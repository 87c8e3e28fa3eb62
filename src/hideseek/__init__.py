"""hideseek: factor integers by spotting nearby modular-hyperbola points.

The factoring side enumerates all solutions of x*y == N (mod a - d) for
d = 0, 1, buckets them into a cell grid over the a-by-a square, and checks
point pairs in neighboring cells to reconstruct a split of N.  The
analysis side measures how those solutions distribute: rectangle counts
against their area-proportional expectation, Kloosterman sums against the
classical bound, and direct versus spectral second moments of per-cell
counts.
"""

from ._kernels import ACTIVE_BACKEND
from .arith import (
    batch_inverses,
    ceil_cbrt,
    divisor_count,
    euler_phi,
    ext_gcd,
    gcd,
    mobius,
    mod_inv,
)
from .factor import (
    Factorization,
    Prime,
    Unit,
    factor,
    hide_seek_balanced,
    hide_seek_general,
    trial_division,
)
from .moments import (
    MomentDomain,
    MomentReport,
    coprime_adjust,
    deviation_scan,
    expected_count,
    kloosterman,
    second_moment_direct,
    second_moment_spectral,
)
from .polysearch import (
    digits,
    extended_solutions,
    factor_via_poly,
    lambda_factor,
    poly_search,
)
from .solutions import (
    CommonFactor,
    HyperbolaPoint,
    Rect,
    SolutionSet,
    count_in_rect,
    solve_all,
    solve_strip,
)

__version__ = "0.1.0"
