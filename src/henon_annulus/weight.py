"""Weight psi(x) = | |x| - 2 |^alpha and weighted quadrature on grid cells.

The weight vanishes at r = 2 with a power-law cusp and, for large alpha,
varies by hundreds of orders of magnitude across a single coarse cell.
Weighted integrals therefore run on per-cell Gauss rules: cells with the
cusp at an edge get a Gauss-Jacobi rule that absorbs s^alpha exactly
(plain Gauss converges like h^{alpha+1} there and never reaches
quadrature accuracy for fractional alpha), smooth cells split into one
log-graded subcell per e-fold of weight variation. The same radial rule
backs the one and two dimensional assembly paths, so a theta-constant
field integrates identically in either reduction up to roundoff.

radial_rule builds the rules of a whole grid in one vectorized pass:
given arrays of cell edges it splits the cells straddling r = 2, counts
every smooth cell's subcells at once, lays out all their subcell edges as
one ragged linspace and places the Gauss points of all subcells with one
broadcast. Only the (at most two) cusp cells run the Jacobi rule on
their own. Each element sees the operations of the one-cell rule, with
the logarithms taken by math.log as there, so the batch equals the
concatenated one-cell rules bit for bit.

Evaluation goes through exp(alpha * log|r - 2|); products smaller than the
underflow floor are flushed to exactly 0 so downstream quotients never see
subnormals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import roots_jacobi

from .errors import ConfigurationError
from .geometry import (
    ALPHA_CAP,
    INNER_RADIUS,
    MID_RADIUS,
    OUTER_RADIUS,
)

GAUSS_ORDER = 4
# One subcell per e-fold of weight variation keeps the per-subcell Gauss
# error near 1e-9 relative; the log-width term covers fractional alpha,
# whose power-law curvature stays high even where the variation is small.
# The cap only bites where the cell mass has already flushed to zero.
VARIATION_PER_SUBCELL = 1.0
LOG_WIDTH_PER_SUBCELL = 0.3
MAX_SUBCELLS = 256
# weights below this are flushed to exactly 0
UNDERFLOW_FLOOR = 1e-300

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(GAUSS_ORDER)


def weight_eval(r, alpha: float):
    """| r - 2 |^alpha on [1, 3], flushed to 0 below the underflow floor.

    Raises ConfigurationError for alpha outside [0, ALPHA_CAP] and off
    the annulus. alpha = 0 gives identically 1, including at r = 2.
    """
    if not (0.0 <= alpha <= ALPHA_CAP):
        raise ConfigurationError(f"alpha must lie in [0, {ALPHA_CAP:g}], got {alpha!r}")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < INNER_RADIUS - 1e-12) or np.any(arr > OUTER_RADIUS + 1e-12):
        raise ConfigurationError("weight is defined on the annulus radii [1, 3] only")
    if alpha == 0.0:
        out = np.ones_like(arr)
        return float(out) if out.ndim == 0 else out
    d = np.abs(arr - MID_RADIUS)
    out = np.zeros_like(d)
    pos = d > 0.0
    out[pos] = np.exp(alpha * np.log(d[pos]))
    out[out < UNDERFLOW_FLOOR] = 0.0
    return float(out) if out.ndim == 0 else out


def _log(x: np.ndarray) -> np.ndarray:
    """math.log elementwise.

    numpy's vectorized log may differ from the C library's by an ulp, and
    the rules have always been built on math.log; keeping it makes a batch
    of cells reproduce the one-cell rules bit for bit.
    """
    return np.array([math.log(v) for v in x.tolist()], dtype=float)


def subdivision_count(a, b, alpha: float):
    """Subcells needed on [a, b]: one per e-fold of weight variation.

    psi changes by exp(alpha * |ln d(b) - ln d(a)|) across the cell
    (d = distance to r = 2); log-graded subcells hold that to one e-fold
    each, which a 4-point Gauss rule resolves to ~1e-9 relative. Cells
    with the cusp at an edge report the cap; radial_rule never sends
    those here (the Jacobi rule owns them). a and b may be arrays of
    cell edges, which gives an int array of counts.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    da = np.abs(np.atleast_1d(np.asarray(a, dtype=float)) - MID_RADIUS)
    db = np.abs(np.atleast_1d(np.asarray(b, dtype=float)) - MID_RADIUS)
    lo, hi = np.minimum(da, db), np.maximum(da, db)
    count = np.ones(lo.shape, dtype=int)
    if alpha != 0.0:
        count[:] = MAX_SUBCELLS
        off = lo != 0.0
        log_width = _log(hi[off] / lo[off])
        need = np.maximum(
            alpha * log_width / VARIATION_PER_SUBCELL,
            log_width / LOG_WIDTH_PER_SUBCELL,
        )
        count[off] = np.minimum(np.maximum(1, np.ceil(need)), MAX_SUBCELLS)
    return int(count[0]) if scalar else count


def _ragged_linspace(start, stop, num):
    """np.linspace(start[i], stop[i], num[i]) for every i, concatenated.

    The same operations as np.linspace, element by element, so each piece
    equals its own linspace bit for bit.
    """
    last = np.cumsum(num) - 1
    first = last - (num - 1)
    k = np.arange(last[-1] + 1, dtype=float) - np.repeat(first, num)
    step = (stop - start) / (num - 1)
    y = k * np.repeat(step, num)
    y += np.repeat(start, num)
    y[last] = stop
    return y, first, last


def _smooth_rule(a, b, nsub, alpha: float):
    """Gauss rules on nsub subcells of each cell [a_i, b_i], in cell order.

    Subcell edges are graded log-uniformly in the distance to the cusp,
    equalizing the weight variation each subcell absorbs; a cell of one
    subcell, or any cell at alpha = 0, is split uniformly.
    """
    graded = (nsub > 1) & (alpha != 0.0)
    start, stop = a.copy(), b.copy()
    start[graded] = _log(np.abs(a[graded] - MID_RADIUS))
    stop[graded] = _log(np.abs(b[graded] - MID_RADIUS))
    edges, first, last = _ragged_linspace(start, stop, nsub + 1)
    on = np.repeat(graded, nsub + 1)
    d_edges = np.exp(edges[on])
    inner = np.repeat(a < MID_RADIUS, nsub + 1)[on]
    edges[on] = np.where(inner, MID_RADIUS - d_edges, MID_RADIUS + d_edges)
    edges[first], edges[last] = a, b
    # consecutive edges of one cell bound a subcell
    sub = np.ones(len(edges) - 1, dtype=bool)
    sub[last[:-1]] = False
    mid = (0.5 * (edges[:-1] + edges[1:]))[sub]
    half = (0.5 * (edges[1:] - edges[:-1]))[sub]
    pts = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    wts = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return pts, wts


def _kink_rule(a: float, b: float, alpha: float, refine: int = 1):
    """Gauss-Jacobi dr-rule for a cell with the cusp of psi at one edge.

    The Jacobi rule integrates s^alpha q(s) exactly for polynomial q, so
    dividing s^alpha back out of its weights (in log space: the pieces
    overflow separately for alpha near the cap, their combination never
    does) yields dr-weights whose product with weight_eval restores the
    exact weighted rule. Callers keep the (points, dr-weights) contract.
    refine multiplies the point count for saturation checks.
    """
    h = b - a
    order = GAUSS_ORDER * max(int(refine), 1)
    x, w = roots_jacobi(order, 0.0, alpha)  # weight (1+x)^alpha
    s = 0.5 * h * (1.0 + x)  # distance to the cusp, in (0, h)
    logw = (alpha + 1.0) * math.log(0.5 * h) + np.log(w) - alpha * np.log(s)
    wts = np.exp(logw)
    pts = MID_RADIUS + s if a == MID_RADIUS else MID_RADIUS - s
    return pts, wts


def radial_rule(a, b, alpha: float, refine: int = 1):
    """Gauss points and dr-weights on [a, b], adapted to the weight.

    Cells touching r = 2 use the Jacobi rule; straddling cells split
    there first. refine raises the rule order (cusp cells) or multiplies
    the subcell count (smooth cells) for quadrature-saturation checks.
    a and b may be arrays of cell edges: the result is then every cell's
    rule, concatenated in cell order, each equal bit for bit to the rule
    of that cell alone.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    empty = ~(b > a)
    if np.any(empty):
        k = int(np.argmax(empty))
        raise ConfigurationError(f"empty radial cell [{a[k]!r}, {b[k]!r}]")
    refine = max(int(refine), 1)
    # a cell straddling the cusp becomes the two pieces either side of it
    pieces = 1 + ((a < MID_RADIUS) & (MID_RADIUS < b))
    lo, hi = np.repeat(a, pieces), np.repeat(b, pieces)
    split = (np.cumsum(pieces) - 1)[pieces == 2]
    hi[split - 1] = MID_RADIUS
    lo[split] = MID_RADIUS
    kink = (alpha > 0.0) & ((lo == MID_RADIUS) | (hi == MID_RADIUS))
    smooth = ~kink
    nsub = subdivision_count(lo[smooth], hi[smooth], alpha) * refine
    sizes = np.full(len(lo), GAUSS_ORDER * refine)
    sizes[smooth] = GAUSS_ORDER * nsub
    ends = np.cumsum(sizes)
    pts, wts = np.empty(int(np.sum(sizes))), np.empty(int(np.sum(sizes)))
    if np.any(smooth):
        at = np.repeat(smooth, sizes)
        pts[at], wts[at] = _smooth_rule(lo[smooth], hi[smooth], nsub, alpha)
    for k in np.flatnonzero(kink):
        cut = slice(ends[k] - sizes[k], ends[k])
        pts[cut], wts[cut] = _kink_rule(lo[k], hi[k], alpha, refine)
    return pts, wts


def theta_rule(t0: float, t1: float, refine: int = 1):
    """Gauss points and dtheta-weights on [t0, t1] (integrand smooth)."""
    if not t1 > t0:
        raise ConfigurationError(f"empty angular cell [{t0!r}, {t1!r}]")
    nsub = max(int(refine), 1)
    edges = np.linspace(t0, t1, nsub + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    pts = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    wts = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return pts, wts
